"""The four workloads: what one pass runs, how its outputs are checked,
and what of it is recorded as the reference.

A pass is the unit a run repeats: every pass starts fresh interpreters,
so the module-level caches in ``charcensus.counting`` are cold, as they
are for every command-line user.  ``census`` and ``zero-bounds`` do not
use the seed; ``density`` and the density command of ``cli`` do.
"""

from __future__ import annotations

import json
import shutil
from dataclasses import dataclass, field

from checks import csv_cells, density_problems, mismatches

DEFAULT_SEED = 42
DENSITY_N = 40
DENSITY_SAMPLES = 24_000


@dataclass
class Pass:
    """One pass of a workload, checked."""

    wall_s: float          # time of the operations at the reference pace
    ops: int               # work items done (cells, samples, t rows, commands)
    attempted: int
    failed: int
    children: list         # ChildRun records, in spawn order
    problems: list[str] = field(default_factory=list)
    facts: dict = field(default_factory=dict)  # workload-specific extras
    output: object = None  # what make_reference records
    raw_s: float = 0.0     # wall_s in raw seconds


def _child_problem(run) -> str | None:
    if run.code != 0:
        return f"exit code {run.code}"
    if b"Traceback" in run.stderr:
        return "traceback on stderr"
    if run.result is None or "output" not in run.result:
        return "no result file"
    return None


class Census:
    name = "census"
    why = ("zero_count(N) for N = 14..20, the exact census with one memo per "
           "table; the mechanism workload for a column-wise table engine")
    seeded = False

    def run_pass(self, h, traced, seed, ref):
        run = h.spawn({"task": "census", "trace": traced})
        problem = _child_problem(run)
        expected = ref["census"] if ref else None
        if problem:
            n_ops = len(expected) if expected else 7
            return Pass(0.0, 0, n_ops, n_ops, [run], [f"census child: {problem}"])
        rows = run.result["output"]["rows"]
        failed, problems = 0, []
        for n, row in rows.items():
            bad = []
            if int(row["Z"]) < int(row["lower_bound"]):
                bad.append(f"Z({n}) < lower_bound_sum({n})")
            if expected is not None:
                bad += mismatches(row, expected.get(n), f"census[{n}]")
            if bad:
                failed += 1
                problems += bad
        if expected is not None and rows.keys() != expected.keys():
            problems.append("census: N range differs from the reference")
            failed += len(expected.keys() ^ rows.keys())
        cells = sum(int(row["p_N"]) ** 2 for row in rows.values())
        return Pass(run.result["op_s"], cells, len(rows) or 1, failed, [run],
                    problems, output=rows, raw_s=run.result["op_raw_s"])


class ZeroBounds:
    name = "zero-bounds"
    why = ("lower_bound_sum(1000), then c_t(1000) beside the saddle estimate and "
           "P32/T13 bounds for 6 <= t <= 1000, then T12 at 1000 and 10^5")
    seeded = False

    def run_pass(self, h, traced, seed, ref):
        run = h.spawn({"task": "zero-bounds", "trace": traced})
        problem = _child_problem(run)
        expected = ref["zero-bounds"] if ref else None
        n_ops = 2 + 995 + 2  # lower bound, c_t digest, t rows, two T12 values
        if problem:
            return Pass(0.0, 0, n_ops, n_ops, [run], [f"zero-bounds child: {problem}"])
        out = run.result["output"]
        rows = len(out["estimate_log"])
        attempted = 2 + rows + len(out["t12"])
        failed, problems = 0, []
        if expected is not None:
            for key in ("N", "lower_bound", "c_t_sha256"):
                bad = mismatches(out[key], expected[key], key)
                failed += bool(bad)
                problems += bad
            for i in range(max(rows, len(expected["estimate_log"]))):
                bad = []
                for key in ("estimate_log", "core", "strip"):
                    a = out[key][i] if i < len(out[key]) else "missing"
                    e = expected[key][i] if i < len(expected[key]) else "missing"
                    bad += mismatches(a, e, f"{key}[t={i + 6}]")
                failed += bool(bad)
                problems += bad
            for m, value in expected["t12"].items():
                bad = mismatches(out["t12"].get(m), value, f"t12[{m}]")
                failed += bool(bad)
                problems += bad
        return Pass(run.result["op_s"], rows, attempted, min(failed, attempted),
                    [run], problems, output=out, raw_s=run.result["op_raw_s"])


class Density:
    name = "density"
    why = (f"estimate_zero_density({DENSITY_N}, {DENSITY_SAMPLES}, seed): single "
           "character values on uniform random pairs with a growing memo")
    seeded = True

    def run_pass(self, h, traced, seed, ref):
        spec = {"task": "density", "trace": traced, "n": DENSITY_N,
                "samples": DENSITY_SAMPLES, "seed": seed}
        run = h.spawn(spec)
        problem = _child_problem(run)
        if problem:
            return Pass(0.0, 0, DENSITY_SAMPLES, DENSITY_SAMPLES, [run],
                        [f"density child: {problem}"])
        report = run.result["output"]["report"]
        problems = []
        if ref:
            expected = ref["density"]
            problems = density_problems(
                report, expected["point_estimate"], expected["samples"],
                expected if seed == DEFAULT_SEED else None)
        evaluated = report["samples"] - report["failures"]
        failed = report["failures"]
        if problems and failed == 0:
            failed = report["samples"]  # a wrong report spoils every sample
        return Pass(run.result["op_s"], evaluated, report["samples"], failed,
                    [run], problems, {"reports": [report]}, report,
                    run.result["op_raw_s"])


def cli_commands(seed: int) -> list[tuple[str, list[str], int]]:
    """(id, argv, expected exit code): the README command list with its
    optional flags, plus a large bounded count and one guard refusal."""
    j = ["--format", "json"]
    return [
        ("count-p", ["count", "p", "--n", "100"] + j, 0),
        ("count-pt", ["count", "pt", "--t", "153", "--n", "2500"] + j, 0),
        ("count-pt-2000", ["count", "pt", "--t", "2000", "--n", "2000"] + j, 0),
        ("count-core", ["count", "core", "--t", "5", "--n", "7"] + j, 0),
        ("count-core-brute", ["count", "core", "--t", "5", "--n", "7", "--brute"] + j, 0),
        ("char-eval", ["char", "eval", "--lambda", "[4,2,1]", "--mu", "[5,2]"] + j, 0),
        ("char-table", ["char", "table", "--n", "8", "--out", "table.csv"], 0),
        ("zeros-exact", ["zeros", "exact", "--n", "12"] + j, 0),
        ("zeros-lower-bound", ["zeros", "lower-bound", "--n", "12"] + j, 0),
        ("zeros-lower-bound-range",
         ["zeros", "lower-bound", "--n", "12", "--t-lo", "3", "--t-hi", "7"] + j, 0),
        ("bounds-t12", ["bounds", "t12", "--n", "100"] + j, 0),
        ("bounds-t13", ["bounds", "t13", "--n", "2000", "--t", "10",
                        "--epsilon", "0.5"] + j, 0),
        ("bounds-p32", ["bounds", "p32", "--n", "1000", "--t", "900"] + j, 0),
        ("bounds-p32-regime", ["bounds", "p32", "--n", "1000", "--t", "900",
                               "--regime", "P32_III"] + j, 0),
        ("bounds-saddle", ["bounds", "saddle", "--n", "100", "--t", "10",
                           "--tol", "1e-9"] + j, 0),
        ("estimate-density", ["estimate", "density", "--n", "12", "--samples", "100000",
                              "--seed", str(seed)] + j, 0),
        ("sweep", ["sweep", "--n-list", "1-14", "--out", "sweep.csv"], 0),
        ("refused", ["zeros", "exact", "--n", "21"] + j, 3),
    ]


def _out_file(argv):
    return argv[argv.index("--out") + 1] if "--out" in argv else None


def _parse_cli(run, argv, workdir):
    """The command's result: the JSON result object, the CSV cells of its
    --out file, or the JSON error object of a refusal."""
    if run.code == 3:
        lines = run.stderr.decode().strip().splitlines()
        if len(lines) != 1 or run.stdout:
            raise ValueError("a refusal must print exactly one JSON line on stderr")
        return json.loads(lines[0])
    out = _out_file(argv)
    if out:
        return csv_cells((workdir / out).read_text())
    return json.loads(run.stdout)["result"]


def _cache_bytes(workdir, out_names) -> int:
    return sum(p.stat().st_size for p in workdir.rglob("*")
               if p.is_file() and p.name not in out_names)


class Cli:
    name = "cli"
    why = ("the README commands as separate processes, once with an empty cache "
           "directory and once reusing it; start-up, cache writes and reads, sampler")
    seeded = True

    def run_pass(self, h, traced, seed, ref):
        commands = cli_commands(seed)
        out_names = {_out_file(argv) for _, argv, _ in commands} - {None}
        expected = ref["cli"] if ref else None
        workdir = h.workdir()
        results = {"cold": {}, "warm": {}}
        children, failed, problems = [], 0, []
        facts = {"cmd_ms": {}, "stdout_bytes": 0, "reports": []}

        def check(run, phase, cid, argv, want) -> list[str]:
            if run.code != want:
                return [f"exit code {run.code}, expected {want}"]
            if b"Traceback" in run.stderr:
                return ["traceback on stderr"]
            try:
                result = _parse_cli(run, argv, workdir)
            except (ValueError, KeyError, TypeError, OSError) as exc:
                return [f"unreadable output: {exc}"]
            results[phase][cid] = result
            if phase == "warm" and result != results["cold"].get(cid):
                return ["warm result differs from the cold result"]
            if want == 3:
                ok = isinstance(result, dict) and result.get("error", {}).get("code") == 3
                return [] if ok else ["refusal without an exit-3 error object"]
            if expected is None:
                return []
            if cid == "estimate-density":
                facts["reports"].append(result)
                census = expected["zeros-exact"]
                exact = int(census["Z"]) / int(census["p_N"]) ** 2
                same = expected[cid] if seed == DEFAULT_SEED else None
                return density_problems(result, exact, 0, same)
            return mismatches(result, expected.get(cid), cid)

        try:
            for phase in ("cold", "warm"):
                for cid, argv, want in commands:
                    run = h.spawn({"task": "cli", "argv": argv, "trace": traced},
                                  cwd=workdir)
                    run.label = cid
                    children.append(run)
                    facts["cmd_ms"][f"{phase}:{cid}"] = run.wall_s * 1e3
                    facts["stdout_bytes"] += len(run.stdout)
                    bad = check(run, phase, cid, argv, want)
                    if bad:
                        failed += 1
                        problems += [f"{phase} {cid}: {b}" for b in bad]
                if phase == "cold":
                    facts["cache_bytes"] = _cache_bytes(workdir, out_names)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        return Pass(sum(r.wall_s for r in children), len(children), 2 * len(commands),
                    failed, children, problems, facts, results["cold"],
                    sum(r.raw_wall_s for r in children))


WORKLOADS = {w.name: w for w in (Census(), ZeroBounds(), Density(), Cli())}
