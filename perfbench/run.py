"""The charcensus benchmark.

    python3 perfbench/run.py --workload census --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all        # every workload, one report

Run from the root of a source checkout; the package is imported from
``src/`` of that checkout, nothing is installed.  Load model: a closed
loop with one client.  This parent runs one child interpreter at a
time; each pass of a workload starts fresh interpreters, so the
module-level caches of the package are cold, as for every CLI user.

A run first starts PROBES interpreters that only import the package,
then repeats passes of the workload while the next pass is expected to
end within ``--seconds`` (at least one pass).  ``setup_s`` is the median
start-up over the probes and every untraced pass child, all of which
import ``charcensus.cli`` first.  Times are at the reference pace of
``pace.py``; the report prints raw seconds beside them.  With ``--trace 1`` the first pass is untraced and
the rest are traced; the per-layer metrics are medians over the traced
passes and ``trace.overhead_frac`` compares the two kinds.

Every output is checked (see ``checks.py``).  Human-readable lines come
first, with the machine facts and provenance; the last line of stdout
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is 0 whenever that line is printed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from checks import load_reference  # noqa: E402
from layers import OVERHEAD, PER_LAYER, layer_metrics  # noqa: E402
from stats import error_rate, median, tail_percentile  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

PROBES = 11
RUN_LIMIT_S = 170.0  # a run is abandoned, as failed, past this
SCRATCH = ROOT / ".perfbench-tmp"

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ops_per_s": "1/s",
}
OPS_NAME = {"census": "cells_per_s", "density": "samples_per_s",
            "zero-bounds": "t_rows_per_s", "cli": "commands_per_s"}


@dataclass
class ChildRun:
    """One finished child.  Times are at the reference pace (see pace.py)
    unless named raw."""

    code: int
    wall_s: float      # spawn to exit
    startup_s: float   # spawn to charcensus.cli imported
    raw_wall_s: float
    raw_startup_s: float
    stdout: bytes
    stderr: bytes
    result: dict | None
    label: str | None = None


class Harness:
    """Spawns children one at a time and keeps their resource totals."""

    def __init__(self, tmp: Path, deadline: float):
        self.tmp = tmp
        self.deadline = deadline
        self.count = 0
        self.peak_rss_kb = 0
        self.env = {k: v for k, v in os.environ.items()
                    if k not in ("CHARCENSUS_CACHE", "PYTHONPATH")}
        self.env.update(PYTHONPATH=str(SRC), PYTHONHASHSEED="0")

    def workdir(self) -> Path:
        self.count += 1
        path = self.tmp / f"work{self.count}"
        path.mkdir()
        return path

    def spawn(self, spec: dict, cwd: Path | None = None) -> ChildRun:
        if time.monotonic() >= self.deadline:
            return ChildRun(-1, 0.0, 0.0, 0.0, 0.0, b"", b"run time limit passed", None)
        self.count += 1
        base = self.tmp / f"child{self.count}"
        spec = dict(spec, result=str(base) + ".json")
        out_path, err_path = Path(str(base) + ".out"), Path(str(base) + ".err")
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t_spawn = time.monotonic()
            proc = subprocess.Popen(
                [sys.executable, str(HERE / "child.py"), json.dumps(spec)],
                cwd=cwd or ROOT, env=self.env, stdin=subprocess.DEVNULL,
                stdout=out, stderr=err)
            timer = threading.Timer(max(1.0, self.deadline - t_spawn), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            t_exit = time.monotonic()
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        result = None
        result_path = Path(spec["result"])
        if result_path.exists():
            try:
                result = json.loads(result_path.read_text())
            except ValueError:
                result = None
            result_path.unlink()
        stdout, stderr = out_path.read_bytes(), err_path.read_bytes()
        out_path.unlink()
        err_path.unlink()
        raw_wall = t_exit - t_spawn
        if result is None:
            return ChildRun(proc.returncode, raw_wall, raw_wall, raw_wall, raw_wall,
                            stdout, stderr, None)
        # the interpreter's own start runs before the child's sampler:
        # scale it by the first sample's rate
        startup = (result["first"] - t_spawn) * result["rate_first"] + result["setup_s"]
        # likewise the interpreter's exit, by the last sample's rate
        wall = startup + result["run_s"] + (t_exit - result["end"]) * result["rate_last"]
        return ChildRun(proc.returncode, wall, startup, raw_wall,
                        result["ready"] - t_spawn, stdout, stderr, result)


def machine_facts() -> dict:
    gil = getattr(sys, "_is_gil_enabled", lambda: True)()
    return {"cores": os.cpu_count(), "python": platform.python_version(),
            "gil": "on" if gil else "off", "commit": git_commit(),
            "loadavg": read_loadavg()}


def read_loadavg() -> str:
    try:
        return " ".join(Path("/proc/loadavg").read_text().split()[:3])
    except OSError:
        return "unavailable"


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "none (not a git checkout)"


def run_workload(name: str, seed: int, seconds: int, trace: bool, ref: dict) -> dict:
    workload = WORKLOADS[name]
    SCRATCH.mkdir(exist_ok=True)
    tmp = SCRATCH / f"run-{os.getpid()}-{name}"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir()
    t_begin = time.monotonic()
    h = Harness(tmp, t_begin + RUN_LIMIT_S)
    facts = machine_facts()
    try:
        probes = [h.spawn({"task": "probe"}) for _ in range(PROBES)]
        bad_probes = [p for p in probes if p.code != 0 or p.result is None]
        if bad_probes:
            sys.stderr.write(bad_probes[0].stderr.decode(errors="replace"))
            raise SystemExit(f"perfbench: the package does not import from {SRC}")
        t_work = time.monotonic()
        untraced, traced, durations = [], [], []
        while True:
            traced_now = trace and bool(untraced)
            t_pass = time.monotonic()
            one = workload.run_pass(h, traced_now, seed, ref)
            durations.append(time.monotonic() - t_pass)
            (traced if traced_now else untraced).append(one)
            if trace and not traced:
                continue
            now = time.monotonic()
            if now - t_work + median(durations) > seconds or now > h.deadline:
                break
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            SCRATCH.rmdir()
        except OSError:
            pass  # another run still uses it
    facts["loadavg_end"] = read_loadavg()
    return {"workload": workload, "seed": seed, "trace": trace, "facts": facts,
            "probes": probes, "untraced": untraced, "traced": traced,
            "peak_rss_kb": h.peak_rss_kb}


def summarize(run: dict) -> tuple[dict, dict]:
    """(result line, human report fields) of one workload run."""
    passes = run["untraced"] + run["traced"]
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    base = run["untraced"]
    walls = [p.wall_s for p in base]
    starts = run["probes"] + [c for p in base for c in p.children]
    metrics = {}
    if not run["trace"]:
        values = {
            "wall_s": median(walls),
            "setup_s": median([c.startup_s for c in starts]),
            "peak_rss_mb": run["peak_rss_kb"] / 1024.0,
            "ops_per_s": median([p.ops / p.wall_s if p.wall_s else 0.0 for p in base]),
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
    absent: set[str] = set()
    if run["trace"]:
        per_pass = [layer_metrics(p) for p in run["traced"]]
        for name, (unit, _, _) in PER_LAYER.items():
            metrics[name] = {"value": median([v[name] for v, _ in per_pass]),
                             "unit": unit}
        for _, missing in per_pass:
            absent |= missing
        base_wall = median(walls)
        overhead = median([p.wall_s for p in run["traced"]]) / base_wall - 1.0 \
            if base_wall else 0.0
        metrics[OVERHEAD[0]] = {"value": overhead, "unit": OVERHEAD[1]}
    line = {"correct": failed == 0 and attempted > 0, "attempted": max(attempted, 1),
            "failed": failed, "metrics": metrics}
    return line, {"walls": walls, "starts": starts, "absent": absent, "passes": passes}


def _number(value) -> str:
    """Counts in full, measurements to six digits."""
    return str(int(value)) if float(value).is_integer() else f"{value:.6g}"


def report(run: dict, line: dict, extra: dict) -> list[str]:
    w = run["workload"]
    facts = run["facts"]
    out = [f"== perfbench {w.name}: {w.why}",
           f"   seed {run['seed']} " + ("(drives the inputs)" if w.seeded else
                                         "(unused: the inputs are deterministic)")
           + f", trace {int(run['trace'])}, passes {len(run['untraced'])} untraced"
           f" + {len(run['traced'])} traced",
           f"   machine: cores {facts['cores']}, python {facts['python']}, "
           f"GIL {facts['gil']}, commit {facts['commit']}, "
           f"loadavg {facts['loadavg']} -> {facts['loadavg_end']}"]
    rate, base = error_rate(line["failed"], line["attempted"])
    out.append(f"   {'error_rate':36s} {rate:.6g} fraction "
               f"({line['failed']} failed of {base} attempted)")
    for name, m in line["metrics"].items():
        note = ""
        if name == "wall_s":
            raw = median([p.raw_s for p in run["untraced"]])
            note = f" (median of {len(extra['walls'])} passes; raw {raw:.6g} s)"
        elif name == "setup_s":
            raw = median([c.raw_startup_s for c in extra["starts"]])
            note = f" (median of {len(extra['starts'])} start-ups; raw {raw:.6g} s)"
        elif name in extra["absent"]:
            note = " (absent: a wrapped name no longer exists)"
        out.append(f"   {name:36s} {_number(m['value'])} {m['unit']}{note}")
    if not run["trace"]:
        ops = line["metrics"]["ops_per_s"]["value"]
        out.append(f"   {OPS_NAME[w.name]:36s} {ops:.6g} (= ops_per_s on this workload)")
        if w.name == "cli":
            lat = [c.wall_s * 1e3 for p in run["untraced"] for c in p.children]
            q, tail = tail_percentile(lat)
            tail_txt = f", p{q:g} {tail:.1f} ms" if q else ""
            out.append(f"   {'cmd_p50_ms':36s} {median(lat):.6g} ms "
                       f"(n={len(lat)} commands{tail_txt})")
    else:
        pairs = [ms for p in run["traced"] for c in p.children
                 for ms in ((c.result or {}).get("trace") or {}).get("pair_ms", [])]
        if pairs:
            q, tail = tail_percentile(pairs)
            out.append(f"   per-pair latency from wrapping the estimator's call "
                       f"(sampling._chi) and character_value: n={len(pairs)}"
                       + (f", tail p{q:g} {tail:.3f} ms" if q else ""))
        if extra["absent"]:
            out.append("   absent: " + ", ".join(sorted(extra["absent"])))
    for p in extra["passes"]:
        for problem in p.problems[:20]:
            out.append(f"   MISMATCH {problem}")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "charcensus" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no charcensus sources under {SRC}\n")
        return 2
    ref = load_reference()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    lines = {}
    for name in names:
        run = run_workload(name, args.seed, args.seconds, bool(args.trace), ref)
        line, extra = summarize(run)
        print("\n".join(report(run, line, extra)), flush=True)
        lines[name] = line
    if len(lines) == 1:
        final = lines[names[0]]
    else:
        final = {"correct": all(x["correct"] for x in lines.values()),
                 "attempted": sum(x["attempted"] for x in lines.values()),
                 "failed": sum(x["failed"] for x in lines.values()),
                 "metrics": {f"{n}.{k}": v for n, x in lines.items()
                             for k, v in x["metrics"].items()}}
    print(json.dumps(final), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
