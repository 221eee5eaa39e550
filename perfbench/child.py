"""One benchmark child: a fresh interpreter that runs one task.

Usage (from the parent, never by hand):
    python3 perfbench/child.py '<spec json>'

The spec names the task, the result file and, for traced runs,
``"trace": true``.  The child starts its pace sampler (see ``pace.py``),
imports ``charcensus.cli`` (which pulls in every layer) and notes when
the import finished; the parent subtracts its spawn time to get the
start-up cost.  Untraced tasks call only public entry points.  ``cli``
tasks run ``charcensus.cli.main`` exactly as the console script does,
with the child's stdout, stderr, exit code and working directory being
the command's own.
"""

import sys
import time

FIRST = time.monotonic()

from pace import Pace  # noqa: E402

PACE = Pace()
PACE.start()

import charcensus.cli  # noqa: E402

READY = time.monotonic()

import hashlib  # noqa: E402
import json  # noqa: E402
from pathlib import Path  # noqa: E402

import charcensus  # noqa: E402
from charcensus.errors import GuardError, NumericError  # noqa: E402

CENSUS_NS = tuple(range(14, 21))
BOUNDS_N = 1000
P_LIMIT_N = 100_000


def census(spec, tracer):
    rows = {}
    for i, n in enumerate(CENSUS_NS):
        if tracer:
            tracer.current_op = i
        rows[str(n)] = charcensus.zero_count(n).to_json_dict()
    return {"rows": rows}


def census_check(output, tracer):
    """Outside the timed region: the guaranteed-zero sum each census
    must beat."""
    if tracer:
        tracer.current_op = -1
    for n, row in output["rows"].items():
        row["lower_bound"] = str(charcensus.lower_bound_sum(int(n)))


def _bound(fn, n, t):
    try:
        report = fn(n, t)
    except GuardError:
        return None
    return [report.regime, report.bound.log]


def zero_bounds(spec, tracer):
    n = BOUNDS_N
    lower = charcensus.lower_bound_sum(n)
    digest = hashlib.sha256()
    estimate, core, strip = [], [], []
    for t in range(6, n + 1):
        if tracer:
            tracer.current_op = t
        digest.update(f"{t}:{charcensus.tcore_count(t, n)};".encode())
        try:
            estimate.append(charcensus.tcore_count_estimate(n, t).log)
        except (GuardError, NumericError) as exc:
            estimate.append(type(exc).__name__)
        core.append(_bound(charcensus.core_count_bound, n, t))
        strip.append(_bound(charcensus.strip_zero_bound, n, t))
    t12 = {}
    for m in (n, P_LIMIT_N):
        report = charcensus.full_table_bound(m)
        t12[str(m)] = [report.bound.log, report.p_source]
    return {"N": n, "lower_bound": str(lower), "c_t_sha256": digest.hexdigest(),
            "estimate_log": estimate, "core": core, "strip": strip, "t12": t12}


def density(spec, tracer):
    est = charcensus.estimate_zero_density(spec["n"], spec["samples"], spec["seed"])
    return {"report": est.to_json_dict()}


TASKS = {"census": census, "zero-bounds": zero_bounds, "density": density}
CHECKS = {"census": census_check}


def main() -> int:
    spec = json.loads(sys.argv[1])
    tracer = None
    if spec.get("trace"):
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    out = {"first": FIRST, "ready": READY}
    code = 0
    try:
        task = spec["task"]
        if task == "cli":
            code = charcensus.cli.main(spec["argv"])
        elif task != "probe":
            t0 = time.monotonic()
            output = TASKS[task](spec, tracer)
            t1 = time.monotonic()
            out["op_raw_s"] = t1 - t0
            out["op_s"] = PACE.normalized(t0, t1)
            if task in CHECKS:
                CHECKS[task](output, tracer)
            out["output"] = output
    finally:
        out["end"] = time.monotonic()
        PACE.stop()
        n = len(PACE.unit)
        out.update(setup_s=PACE.normalized(FIRST, READY),
                   run_s=PACE.normalized(READY, out["end"]),
                   rate_first=PACE.rate(0), rate_last=PACE.rate(n - 1), samples=n)
        if tracer:
            out["trace"] = tracer.summary()
        Path(spec["result"]).write_text(json.dumps(out))
    return code


if __name__ == "__main__":
    sys.exit(main())
