"""Record the reference outputs that every benchmark run is checked
against, by running one unchecked pass of each workload at the default
seed:

    python3 perfbench/make_reference.py

Run it only on a commit whose outputs are trusted (the values were
recorded at the commit that introduced the benchmark); a later change
that alters an output on purpose re-records and says why.
"""

from __future__ import annotations

import json
import shutil
import sys
import time

import run
from checks import REFERENCE_PATH
from workloads import DEFAULT_SEED, WORKLOADS


def main() -> int:
    reference = {"seed": DEFAULT_SEED}
    run.SCRATCH.mkdir(exist_ok=True)
    tmp = run.SCRATCH / "reference"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir()
    try:
        h = run.Harness(tmp, time.monotonic() + 3600)
        for name, workload in WORKLOADS.items():
            one = workload.run_pass(h, False, DEFAULT_SEED, None)
            if one.failed:
                print(f"{name}: {one.problems}", file=sys.stderr)
                return 1
            reference[name] = one.output
            print(f"{name}: recorded from one pass of {one.wall_s:.2f} s", flush=True)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    REFERENCE_PATH.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
