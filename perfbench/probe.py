"""Set-up probe: one fresh-process import of capricep plus the warm-up call.

    python3 perfbench/probe.py WORKLOAD SEED WORK_DIR

Started by run.py with the same environment as the measured process;
prints {"setup_s": seconds} as its last line.  Writing the workload's
inputs is benchmark work and is not counted.
"""
import json
import sys
import time
from pathlib import Path

t0 = time.perf_counter()
import capricep.cli  # noqa: E402  (the import is what is timed)
t_import = time.perf_counter() - t0

from workloads import WORKLOADS, Ops  # noqa: E402


def main() -> int:
    workload, seed, work_dir = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    wl = WORKLOADS[workload](seed, work_dir)
    wl.prepare()
    ops = Ops()
    t1 = time.perf_counter()
    wl.warm_up(ops)
    warm = time.perf_counter() - t1
    if ops.failed:
        print("error: warm-up operation failed", file=sys.stderr)
        return 1
    print(json.dumps({"setup_s": t_import + warm, "import_s": t_import, "warm_up_s": warm}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
