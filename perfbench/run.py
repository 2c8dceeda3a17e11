"""Run one capricep benchmark workload and print its metrics.

    python3 perfbench/run.py --workload measure --seed 0 --seconds 50 --trace 0

Run from the root of a source checkout (the program is imported from
``src/``).  One process runs back-to-back passes of the workload (a
closed loop) until ``--seconds`` have elapsed, checks the outputs, and
prints a table followed by one JSON line:

  --trace 0  end-to-end metrics: setup_s, wall_s, peak_rss_mb
  --trace 1  per-layer metrics from traced passes, interleaved with
             untraced passes that give the tracing overhead

Result files go to perfbench/_results/, scratch output to
perfbench/_work/ (removed at exit).  See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# One BLAS/OpenMP thread (<= nproc): a second OpenBLAS thread only
# spins here (augment: CPU/wall 1.8-1.96 at 2 threads, no faster).
NPROC = len(os.sched_getaffinity(0))
THREAD_CAP = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

# Fresh processes timed per run for setup_s; the median is reported.
# They run between passes, spread over the run: the host's speed drifts
# over tens of seconds, and probes taken back to back all see one moment.
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 120

# numpy, capricep and the benchmark modules (workloads, spans) are
# imported only inside functions, after main() has set the thread caps
# and sys.path.


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=("measure", "augment"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def setup_probe(workload: str, seed: int, work_dir: Path) -> float:
    """Time one fresh-process import of capricep plus the warm-up call."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "probe.py"), workload, str(seed), str(work_dir)],
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, cwd=ROOT)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"set-up probe exited with code {proc.returncode}")
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def environment() -> dict:
    import numpy
    import scipy
    return {
        "nproc": NPROC,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "thread_caps": {v: os.environ[v] for v in THREAD_VARS},
    }


def run_passes(wl, ops, seconds: float, trace: bool, probe):
    """Closed loop of whole passes; with tracing, odd passes are traced.

    ``probe(i)`` times set-up probe i; probe i runs before the first pass
    that starts after i / SETUP_PROBES of the run.  Returns the passes
    and the probe times.
    """
    from spans import Tracer, installed, layer_values

    passes, setups = [], []
    start = time.perf_counter()
    while len(passes) < (2 if trace else 1) or time.perf_counter() - start < seconds:
        if (len(setups) < SETUP_PROBES
                and time.perf_counter() - start >= seconds * len(setups) / SETUP_PROBES):
            setups.append(probe(len(setups)))
            continue
        tracer = Tracer() if trace and len(passes) % 2 == 1 else None
        ops.tracer = tracer
        t0 = time.perf_counter()
        with installed(tracer) if tracer else nullcontext():
            op_values = wl.run_pass(ops)
        wall = time.perf_counter() - t0
        ops.tracer = None
        passes.append({
            "wall_s": wall,
            "traced": tracer is not None,
            "ops": op_values,
            "fingerprint": wl.fingerprint() if op_values is not None else None,
            "layers": layer_values(tracer.totals()) if tracer else None,
            "spans": tracer.spans if tracer else None,
        })
    while len(setups) < SETUP_PROBES:  # a run shorter than its passes
        setups.append(probe(len(setups)))
    return passes, setups


def summarize(passes, setup_s: float, peak_rss_mb: float, trace: bool) -> dict:
    from spans import LAYER_METRICS

    plain = [p for p in passes if not p["traced"]]
    if not trace:
        return {
            "setup_s": (setup_s, "s"),
            "wall_s": (statistics.median(p["wall_s"] for p in plain), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    traced = [p for p in passes if p["traced"]]
    metrics = {}
    for name, (unit, _, _) in LAYER_METRICS.items():
        values = [p["layers"][name] for p in traced]
        # Counts repeat exactly; median_low keeps them whole numbers.
        median = statistics.median_low if unit == "count" else statistics.median
        metrics[name] = (median(values), unit)
    from workloads import WORKLOADS
    for cls in WORKLOADS.values():
        for name, unit in cls.op_metrics.items():
            values = [p["ops"][name] for p in traced if p["ops"] and name in p["ops"]]
            metrics[name] = (statistics.median(values) if values else 0.0, unit)
    overhead = (statistics.median(p["wall_s"] for p in traced)
                / statistics.median(p["wall_s"] for p in plain) - 1.0) * 100.0
    metrics["trace.overhead_pct"] = (overhead, "%")
    return metrics


def op_summary(wl, passes) -> dict:
    """Median op-level figures over the untraced passes."""
    plain = [p["ops"] for p in passes if not p["traced"] and p["ops"]]
    return {name: (statistics.median(o[name] for o in plain), unit)
            for name, unit in wl.op_metrics.items()} if plain else {}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "capricep" / "__init__.py").is_file():
        print(f"error: no capricep sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = str(THREAD_CAP)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])
    sys.path.insert(0, str(SRC))

    work = HERE / "_work" / f"{args.workload}-{os.getpid()}"
    try:
        from workloads import WORKLOADS, Ops
        wl = WORKLOADS[args.workload](args.seed, work / "main")
        wl.prepare()
        warm = Ops()
        wl.warm_up(warm)
        if warm.failed:
            print("error: warm-up operation failed", file=sys.stderr)
            return 1

        ops = Ops()
        passes, setups = run_passes(
            wl, ops, args.seconds, bool(args.trace),
            lambda i: setup_probe(args.workload, args.seed, work / f"probe{i}"))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        fingerprints = {p["fingerprint"] for p in passes if p["fingerprint"]}
        if passes[-1]["ops"] is None:
            checks = [("last_pass_completed", False, "no outputs to check")]
        else:
            try:
                checks = [(name, bool(ok), detail) for name, ok, detail in wl.check()]
            except Exception as exc:  # a missing or malformed output fails the run
                checks = [("outputs_readable", False, repr(exc))]
        checks.append(("outputs_identical_on_every_pass", len(fingerprints) == 1,
                       f"{len(fingerprints)} distinct"))
        correct = all(ok for _, ok, _ in checks)

        metrics = summarize(passes, statistics.median(setups), peak_rss_mb,
                            bool(args.trace))
        op_figures = op_summary(wl, passes)
        env = environment()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"# workload={args.workload} seed={args.seed} trace={args.trace} "
          f"passes={len(passes)} (traced {sum(p['traced'] for p in passes)}) "
          + " ".join(f"{k}={v}" for k, v in env.items() if k != "thread_caps"))
    print("# thread caps: " + " ".join(f"{k}={v}" for k, v in env["thread_caps"].items()))
    print(f"# setup probes (s): {' '.join(f'{s:.4f}' for s in setups)}")
    for name, ok, detail in checks:
        print(f"# check {'PASS' if ok else 'FAIL'} {name} {detail}")
    shown = dict(metrics)
    if not args.trace:
        shown.update(op_figures)
    for name, (value, unit) in shown.items():
        print(f"{args.workload:9s} {name:32s} {value:14.6f} {unit}")
    if args.trace:
        layers = [p["layers"] for p in passes if p["traced"]]
        wall = statistics.median(p["wall_s"] for p in passes if p["traced"])
        phase = statistics.median(x["allpass.cascade_phase_s"] for x in layers)
        synthesis = statistics.median(
            sum(x[k] for k in ("allpass.cascade_phase_s", "allpass.impulse_response_s",
                               "design.draw_sections_s", "design.generate_unit_s"))
            for x in layers)
        print(f"# cascade_phase share: {100.0 * phase / wall:.1f}% of traced pass wall, "
              f"{100.0 * phase / synthesis if synthesis else 0.0:.1f}% of unit synthesis")

    result = {
        "correct": correct,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    out_dir = HERE / "_results"
    out_dir.mkdir(exist_ok=True)
    record = dict(result, workload=args.workload, seed=args.seed, trace=args.trace,
                  seconds=args.seconds, environment=env, setup_probes_s=setups,
                  checks=[list(c) for c in checks], passes=passes,
                  op_metrics={k: v for k, (v, _) in op_figures.items()})
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
