"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload grid_sweep --seed 1 --seconds 20 --trace 0

Run from the repository root; the package is imported from ./src.  With
--trace 0 the end-to-end metrics are printed, with --trace 1 the per-layer
ones.  See perfbench/README.md for the workloads and metrics.
"""

import os
import sys
import time

_T0 = time.perf_counter()
_BOOT0 = time.clock_gettime(time.CLOCK_BOOTTIME)

# One BLAS thread per process, fixed before numpy loads: OpenBLAS otherwise
# starts one thread per core in every pool worker of the sweep.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
# the package lets this variable override the sweep's base seed
os.environ.pop("SPACING_SEED", None)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
# no round starts that would, at the first round's pace, end later than this
# many seconds after the process began, so a run ends well within 3 minutes
ROUND_DEADLINE_S = 100.0


def _process_age() -> float:
    """Seconds from the process's start to _BOOT0; 0 when /proc is missing."""
    try:
        fields = Path("/proc/self/stat").read_text().rsplit(")", 1)[1].split()
        started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
    except (OSError, ValueError, IndexError):
        return 0.0
    return max(0.0, _BOOT0 - started)


def _environment(workers: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": workers,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "machine": platform.machine(),
    }


def _peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest of its finished children
    (Linux reports ru_maxrss in KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "spacing_auctions" / "__init__.py").is_file():
        print(f"run.py: no package source at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import checks
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"run.py: unknown workload {args.workload!r}; "
              f"known: {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workers = len(os.sched_getaffinity(0))
    OUT.mkdir(exist_ok=True)

    # set-up: imports above, the workload's inputs, one small solve
    workload = workloads.WORKLOADS[args.workload](args.seed, OUT, workers)
    workloads.warm_up()
    setup_s = _process_age() + time.perf_counter() - _T0

    ops: list = []
    tracer = None
    untraced_round_s = None
    if args.trace:
        # the same first round untraced, as the base of the tracing overhead
        t = time.perf_counter()
        ops += workload.run_round(0)
        untraced_round_s = time.perf_counter() - t
        tracer = tracing.Tracer(OUT)
        tracer.install()

    start = time.perf_counter()
    round_s: list[float] = []
    while not round_s or (
        time.perf_counter() - start < args.seconds
        and time.perf_counter() - _T0 + round_s[0] < ROUND_DEADLINE_S
    ):
        t = time.perf_counter()
        ops += workload.run_round(len(round_s))
        round_s.append(time.perf_counter() - t)
        if tracer is not None:
            tracer.collect_workers()
    if tracer is not None:
        tracer.uninstall()

    done = [op for op in ops if op.run is not None]
    problems = []
    notes = {}
    try:
        notes = workload.check(done)
    except checks.CheckError as exc:
        problems.append(str(exc))

    if tracer is None:
        seconds = sum(op.seconds for op in done)
        simulated = sum(op.rounds for op in done)
        metrics = {
            "setup_s": _metric(setup_s, "s"),
            "rounds_per_s": _metric(simulated / seconds if seconds else 0.0, "rounds/s"),
            "utility_per_round": _metric(
                sum(op.run["utility_true"] for op in done) / simulated if simulated else 0.0,
                "reward/round"),
            "peak_rss_mb": _metric(_peak_rss_mb(), "MB"),
        }
    else:
        try:
            tracing.cross_check(tracer)
        except checks.CheckError as exc:
            problems.append(str(exc))
        layers = tracing.layer_metrics(tracer, workers)
        layers["trace.overhead_ratio"] = round_s[0] / untraced_round_s
        metrics = {name: _metric(float(v), tracing.UNITS[name]) for name, v in layers.items()}
        tracer.write(OUT / f"trace-{args.workload}-{args.seed}.json")

    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": len(ops),
        "failed": len(ops) - len(done),
        "metrics": metrics,
    }
    info = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "round_seconds": round_s, **notes, "environment": _environment(workers)}
    (OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**info, **result}, indent=1) + "\n")
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
