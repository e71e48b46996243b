"""Show that every correctness check of the benchmark can fail.

    python3 perfbench/selfcheck.py

Runs one round of `grid_sweep` and of `long_baselines`, confirms their
checks pass on the real outputs, then feeds each check a perturbed copy (an
optimum off by 1e-5, a utility 2% high, one conversion too many, ...) and
confirms it fails.  `wide_market` uses the same check functions as
`grid_sweep`.  Exits 1 if any check passes a perturbed value.
"""

import copy
import os
import sys
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("SPACING_SEED", None)

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402


def _perturbed(ops, algorithm, **changes):
    """Copy of ops with the first run of `algorithm` changed; each change is
    a function of the old value."""
    out = copy.deepcopy(ops)
    op = next(o for o in out if o.algorithm == algorithm)
    for key, fn in changes.items():
        op.run[key] = fn(op.run[key])
    if "utility_true" in changes:
        # baselines account exactly what they earn; keep that invariant so
        # only the check under test can object
        op.run["utility_accounted"] = min(op.run["utility_accounted"], op.run["utility_true"])
    return out


def main() -> int:
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    bad = 0

    def expect(label, fn, should_fail):
        nonlocal bad
        try:
            fn()
            failed, detail = False, ""
        except checks.CheckError as exc:
            failed, detail = True, str(exc)
        ok = failed == should_fail
        bad += not ok
        verdict = "fails" if failed else "passes"
        print(f"{'ok  ' if ok else 'BAD '} {label}: check {verdict}"
              + (f" ({detail})" if detail else ""))

    grid = workloads.GridSweep(seed=1, out_dir=out_dir, workers=len(os.sched_getaffinity(0)))
    ops = grid.run_round(0)
    opt = next(iter(grid.opts))
    for op in ops:
        if op.algorithm in grid.WINDOWS:
            print(f"     {op.algorithm} seed {op.seed}: utility per round "
                  f"{op.run['utility_true'] / op.run['T'] / opt:.4f} of the optimum")
    expect("grid_sweep outputs", lambda: grid.check(ops), False)

    true_opts = grid.opts
    grid.opts = {opt + 1e-5}
    expect("reference optimum off by 1e-5", lambda: grid.check(ops), True)
    grid.opts = true_opts
    for label, algorithm, changes in [
        ("fkors utility 20% low", "fkors", {"utility_true": lambda u: 0.8 * u}),
        ("fkors utility above the optimum", "fkors", {"utility_true": lambda u: 1.05 * u}),
        ("static_opt utility 20% low", "static_opt", {"utility_true": lambda u: 0.8 * u}),
        ("spend above rho*T", "static_opt", {"spend": lambda s: 0.2 * 8000 + 0.01}),
        ("utility_accounted above utility_true", "fkors",
         {"utility_accounted": lambda _: float("inf")}),
        ("always_one with one conversion too many", "always_one", {"conversions": lambda c: c + 1}),
        ("fixed_interval:4 with one conversion too many", "fixed_interval:4",
         {"conversions": lambda c: c + 1}),
        ("fixed_interval:4 utility 2% high", "fixed_interval:4",
         {"utility_true": lambda u: 1.02 * u}),
    ]:
        bent = _perturbed(ops, algorithm, **changes)
        expect(label, lambda bent=bent: grid.check(bent), True)

    long = workloads.LongBaselines(seed=1, out_dir=out_dir, workers=1)
    ops = long.run_round(0)
    expect("long_baselines outputs", lambda: long.check(ops), False)
    for label, algorithm, changes in [
        ("fixed bid utility 2% high", "fixed_bid", {"utility_true": lambda u: 1.02 * u}),
        ("fixed bid utility 2% low", "fixed_bid", {"utility_true": lambda u: 0.98 * u}),
        ("fixed interval with one conversion too many", "fixed_interval",
         {"conversions": lambda c: c + 1}),
        ("fixed interval stopping with budget left", "fixed_interval",
         {"conversions": lambda c: c - 1, "wins": lambda w: w - 1,
          "utility_true": lambda u: u - 5 ** 0.5, "spend": lambda s: s - 2.0}),
    ]:
        bent = _perturbed(ops, algorithm, **changes)
        expect(label, lambda bent=bent: long.check(bent), True)

    expect("cold solves counted equal", lambda: checks.check_cold_solve_count(56, 56), False)
    expect("one cold solve missing", lambda: checks.check_cold_solve_count(56, 57), True)
    expect("draws match the consumption order",
           lambda: checks.check_rng_draws(1500, 1000, 300, 200), False)
    expect("one draw too many", lambda: checks.check_rng_draws(1501, 1000, 300, 200), True)

    print("selfcheck:", "all checks behave" if not bad else f"{bad} checks misbehave")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
