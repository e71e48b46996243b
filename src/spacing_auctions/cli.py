"""Command-line interface.

Subcommands: bench, simulate, warmup-curve, regret-sweep, validate.
All outputs are CSV with a header row; scalars are emitted as '#'-prefixed
comment lines so files stay machine-readable.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .baselines import warmup_ratio
from .benchmark import solve_benchmark
from .harness import (
    load_config,
    reference_m,
    reference_opt,
    run_experiment,
    validate_suite,
    SUMMARY_HEADER,
)
from .market import mean_conversion, win_pay_mu


def _fmt(x: float) -> str:
    return repr(float(x))


def cmd_bench(args) -> int:
    cfg = load_config(args.config)
    c_bar = mean_conversion(cfg.market)
    m = cfg.m if cfg.m is not None else reference_m(cfg.T, cfg.rho, c_bar)
    res = solve_benchmark(cfg.market, cfg.reward, m=m, rho=cfg.rho, bid1_at_m=args.bid1_at_m)
    print(f"# m={m} rho={_fmt(cfg.rho)}")
    print(f"# opt_value={_fmt(res.opt_value)}")
    print(f"# avg_payment={_fmt(res.avg_payment)}")
    print(f"# slack={_fmt(res.slack)}")
    print("state,mu,weight,win_prob,pay")
    for state, mix in enumerate(res.policy.states, start=1):
        for mu, weight in mix:
            w, p = win_pay_mu(cfg.market, mu)
            print(f"{state},{_fmt(mu)},{_fmt(weight)},{_fmt(w)},{_fmt(p)}")
    return 0


def cmd_simulate(args) -> int:
    cfg = load_config(args.config)
    rows = run_experiment(
        cfg, args.out, trace=args.trace, workers=args.workers
    )
    print(SUMMARY_HEADER)
    for row in rows:
        print(row)
    print(f"# wrote {Path(args.out) / 'summary.csv'}", file=sys.stderr)
    return 0


def cmd_warmup_curve(args) -> int:
    if not 0.0 < args.rho_min <= args.rho_max <= 0.25:
        raise SystemExit("need 0 < rho-min <= rho-max <= 0.25")
    print("rho,ratio")
    for i in range(args.points):
        if args.points == 1:
            rho = args.rho_min
        else:
            rho = args.rho_min + (args.rho_max - args.rho_min) * i / (args.points - 1)
        print(f"{_fmt(rho)},{_fmt(warmup_ratio(rho))}")
    return 0


def cmd_regret_sweep(args) -> int:
    t_list = [int(t) for t in args.t_list.split(",")]
    base = load_config(args.config)
    print("T,algorithm,mean_regret,mean_utility_true,opt_per_round,regret_per_sqrt_T")
    for T in t_list:
        doc = dict(base.raw)
        doc["T"] = T
        cfg = load_config(doc)
        opt = reference_opt(cfg.market, cfg.reward, cfg.rho, T, cfg.m_ref)
        out = Path(args.out) / f"T{T}"
        rows = run_experiment(cfg, out, workers=args.workers, opt_per_round=opt)
        by_alg: dict[str, list[tuple[float, float]]] = {}
        for row in rows:
            parts = row.split(",")
            by_alg.setdefault(parts[0], []).append((float(parts[10]), float(parts[4])))
        for alg in sorted(by_alg):
            entries = by_alg[alg]
            mean_reg = sum(r for r, _ in entries) / len(entries)
            mean_util = sum(u for _, u in entries) / len(entries)
            print(f"{T},{alg},{_fmt(mean_reg)},{_fmt(mean_util)},{_fmt(opt)},"
                  f"{_fmt(mean_reg / T ** 0.5)}")
    return 0


def cmd_validate(args) -> int:
    results = validate_suite(args.level)
    failed = [r for r in results if not r.ok]
    print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spacing-auctions",
        description="Benchmark solver and online-learning simulator for "
        "budgeted second-price auctions with a win-spacing objective.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bench", help="solve the chain benchmark and print the policy")
    p.add_argument("--config", required=True)
    p.add_argument("--bid1-at-m", action="store_true", help="force bid 1 in state m")
    p.set_defaults(fn=cmd_bench)

    p = sub.add_parser("simulate", help="run the configured algorithms and seeds")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default="out")
    p.add_argument("--trace", action="store_true", help="write per-round trace files")
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("warmup-curve", help="fixed-bid competitive ratio curve")
    p.add_argument("--rho-min", type=float, default=0.005)
    p.add_argument("--rho-max", type=float, default=0.25)
    p.add_argument("--points", type=int, default=50)
    p.set_defaults(fn=cmd_warmup_curve)

    p = sub.add_parser("regret-sweep", help="mean regret across a list of horizons")
    p.add_argument("--config", required=True)
    p.add_argument("--T-list", dest="t_list", default="2000,8000,32000")
    p.add_argument("--out", default="out")
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(fn=cmd_regret_sweep)

    p = sub.add_parser("validate", help="run the module property suites")
    p.add_argument("--level", choices=("quick", "full"), default="quick")
    p.set_defaults(fn=cmd_validate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
