"""Spans and counters recorded around the package's public functions.

``Tracer.install`` replaces module attributes of ``spacing_auctions`` with
wrappers; the package itself is not modified and ``uninstall`` restores it.
A span is (name, start, end, parent) with perf_counter times, which share
one clock across processes on Linux.  Spans stay in memory; a forked pool
worker writes its own spans and counters to a file in ``out_dir`` each time
one of its top-level calls returns, and the parent merges those files.
"""

from __future__ import annotations

import functools
import json
import os
from collections import Counter
from pathlib import Path
from time import perf_counter

from spacing_auctions import baselines, fkors, harness, market, rewards, rng

import checks

# (span name, [(module, attribute), ...]); a function is wrapped wherever a
# caller looks it up, since modules import each other's names directly
SPANS = [
    ("harness.run_experiment", [(harness, "run_experiment")]),
    ("harness.reference_opt", [(harness, "reference_opt")]),
    ("harness.run_algorithm", [(harness, "run_algorithm")]),
    ("fkors.run", [(harness, "run_fkors"), (fkors, "run_fkors")]),
    ("benchmark.cold_solve", [(fkors, "solve_occupancy_problem")]),
    ("benchmark.verify", [(fkors, "verify_basis_values")]),
    ("benchmark.solve_benchmark", [(harness, "solve_benchmark"), (fkors, "solve_benchmark")]),
    ("baselines.optimal_static", [(harness, "optimal_static"), (baselines, "optimal_static")]),
    ("baselines.static_run", [(harness, "static_run"), (baselines, "static_run")]),
    ("baselines.fixed_interval_run", [(harness, "fixed_interval_run"), (baselines, "fixed_interval_run")]),
]

# counted calls; timing each would cost more than the call itself
COUNTERS = [
    ("rng.uniform", [(rng.SplitMix64, "uniform")]),
    ("market.sample", [(market.MarketDistribution, "sample")]),
    # eval_r_capped calls eval_r through the rewards module, so it counts too
    ("rewards.eval_r", [(rewards, "eval_r"), (fkors, "eval_r"), (baselines, "eval_r")]),
    # one bid_for call per policy consultation that draws a mixture uniform
    ("policy.consultations", [(fkors, "bid_for"), (baselines, "bid_for")]),
]

RUN_SPANS = {"fkors.run", "baselines.static_run", "baselines.fixed_interval_run"}


def _run_summary(name: str, rec, draws: int, consultations: int) -> dict:
    return {
        "span": name,
        "draws": draws,
        "consultations": consultations,
        "T": rec.T,
        "wins": rec.wins,
        "conversions": rec.conversions,
        "epochs": len(rec.epochs),
        "cold_solves": rec.config.get("cold_solves", 0),
        "reused_plans": rec.config.get("reused_plans", 0),
    }


class Tracer:
    def __init__(self, out_dir: Path):
        self.out_dir = Path(out_dir)
        self.main_pid = os.getpid()
        self.spans: list[dict] = []
        self.counts: Counter = Counter()
        self.runs: list[dict] = []
        self._stack: list[str] = []
        self._saved: list[tuple[object, str, object]] = []
        self._flushes = 0
        self._next_id = 0
        # files an interrupted traced run left behind must not be merged
        for stale in self.out_dir.glob("worker-*"):
            stale.unlink()
        os.register_at_fork(after_in_child=self._reset)

    def _reset(self) -> None:
        """In a forked worker: drop what the parent had recorded."""
        self.spans.clear()
        self.counts.clear()
        self.runs.clear()
        self._stack.clear()
        self._flushes = 0

    # -- wrappers ------------------------------------------------------------

    def _span_wrapper(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            pid = os.getpid()
            tracer._next_id += 1
            span_id = f"{pid}:{tracer._next_id}"
            span = {"id": span_id, "name": name,
                    "parent": tracer._stack[-1] if tracer._stack else None}
            tracer.spans.append(span)
            tracer._stack.append(span_id)
            draws0 = tracer.counts["rng.uniform"]
            consultations0 = tracer.counts["policy.consultations"]
            span["start"] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span["error"] = True
                raise
            finally:
                span["end"] = perf_counter()
                tracer._stack.pop()
            if name == "benchmark.verify" and result is not None:
                tracer.counts["benchmark.verify.certified"] += 1
            if name in RUN_SPANS:
                tracer.runs.append(_run_summary(
                    name, result, tracer.counts["rng.uniform"] - draws0,
                    tracer.counts["policy.consultations"] - consultations0))
            if not tracer._stack and pid != tracer.main_pid:
                tracer._flush_worker(pid)
            return result

        return wrapper

    def _count_wrapper(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        for name, targets, make in [(n, t, self._span_wrapper) for n, t in SPANS] + [
            (n, t, self._count_wrapper) for n, t in COUNTERS
        ]:
            for owner, attr in targets:
                original = getattr(owner, attr)
                self._saved.append((owner, attr, original))
                setattr(owner, attr, make(name, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    # -- pool workers --------------------------------------------------------

    def _doc(self) -> str:
        return json.dumps({"spans": self.spans, "counts": dict(self.counts), "runs": self.runs})

    def _flush_worker(self, pid: int) -> None:
        self._flushes += 1
        path = self.out_dir / f"worker-{pid}-{self._flushes}.json"
        tmp = path.with_suffix(".tmp")
        tmp.write_text(self._doc())
        tmp.replace(path)
        self.spans.clear()
        self.counts.clear()
        self.runs.clear()

    def collect_workers(self) -> None:
        """Merge and delete the files pool workers wrote."""
        for path in sorted(self.out_dir.glob("worker-*.json")):
            doc = json.loads(path.read_text())
            self.spans.extend(doc["spans"])
            self.counts.update(doc["counts"])
            self.runs.extend(doc["runs"])
            path.unlink()

    def write(self, path: Path) -> None:
        path.write_text(self._doc())


# ---------------------------------------------------------------------------
# cross-checks and per-layer metrics from one traced run


def cross_check(tracer: Tracer) -> None:
    """Totals reached by two independent paths must agree.  Runs that raised
    left no record, so their cold solves are not counted."""
    completed = {s["id"] for s in tracer.spans if s["name"] == "fkors.run" and "error" not in s}
    cold_spans = sum(1 for s in tracer.spans
                     if s["name"] == "benchmark.cold_solve" and s["parent"] in completed)
    checks.check_cold_solve_count(cold_spans, sum(r["cold_solves"] for r in tracer.runs))
    for r in tracer.runs:
        checks.check_rng_draws(r["draws"], r["T"], r["consultations"], r["wins"])


UNITS = {
    "benchmark.cold_solve.count": "count",
    "benchmark.cold_solve.s": "s",
    "benchmark.cold_solve.ms_p50": "ms",
    "benchmark.cold_solve.ms_p95": "ms",
    "benchmark.verify.count": "count",
    "benchmark.verify.s": "s",
    "benchmark.verify.certified_ratio": "ratio",
    "benchmark.solve_benchmark.s": "s",
    "fkors.run.s": "s",
    "fkors.self_s": "s",
    "fkors.epochs": "count",
    "fkors.plan_reuse_ratio": "ratio",
    "fkors.verify_per_epoch": "ratio",
    "baselines.static_run.s": "s",
    "baselines.fixed_interval_run.s": "s",
    "baselines.optimal_static.s": "s",
    "baselines.us_per_round": "us",
    "market.sample.count": "count",
    "rng.uniform.count": "count",
    "rewards.eval_r.count": "count",
    "harness.reference_opt.s": "s",
    "harness.pool.busy_ratio": "ratio",
    "trace.overhead_ratio": "ratio",
}


def _durations(spans: list[dict], name: str) -> list[float]:
    return [s["end"] - s["start"] for s in spans if s["name"] == name]


def _quantile_ms(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return 1e3 * ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def layer_metrics(tracer: Tracer, workers: int) -> dict[str, float]:
    spans, counts, runs = tracer.spans, tracer.counts, tracer.runs
    child_time: Counter = Counter()
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]

    cold = _durations(spans, "benchmark.cold_solve")
    verify = _durations(spans, "benchmark.verify")
    fk_runs = [r for r in runs if r["span"] == "fkors.run"]
    planned = sum(r["cold_solves"] + r["reused_plans"] for r in fk_runs)
    base_runs = [r for r in runs if r["span"] != "fkors.run"]
    base_s = sum(_durations(spans, "baselines.static_run")) + sum(
        _durations(spans, "baselines.fixed_interval_run"))
    base_rounds = sum(r["T"] for r in base_runs)

    # pool wall: each run_experiment span minus its serial reference_opt child
    pool_wall = 0.0
    for s in spans:
        if s["name"] == "harness.run_experiment":
            serial = sum(c["end"] - c["start"] for c in spans
                         if c["parent"] == s["id"] and c["name"] == "harness.reference_opt")
            pool_wall += s["end"] - s["start"] - serial
    main = f"{tracer.main_pid}:"
    pooled = [s["end"] - s["start"] for s in spans
              if s["name"] == "harness.run_algorithm" and not s["id"].startswith(main)]

    out = {
        "benchmark.cold_solve.count": float(len(cold)),
        "benchmark.cold_solve.s": sum(cold),
        "benchmark.cold_solve.ms_p50": _quantile_ms(cold, 0.5) if cold else 0.0,
        # the 95th percentile needs ten samples beyond it
        "benchmark.cold_solve.ms_p95": _quantile_ms(cold, 0.95) if len(cold) >= 200 else 0.0,
        "benchmark.verify.count": float(len(verify)),
        "benchmark.verify.s": sum(verify),
        "benchmark.verify.certified_ratio":
            counts["benchmark.verify.certified"] / len(verify) if verify else 0.0,
        "benchmark.solve_benchmark.s": sum(_durations(spans, "benchmark.solve_benchmark")),
        "fkors.run.s": sum(_durations(spans, "fkors.run")),
        "fkors.self_s": sum(s["end"] - s["start"] - child_time[s["id"]]
                            for s in spans if s["name"] == "fkors.run"),
        "fkors.epochs": float(sum(r["epochs"] for r in fk_runs)),
        "fkors.plan_reuse_ratio":
            sum(r["reused_plans"] for r in fk_runs) / planned if planned else 0.0,
        "fkors.verify_per_epoch": len(verify) / planned if planned else 0.0,
        "baselines.static_run.s": sum(_durations(spans, "baselines.static_run")),
        "baselines.fixed_interval_run.s": sum(_durations(spans, "baselines.fixed_interval_run")),
        "baselines.optimal_static.s": sum(_durations(spans, "baselines.optimal_static")),
        "baselines.us_per_round": 1e6 * base_s / base_rounds if base_rounds else 0.0,
        "market.sample.count": float(counts["market.sample"]),
        "rng.uniform.count": float(counts["rng.uniform"]),
        "rewards.eval_r.count": float(counts["rewards.eval_r"]),
        "harness.reference_opt.s": sum(_durations(spans, "harness.reference_opt")),
        "harness.pool.busy_ratio": sum(pooled) / (workers * pool_wall) if pool_wall else 0.0,
    }
    return out
