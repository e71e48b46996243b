"""Tests for configuration, experiment orchestration, and the CLI."""

import json
import math
import os
import subprocess
import sys

import pytest

from spacing_auctions.cli import main as cli_main
from spacing_auctions.harness import (
    AlgorithmSpec,
    CheckResult,
    load_config,
    reference_m,
    reference_opt,
    run_algorithm,
    run_experiment,
    validate_suite,
)
from spacing_auctions.market import MarketDistribution, discretize_uniform
from spacing_auctions.rewards import cap_linear_reward, sqrt_reward


BASE_CONFIG = {
    "market": {"type": "uniform_grid", "K": 8},
    "reward": {"type": "sqrt"},
    "rho": 0.3,
    "T": 300,
    "algorithms": ["fkors", "static_opt", "always_one", {"name": "fixed_interval", "period": 3}],
    "seeds": {"base": 5, "count": 2},
    "m": 8,
    "k": 11,
}


def test_load_config_fields():
    cfg = load_config(BASE_CONFIG)
    assert cfg.T == 300
    assert cfg.rho == 0.3
    assert cfg.seeds == [5, 6]
    assert [a.label() for a in cfg.algorithms] == [
        "fkors",
        "static_opt",
        "always_one",
        "fixed_interval:3",
    ]


def test_load_config_from_path(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(BASE_CONFIG))
    cfg = load_config(p)
    assert cfg.T == 300


def test_load_config_missing_field_message():
    bad = dict(BASE_CONFIG)
    del bad["rho"]
    with pytest.raises(ValueError, match="rho"):
        load_config(bad)


def test_load_config_rejects_unknown_algorithm():
    bad = dict(BASE_CONFIG)
    bad["algorithms"] = ["gradient_descent"]
    with pytest.raises(ValueError, match="gradient_descent"):
        load_config(bad)


def test_seed_env_override(monkeypatch):
    monkeypatch.setenv("SPACING_SEED", "100")
    cfg = load_config(BASE_CONFIG)
    assert cfg.seeds == [100, 101]


def test_reference_opt_examples():
    market = MarketDistribution.from_tuples([(1.0, 1.0, 1.0)])
    assert reference_opt(market, sqrt_reward(), rho=1.0, T=100) == pytest.approx(1.0, abs=1e-9)
    assert reference_opt(market, cap_linear_reward(2), rho=0.5, T=100) == pytest.approx(
        1.0, abs=1e-9
    )
    assert reference_opt(market, sqrt_reward(), rho=0.0, T=100) == 0.0


def test_reference_m_formula():
    assert reference_m(32000, 0.2, 1.0) == math.ceil(20 * math.log(32000))
    assert reference_m(10, 1.0, 1.0) == 10  # capped at T


def test_run_experiment_rows_and_determinism(tmp_path):
    cfg = load_config(BASE_CONFIG)
    rows1 = run_experiment(cfg, tmp_path / "a")
    rows2 = run_experiment(cfg, tmp_path / "b")
    assert rows1 == rows2
    assert (tmp_path / "a" / "summary.csv").read_bytes() == (
        tmp_path / "b" / "summary.csv"
    ).read_bytes()
    # 4 algorithms x 2 seeds
    assert len(rows1) == 8
    header = (tmp_path / "a" / "summary.csv").read_text().splitlines()[0]
    assert header == (
        "algorithm,seed,T,rho,utility_true,utility_accounted,spend,wins,"
        "conversions,opt_per_round,regret"
    )


# BASE_CONFIG's summary rows: any change to the round protocol (draw order,
# budget guard, win rule, reward accounting) or to the FKORS planner moves them
PINNED_SUMMARY = [
    "always_one,5,300,0.3,166.0,166.0,89.75,166,166,0.8636000805747456,93.08002417242369",
    "always_one,6,300,0.3,167.0,167.0,89.0625,167,167,0.8636000805747456,92.08002417242369",
    "fixed_interval:3,5,300,0.3,172.47302994931874,172.47302994931874,54.625,100,100,"
    "0.8636000805747456,86.60699422310495",
    "fixed_interval:3,6,300,0.3,172.47302994931874,172.47302994931874,53.25,100,100,"
    "0.8636000805747456,86.60699422310495",
    "fkors,5,300,0.3,244.6388813489304,242.17477973379263,89.125,220,220,"
    "0.8636000805747456,14.441142823493294",
    "fkors,6,300,0.3,254.5171965264414,252.05309491130365,86.9375,227,227,"
    "0.8636000805747456,4.562827645982281",
    "static_opt,5,300,0.3,257.17500660087717,257.17500660087717,86.625,230,230,"
    "0.8636000805747456,1.905017571546523",
    "static_opt,6,300,0.3,252.14702726507235,252.14702726507235,89.375,228,228,"
    "0.8636000805747456,6.932996907351338",
]


def test_run_experiment_pinned_summary(tmp_path):
    rows = run_experiment(load_config(BASE_CONFIG), tmp_path)
    assert rows == PINNED_SUMMARY


def test_run_experiment_parallel_matches_serial(tmp_path):
    cfg = load_config(BASE_CONFIG)
    rows1 = run_experiment(cfg, tmp_path / "serial", workers=1)
    rows2 = run_experiment(cfg, tmp_path / "parallel", workers=2)
    assert rows1 == rows2


def test_run_experiment_traces(tmp_path):
    cfg = load_config({**BASE_CONFIG, "algorithms": ["fkors"], "seeds": [3]})
    run_experiment(cfg, tmp_path, trace=True)
    trace = (tmp_path / "trace_fkors_3.csv").read_text().splitlines()
    assert trace[0].startswith("t,epoch,state_fake")
    assert len(trace) == cfg.T + 1


def test_run_algorithm_budget_guard_all_algorithms():
    cfg = load_config(BASE_CONFIG)
    for spec in cfg.algorithms:
        rec = run_algorithm(cfg, spec, seed=1)
        assert rec.spend <= cfg.rho * cfg.T + 1e-9, spec.label()


def test_validate_suite_quick_subset():
    # the two cheapest checks, wired through the same entry point
    results = validate_suite("quick", emit=lambda s: None)
    names = {r.name for r in results}
    assert {"simplex_oracle", "reward_shapes", "reverse_jensen"} <= names
    assert all(isinstance(r, CheckResult) for r in results)
    assert all(r.ok for r in results)


def test_validate_rejects_unknown_level():
    with pytest.raises(ValueError):
        validate_suite("medium")


def test_cli_warmup_curve(capsys):
    rc = cli_main(["warmup-curve", "--rho-min", "0.01", "--rho-max", "0.25", "--points", "5"])
    out = capsys.readouterr().out.splitlines()
    assert rc == 0
    assert out[0] == "rho,ratio"
    assert len(out) == 6
    vals = [float(line.split(",")[1]) for line in out[1:]]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_cli_bench(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(
        json.dumps(
            {
                "market": {"type": "atoms", "atoms": [[1.0, 1.0, 1.0]]},
                "reward": {"type": "cap_linear", "cap": 2},
                "rho": 0.5,
                "T": 100,
                "m": 2,
            }
        )
    )
    rc = cli_main(["bench", "--config", str(cfg_path)])
    out = capsys.readouterr().out.splitlines()
    assert rc == 0
    assert any(line.startswith("# opt_value=1.0") for line in out)
    header_at = out.index("state,mu,weight,win_prob,pay")
    assert len(out) > header_at + 1


def test_cli_simulate_writes_summary(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**BASE_CONFIG, "algorithms": ["always_one"], "seeds": [1]}))
    rc = cli_main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
    assert rc == 0
    assert (tmp_path / "out" / "summary.csv").exists()


def test_cli_regret_sweep(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(
        json.dumps({**BASE_CONFIG, "algorithms": ["fkors"], "seeds": [1, 2]})
    )
    rc = cli_main(
        [
            "regret-sweep",
            "--config",
            str(cfg_path),
            "--T-list",
            "200,400",
            "--out",
            str(tmp_path / "sweep"),
        ]
    )
    out = capsys.readouterr().out.splitlines()
    assert rc == 0
    assert out[0] == "T,algorithm,mean_regret,mean_utility_true,opt_per_round"
    assert len(out) == 3
    assert (tmp_path / "sweep" / "T200" / "summary.csv").exists()
    assert (tmp_path / "sweep" / "T400" / "summary.csv").exists()


def test_cli_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "spacing_auctions", "warmup-curve", "--points", "2"],
        capture_output=True,
        text=True,
        env={**os.environ},
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("rho,ratio")
