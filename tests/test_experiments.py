"""Experiment orchestration: slope fitting, report determinism, energy
scaling rows, and the randomized inequality campaigns."""

import json
from fractions import Fraction as F

import pytest

from curvecount import experiments
from curvecount import (ExperimentConfig, MonomialSet, count_on_curve_lattice,
                        parabola, run_energy_experiment,
                        run_exponent_experiment, run_inequality_campaign,
                        squares_schedule)
from curvecount.experiments import CAMPAIGN_KINDS, fit_loglog


def test_fit_recovers_exact_power_law():
    for c, p in ((1.0, 0.5), (3.7, 0.5), (0.02, 2.0), (5.0, 0.31)):
        ns = [4, 9, 25, 64, 121, 400]
        counts = [c * n ** p for n in ns]
        slope, rss = fit_loglog(ns, counts)
        assert abs(slope - p) < 1e-9
        assert rss < 1e-16


def test_squares_schedule():
    assert squares_schedule(400) == tuple(m * m for m in range(2, 21))
    assert squares_schedule(17) == (4, 9, 16)


def test_schedule_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(curve=parabola(), schedule=(4, 4, 9))
    with pytest.raises(ValueError):
        ExperimentConfig(curve=parabola(), schedule=())
    # a fractional N used to be truncated: 4.7, 8.2, 16.9 ran as 4, 8, 16
    with pytest.raises(ValueError, match="must be an integer"):
        ExperimentConfig(curve=parabola(), schedule=(4.7, 8.2, 16.9))


def test_on_curve_experiment_counts_and_slope():
    cfg = ExperimentConfig(curve=parabola(), schedule=squares_schedule(400))
    rep = run_exponent_experiment(cfg)
    for row, m in zip(rep.rows, range(2, 21)):
        assert row["N"] == m * m and row["count"] == m + 1 and row["certified"]
    # frozen oracle value: OLS on (ln N, ln(M+1)) for M = 2..20
    assert abs(rep.fitted_slope - 0.431728140706421) < 1e-12
    assert rep.slope_explanation is None


def test_report_json_deterministic():
    cfg = ExperimentConfig(curve=parabola(), schedule=(4, 9, 16, 25, 36))
    a = json.dumps(run_exponent_experiment(cfg).to_dict(), sort_keys=True)
    b = json.dumps(run_exponent_experiment(cfg).to_dict(), sort_keys=True)
    assert a == b
    assert "runtime" not in a


def test_report_csv_columns():
    cfg = ExperimentConfig(curve=parabola(), schedule=(4, 9, 16))
    csv = run_exponent_experiment(cfg).to_csv()
    header, *rows = csv.strip().splitlines()
    assert header == "N,delta,count,certified,runtime_ms"
    assert len(rows) == 3
    assert rows[0].startswith("4,0/1,3,true,")


def test_degenerate_fit_explained():
    cfg = ExperimentConfig(curve=parabola(), schedule=(5, 7, 11))
    rep = run_exponent_experiment(cfg)
    # counts are 2, 2, 2 (only the endpoints are on the curve)
    assert all(r["count"] == 2 for r in rep.rows)
    assert rep.fitted_slope is None
    assert "degenerate" in rep.slope_explanation


def test_tube_experiment_with_exponent_comparison():
    cfg = ExperimentConfig(curve=parabola(), schedule=(4, 8, 16, 32),
                           monomials=MonomialSet([(1, 0), (0, 1)]),
                           delta_d=F(1), delta_power=2)
    rep = run_exponent_experiment(cfg)
    assert rep.mode == "tube"
    assert rep.theoretical_exponent == F(2, 3)
    assert rep.verdict == "slope-consistent-with-exponent"
    assert all(r["certified"] for r in rep.rows)


def test_huge_delta_counts_lattice_and_slope_tends_to_two():
    cfg = ExperimentConfig(curve=parabola(), schedule=(8, 16, 32, 64),
                           monomials=None, delta_d=F(10), delta_power=0)
    rep = run_exponent_experiment(cfg)
    # counts the whole (N+1)^2 lattice box; the fitted slope approaches 2
    # from below (log(N+1) vs log N lag at finite N)
    for row, n in zip(rep.rows, (8, 16, 32, 64)):
        assert row["count"] == (n + 1) ** 2
    assert 1.8 <= rep.fitted_slope <= 2.001


def test_energy_default_order_from_dimension():
    # m defaults to 3, which is n(n+1)/2 for the planar curves energy runs take
    cfg = ExperimentConfig(curve=parabola(), schedule=(4, 9))
    assert cfg.energy_m == 3 and run_energy_experiment(cfg).m == 3


def test_energy_experiment_rows():
    cfg = ExperimentConfig(curve=parabola(), schedule=(4, 9, 16, 25), energy_m=3)
    rep = run_energy_experiment(cfg)
    assert rep.m == 3
    for row in rep.rows:
        assert not row["skipped"]
        assert F(row["ratio"]) >= 1            # obvious lower bound E >= |B|^m
        assert F(row["saturation"]) <= 1
    singleton_cfg = ExperimentConfig(curve=parabola(), schedule=(5, 7, 11),
                                     energy_m=2)
    rep2 = run_energy_experiment(singleton_cfg)
    assert all(not r["skipped"] for r in rep2.rows)


def test_energy_experiment_tube_mode():
    cfg = ExperimentConfig(curve=parabola(), schedule=(4, 8, 16), energy_m=2,
                           delta_d=F(1), delta_power=2)
    rep = run_energy_experiment(cfg)
    assert all(not r["skipped"] for r in rep.rows)
    assert all(r["size"] >= 2 for r in rep.rows)
    assert all(F(r["ratio"]) >= 1 for r in rep.rows)


def test_energy_experiment_cap_marks_skipped():
    cfg = ExperimentConfig(curve=parabola(), schedule=(16, 25, 36), energy_m=3)
    rep = run_energy_experiment(cfg, cap=1)
    assert all(r["skipped"] for r in rep.rows)
    assert all("cap" in r["reason"] for r in rep.rows)


def test_on_curve_runs_decode_no_point(monkeypatch):
    # exponent rows take len, energy rows the integer form and the bijection
    # campaign the rows: every count's set stays undecoded
    made = []

    def count(curve, N):
        made.append(count_on_curve_lattice(curve, N))
        return made[-1]

    monkeypatch.setattr(experiments, "count_on_curve_lattice", count)
    cfg = ExperimentConfig(curve=parabola(), schedule=(4, 9, 12, 16))
    assert [r["count"] for r in run_exponent_experiment(cfg).rows] == [3, 4, 3, 5]
    run_energy_experiment(ExperimentConfig(curve=parabola(), schedule=(4, 16),
                                           energy_m=2))
    assert run_inequality_campaign("bijection", 3, 12).ok
    assert len(made) == 4 + 2 + 12
    assert all(s._points is None for s in made)


def test_campaigns_pass():
    for kind in CAMPAIGN_KINDS:
        result = run_inequality_campaign(kind, seed=5, trials=15)
        assert result.ok, (kind, result.failures[:1])
        assert result.passes == 15


def test_campaign_unicode_alias():
    result = run_inequality_campaign("plünnecke", seed=5, trials=5)
    assert result.kind == "plunnecke" and result.ok


def test_campaign_unknown_kind():
    with pytest.raises(ValueError):
        run_inequality_campaign("nonsense", seed=0, trials=1)


def test_campaign_json_roundtrip():
    result = run_inequality_campaign("lipschitz", seed=2, trials=10)
    data = json.loads(json.dumps(result.to_dict()))
    assert data["ok"] and data["passes"] == 10 and data["failures"] == []


def test_gap_doubling_failure_rebuilds_its_gap(monkeypatch):
    # no proper GAP breaks K ≤ 2^m, so a failure is forced: every doubling
    # reads 100, and the record must name the GAP behind it exactly
    drawn = []
    original = experiments._random_proper_gap

    def recorded(*args, **kwargs):
        g, pts = original(*args, **kwargs)
        drawn.append(g)
        return g, pts

    monkeypatch.setattr(experiments, "_random_proper_gap", recorded)
    monkeypatch.setattr(experiments, "doubling", lambda A, cap=None: F(100))
    result = run_inequality_campaign("gap-doubling", seed=3, trials=4)
    data = json.loads(json.dumps(result.to_dict()))
    assert not data["ok"] and len(data["failures"]) == len(drawn) == 4
    for record, g in zip(data["failures"], drawn):
        gap = record["gap"]
        assert all(isinstance(c, str) for v in gap["generators"] for c in v)
        assert experiments.Gap(gap["base"], gap["generators"],
                               gap["lengths"]) == g
