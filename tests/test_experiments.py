from __future__ import annotations

import json
import math

import numpy as np
import pytest

from alignlab import (
    ExperimentConfig,
    make_distribution,
    max_achievable_kl,
    mismatched_tilt,
    run_experiment,
    solve_alpha_for_kl,
)
from alignlab.experiments import (
    COMMON_FIELDS,
    EXPERIMENTS,
    ExperimentReport,
    _format_cell,
    _radial_contour_points,
    _trace_kl_contour,
    default_n_grid,
    default_probe_grid,
    run_closeness_bound,
    run_equivalence_scan,
    run_example1,
    run_ldp_probe,
    run_random_alphabet,
    run_ternary_figure,
)

from .conftest import loop_radial_contour_point


def _count_solves(monkeypatch, name: str = "solve_alpha_for_kl") -> list:
    """Wrap the tilting function ``name`` in every module that binds it; the
    calls land in the returned list."""
    import alignlab
    from alignlab import deviations, experiments, tilting

    calls = []
    real = getattr(tilting, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for module in (alignlab, tilting, deviations, experiments):
        if hasattr(module, name):
            monkeypatch.setattr(module, name, counting)
    return calls


def _report_minus_duration(report) -> dict:
    data = report.to_dict()
    data.pop("duration_seconds")
    return data


class TestExample1:
    def test_default_passes(self, tmp_path):
        report = run_example1(ExperimentConfig("example1", output_dir=str(tmp_path)))
        assert report.passed
        names = {c["name"] for c in report.checks}
        assert "joint_matches_expected_fractions" in names
        assert "non_product_witness" in names
        assert (tmp_path / "example1_report.json").exists()
        assert (tmp_path / "example1_joint.csv").exists()
        header = (tmp_path / "example1_joint.csv").read_text().splitlines()[0]
        assert header == "y1,y2,probability"

    def test_overridden_inputs_skip_table_checks(self):
        report = run_example1(ExperimentConfig("example1", p=(0.25, 0.25, 0.5)))
        names = {c["name"] for c in report.checks}
        assert "joint_matches_expected_fractions" not in names
        assert "matches_enumeration_oracle" in names
        assert report.passed

    def test_byte_reproducible(self):
        config = ExperimentConfig("example1", seed=3)
        a = run_example1(config)
        b = run_example1(config)
        assert _report_minus_duration(a) == _report_minus_duration(b)

    def test_report_embeds_config_and_seed(self):
        report = run_example1(ExperimentConfig("example1", seed=17))
        assert report.seed == 17
        assert report.config["seed"] == 17
        assert report.config["experiment"] == "example1"


class TestTernaryFigure:
    def test_default_geometry(self, tmp_path):
        report = run_ternary_figure(ExperimentConfig("ternary_figure", output_dir=str(tmp_path)))
        assert report.passed
        assert report.results["kl_contour_residual"] <= 1e-8
        assert report.results["reward_contour_residual"] <= 1e-8
        assert report.results["phi_on_kl_contour_linf"] <= 1e-8
        assert report.results["l1_bon_type_to_phi"] < report.results["l1_reference_to_phi"]
        for name in ("kl_contour", "reward_contour", "aligned_family", "points"):
            path = tmp_path / f"{name}.csv"
            assert path.exists()
            lines = path.read_text().splitlines()
            assert lines[0] == "x_bary1,x_bary2,x_bary3,curve_tag"
            for line in lines[1:3]:
                x1, x2, x3, _tag = line.split(",")
                assert abs(float(x1) + float(x2) + float(x3) - 1.0) <= 1e-9

    def test_aligned_family_is_one_row_call(self, tmp_path, monkeypatch):
        # the 200 family points come from one kernel call, bit for bit the
        # per-alpha tilts of an even alpha grid up to 98% of the budget range
        calls = _count_solves(monkeypatch, "mismatched_tilt")
        run_ternary_figure(ExperimentConfig("ternary_figure", output_dir=str(tmp_path)))
        assert calls == []
        monkeypatch.undo()
        p, q = make_distribution((0.2, 0.3, 0.5)), make_distribution((2 / 3, 1 / 9, 2 / 9))
        alpha_hi = solve_alpha_for_kl(q, p, [0.98 * max_achievable_kl(q, p)])[0].alpha
        expected = []
        for alpha in np.linspace(0.0, alpha_hi, 200):
            probs = mismatched_tilt(q, p, float(alpha)).probs()
            expected.append(",".join([*(repr(float(x)) for x in probs), "aligned_family"]))
        assert (tmp_path / "aligned_family.csv").read_text().splitlines()[1:] == expected

    def test_contour_is_closed_and_on_level(self, tmp_path):
        report = run_ternary_figure(ExperimentConfig("ternary_figure", output_dir=str(tmp_path)))
        assert report.results["kl_contour_clamped_rays"] == 0
        lines = (tmp_path / "kl_contour.csv").read_text().splitlines()[1:]
        first, last = lines[0], lines[-1]
        assert first == last
        p = np.array([0.2, 0.3, 0.5])
        for line in lines[:: 60]:
            v = np.array([float(x) for x in line.split(",")[:3]])
            kl = float(np.sum(v * (np.log(v) - np.log(p))))
            assert kl == pytest.approx(0.11, abs=1e-8)

    def test_zero_budget_degenerates(self):
        report = run_ternary_figure(ExperimentConfig("ternary_figure", delta=0.0, n=1))
        assert report.results["alpha"] == 0.0
        assert np.allclose(report.results["phi"], [0.2, 0.3, 0.5], atol=1e-12)
        # phi = p, so best-of-N cannot be closer to phi than p is
        report = run_ternary_figure(ExperimentConfig("ternary_figure", delta=0.0))
        assert report.results["l1_reference_to_phi"] == 0.0
        assert report.passed
        # best-of-1 is p (--n 1), and a 1e-300 budget's phi rounds to p
        # (--delta 1e-300): nothing is closer to phi than p, and phi = p
        # leaves no ray from p to trace the contour along
        for fields in ({"n": 1}, {"delta": 1e-300}):
            assert run_ternary_figure(ExperimentConfig("ternary_figure", **fields)).passed

    @pytest.mark.parametrize("delta", [0.001, 0.3])
    def test_n_defaults_to_the_budget_matched_n(self, delta):
        # n = round(exp(m delta)) compares best-of-N with the tilt its budget
        # matches; a fixed best-of-3 is farther from phi than p at 0.001
        assert run_ternary_figure(ExperimentConfig("ternary_figure", delta=delta)).passed

    @pytest.mark.parametrize("delta", [1e-4, 0.11, 0.7, 3.0])
    def test_array_contour_matches_per_ray_bisection(self, delta):
        # every ray is bisected to the same midpoints as it was alone, so the
        # points agree bit for bit, clamped rays (delta = 3) included
        rng = np.random.default_rng(60)
        for p_probs in (np.array([0.2, 0.3, 0.5]), *rng.dirichlet(np.ones(3), size=2)):
            contour, clamped = _trace_kl_contour(p_probs, delta)
            e1 = np.array([1.0, -1.0, 0.0]) / math.sqrt(2.0)
            e2 = np.array([1.0, 1.0, -2.0]) / math.sqrt(6.0)
            flags = []
            for i in range(360):
                theta = 2.0 * math.pi * i / 360
                d = math.cos(theta) * e1 + math.sin(theta) * e2
                point, hit = loop_radial_contour_point(p_probs, d, delta, 1e-10)
                assert point.tobytes() == contour[i].tobytes()
                flags.append(hit)
            assert contour[360].tobytes() == contour[0].tobytes()
            assert clamped == sum(flags)
            d = rng.standard_normal(3)
            d -= d.mean()
            one, hit = _radial_contour_points(p_probs, d[None, :], delta, 1e-13)
            ref, ref_hit = loop_radial_contour_point(p_probs, d, delta, 1e-13)
            assert one[0].tobytes() == ref.tobytes() and bool(hit[0]) == ref_hit

    def test_csv_byte_reproducible(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        run_ternary_figure(ExperimentConfig("ternary_figure", output_dir=str(out_a)))
        run_ternary_figure(ExperimentConfig("ternary_figure", output_dir=str(out_b)))
        for name in ("kl_contour", "reward_contour", "aligned_family", "points"):
            assert (out_a / f"{name}.csv").read_bytes() == (out_b / f"{name}.csv").read_bytes()

    def test_solves_the_tilt_twice(self, monkeypatch):
        # phi_delta once at the config boundary, and the family's far end
        # (0.98 of the largest budget) once in the run
        calls = _count_solves(monkeypatch)
        run_ternary_figure(ExperimentConfig("ternary_figure", m=4))
        assert len(calls) == 2


class TestEquivalenceScan:
    def test_small_grid_decreasing(self, tmp_path):
        report = run_equivalence_scan(
            ExperimentConfig("equivalence_scan", m_grid=(5, 10, 20), output_dir=str(tmp_path))
        )
        assert report.passed
        rates = report.results["kl_rate_to_optimal"]
        assert rates[2] < rates[1] < rates[0]
        lines = (tmp_path / "equivalence_scan.csv").read_text().splitlines()
        assert lines[0] == "m,logN,kl_rate_to_optimal,kl_to_reference,kl_bound,reward_gap,type_l1"
        assert len(lines) == 4

    def test_zero_budget_rates_exactly_zero(self):
        report = run_equivalence_scan(ExperimentConfig("equivalence_scan", delta=0.0, m_grid=(3, 5)))
        assert report.passed
        assert report.results["kl_rate_to_optimal"] == [0.0, 0.0]

    def test_solves_the_tilt_once(self, monkeypatch):
        calls = _count_solves(monkeypatch)
        run_equivalence_scan(ExperimentConfig("equivalence_scan", m_grid=(3, 5)))
        assert len(calls) == 1

    @pytest.mark.parametrize(
        "delta, m_grid",
        [
            # the rates read [1.3e-16, 0.0]: rounding, not decay
            (1e-300, (5, 10)),
            (1e-17, (5, 10)),
            (1e-17, None),
        ],
    )
    def test_decay_checks_fail_within_rounding(self, delta, m_grid):
        config = ExperimentConfig("equivalence_scan", delta=delta, m_grid=m_grid)
        report = run_equivalence_scan(config)
        status = {check["name"]: check["passed"] for check in report.checks}
        assert not report.passed
        assert not status["kl_rate_strictly_decreasing"]
        assert not status["final_rate_at_most_half_first"]

    @pytest.mark.parametrize(
        "delta, m_grid, halved",
        [(1e-4, (5, 10), False), (1e-4, None, False), (0.11, None, True)],
    )
    def test_decay_checks_above_rounding(self, delta, m_grid, halved):
        config = ExperimentConfig("equivalence_scan", delta=delta, m_grid=m_grid)
        report = run_equivalence_scan(config)
        checks = {check["name"]: check for check in report.checks}
        rates = report.results["kl_rate_to_optimal"]
        assert checks["kl_rate_strictly_decreasing"]["passed"]
        assert checks["kl_rate_strictly_decreasing"]["value"] is True
        assert checks["final_rate_at_most_half_first"]["passed"] is halved
        assert checks["final_rate_at_most_half_first"]["value"] == rates[-1]
        assert checks["final_rate_at_most_half_first"]["limit"] == 0.5 * rates[0]


class TestRandomAlphabet:
    def test_small_alphabet_bound(self):
        report = run_random_alphabet(
            ExperimentConfig("random_alphabet", K=8, seeds=3, n_grid=(1, 4, 23, 152), seed=5)
        )
        assert report.passed
        assert report.results["max_kl_to_optimal"] <= 0.5
        assert report.results["max_kl_bound_excess"] <= 1e-9
        # N = 1 makes log N - (N - 1)/N = 0 = D, so the tighter bound is tight
        assert report.results["max_kl_bound_log_n_minus_excess"] == 0.0
        assert {c["name"] for c in report.checks} >= {"kl_bound_log_n", "kl_bound_log_n_minus"}

    def test_single_draw_rows_are_zero(self):
        report = run_random_alphabet(
            ExperimentConfig("random_alphabet", K=6, seeds=2, n_grid=(1,), seed=9)
        )
        assert report.results["max_kl_to_optimal"] == 0.0

    def test_default_grid(self):
        assert default_n_grid() == (1, 2, 4, 7, 12, 23, 43, 81, 152, 285, 534, 1000)

    def test_one_grouping_and_one_solve_per_pair(self, monkeypatch):
        # a pair's whole N grid groups its rewards once and runs one tilt
        # solve (every solve, one budget or a grid, is one _lockstep run)
        from alignlab import bestofn, tilting

        calls = {"group_reward_levels": 0, "_lockstep": 0}
        for module, name in ((bestofn, "group_reward_levels"), (tilting, "_lockstep")):
            real = getattr(module, name)

            def counting(*args, _name=name, _real=real, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(module, name, counting)
        run_random_alphabet(ExperimentConfig("random_alphabet", K=16, seeds=2))
        assert calls == {"group_reward_levels": 2, "_lockstep": 2}

    def test_no_object_per_row(self, monkeypatch, tmp_path):
        # a pair's best-of-N rows are one array and its KLs two row-KL calls:
        # at K = 64 and 2 pairs, bon_exact_pmf builds no distribution per N
        # (22 before) and no kl_divergence runs (48 before)
        import sys

        from alignlab import bestofn, cli, distributions, metrics

        calls = {"from_log_weights": 0, "kl_divergence": 0}
        inside = []

        def counting(name, real):
            def wrapper(*args, **kwargs):
                if name == "kl_divergence" or inside:
                    calls[name] += 1
                return real(*args, **kwargs)

            return wrapper

        def entered(*args, **kwargs):
            inside.append(True)
            try:
                return real_pmf(*args, **kwargs)
            finally:
                inside.pop()

        real_pmf = bestofn.bon_exact_pmf
        wrappers = {
            "from_log_weights": counting("from_log_weights", distributions.from_log_weights),
            "kl_divergence": counting("kl_divergence", metrics.kl_divergence),
            "bon_exact_pmf": entered,
        }
        for module in [m for n, m in sys.modules.items() if n.split(".")[0] == "alignlab"]:
            for name, wrapper in wrappers.items():
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, wrapper)
        argv = ["random-alphabet", "--K", "64", "--seeds", "2", "--out", str(tmp_path)]
        assert cli.cli_dispatch(argv) == 0
        assert calls == {"from_log_weights": 0, "kl_divergence": 0}

    def test_reproducible(self):
        config = ExperimentConfig("random_alphabet", K=8, seeds=2, n_grid=(1, 7, 43), seed=21)
        a = run_random_alphabet(config)
        b = run_random_alphabet(config)
        assert _report_minus_duration(a) == _report_minus_duration(b)


class TestClosenessBound:
    def test_no_violations(self):
        report = run_closeness_bound(ExperimentConfig("closeness_bound", trials=100, seed=2))
        assert report.passed
        assert report.results["violations"] == 0
        assert report.results["accepted"] > 50
        assert report.results["max_bound_excess"] <= 1e-9

    def test_degenerate_trials_counted_apart(self, tmp_path):
        # at this seed one trial is feasible only at a mixing weight of ~1e-12
        # (psi ~ phi); it is neither accepted nor a CSV row
        config = ExperimentConfig("closeness_bound", trials=100, seed=12, output_dir=str(tmp_path))
        r = run_closeness_bound(config).results
        assert r["degenerate"] == 1 and r["accepted"] == 95
        assert r["accepted"] + r["skipped"] + r["degenerate"] == r["trials"]
        rows = (tmp_path / "closeness_bound.csv").read_text().splitlines()[1:]
        assert len(rows) == r["accepted"]


class TestLdpProbe:
    def test_small_probe(self, tmp_path):
        report = run_ldp_probe(
            ExperimentConfig("ldp_probe", m=100, trials=2000, output_dir=str(tmp_path))
        )
        assert report.passed
        assert report.results["max_oracle_abs_dev"] <= 1e-5
        assert report.results["undefined_at_shallow_rate"] == 0
        lines = (tmp_path / "ldp_probe.csv").read_text().splitlines()
        assert lines[0] == "t,beta,rate_exact,rate_oracle,rate_mc,hits,trials"
        assert len(lines) == 6

    def test_probe_grid_default(self):
        grid = default_probe_grid(1.0, 0.05)
        assert grid == (0.85, 0.9, 1.0, 1.1, 1.15)

    def test_conjecture_mode_reports_only(self, tmp_path):
        report = run_ldp_probe(
            ExperimentConfig(
                "ldp_probe",
                m=12,
                trials=300,
                eps=0.1,
                conjecture=True,
                n=4,
                output_dir=str(tmp_path),
            )
        )
        lines = (tmp_path / "ldp_probe.csv").read_text().splitlines()
        assert lines[0].endswith(",trials,p_bon,rate_bon_finite_m")
        for line in lines[1:]:
            p_bon, rate = map(float, line.split(",")[-2:])
            assert 0.0 < p_bon < 1.0 and rate == pytest.approx(-math.log(p_bon) / 12, rel=1e-12)
        assert report.results["conjecture_n"] == 4
        names = {c["name"] for c in report.checks}
        assert not any("bon" in name for name in names)

    def test_empty_bon_window_is_an_empty_rate_cell(self, tmp_path):
        # at m = 2 no per-symbol value lies within 0.01 of 1.1
        config = ExperimentConfig(
            "ldp_probe",
            m=2,
            trials=10,
            eps=0.01,
            t_grid=(1.1,),
            conjecture=True,
            n=2,
            output_dir=str(tmp_path),
        )
        run_ldp_probe(config)
        row = (tmp_path / "ldp_probe.csv").read_text().splitlines()[1]
        assert row.endswith(",0.0,")

    @pytest.mark.parametrize("conjecture", [None, True])
    def test_solves_the_tilt_once(self, monkeypatch, conjecture):
        # one solve across the config boundary and the run, whatever the
        # number of t points
        calls = _count_solves(monkeypatch)
        config = ExperimentConfig("ldp_probe", m=40, trials=200, conjecture=conjecture)
        report = run_ldp_probe(config)
        assert len(report.results["t_grid"]) == 5
        assert len(calls) == 1

    def test_mc_reproducible(self):
        config = ExperimentConfig("ldp_probe", m=60, trials=500, seed=31)
        a = run_ldp_probe(config)
        b = run_ldp_probe(config)
        assert _report_minus_duration(a) == _report_minus_duration(b)


@pytest.mark.parametrize(
    "cell, text",
    [
        (0.1, "0.1"),
        (-0.0, "-0.0"),
        (1e-300, "1e-300"),
        (math.inf, "inf"),
        (math.nan, "nan"),
        (np.float64(2.0 / 3.0), "0.6666666666666666"),
        (np.float32(0.1), "0.10000000149011612"),
        (3, "3"),
        (np.int64(-7), "-7"),
        (True, "True"),
        (np.bool_(False), "False"),
        (None, ""),
        ("kl_contour", "kl_contour"),
    ],
)
def test_format_cell(cell, text):
    assert _format_cell(cell) == text


class TestDispatchAndReport:
    def test_run_experiment_dispatch(self):
        report = run_experiment(ExperimentConfig("example1"))
        assert report.experiment == "example1"

    def test_unknown_experiment(self):
        from alignlab import AlignlabError

        with pytest.raises(AlignlabError):
            run_experiment(ExperimentConfig("mystery"))

    def test_report_json_round_trip(self, tmp_path):
        report = run_example1(ExperimentConfig("example1", output_dir=str(tmp_path)))
        loaded = json.loads((tmp_path / "example1_report.json").read_text())
        assert loaded["passed"] is True
        assert loaded["experiment"] == "example1"
        assert "files" in loaded["results"]
        assert math.isfinite(loaded["duration_seconds"])

    def test_non_finite_floats_are_null(self):
        report = ExperimentReport(
            "ternary_figure",
            0,
            {"delta": 0.11},
            {"phi_on_kl_contour_linf": math.inf, "rates": [1.5, -math.inf, math.nan]},
            [{"name": "phi_on_kl_contour", "value": math.inf, "limit": 1e-8, "passed": False}],
        )
        text = report.to_json()
        assert "Infinity" not in text and "NaN" not in text
        loaded = json.loads(text)
        assert loaded["results"] == {"phi_on_kl_contour_linf": None, "rates": [1.5, None, None]}
        assert loaded["checks"][0]["value"] is None and loaded["checks"][0]["limit"] == 1e-8
        assert loaded["config"] == {"delta": 0.11}


# Small configs that still reach every field their experiment reads.
TINY = {
    "example1": {},
    "ternary_figure": {"m": 4},
    "equivalence_scan": {"m_grid": (3, 5)},
    "random_alphabet": {"K": 4, "seeds": 1, "n_grid": (1, 3)},
    "closeness_bound": {"trials": 5},
    "ldp_probe": {"m": 10, "trials": 20, "conjecture": True},  # conjecture reads n
}


class TestFieldsTable:
    @pytest.mark.parametrize("experiment", sorted(EXPERIMENTS))
    def test_runner_reads_exactly_its_fields(self, experiment):
        # what derive (run at construction) and the runner read together
        reads = set()
        names = set(ExperimentConfig.__dataclass_fields__)

        class Recording(ExperimentConfig):
            def __getattribute__(self, name):
                if name in names:
                    reads.add(name)
                return super().__getattribute__(name)

        run_experiment(Recording(experiment, **TINY[experiment]))
        assert reads == set(EXPERIMENTS[experiment].fields) | set(COMMON_FIELDS)

    @pytest.mark.parametrize("experiment", sorted(EXPERIMENTS))
    def test_run_experiment_calls_the_module_runner(self, monkeypatch, experiment):
        # the benchmark's traced runs time each runner by rebinding
        # experiments.run_<name>; dispatch must go through that name
        from alignlab import experiments

        config = ExperimentConfig(experiment, **TINY[experiment])
        monkeypatch.setattr(experiments, f"run_{experiment}", lambda c: ("stub", c))
        assert run_experiment(config) == ("stub", config)

    def test_unread_field_rejected(self):
        with pytest.raises(ValueError, match="closeness_bound does not read m, delta"):
            ExperimentConfig("closeness_bound", m=3, delta=0.1)

    def test_unset_fields_take_the_table_defaults(self):
        config = ExperimentConfig("ternary_figure", m=4)
        assert config.get("m") == 4
        assert config.get("delta") == EXPERIMENTS["ternary_figure"].fields["delta"]
        assert config.echo() == {"experiment": "ternary_figure", "m": 4, "seed": 0}
