from __future__ import annotations

import json
import re

import pytest

from alignlab import InfeasibleBudget
from alignlab.cli import _HELP, cli_dispatch, load_config_file, parse_value
from alignlab import experiments
from alignlab.experiments import COMMON_FIELDS, EXPERIMENTS, ExperimentConfig

TYPE_CAP_ERROR = "type classes C(m+K-1, K-1) must be <= 10000000"


class TestConfigParsing:
    def test_parse_values(self):
        assert parse_value("p", "0.2, 0.3, 0.5") == (0.2, 0.3, 0.5)
        assert parse_value("m_grid", "5,10,20") == (5, 10, 20)
        assert parse_value("trials", "1000") == 1000
        assert parse_value("delta", "0.11") == 0.11
        assert parse_value("conjecture", "true") is True
        assert parse_value("output_dir", "out") == "out"
        assert parse_value("seed", "7") == 7

    @pytest.mark.parametrize(
        "field, text, message",
        [
            ("seed", "notanint", "seed expects int, got 'notanint'"),
            ("m_grid", "5,x", "m_grid expects tuple[int, ...], got '5,x'"),
            ("conjecture", "maybe", "conjecture expects bool, got 'maybe'"),
        ],
    )
    def test_parse_errors_name_the_field(self, field, text, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            parse_value(field, text)

    def test_load_config_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# demo config\n"
            "experiment = equivalence_scan\n"
            "delta = 0.11\n"
            "m_grid = 5, 10\n"
            "seed = 42\n"
        )
        values = load_config_file(str(cfg))
        assert values == {
            "experiment": "equivalence_scan",
            "delta": 0.11,
            "m_grid": (5, 10),
            "seed": 42,
        }

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("mystery = 1\n")
        with pytest.raises(ValueError):
            load_config_file(str(cfg))


class TestDispatch:
    def test_example1_exit_zero(self, tmp_path, capsys):
        code = cli_dispatch(["example1", "--out", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "PASS" in out and "all checks passed" in out
        assert (tmp_path / "example1_report.json").exists()

    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert cli_dispatch(["mystery"]) == 2

    def test_missing_subcommand_is_usage_error(self, capsys):
        assert cli_dispatch([]) == 2

    def test_bad_flag_value_is_usage_error(self, capsys):
        assert cli_dispatch(["example1", "--seed", "notanint"]) == 2

    def test_equivalence_scan_with_flags(self, tmp_path, capsys):
        code = cli_dispatch(
            ["equivalence-scan", "--delta", "0.11", "--m-grid", "5,10,20,40", "--out", str(tmp_path)]
        )
        assert code == 0
        lines = (tmp_path / "equivalence_scan.csv").read_text().splitlines()
        assert lines[0] == "m,logN,kl_rate_to_optimal,kl_to_reference,kl_bound,reward_gap,type_l1"

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("experiment = example1\nseed = 5\n")
        out_dir = tmp_path / "outputs"
        code = cli_dispatch(["example1", "--config", str(cfg), "--out", str(out_dir)])
        assert code == 0
        report = json.loads((out_dir / "example1_report.json").read_text())
        assert report["seed"] == 5

    def test_bad_config_file_exit_two(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("nonsense_key = 1\n")
        assert cli_dispatch(["example1", "--config", str(cfg)]) == 2
        assert "error" in capsys.readouterr().err

    def test_error_during_run_exits_one(self, tmp_path, monkeypatch, capsys):
        def infeasible(config):
            raise InfeasibleBudget("delta=1.0 >= achievable supremum 0.5")

        monkeypatch.setattr(experiments, "run_example1", infeasible)
        code = cli_dispatch(["example1", "--out", str(tmp_path / "x")])
        err = capsys.readouterr().err
        assert code == 1
        assert err == "error: delta=1.0 >= achievable supremum 0.5\n"

    def test_env_default_output_dir(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("ALIGN_OUT_DIR", str(tmp_path / "from-env"))
        code = cli_dispatch(["example1"])
        assert code == 0
        assert (tmp_path / "from-env" / "example1_report.json").exists()


class TestLdpProbeValidation:
    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--trials", "0", "trials must be >= 1"),
            ("--m", "0", "m must be >= 1"),
            ("--eps", "0", "eps must be positive and finite"),
            ("--eps", "nan", "eps must be positive and finite"),
            ("--n", "0", "n must be >= 1"),
            # a trial's type counts are int64
            ("--m", str(2**63), f"m must be <= {2**63 - 1}"),
            ("--m", "1" + "0" * 20, f"m must be <= {2**63 - 1}"),
        ],
    )
    def test_invalid_input_is_usage_error(self, tmp_path, capsys, flag, value, message):
        out = tmp_path / "x"
        # a later flag overrides the earlier --trials
        code = cli_dispatch(["ldp-probe", "--trials", "10", flag, value, "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"error: {message}, got ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, message",
        [
            # the best-of-N law's limits: C(10002, 2) = 5.0e7 type classes,
            # N = exp(1000 * 0.8), and an n above exp(690) = 1.4e299
            (["--conjecture", "--m", "10000"], TYPE_CAP_ERROR),
            (["--conjecture", "--m", "1000", "--delta", "0.8"], "m*delta (log N) must be <= 690"),
            (["--conjecture", "--n", "1" + "0" * 300, "--m", "10"], "n must be <= exp(690.0)"),
            # the reward range of the demo q is (0.405..., 2.197...)
            (["--t-grid", "1.0,100", "--m", "10"], "t_grid must lie in (0.405"),
            (["--t-grid", "0.405", "--m", "10"], "t_grid must lie in (0.405"),
            # the default grid's -3 eps point is -0.31
            (["--eps", "0.5", "--m", "10"], "the default t_grid (mean +- 3 eps) must lie in (0.405"),
            (["--delta", "100", "--m", "10"], "delta=100.0 >= achievable supremum"),
            (["--delta", "100", "--t-grid", "1.0"], "delta=100.0 >= achievable supremum"),
        ],
    )
    def test_unrunnable_probe_is_usage_error(self, tmp_path, capsys, argv, message):
        out = tmp_path / "x"
        code = cli_dispatch(["ldp-probe", "--trials", "1", *argv, "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"error: {message}") and err.count("\n") == 1
        assert not out.exists()

    def test_conjecture_runs_at_the_default_m(self, tmp_path, capsys):
        # the exact best-of-N column has no sampling budget: N = 1.3e19 at m = 400.
        # 10,000 trials expect 14 hits at each outer point, so a point without
        # hits (undefined_only_deep) has odds of 1e-6; 1,000 expect 1.4, none 24%
        out = tmp_path / "x"
        argv = ["ldp-probe", "--conjecture", "--trials", "10000", "--out", str(out)]
        assert cli_dispatch(argv) == 0
        header = (out / "ldp_probe.csv").read_text().splitlines()[0]
        assert header.endswith(",p_bon,rate_bon_finite_m")


class TestConfigValidation:
    @pytest.mark.parametrize(
        "command, flag, value, message",
        [
            ("random-alphabet", "--seeds", "0", "seeds must be >= 1"),
            ("random-alphabet", "--seed", "-1", "seed must be >= 0"),
            ("random-alphabet", "--K", "1", "K must be >= 2"),
            ("equivalence-scan", "--m-grid", "5,0", "m_grid must list values >= 1"),
            # a decreasing or repeated grid would fail the decreasing-rate check
            ("equivalence-scan", "--m-grid", "10,5", "m_grid must be strictly increasing"),
            ("equivalence-scan", "--m-grid", "5,5", "m_grid must be strictly increasing"),
            ("random-alphabet", "--n-grid", "0", "n_grid must list values >= 1"),
            ("ternary-figure", "--delta", "nan", "delta must be nonnegative and finite"),
            ("ternary-figure", "--delta", "inf", "delta must be nonnegative and finite"),
            ("equivalence-scan", "--delta", "-0.1", "delta must be nonnegative and finite"),
            ("ldp-probe", "--t-grid", ",", "t_grid must list at least one value"),
            # size limits of the kernels: N = exp(m*delta) at m = 160, the
            # type classes C(m+2, 2) at K = 3, the oracle's (3^12)^2 tuples,
            # and an N = n above exp(690)
            ("equivalence-scan", "--delta", "5", "m*delta (log N) must be <= 690.0"),
            ("equivalence-scan", "--m-grid", "5000", TYPE_CAP_ERROR),
            ("ternary-figure", "--m", "5000", TYPE_CAP_ERROR),
            ("example1", "--m", "12", "(K^m)^n must be <= 10000000"),
            ("ternary-figure", "--n", "1" + "0" * 300, "n must be <= exp(690.0)"),
            # float(N) overflows: 10^400 has no finite float
            pytest.param(
                "random-alphabet",
                "--n-grid",
                "1" + "0" * 400,
                "n_grid: N must be a positive integer that converts to a finite float",
                id="random-alphabet-n-grid-1e400",
            ),
        ],
    )
    def test_invalid_input_is_usage_error(self, tmp_path, capsys, command, flag, value, message):
        out = tmp_path / "x"
        code = cli_dispatch([command, flag, value, "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"error: {message}, got ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            pytest.param(["ternary-figure", "--delta", "1.7"], id="ternary-figure-1.7"),
            pytest.param(["ternary-figure", "--delta", "100"], id="ternary-figure-100"),
            # --m-grid 5 keeps m*delta = 500 under the log N limit
            pytest.param(
                ["equivalence-scan", "--m-grid", "5", "--delta", "100"], id="equivalence-scan-100"
            ),
        ],
    )
    def test_infeasible_budget_is_usage_error(self, tmp_path, capsys, argv):
        # the demo pair's largest budget is -log p_1 = log 5 = 1.609...
        out = tmp_path / "x"
        code = cli_dispatch([*argv, "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"error: delta={float(argv[-1])!r} >= achievable supremum 1.609")
        assert err.count("\n") == 1
        assert not out.exists()

    def test_largest_sizes_pass_the_boundary(self):
        # the boundary rejects only what the kernels would: C(4472, 2) is
        # 9,997,156 classes, m*delta = 690 exactly, and (3^7)^2 = 4,782,969 tuples
        ExperimentConfig("equivalence_scan", m_grid=(4470,))
        ExperimentConfig("equivalence_scan", m_grid=(1000,), delta=0.69)
        ExperimentConfig("example1", m=7)

    @pytest.mark.parametrize(
        "argv, config_text, message",
        [
            (["closeness-bound"], "deltas = nan, -1\n", "unknown config key 'deltas'"),
            (["random-alphabet", "--p", "1,-1", "--q", "1,1"], None, "unrecognized arguments"),
            (
                ["example1", "--p", "0.5,0.5", "--q", "0.2,0.3,0.5"],
                None,
                "p and q must have the same length",
            ),
            (
                ["ternary-figure", "--p", "0.5,0.5", "--q", "0.4,0.6"],
                None,
                "ternary_figure needs 3 weights in p and q",
            ),
            (["example1", "--p", "0.5,nan,0.2"], None, "p must list >= 2 positive finite weights"),
            (["equivalence-scan", "--trials", "5"], None, "unrecognized arguments: --trials 5"),
            # not taken as an abbreviation of --m-grid
            (["equivalence-scan", "--m", "5"], None, "unrecognized arguments: --m 5"),
            (["ldp-probe", "--n", "5"], None, "n is read only with conjecture"),
            (["example1"], "experiment = ldp_probe\n", "config file is for 'ldp_probe'"),
            (["equivalence-scan", "--m-grid", "1000", "--delta", "0.8"], None, "m*delta (log N)"),
            (["equivalence-scan", "--m-grid", "4472"], None, TYPE_CAP_ERROR),
            (["example1", "--m", "12", "--n", "3"], None, "(K^m)^n must be <= 10000000"),
            (["example1", "--m", "1000000", "--n", "1000000"], None, "(K^m)^n must be <= 10000000"),
            # no reward chord crosses the simplex, even at a zero budget
            (
                ["ternary-figure", "--q", "1,1,1", "--delta", "0"],
                None,
                "uniform alignment target",
            ),
            # uniform to the solver: log q spreads by 1e-13, so the largest
            # budget is 0 and the whole family would be p
            (
                ["ternary-figure", "--q", "1,1.0000000000001,1", "--delta", "0"],
                None,
                "uniform alignment target",
            ),
        ],
    )
    def test_input_no_runner_reads_is_usage_error(
        self, tmp_path, capsys, argv, config_text, message
    ):
        out = tmp_path / "x"
        if config_text is not None:
            cfg = tmp_path / "run.cfg"
            cfg.write_text(config_text)
            argv = [*argv, "--config", str(cfg)]
        code = cli_dispatch([*argv, "--out", str(out)])
        errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
        assert code == 2
        assert len(errors) == 1 and message in errors[0]
        assert not out.exists()

    def test_flags_are_the_experiment_fields(self, capsys):
        # each subcommand's --help lists exactly its experiment's fields
        for experiment, record in EXPERIMENTS.items():
            command = experiment.replace("_", "-")
            assert cli_dispatch([command, "--help"]) == 0
            text = capsys.readouterr().out
            flags = set(re.findall(r"^  (?:-h, )?(--[\w-]+)", text, flags=re.MULTILINE))
            declared = {"--" + name.replace("_", "-") for name in record.fields}
            assert flags == declared | {"--help", "--config", "--seed", "--out"}, command

    def test_help_covers_every_field(self):
        fields = set(ExperimentConfig.__dataclass_fields__) - set(COMMON_FIELDS)
        assert set(_HELP) == fields
        assert set().union(*(record.fields for record in EXPERIMENTS.values())) == fields
        # every record has a runner, the module function run_<name>, and
        # every runner a record (run_experiment is the dispatcher)
        runners = {name[4:] for name in vars(experiments) if name.startswith("run_")}
        assert runners - {"experiment"} == set(EXPERIMENTS)
