"""Tests for the study command: config handling, sweep driver, formats."""

import dataclasses
import hashlib
import math
import sys
from fractions import Fraction
from types import SimpleNamespace

import pytest

from nipg2d import analysis, assembly, cli
from nipg2d.cli import (
    CONFIG_KEYS,
    StudyConfig,
    _bool,
    _parse_config_file,
    build_config,
    format_csv,
    format_markdown,
    main,
    parse_csv,
    run_study,
)
from nipg2d.mesh import PENALTY_POWER, EdgeType
from nipg2d.solver import SolverConfig

from helpers import spend_budget


def no_args(**overrides):
    base = dict(k=None, eps=None, n=None, solver=None, out_csv=None,
                out_md=None)
    base.update(overrides)
    return SimpleNamespace(**base)


def small_config(**overrides):
    kwargs = dict(k_list=(1,), eps_list=(1e-2,), n_list=(8, 16))
    kwargs.update(overrides)
    return StudyConfig(**kwargs)


def mask_wall_ms(csv_text):
    """Drop the wall-clock column so runs can be compared bytewise."""
    kept = []
    for line in csv_text.splitlines():
        if line.startswith("#") or line.startswith("k,"):
            kept.append(line)
        else:
            kept.append(",".join(line.split(",")[:-1]))
    return "\n".join(kept)


class TestConfigFile:
    def test_parses_comments_and_blank_lines(self, tmp_path):
        path = tmp_path / "study.cfg"
        path.write_text(
            "# convergence sweep\n"
            "k = 1, 2\n"
            "\n"
            "eps = 1e-2   # easy regime\n"
            "n = 8, 16\n")
        raw = _parse_config_file(path)
        assert raw == {"k": "1, 2", "eps": "1e-2", "n": "8, 16"}

    def test_malformed_line_reports_position(self, tmp_path):
        path = tmp_path / "study.cfg"
        path.write_text("k = 1\njust words\n")
        with pytest.raises(ValueError, match=":2:"):
            _parse_config_file(path)

    @pytest.mark.parametrize("text,expected", [
        ("true", True), ("Yes", True), ("1", True), ("on", True),
        ("false", False), ("No", False), ("0", False), ("off", False),
    ])
    def test_bool_values(self, text, expected):
        assert _bool(text) is expected

    def test_bool_rejects_garbage(self):
        with pytest.raises(ValueError):
            _bool("maybe")


class TestBuildConfig:
    def test_file_values_fill_the_config(self):
        cfg = build_config(
            {"k": "1,2", "eps": "1e-2, 1e-3", "n": "8,16", "sigma": "3.5",
             "beta1": "1.5", "beta2": "2.5", "solver": "iterative",
             "rel_tol": "1e-8", "dirichlet": "strong", "out_csv": "a.csv",
             "out_md": "a.md"},
            no_args())
        assert cfg.k_list == (1, 2)
        assert cfg.eps_list == (1e-2, 1e-3)
        assert cfg.n_list == (8, 16)
        assert cfg.sigma == 3.5
        assert (cfg.beta1, cfg.beta2) == (1.5, 2.5)
        assert cfg.solver.method == "iterative"
        assert cfg.solver.rel_tol == 1e-8
        assert cfg.dirichlet == "strong"
        assert (cfg.out_csv, cfg.out_md) == ("a.csv", "a.md")
        # condition estimates come from the direct solver only
        cfg = build_config({"k": "1", "eps": "1e-2",
                            "estimate_condition": "yes"}, no_args())
        assert cfg.solver.estimate_condition is True

    def test_command_line_overrides_file(self):
        cfg = build_config({"k": "1", "eps": "1e-2", "n": "8"},
                           no_args(k="3", n="16,32", solver="iterative"))
        assert cfg.k_list == (3,)
        assert cfg.n_list == (16, 32)
        assert cfg.solver.method == "iterative"
        assert cfg.eps_list == (1e-2,)  # untouched file value

    def test_missing_required_keys_are_rejected(self):
        with pytest.raises(ValueError, match="'k'"):
            build_config({"eps": "1e-2"}, no_args())
        with pytest.raises(ValueError, match="'eps'"):
            build_config({"k": "1"}, no_args())

    def test_defaults_when_unset(self):
        cfg = build_config({"k": "1", "eps": "1e-2"}, no_args())
        assert cfg.n_list is None
        assert cfg.sigma is None
        assert cfg.solver.method == "direct"
        assert cfg.solver.estimate_condition is False
        assert cfg.dirichlet == "weak"
        # every default is the dataclasses' own
        assert cfg == StudyConfig(k_list=(1,), eps_list=(1e-2,))


class TestValidation:
    def test_sigma_below_half_plus_degree_is_rejected(self):
        with pytest.raises(ValueError, match="sigma"):
            small_config(k_list=(2,), sigma=2.0).validate()

    def test_non_doubling_sequence_is_rejected(self):
        with pytest.raises(ValueError, match="double"):
            small_config(n_list=(8, 24)).validate()

    def test_unknown_dirichlet_mode_is_rejected(self):
        with pytest.raises(ValueError, match="Dirichlet"):
            small_config(dirichlet="penalty").validate()

    @pytest.mark.parametrize("n_list", [(4, 8), (9, 18)])
    def test_mesh_sequence_must_start_at_an_even_n_of_8(self, n_list):
        # rejected before main probes the output paths, not by build_mesh
        # in the first cell
        with pytest.raises(ValueError, match="even N >= 8"):
            small_config(n_list=n_list).validate()

    @pytest.mark.parametrize("overrides,name", [
        (dict(eps_list=(math.nan,)), "eps"),
        (dict(eps_list=(math.inf,)), "eps"),
        (dict(sigma=math.inf), "sigma"),
        (dict(beta2=0.0), "beta2"),
    ], ids=["eps-nan", "eps-inf", "sigma-inf", "beta2-zero"])
    def test_mesh_parameters_are_rejected(self, overrides, name):
        # the cell's MeshConfig rejects them before any mesh is built
        with pytest.raises(ValueError,
                           match=f"^{name} must be positive and finite"):
            small_config(**overrides).validate()

    @pytest.mark.parametrize("overrides", [
        dict(k_list=()), dict(sigma=math.inf),
    ], ids=["no-degree", "sigma-inf"])
    def test_invalid_config_is_rejected_when_built(self, overrides):
        with pytest.raises(ValueError):
            small_config(**overrides)

    def test_config_is_frozen(self):
        cfg = small_config()
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.sigma = 0.1

    def test_empty_lists_are_rejected(self):
        with pytest.raises(ValueError):
            small_config(k_list=()).validate()
        with pytest.raises(ValueError):
            small_config(eps_list=()).validate()
        with pytest.raises(ValueError):
            small_config(n_list=()).validate()


class TestRunStudy:
    def test_single_cell(self):
        report = run_study(small_config(n_list=(8,)))
        assert len(report.rows) == 1
        row = report.rows[0]
        assert (row.k, row.n, row.dofs) == (1, 8, 256)
        assert row.p_in is None
        assert row.converged
        assert not report.degraded

    def test_rate_is_attached_to_the_coarser_row(self):
        report = run_study(small_config())
        assert len(report.rows) == 2
        assert report.rows[0].p_in is not None
        assert report.rows[1].p_in is None
        assert 0.5 < report.rows[0].p_in < 2.5

    def test_config_echo_is_complete(self):
        report = run_study(small_config())
        echo = report.config_echo
        assert echo["problem"] == "boundary_layer"
        assert echo["penalty_schedule"] == "M1:1 M2:N^2 M3:N M4:N"
        assert echo["boundary_edge_rule"] == "same-as-interior"
        assert echo["sigma"] == "k + 3/2"
        assert echo["quad_order"] == "k + 2"
        assert echo["error_quad_order"] == "k + 3"
        assert echo["solver"] == "direct"
        assert echo["max_iters"] == "5000"
        assert echo["restart"] == "50"
        assert echo["estimate_condition"] == "false"
        # every config key except the output paths is echoed
        assert set(CONFIG_KEYS) - {"out_csv", "out_md"} <= set(echo)

    def test_penalty_schedule_echo_follows_the_mesh_table(self,
                                                          monkeypatch):
        monkeypatch.setitem(PENALTY_POWER, EdgeType.M4, 1.5)
        echo = run_study(small_config()).config_echo
        assert echo["penalty_schedule"] == "M1:1 M2:N^2 M3:N M4:N^1.5"

    def test_quadrature_echo_follows_the_named_rules(self, monkeypatch):
        config = small_config(n_list=(8,))
        before = run_study(config).rows[0].e_in
        monkeypatch.setattr(assembly, "QUAD_POINTS_OVER_K", 4)
        monkeypatch.setattr(analysis, "ERROR_QUAD_POINTS_OVER_K", 5)
        report = run_study(config)
        assert report.config_echo["quad_order"] == "k + 4"
        assert report.config_echo["error_quad_order"] == "k + 5"
        # the rules the echo names are the ones the sweep applied
        assert report.rows[0].e_in != before

    def test_sigma_echo_follows_the_named_rule(self, monkeypatch):
        config = small_config(n_list=(8,))
        assert [m.sigma for _, ms in config.chains() for m in ms] == [2.5]
        before = run_study(config).rows[0].e_in
        monkeypatch.setattr(cli, "SIGMA_OVER_K", Fraction(5, 2))
        assert [m.sigma for _, ms in config.chains() for m in ms] == [3.5]
        report = run_study(config)
        assert report.config_echo["sigma"] == "k + 5/2"
        # the rule the echo names is the one the sweep's meshes used
        assert report.rows[0].e_in != before

    def test_interpolant_quadrature_echo_follows_the_named_rule(
            self, monkeypatch):
        config = small_config(n_list=(8,))
        before = run_study(config).rows[0]
        monkeypatch.setattr(analysis, "INTERP_QUAD_POINTS_OVER_K", 4)
        report = run_study(config)
        assert report.config_echo["interp_quad_order"] == "k + 4"
        # the composite interpolant's L2 projection takes its moments by
        # this rule; at k = 1 the vertices-edges-element one takes none
        assert report.rows[0].e_pi != before.e_pi
        assert report.rows[0].e_in == before.e_in

    def test_rows_follow_the_config_chains(self):
        config = small_config(k_list=(1, 2), eps_list=(1e-2, 1e-3))
        cells = [(dofmap.k, m.eps, m.n)
                 for dofmap, meshes in config.chains() for m in meshes]
        assert cells == [(k, eps, n) for k in (1, 2) for eps in (1e-2, 1e-3)
                         for n in (8, 16)]
        assert [(r.k, r.eps, r.n) for r in run_study(config).rows] == cells

    def test_output_is_deterministic_up_to_wall_clock(self):
        a = mask_wall_ms(format_csv(run_study(small_config())))
        b = mask_wall_ms(format_csv(run_study(small_config())))
        assert (hashlib.sha256(a.encode()).hexdigest()
                == hashlib.sha256(b.encode()).hexdigest())

    def test_condition_estimates_on_request(self):
        cfg = small_config(
            eps_list=(1e-2, 1e-3),
            solver=SolverConfig(estimate_condition=True))
        report = run_study(cfg)
        assert len(report.rows) == 4
        assert all(r.condition is not None for r in report.rows)
        csv_text = format_csv(report)
        assert "# condition_estimate k=1 eps=0.01 N=8 = " in csv_text
        echo, _ = parse_csv(csv_text)
        for r in report.rows:
            key = f"condition_estimate k=1 eps={r.eps:g} N={r.n}"
            assert float(echo[key]) == pytest.approx(r.condition, rel=1e-3)
        md = format_markdown(report)
        assert "Condition estimates (1-norm):" in md


class TestFormats:
    def test_csv_round_trip(self):
        report = run_study(small_config())
        echo, rows = parse_csv(format_csv(report))
        assert echo["problem"] == "boundary_layer"
        assert [r["N"] for r in rows] == [8, 16]
        for parsed, row in zip(rows, report.rows):
            assert parsed["k"] == row.k
            assert parsed["dofs"] == row.dofs
            assert parsed["e_IN"] == pytest.approx(row.e_in, rel=1e-5)
            assert parsed["e_Pi"] == pytest.approx(row.e_pi, rel=1e-5)
            assert parsed["e_L2"] == pytest.approx(row.e_l2, rel=1e-5)
        assert rows[0]["p_IN"] == pytest.approx(report.rows[0].p_in, abs=1e-4)
        assert rows[1]["p_IN"] is None

    def test_csv_header_row(self):
        text = format_csv(run_study(small_config(n_list=(8,))))
        data = [l for l in text.splitlines() if not l.startswith("#")]
        assert data[0] == ("k,eps,N,dofs,e_IN,p_IN,e_Pi,e_L2,"
                           "solver_iters,residual,wall_ms")

    def test_markdown_layout(self):
        md = format_markdown(run_study(small_config()))
        assert "<!-- problem = boundary_layer -->" in md
        assert "## degree k = 1" in md
        assert "| N | e_IN (eps=0.01) | order |" in md
        lines = md.splitlines()
        last_row = [l for l in lines if l.startswith("| 16 ")][0]
        assert last_row.rstrip().endswith("| -- |")  # finest N has no rate
        coarse_row = [l for l in lines if l.startswith("| 8 ")][0]
        assert "| -- |" not in coarse_row


class TestMain:
    def test_stdout_csv_and_exit_zero(self, capsys):
        code = main(["study", "--k", "1", "--eps", "1e-2", "--n", "8"])
        captured = capsys.readouterr()
        assert code == 0
        echo, rows = parse_csv(captured.out)
        assert len(rows) == 1 and rows[0]["N"] == 8

    def test_config_file_with_output_files(self, tmp_path, capsys):
        cfg = tmp_path / "study.cfg"
        cfg.write_text("k = 1\neps = 1e-2\nn = 8, 16\n")
        out_csv = tmp_path / "table.csv"
        out_md = tmp_path / "table.md"
        code = main(["study", "--config", str(cfg),
                     "--out-csv", str(out_csv), "--out-md", str(out_md)])
        assert code == 0
        assert capsys.readouterr().out == ""  # files instead of stdout
        echo, rows = parse_csv(out_csv.read_text())
        assert [r["N"] for r in rows] == [8, 16]
        assert "## degree k = 1" in out_md.read_text()

    def test_config_error_exits_one(self, capsys):
        code = main(["study", "--k", "1"])  # eps missing
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_degree_below_one_is_named_before_the_mesh_sequence(self,
                                                                capsys):
        # no n: the degree is checked before its default chain is looked up
        code = main(["study", "--k", "0", "--eps", "1e-3"])
        assert code == 1
        assert "polynomial degree must be >= 1" in capsys.readouterr().err

    def test_degree_without_a_default_chain_needs_n(self, capsys):
        code = main(["study", "--k", "4", "--eps", "1e-3"])
        assert code == 1
        assert ("no default mesh sequence for k=4"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("flags,code,message", [
        (["--bogus"], 1, "error: unrecognized arguments: --bogus"),
        (["--solver", "foo"], 1, "error: unknown solver method: 'foo'"),
        (["--help"], 0, ""),
        (["--eps", "1e-3,nan"], 1,
         "error: eps: expected a finite number, got 'nan'"),
    ], ids=["unknown-flag", "unknown-solver", "help", "eps-nan"])
    def test_usage_exit_codes(self, tmp_path, capsys, flags, code, message):
        # exit 2 is left to degraded solves
        out_csv = tmp_path / "t.csv"
        with pytest.raises(SystemExit) as exc:
            sys.exit(main(["study", "--k", "1", "--eps", "1e-3", "--n", "8",
                           "--out-csv", str(out_csv), *flags]))
        assert exc.value.code == code
        assert message in capsys.readouterr().err
        assert not out_csv.exists()

    @pytest.mark.parametrize("lines,message", [
        ("k = 1\nproblem = mystery", "unknown config key(s) problem;"),
        ("k = 1\ndirichelt = strong", "unknown config key(s) dirichelt;"),
        ("k = 1\nsigma =", "error: sigma: "),
        ("k = 1\nsolver = iterative\nsolver = direct",
         ":5: key 'solver' repeated (first set on line 4)"),
        ("k = 1,,2", "error: k: empty item in list '1,,2'"),
        ("k = 1\nquad_order = 4", "unknown config key(s) quad_order;"),
        ("k = 1\nmax_iters = 7", "unknown config key(s) max_iters;"),
        ("k = 1\nrestart = 7", "unknown config key(s) restart;"),
        ("k =", "config must list at least one degree k"),
        ("k = 1\nsigma = nan", "error: sigma: expected a finite number"),
        ("k = 1\nbeta1 = nan", "error: beta1: expected a finite number"),
        ("k = 1\nbeta2 = inf", "error: beta2: expected a finite number"),
        ("k = 1\nrel_tol = nan",
         "error: rel_tol: expected a finite number"),
        ("k = 1\nbeta1 = -1", "error: beta1 must be positive and finite"),
        ("k = 1\nbeta2 = 0", "error: beta2 must be positive and finite"),
        # the built-in problem has b1 >= 2 and b2 >= 3
        ("k = 1\nbeta1 = 2.5", "error: beta1=2.5 exceeds the built-in "
         "problem's convection lower bound 2.0"),
        ("k = 1\nbeta2 = 3.5", "error: beta2=3.5 exceeds the built-in "
         "problem's convection lower bound 3.0"),
    ], ids=["problem", "misspelled", "empty-value", "repeated-key",
            "empty-item", "quad-order", "max-iters", "restart", "no-degree",
            "sigma-nan", "beta1-nan", "beta2-inf", "rel-tol-nan",
            "beta1-negative", "beta2-zero", "beta1-above-bound",
            "beta2-above-bound"])
    def test_bad_config_key_exits_one(self, tmp_path, capsys, lines,
                                      message):
        cfg = tmp_path / "study.cfg"
        cfg.write_text(f"eps = 1e-2\nn = 8\n{lines}\n")
        out_csv = tmp_path / "t.csv"
        code = main(["study", "--config", str(cfg),
                     "--out-csv", str(out_csv)])
        assert code == 1
        assert message in capsys.readouterr().err
        assert not out_csv.exists()

    def test_unreadable_config_exits_one(self, tmp_path, capsys):
        code = main(["study", "--config", str(tmp_path / "nope.cfg")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--out-csv", "--out-md"])
    def test_unwritable_output_fails_before_the_sweep(self, tmp_path, capsys,
                                                      monkeypatch, flag):
        def no_sweep(config):
            raise AssertionError("the sweep ran")

        monkeypatch.setattr(cli, "run_study", no_sweep)
        path = tmp_path / "missing" / "t.csv"
        code = main(["study", "--k", "1", "--eps", "1e-3", "--n", "8,16",
                     flag, str(path)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error:") and str(path) in err
        assert "Traceback" not in err

    def test_degraded_solve_exits_two(self, tmp_path, capsys, monkeypatch):
        spend_budget(monkeypatch, restart=2, max_iters=2)
        cfg = tmp_path / "study.cfg"
        cfg.write_text("k = 1\neps = 1e-3\nn = 16\nsolver = iterative\n"
                       "rel_tol = 1e-14\n")
        code = main(["study", "--config", str(cfg),
                     "--out-csv", str(tmp_path / "t.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert "missed the tolerance" in err
        assert "GMRES stopped after" in err
        echo, _ = parse_csv((tmp_path / "t.csv").read_text())
        assert (echo["max_iters"], echo["restart"]) == ("2", "2")

    @pytest.mark.parametrize("lines", [
        "rel_tol = 1e-20",
        "solver = iterative\nrel_tol = 1e-14",
    ], ids=["direct", "iterative"])
    def test_degraded_warning_states_the_residual_once(self, tmp_path,
                                                       capsys, monkeypatch,
                                                       lines):
        spend_budget(monkeypatch, restart=2, max_iters=2)
        cfg = tmp_path / "study.cfg"
        cfg.write_text(f"k = 1\neps = 1e-3\nn = 8\n{lines}\n")
        out_csv = tmp_path / "t.csv"
        code = main(["study", "--config", str(cfg),
                     "--out-csv", str(out_csv)])
        assert code == 2
        err = capsys.readouterr().err
        _, rows = parse_csv(out_csv.read_text())
        assert err.count(format(rows[0]["residual"], ".3e")) == 1
        assert "misses rel_tol" in err
