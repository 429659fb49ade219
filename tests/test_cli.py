import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import sbmfit
from sbmfit.cli import main
from sbmfit.errors import ParameterError


PARAMS_TEXT = "k = 2\npi = 0.5, 0.5\nS = 9.0, 1.0\nS = 1.0, 9.0\nrho_mode = log_n_over_n\n"


@pytest.fixture
def params_file(tmp_path):
    path = tmp_path / "params.txt"
    path.write_text(PARAMS_TEXT)
    return str(path)


def test_sample_fit_eval_round_trip(tmp_path, params_file, capsys):
    g_path = str(tmp_path / "g.txt")
    z_path = str(tmp_path / "z.txt")
    e_path = str(tmp_path / "e.txt")
    assert main(["sample", "--params", params_file, "--n", "80", "--seed", "4",
                 "--out-graph", g_path, "--out-labels", z_path]) == 0
    assert main(["fit", g_path, "--objective", "icl", "--k", "2", "--alpha", "0.05",
                 "--restarts", "8", "--seed", "2", "--out", e_path]) == 0
    assert main(["eval", "--true", z_path, "--pred", e_path]) == 0
    out = capsys.readouterr().out
    assert "nmi" in out and "misclassified" in out


def test_fit_exact_guard_exit_code(tmp_path, params_file):
    g_path = str(tmp_path / "g.txt")
    z_path = str(tmp_path / "z.txt")
    main(["sample", "--params", params_file, "--n", "60", "--seed", "1",
          "--out-graph", g_path, "--out-labels", z_path])
    rc = main(["fit", g_path, "--k", "2", "--exact", "--out", str(tmp_path / "e.txt")])
    assert rc == 2


def test_constant_output(params_file, capsys):
    assert main(["constant", "--params", params_file]) == 0
    out = capsys.readouterr().out
    assert "constant 2" in out
    assert "argmin_pair 0 1" in out
    assert "ml_exact_recovery_at_log_n_over_n yes" in out
    assert "icl_exact_recovery_at_log_n_over_n no" in out


def test_verify_exit_zero(tmp_path, capsys):
    out_path = str(tmp_path / "report.txt")
    assert main(["verify", "--seed", "1", "--out", out_path]) == 0
    assert "checks passed" in capsys.readouterr().out
    assert "PASS" in Path(out_path).read_text()


def test_sweep_deterministic_csv(tmp_path, capsys):
    args = ["sweep-separation", "--n", "40", "--k", "2", "--seps", "0,3", "--reps", "2",
            "--restarts", "3", "--seed", "11"]
    a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert main(args + ["--out", a, "--summary", str(tmp_path / "sa.csv"),
                            "--plot", str(tmp_path / "pa.svg")]) == 0
        assert main(args + ["--out", b]) == 0
    assert Path(a).read_bytes() == Path(b).read_bytes()
    assert (tmp_path / "pa.svg").read_text().startswith("<svg")


def test_sweep_sparsity_cli(tmp_path):
    out = str(tmp_path / "rows.csv")
    assert main(["sweep-sparsity", "--n", "40", "--k", "2", "--rhos", "0.025,0.1",
                 "--reps", "1", "--restarts", "2", "--seed", "3", "--out", out]) == 0
    lines = Path(out).read_text().splitlines()
    assert len(lines) == 1 + 2 * 1 * 2


def test_concentration_cli(capsys):
    assert main(["concentration", "--n-list", "50,100", "--reps", "20",
                 "--delta", "4", "--seed", "5"]) == 0
    out = capsys.readouterr().out
    assert "violation_fraction" in out
    assert "w_self_max=0" in out


def test_config_file_defaults(tmp_path, params_file):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("n = 40\nreps = 1\nrestarts = 2\nseps = 0,2\n")
    out = str(tmp_path / "rows.csv")
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rc = main(["--config", str(cfg), "sweep-separation", "--k", "2",
                   "--seed", "1", "--out", out])
    assert rc == 0
    lines = Path(out).read_text().splitlines()
    assert len(lines) == 1 + 2 * 1 * 2


def test_config_defaults_reach_both_sweeps(tmp_path):
    # The two sweep subcommands share their option objects; a --config value
    # for a shared option, here the otherwise required --out, must serve both.
    out = tmp_path / "rows.csv"
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(f"n = 30\nreps = 1\nrestarts = 1\nout = {out}\n")
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for argv in (["sweep-separation", "--seps", "2"], ["sweep-sparsity", "--rhos", "0.1"]):
            out.unlink(missing_ok=True)
            assert main(["--config", str(cfg), *argv]) == 0
            assert len(out.read_text().splitlines()) == 1 + 2


def test_usage_error_exit_two(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["fit", "--k", "2"])  # missing positional graph and --out
    assert exc.value.code == 2


def test_missing_file_is_usage_error(tmp_path):
    rc = main(["constant", "--params", str(tmp_path / "nope.txt")])
    assert rc == 2


def test_fit_headerless_edge_list(tmp_path):
    g_path = tmp_path / "bare.txt"
    g_path.write_text("2 1\n3 4\n5 6\n7 8\n")
    rc = main(["fit", str(g_path), "--no-header", "--k", "2", "--alpha", "0.2",
               "--restarts", "3", "--out", str(tmp_path / "e.txt")])
    assert rc == 0
    assert len((tmp_path / "e.txt").read_text().split()) == 8


def test_fit_stopped_at_max_sweeps_warns(tmp_path, params_file, capsys):
    g_path = str(tmp_path / "g.txt")
    main(["sample", "--params", params_file, "--n", "80", "--seed", "4",
          "--out-graph", g_path, "--out-labels", str(tmp_path / "z.txt")])
    capsys.readouterr()
    rc = main(["fit", g_path, "--k", "2", "--max-sweeps", "1", "--restarts", "3",
               "--out", str(tmp_path / "e.txt")])
    assert rc == 0
    assert "warning:" in capsys.readouterr().err
    from sbmfit import SearchConfig, greedy_argmax
    from sbmfit.io import read_edge_list

    g, _ = read_edge_list(g_path)
    fit = greedy_argmax(g, 2, SearchConfig(restarts=3, max_sweeps=1))
    assert not fit.converged


def _run_fresh(code, *args):
    src = str(Path(sbmfit.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    return subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True,
                          text=True, timeout=60, check=True).stdout


def test_cli_import_leaves_out_scipy_optimize():
    # scipy.optimize costs about 0.3 s per command; only misclassification
    # at k > 8 needs it, and it imports it there.
    code = "import sys, sbmfit.cli; print('scipy.optimize' in sys.modules)"
    assert _run_fresh(code).strip() == "False"


def test_sample_command_leaves_out_scipy_special(tmp_path, params_file):
    # scipy.special costs about 0.25 s per command; sampling uses none of it.
    code = ("import sys, sbmfit.cli\n"
            "rc = sbmfit.cli.main(sys.argv[1:])\n"
            "print(rc, 'scipy.special' in sys.modules)")
    out = _run_fresh(code, "sample", "--params", params_file, "--n", "50",
                     "--out-graph", str(tmp_path / "g.txt"),
                     "--out-labels", str(tmp_path / "z.txt"))
    assert out.splitlines()[-1] == "0 False"
    assert len((tmp_path / "z.txt").read_text().splitlines()) == 50


def _fit_args(tmp_path, graph_text, *extra):
    g_path = tmp_path / "g.txt"
    g_path.write_text(graph_text)
    return ["fit", str(g_path), "--k", "2", "--alpha", "0.2", "--restarts", "2",
            "--out", str(tmp_path / "e.txt"), *extra]


@pytest.mark.parametrize("graph_text,extra", [
    ("1 2 3\n", ()),                      # three fields
    ("4 2\n1 x\n", ()),                   # not an integer
    ("", ()),                             # empty file
    ("3 0\n0 1\n", ()),                   # node 0 in a 1-based file
    ("4 2\n1 2\n3 4\n", ("--alpha", "1.5")),
    ("4 2\n1 2\n3 4\n", ("--restarts", "0")),
    ("4 2\n1 2\n3 4\n", ("--k", "0")),
    ("4 2\n1 2\n3 4\n", ("--k", "3", "--alpha", "0.3", "--exact")),  # needs 6 nodes
    ("99999999999999999999 1\n", ()),     # does not fit in int64
])
def test_fit_usage_errors_exit_two(tmp_path, capsys, graph_text, extra):
    assert main(_fit_args(tmp_path, graph_text, *extra)) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_eval_length_mismatch_and_bad_label_exit_two(tmp_path):
    a, b, c = tmp_path / "a.txt", tmp_path / "b.txt", tmp_path / "c.txt"
    a.write_text("1\n2\n1\n")
    b.write_text("1\n2\n")
    c.write_text("1\n0\n1\n")
    assert main(["eval", "--true", str(a), "--pred", str(b)]) == 2
    assert main(["eval", "--true", str(a), "--pred", str(c)]) == 2
    c.write_text("1\n99999999999999999999\n1\n")  # does not fit in int64
    assert main(["eval", "--true", str(a), "--pred", str(c)]) == 2


@pytest.mark.parametrize("side", ["--true", "--pred"])
def test_eval_label_above_node_count_exits_two(tmp_path, capsys, side):
    # A label is a community of the n nodes, so it is at most n; the count
    # matrices of nmi must never be sized by a larger one.
    a, c = tmp_path / "a.txt", tmp_path / "c.txt"
    a.write_text("1\n2\n1\n")
    c.write_text("1\n100000000000\n1\n")
    files = {"--true": a, "--pred": a, side: c}
    argv = ["eval", "--true", str(files["--true"]), "--pred", str(files["--pred"])]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: label 100000000000 in ")
    c.write_text("1\n4\n1\n")
    assert main(argv) == 2
    c.write_text("1\n3\n1\n")
    assert main(argv) == 0


@pytest.mark.parametrize("text", [
    "k = 2\nS = 9.0, x\nS = 1.0, 9.0\n",
    "k = two\nS = 9.0, 1.0\nS = 1.0, 9.0\n",
    "k = 2\npi = 1.0\nS = 9.0, 1.0\nS = 1.0, 9.0\n",
    "k = 2\nS = 9.0, 1.0\nS = 1.0\n",
    "k = 1\nS = 9.0\n",
    "k = 2\nS = 9.0, 0.0\nS = 0.0, 9.0\n",
])
def test_bad_params_file_exit_two(tmp_path, text):
    path = tmp_path / "params.txt"
    path.write_text(text)
    assert main(["constant", "--params", str(path)]) == 2


@pytest.mark.parametrize("rates", [
    "pi = nan, 0.5\nS = 9.0, 1.0\nS = 1.0, 9.0\n",
    "S = nan, 1.0\nS = 1.0, 9.0\n",
])
@pytest.mark.parametrize("command", ["constant", "sample"])
def test_non_finite_params_exit_two(tmp_path, capsys, rates, command):
    path = tmp_path / "params.txt"
    path.write_text("k = 2\nrho = 0.1\n" + rates)
    argv = [command, "--params", str(path)]
    if command == "sample":
        argv += ["--n", "20", "--out-graph", str(tmp_path / "g.txt"),
                 "--out-labels", str(tmp_path / "z.txt")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "finite" in err


def test_every_export_resolves():
    listed = dir(sbmfit)
    for name in sbmfit.__all__:
        assert getattr(sbmfit, name) is not None
        assert name in listed


def test_experiment_argument_errors_exit_two(tmp_path):
    out = str(tmp_path / "rows.csv")
    assert main(["sweep-separation", "--k", "1", "--seps", "1", "--out", out]) == 2
    assert main(["concentration", "--n-list", "50", "--reps", "0"]) == 2
    for argv in (["sweep-separation", "--seps", "-1,2", "--out", out],
                 ["sweep-sparsity", "--rhos", "0.1", "--separation", "-1", "--out", out]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("reps = many\n")
    with pytest.raises(SystemExit) as exc:
        main(["--config", str(cfg), "sweep-separation", "--seps", "1", "--out", out])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["--config", str(tmp_path / "missing.txt"), "verify"])
    assert exc.value.code == 2


def test_internal_value_error_propagates(tmp_path, monkeypatch):
    # A ValueError that is not a usage error is a bug: it keeps its
    # traceback instead of becoming exit code 2.
    def broken(*args, **kwargs):
        raise ValueError("internal failure")

    monkeypatch.setattr("sbmfit.search.greedy_argmax", broken)
    with pytest.raises(ValueError, match="internal failure"):
        main(_fit_args(tmp_path, "4 2\n1 2\n3 4\n"))


@pytest.mark.parametrize("delta", ["nan", "-1"])
def test_concentration_invalid_delta_exit_two(capsys, delta):
    assert main(["concentration", "--n-list", "50", "--reps", "3", "--delta", delta]) == 2
    assert capsys.readouterr().err.startswith("error: delta")


@pytest.mark.parametrize("argv", [["sweep-separation", "--seps", "2"],
                                  ["sweep-sparsity", "--rhos", "0.1"]])
def test_sweep_zero_reps_exit_two_before_writing(tmp_path, capsys, argv):
    out, plot = tmp_path / "rows.csv", tmp_path / "plot.svg"
    assert main([*argv, "--reps", "0", "--out", str(out), "--plot", str(plot)]) == 2
    assert capsys.readouterr().err.startswith("error: reps")
    assert not out.exists() and not plot.exists()


@pytest.mark.parametrize("argv", [["sweep-separation", "--seps", ""],
                                  ["sweep-sparsity", "--rhos", ""],
                                  ["sweep-separation", "--seps", "400"],
                                  ["sweep-sparsity", "--rhos", "5,9"]])
def test_sweep_without_fitted_points_exit_two_before_writing(tmp_path, capsys, argv):
    # An empty grid, or one whose every point is skipped with a warning.
    paths = [tmp_path / name for name in ("rows.csv", "summary.csv", "plot.svg", "keep")]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        rc = main([*argv, "--n", "20", "--reps", "1", "--out", str(paths[0]),
                   "--summary", str(paths[1]), "--plot", str(paths[2]),
                   "--keep-labelings", str(paths[3])])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: no grid point was fitted")
    assert list(tmp_path.iterdir()) == []


def test_failed_plot_writes_nothing(tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise ParameterError("cannot plot")

    monkeypatch.setattr("sbmfit.plotting.sweep_plot_svg", refuse)
    out, plot = tmp_path / "rows.csv", tmp_path / "plot.svg"
    assert main(["sweep-separation", "--seps", "2", "--n", "20", "--reps", "1",
                 "--restarts", "2", "--out", str(out), "--plot", str(plot)]) == 2
    assert not out.exists() and not plot.exists()


def test_concentration_empty_n_list_exit_two(capsys):
    assert main(["concentration", "--n-list", "", "--reps", "3"]) == 2
    assert capsys.readouterr().err.startswith("error: --n-list")


@pytest.mark.parametrize("command", ["sample", "fit", "eval", "constant", "sweep-separation",
                                     "sweep-sparsity", "concentration", "verify"])
def test_subcommand_help(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith(f"usage: sbmfit {command}")
    if command == "concentration":
        assert "k=3" in out
