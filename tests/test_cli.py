"""Tests for the command-line interface: parsing, config files, runners."""

import gc
import json
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import pytest

import refsde
import refsde.experiment as experiment
from refsde.cli import main, parse


def test_parse_experiment_flags(tmp_path):
    out = tmp_path / "table.csv"
    rc = parse(["experiment", "--case", "2", "--reps", "200", "--seed", "42",
                "--mode", "two-sided", "--out", str(out)])
    assert rc.subcommand == "experiment"
    assert rc.params["reps"] == 200
    assert rc.params["seed"] == 42
    assert rc.params["mode"] == "two_sided"
    assert rc.params["n_list"] == (400, 900, 1600)  # defaults fill the rest
    assert rc.params["out"] == str(out)


def test_parse_rejects_unknown_case(tmp_path, capsys):
    code = main(["experiment", "--case", "4", "--out",
                 str(tmp_path / "x.csv")])
    assert code == 2
    assert "case" in capsys.readouterr().err


def test_missing_required_flags_exit_two(tmp_path, capsys):
    assert main(["simulate", "--n", "100",
                 "--out", str(tmp_path / "p.csv")]) == 2  # no --case
    assert main(["simulate", "--case", "1", "--n", "100"]) == 2  # no --out
    capsys.readouterr()


def test_unknown_subcommand_and_empty_argv(capsys):
    assert main(["transmogrify"]) == 2
    assert main([]) == 2
    capsys.readouterr()


def test_help_exits_zero_and_lists_flags(capsys):
    assert main(["simulate", "--help"]) == 0
    msg = capsys.readouterr().out
    for flag in ("--case", "--n", "--delta", "--mode", "--burn-in",
                 "--refine", "--config"):
        assert flag in msg


_SIM = ["simulate", "--case", "1", "--n", "50"]
_DENS = ["density", "--case", "1", "--grid", "5"]
_EST = ["estimate", "--in", "{path}", "--grid-count", "10"]
_EXP = ["experiment", "--case", "1", "--n-list", "40", "--beta-list", "0.3",
        "--reps", "2", "--grid", "10"]
_NORM = ["normality", "--case", "2", "--x0", "1.5", "--n", "60", "--beta",
         "0.3", "--reps", "3"]


@pytest.fixture(scope="module")
def path_csv(tmp_path_factory):
    out = tmp_path_factory.mktemp("path") / "p.csv"
    assert main(["simulate", "--case", "2", "--n", "300", "--seed", "5",
                 "--out", str(out)]) == 0
    return out


@pytest.fixture(scope="module")
def one_sided_csv(tmp_path_factory):
    out = tmp_path_factory.mktemp("path") / "p1.csv"
    assert main(["simulate", "--case", "2", "--n", "300", "--seed", "5",
                 "--mode", "one-sided", "--out", str(out)]) == 0
    return out


@pytest.mark.parametrize("argv", [
    pytest.param(_SIM + ["--delta", "-0.1"], id="simulate-delta"),
    pytest.param(_SIM + ["--refine", "0"], id="simulate-refine"),
    pytest.param(["simulate", "--case", "1", "--n", "1"], id="simulate-n"),
    pytest.param(_SIM + ["--x0", "4"], id="simulate-x0"),
    pytest.param(_DENS[:-1] + ["0"], id="density-grid"),
    pytest.param(_DENS + ["--quad-panels", "0"], id="density-quad-panels"),
    pytest.param(_DENS + ["--h", "-1"], id="density-h"),
    pytest.param(_DENS + ["--sigma", "0"], id="density-sigma"),
    pytest.param(_EST + ["--kernel", "gauss"], id="estimate-kernel"),
    pytest.param(_EST + ["--type", "continuous"], id="estimate-type"),
    pytest.param(_EST[:-1] + ["0"], id="estimate-grid-count"),
    pytest.param(_EST + ["--sigma", "-1"], id="estimate-sigma"),
    pytest.param(_EST + ["--grid-min", "2", "--grid-max", "1"],
                 id="estimate-grid-order"),
    pytest.param(_EST + ["--grid-min", "-1"], id="estimate-grid-min"),
    pytest.param(_EST + ["--grid-max", "4"], id="estimate-grid-max"),
    pytest.param(_DENS + ["--case", "3", "--mode", "one-sided", "--upper",
                          "inf"], id="density-one-sided-upper-inf"),
    pytest.param(["estimate", "--in", "{one_sided}", "--grid-count", "10",
                  "--mode", "one-sided", "--grid-max", "inf"],
                 id="estimate-one-sided-grid-max-inf"),
    pytest.param(_EXP + ["--mode", "one-sided", "--upper", "inf"],
                 id="experiment-one-sided-upper-inf"),
    pytest.param(["estimate", "--in", "{bad_path}", "--grid-count", "10"],
                 id="estimate-in-non-numeric"),
    pytest.param(_EXP + ["--threads", "0"], id="experiment-threads"),
    pytest.param(_EXP + ["--config", "{threads0}"],
                 id="experiment-threads-config"),
    pytest.param(_EXP + ["--reps", "0"], id="experiment-reps"),
    pytest.param(_EXP + ["--mode", "two-sided", "--x0", "5"],
                 id="experiment-x0"),
    pytest.param(_NORM[:4] + ["0.05"] + _NORM[5:], id="normality-x0"),
    pytest.param(_NORM[:8] + ["0.45"] + _NORM[9:], id="normality-beta"),
    pytest.param(_NORM + ["--threads", "0"], id="normality-threads"),
    pytest.param(_NORM + ["--quad-panels", "0"], id="normality-quad-panels"),
    pytest.param(_NORM + ["--type", "x"], id="normality-type"),
    pytest.param(_NORM + ["--epsilon", "0.7"], id="normality-epsilon"),
    pytest.param(_SIM + ["--sigma", "inf"], id="simulate-sigma-inf"),
    pytest.param(_SIM + ["--delta", "inf"], id="simulate-delta-inf"),
    pytest.param(_SIM + ["--mode", "one-sided", "--x0", "inf"],
                 id="simulate-one-sided-x0-inf"),
    pytest.param(_DENS + ["--sigma", "inf"], id="density-sigma-inf"),
    pytest.param(_DENS + ["--h", "inf"], id="density-h-inf"),
    pytest.param(_EST + ["--h", "inf"], id="estimate-h-inf"),
    pytest.param(_EST + ["--sigma", "inf"], id="estimate-sigma-inf"),
    pytest.param(_EXP + ["--sigma", "inf"], id="experiment-sigma-inf"),
    pytest.param(_NORM + ["--sigma", "inf"], id="normality-sigma-inf"),
    pytest.param(_NORM[:4] + ["inf"] + _NORM[5:] + ["--mode", "one-sided"],
                 id="normality-one-sided-x0-inf"),
    pytest.param(_EXP + ["--seed", "-1", "--threads", "1"],
                 id="experiment-seed-negative"),
    pytest.param(_NORM + ["--seed", "-1", "--threads", "1"],
                 id="normality-seed-negative"),
    # steps so large that step 0's bridge maximum would overflow
    pytest.param(_SIM[:-1] + ["10", "--sigma", "1e200"],
                 id="simulate-sigma-1e200"),
    pytest.param(_SIM[:-1] + ["10", "--delta", "1e300"],
                 id="simulate-delta-1e300"),
    pytest.param(_SIM[:-1] + ["10", "--lower", "1e308", "--upper", "1.7e308"],
                 id="simulate-start-1.35e308"),
    pytest.param(_EXP + ["--threads", "1", "--sigma", "1e200"],
                 id="experiment-sigma-1e200"),
])
def test_invalid_parameter_value_exits_two(argv, tmp_path, path_csv,
                                          one_sided_csv, capsys):
    threads0 = tmp_path / "threads0.cfg"
    threads0.write_text("threads = 0\n")
    bad_path = tmp_path / "bad.csv"
    bad_path.write_text("# seed=0\nt,x,l_reg,r_reg\n0,1.5,0,0\n0.01,1.5x,0,0\n")
    out = tmp_path / "x.csv"
    argv = [a.format(path=path_csv, one_sided=one_sided_csv,
                     threads0=threads0, bad_path=bad_path) for a in argv]
    assert main(argv + ["--out", str(out)]) == 2
    assert not out.exists()
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    pytest.param(["density", "--case", "3", "--sigma", sigma], "out of range",
                 id=f"density-sigma-{sigma}")
    for sigma in ("1e200", "1e-200", "1e-160")] + [
    pytest.param(_NORM + ["--sigma", "1e-160"], "out of range",
                 id="normality-sigma-1e-160"),
    pytest.param(["density", "--case", "1", "--upper", "5e307"],
                 "grid points must be finite", id="density-upper-5e307"),
    pytest.param(["density", "--case", "1", "--upper", "5e307", "--grid", "3"],
                 "domain width", id="density-upper-5e307-grid-3"),
    pytest.param(["density", "--case", "1", "--upper", "5e307", "--grid", "3",
                  "--quad-panels", "2"], "domain width",
                 id="density-upper-5e307-quad-panels-2"),
    pytest.param(["density", "--case", "3", "--upper", "1e308", "--grid", "1"],
                 "domain width", id="density-case-3-upper-1e308"),
    pytest.param(["density", "--case", "1", "--upper", "2.9e307", "--grid",
                  "3"], "drift overflows", id="density-upper-2.9e307-grid-3"),
])
def test_out_of_range_density_inputs_exit_two_at_once(argv, message, tmp_path,
                                                      capsys):
    # a sigma whose sigma^2 or 2/sigma^2 is not finite, a grid that
    # overflows, or a domain so wide that the graded map's slope 6 W s (1 - s)
    # overflows: refused before the quadrature; a normalizer level that
    # meets a NaN drift: refused before the quadrature doubles; each without
    # a numpy warning
    out = tmp_path / "x.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        started = time.perf_counter()
        assert main(argv + ["--out", str(out)]) == 2
        assert time.perf_counter() - started < 1.0
    assert not out.exists()
    assert message in capsys.readouterr().err


def test_mode_vocabulary(tmp_path):
    rc = parse(["simulate", "--case", "1", "--n", "10", "--mode", "one-sided",
                "--out", str(tmp_path / "x.csv")])
    assert rc.params["mode"] == "one_sided_lower"
    # a single path cannot be simulated under "both"
    assert main(["simulate", "--case", "1", "--n", "10", "--mode", "both",
                 "--out", str(tmp_path / "x.csv")]) == 2


def test_config_file_merging(tmp_path):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("# table setup\nreps = 9\nn-list = 40,80\nseed = 3\n")
    rc = parse(["experiment", "--case", "1", "--config", str(cfgfile),
                "--reps", "2", "--out", str(tmp_path / "t.csv")])
    assert rc.params["reps"] == 2          # command line beats the file
    assert rc.params["n_list"] == (40, 80)  # file beats the default
    assert rc.params["seed"] == 3


def test_config_unknown_key_exits_two(tmp_path, capsys):
    f = tmp_path / "bad.cfg"
    f.write_text("repz = 5\n")
    assert main(["experiment", "--case", "1", "--config", str(f),
                 "--out", str(tmp_path / "o.csv")]) == 2
    capsys.readouterr()


def test_config_maps_in_key(tmp_path):
    pathcsv = tmp_path / "p.csv"
    assert main(["simulate", "--case", "1", "--n", "50", "--seed", "1",
                 "--out", str(pathcsv)]) == 0
    cfgf = tmp_path / "e.cfg"
    cfgf.write_text(f"in = {pathcsv}\nh = 0.3\n")
    rc = parse(["estimate", "--config", str(cfgf),
                "--out", str(tmp_path / "o.csv")])
    assert rc.params["in_path"] == str(pathcsv)
    assert rc.params["h"] == 0.3


@pytest.mark.parametrize("line, argv, message", [
    pytest.param("lower = -1", _DENS, "error: lower barrier must be finite"
                 " and >= 0", id="negative-value-reaches-library"),
    pytest.param("reps = x", ["experiment", "--case", "1"],
                 "argument --reps: invalid int value: 'x'", id="bad-int"),
    pytest.param("mode = two_sided", ["experiment", "--case", "1"],
                 "argument --mode: invalid choice: 'two_sided'",
                 id="internal-mode-name"),
    pytest.param("# header\nrepz = 5", ["experiment", "--case", "1"],
                 "bad.cfg:2: unknown config key 'repz'", id="unknown-key"),
])
def test_config_values_are_checked_as_flags(line, argv, message, tmp_path,
                                            capsys):
    cfgfile = tmp_path / "bad.cfg"
    cfgfile.write_text(line + "\n")
    out = tmp_path / "x.csv"
    assert main(argv + ["--config", str(cfgfile), "--out", str(out)]) == 2
    assert not out.exists()
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("subcommand, reps", [("normality", 500),
                                              ("experiment", 1000)])
def test_help_shows_each_subcommands_defaults(subcommand, reps, capsys):
    assert main([subcommand, "--help"]) == 0
    text = " ".join(capsys.readouterr().out.split())
    assert f"--reps REPS Monte Carlo replications (default: {reps})" in text


_THREADS = os.cpu_count() or 1


# literal parse results, each a flag, a config line or a default; the command
# line wins over the file
@pytest.mark.parametrize("argv, cfg, params, out, seed", [
    (["simulate", "--case", "1", "--n", "50", "--out", "p.csv"], None,
     {"case": 1, "n": 50, "delta": None, "sigma": 0.2, "mode": "two_sided",
      "lower": 0.0, "upper": 3.0, "x0": None, "burn_in": 0, "refine": 1,
      "seed": 0, "out": "p.csv"}, "p.csv", 0),
    (["density", "--case", "2", "--out", "d.csv"], None,
     {"case": 2, "sigma": 0.2, "mode": "two_sided", "lower": 0.0,
      "upper": 3.0, "grid": 300, "h": 0.1, "quad_panels": 1024, "seed": 0,
      "out": "d.csv"}, "d.csv", 0),
    (["estimate", "--in", "p.csv", "--out", "e.csv"], None,
     {"in_path": "p.csv", "mode": "two_sided", "lower": 0.0, "upper": 3.0,
      "h": 0.1, "grid_min": None, "grid_max": None, "grid_count": 300,
      "out": "e.csv"},
     "e.csv", None),
    (["experiment", "--case", "1", "--out", "t.csv"], None,
     {"case": 1, "mode": "both", "sigma": 0.2, "n_list": (400, 900, 1600),
      "beta_list": (0.3, 0.2, 0.15), "reps": 1000, "grid": 300,
      "type": "discrete", "refine": 10, "lower": 0.0, "upper": 3.0,
      "x0": None, "burn_in": 0, "seed": 0, "threads": _THREADS,
      "out": "t.csv"}, "t.csv", 0),
    (["normality", "--case", "2", "--x0", "1.5", "--n", "60", "--beta",
      "0.3"], None,
     {"case": 2, "x0": 1.5, "n": 60, "beta": 0.3, "reps": 500, "sigma": 0.2,
      "mode": "two_sided", "type": "discrete", "refine": 10, "lower": 0.0,
      "upper": 3.0, "burn_in": 0, "epsilon": 0.01, "quad_panels": 1024,
      "seed": 0, "threads": _THREADS, "out": None}, None, 0),
    (["experiment", "--case", "3", "--config", "{cfg}", "--reps", "2",
      "--out", "t.csv"],
     "# table setup\nn-list = 40,80\nmode = one-sided\nreps = 9\nseed = 3\n",
     {"case": 3, "mode": "one_sided_lower", "sigma": 0.2, "n_list": (40, 80),
      "beta_list": (0.3, 0.2, 0.15), "reps": 2, "grid": 300,
      "type": "discrete", "refine": 10, "lower": 0.0, "upper": 3.0,
      "x0": None, "burn_in": 0, "seed": 3, "threads": _THREADS,
      "out": "t.csv"}, "t.csv", 3),
    (["estimate", "--config", "{cfg}", "--h", "0.2", "--out", "e.csv"],
     "in = p.csv\nmode = one-sided\ngrid-min = 0.5\nh = 0.3\n",
     {"in_path": "p.csv", "mode": "one_sided_lower", "lower": 0.0,
      "upper": 3.0, "h": 0.2, "grid_min": 0.5,
      "grid_max": None, "grid_count": 300, "out": "e.csv"},
     "e.csv", None),
])
def test_parse_values_are_pinned(argv, cfg, params, out, seed, tmp_path):
    cfgfile = tmp_path / "run.cfg"
    if cfg is not None:
        cfgfile.write_text(cfg)
    rc = parse([a.format(cfg=cfgfile) for a in argv])
    assert rc.params == params
    assert (rc.params.get("out"), rc.params.get("seed")) == (out, seed)


def test_simulate_writes_reproducible_csv(tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["simulate", "--case", "2", "--n", "200", "--sigma", "0.2",
            "--seed", "9", "--out"]
    assert main(args + [str(out1)]) == 0
    assert main(args + [str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    lines = out1.read_text().splitlines()
    assert lines[0] == "# seed=9"
    assert lines[1] == "t,x,l_reg,r_reg"
    assert len(lines) == 203


def test_estimate_consumes_path_csv(tmp_path):
    pathcsv = tmp_path / "p.csv"
    assert main(["simulate", "--case", "2", "--n", "300", "--seed", "5",
                 "--out", str(pathcsv)]) == 0
    out = tmp_path / "est.csv"
    assert main(["estimate", "--in", str(pathcsv), "--h", "0.25",
                 "--grid-count", "40", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "# seed=5"  # echoed from the input file
    assert lines[1] == "x,estimate,denominator,undefined,boundary"
    assert len(lines) == 42


def test_density_csv(tmp_path):
    out = tmp_path / "d.csv"
    assert main(["density", "--case", "2", "--grid", "50", "--seed", "1",
                 "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "# seed=1"
    assert lines[1] == "x,pi,f,sigma_asym"
    assert len(lines) == 52
    cells = lines[2].split(",")
    assert len(cells) == 4
    assert float(cells[1]) >= 0.0


def test_experiment_cli_table(tmp_path):
    out = tmp_path / "table.csv"
    assert main(["experiment", "--case", "1", "--mode", "both", "--n-list",
                 "40,60", "--beta-list", "0.3", "--reps", "2", "--grid", "10",
                 "--seed", "2", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "# seed=2"
    assert lines[1].startswith("case,mode,n,beta,")
    assert len(lines) == 6
    modes = {ln.split(",")[1] for ln in lines[2:]}
    assert modes == {"two_sided", "one_sided_lower"}


def test_normality_prints_to_stdout_without_out(capsys):
    assert main(["normality", "--case", "2", "--x0", "1.5", "--n", "60",
                 "--beta", "0.3", "--reps", "3", "--seed", "4"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "# seed=4"
    assert out[1] == "case,x0,n,beta,mean_z,var_z,ks_stat,dropped"
    assert len(out) == 3


def test_normality_writes_file_with_out(tmp_path):
    out = tmp_path / "norm.csv"
    assert main(["normality", "--case", "2", "--x0", "1.5", "--n", "60",
                 "--beta", "0.3", "--reps", "3", "--seed", "4",
                 "--out", str(out)]) == 0
    assert out.read_text().splitlines()[0] == "# seed=4"


def test_runtime_error_exits_one_without_partial_file(tmp_path, capsys):
    missing = tmp_path / "nope.csv"
    out = tmp_path / "est.csv"
    assert main(["estimate", "--in", str(missing), "--out", str(out)]) == 1
    assert not out.exists()
    assert "error" in capsys.readouterr().err


_REAL_CELL_SCORE = experiment._cell_score
_TEST_PID = os.getpid()


def _cell_score_dying_in_workers(values, truth):
    # module level, so that pool processes can unpickle it
    if os.getpid() != _TEST_PID:
        os._exit(1)
    return _REAL_CELL_SCORE(values, truth)


def test_dead_worker_process_fails_the_command(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(experiment, "_cell_score",
                        _cell_score_dying_in_workers)
    out = tmp_path / "table.csv"
    assert main(["experiment", "--case", "2", "--mode", "two-sided",
                 "--n-list", "40,60", "--beta-list", "0.3", "--reps", "3",
                 "--grid", "10", "--threads", "2", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "refsde experiment: error:" in err
    assert "process pool" in err
    assert not out.exists()


def test_main_accepts_parsed_runconfig(tmp_path):
    out = tmp_path / "p.csv"
    rc = parse(["simulate", "--case", "1", "--n", "20", "--seed", "0",
                "--out", str(out)])
    assert main(rc) == 0
    assert out.exists()


def test_cli_import_leaves_scipy_unloaded():
    # scipy is a test dependency only, and importing scipy.stats costs about
    # a second and 70 MB: neither importing the CLI nor a normality run, which
    # computes a KS statistic, may load it
    src = str(Path(refsde.__file__).resolve().parents[1])
    scipy_modules = ("sorted(m for m in sys.modules "
                     "if m.split('.')[0] == 'scipy')")
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, refsde.cli; "
         f"print({scipy_modules}, file=sys.stderr); "
         "rc = refsde.cli.main(['normality', '--case', '2', '--x0', '1.5', "
         "'--n', '400', '--beta', '0.3', '--reps', '5', '--threads', '1', "
         "'--seed', '0']); "
         f"print({scipy_modules}, rc, file=sys.stderr)"],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src})
    assert proc.stdout.startswith("# seed=0\ncase,x0,n,beta,mean_z")
    assert proc.stderr.splitlines()[0] == "[]"
    assert proc.stderr.splitlines()[-1] == "[] 0"


def _fresh(code, **env):
    """Run python -c code with the checkout's src on the path, and env's
    variables set, or unset where they are None."""
    src = str(Path(refsde.__file__).resolve().parents[1])
    env = {**os.environ, **env, "PYTHONPATH": src}
    return subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True,
                          env={k: v for k, v in env.items() if v is not None})


def test_process_pool_is_imported_only_where_one_is_built(tmp_path):
    # concurrent.futures pulls in multiprocessing, socket and logging; a
    # command that builds no pool must not pay for their import
    pool_loaded = "'concurrent.futures.process' in sys.modules"
    density = _fresh(
        f"import sys, refsde.cli; print({pool_loaded}, file=sys.stderr); "
        "rc = refsde.cli.main(['density', '--case', '3', '--grid', '5', "
        f"'--out', {str(tmp_path / 'd.csv')!r}]); "
        f"print({pool_loaded}, rc, file=sys.stderr)")
    assert density.returncode == 0, density.stderr
    assert density.stderr.splitlines()[0] == "False"
    assert density.stderr.splitlines()[-1] == "False 0"
    # two (mode, n) groups are two batches, so --threads 2 builds a pool
    pooled = _fresh(
        "import sys, refsde.cli; "
        "rc = refsde.cli.main(['experiment', '--case', '1', '--mode', "
        "'two-sided', '--n-list', '40,60', '--beta-list', '0.3', '--reps', "
        "'2', '--grid', '10', '--threads', '2', "
        f"'--out', {str(tmp_path / 't.csv')!r}]); "
        f"print({pool_loaded}, rc, file=sys.stderr)")
    assert pooled.returncode == 0, pooled.stderr
    assert pooled.stderr.splitlines()[-1] == "True 0"


def test_normality_stdout_is_whole_at_exit(tmp_path):
    # block-buffered stdout is flushed at interpreter exit, after main froze
    # the heap
    out = tmp_path / "norm.csv"
    argv = _NORM + ["--seed", "4", "--threads", "1"]
    assert main(argv + ["--out", str(out)]) == 0
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(refsde.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-m", "refsde", *argv],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == out.read_text()
    assert len(proc.stdout.splitlines()) == 3


def test_density_file_holds_every_grid_row(tmp_path):
    out = tmp_path / "d.csv"
    proc = _fresh("import sys, refsde.cli; sys.exit(refsde.cli.main(["
                  "'density', '--case', '3', '--grid', '30', '--mode', "
                  f"'one-sided', '--out', {str(out)!r}]))")
    assert proc.returncode == 0, proc.stderr
    lines = out.read_text().splitlines()
    assert lines[:2] == ["# seed=0", "x,pi,f,sigma_asym"]
    assert len(lines) == 32
    assert all(len(line.split(",")) == 4 for line in lines[2:])


def test_rejected_value_in_fresh_process_exits_two(tmp_path):
    out = tmp_path / "d.csv"
    proc = _fresh("import sys, refsde.cli; sys.exit(refsde.cli.main(["
                  f"'density', '--case', '3', '--grid', '0', '--out', "
                  f"{str(out)!r}]))")
    assert proc.returncode == 2
    assert proc.stderr == "refsde density: error: count must be positive\n"
    assert not out.exists()


def test_repeated_in_process_runs_are_identical(tmp_path):
    outs = [tmp_path / "a.csv", tmp_path / "b.csv"]
    for out in outs:
        assert main(["density", "--case", "3", "--grid", "20", "--out",
                     str(out)]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()
    # main froze the heap it started with and left the collector on
    assert gc.get_freeze_count() > 0
    assert gc.isenabled()


def test_module_entrypoint(tmp_path):
    out = tmp_path / "p.csv"
    src = str(Path(refsde.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "refsde", "simulate", "--case", "1", "--n",
         "20", "--seed", "0", "--out", str(out)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0
    assert out.exists()
    assert "refsde simulate:" in proc.stderr


def test_blas_threads_do_not_move_density_bytes(tmp_path):
    # at 8192 panels one target fills a block, and a threaded gemv splits
    # its sum by thread: the CLI runs BLAS serially whatever the caller set
    src = str(Path(refsde.__file__).resolve().parents[1])
    outs = []
    for threads in ("1", "2"):
        outs.append(tmp_path / f"d{threads}.csv")
        proc = subprocess.run(
            [sys.executable, "-m", "refsde", "density", "--case", "3",
             "--mode", "two-sided", "--grid", "1", "--quad-panels", "8192",
             "--out", str(outs[-1])],
            capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": src,
                 "OPENBLAS_NUM_THREADS": threads})
        assert proc.returncode == 0, proc.stderr
    assert outs[0].read_bytes() == outs[1].read_bytes()


def test_package_import_leaves_numpy_unloaded():
    proc = _fresh("import sys, refsde; print('numpy' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_cli_import_pins_blas_threads():
    proc = _fresh("import os, refsde.cli; "
                  "print(os.environ['OPENBLAS_NUM_THREADS'])",
                  OPENBLAS_NUM_THREADS="4")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "1\n"


@pytest.mark.parametrize("value", ["4", None])
def test_cli_import_after_numpy_leaves_blas_threads(value):
    # numpy's BLAS has its threads by then, so the CLI leaves the variable,
    # and what later child processes inherit, as the caller set it
    proc = _fresh("import subprocess, sys, numpy, refsde.cli; "
                  "print(subprocess.run([sys.executable, '-c', 'import os; "
                  "print(os.environ.get(\"OPENBLAS_NUM_THREADS\"))'], "
                  "capture_output=True, text=True).stdout, end='')",
                  OPENBLAS_NUM_THREADS=value)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"{value}\n"


_EXPORTS = {
    "density": ["InvariantDensity", "ModelNotErgodicError",
                "UndefinedVarianceError", "f_eval", "invariant_density",
                "pi_eval", "sigma_eval"],
    "estimate": ["EstimateResult", "bandwidth", "delta_of_n",
                 "nw_continuous", "nw_discrete", "write_estimate_csv"],
    "experiment": ["CellFailure", "ExperimentPlan", "McSummary",
                   "NoDataError", "NormalityReport", "ReplicationError",
                   "estimation_grid", "normality_check", "rase",
                   "replication_seed", "run_cell", "run_table",
                   "write_normality_csv", "write_summary_csv"],
    "model": ["BarrierConfig", "DriftSpec", "KernelSpec", "SamplePath",
              "builtin_drift", "epanechnikov"],
    "simulate": ["SimConfig", "SimulationDivergedError", "read_path_csv",
                 "simulate_fine", "simulate_path", "write_path_csv"],
}


def test_package_names_resolve_to_their_modules():
    proc = _fresh(
        "import importlib, refsde; "
        f"exports = {_EXPORTS!r}; "
        "print(sorted(refsde.__all__)); "
        "print(all(getattr(refsde, name) is getattr(importlib.import_module("
        "'refsde.' + mod), name) for mod, names in exports.items() "
        "for name in names)); "
        "print(set(refsde.__all__) <= set(dir(refsde)))")
    assert proc.returncode == 0, proc.stderr
    names = sorted(name for names in _EXPORTS.values() for name in names)
    assert len(names) == 39
    assert proc.stdout.splitlines() == [repr(names), "True", "True"]


def test_package_keeps_version_and_refuses_unknown_names():
    proc = _fresh(
        "import refsde; print(refsde.__version__); "
        "from refsde import cli, experiment; print(cli.__name__, "
        "experiment.__name__); refsde.no_such_name")
    assert proc.returncode == 1
    assert proc.stdout == "0.1.0\nrefsde.cli refsde.experiment\n"
    assert proc.stderr.endswith(
        "AttributeError: module 'refsde' has no attribute 'no_such_name'\n")


_BENCH = Path(__file__).resolve().parents[1] / "bench"
_SMOKE = [(f"{name}-{i}", cmd) for name, spec in json.loads(
    (_BENCH / "spec.json").read_text())["workloads"].items()
    for i, cmd in enumerate(spec["smoke"])]


@pytest.mark.parametrize("cmd", [c for _, c in _SMOKE],
                         ids=[i for i, _ in _SMOKE])
def test_traced_smoke_command_matches_untraced(cmd, tmp_path):
    # the benchmark's tracer wraps refsde names by attribute; a rename or
    # removal of one of them fails here, not only in the benchmark's suite
    env = {**os.environ,
           "PYTHONPATH": str(Path(refsde.__file__).resolve().parents[1])}
    traced, plain = tmp_path / "traced.csv", tmp_path / "plain.csv"
    proc = subprocess.run(
        [sys.executable, str(_BENCH / "traced.py"), str(tmp_path / "t.json"),
         "--", *cmd, "--out", str(traced)],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    proc = subprocess.run(
        [sys.executable, "-m", "refsde", *cmd, "--out", str(plain)],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert traced.read_bytes() == plain.read_bytes()
