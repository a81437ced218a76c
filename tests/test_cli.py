"""Command-line front-end tests: parsing, exit codes, artifacts."""

import json
import os

import numpy as np
import pytest

from hfsense.cli import EXIT_CONFIG, EXIT_FAIL, EXIT_PASS, build_parser, main
from hfsense.sim import Trace

FAST = """\
[motor]
n_p = 6
R_s = 0.43
L_d = 5.74e-3
L_q = 8.68e-3
Phi = 0.11
J = 0.01

[simulation]
duration = 0.3
decimation = 5
"""

DRIVEN = """\
[motor]
n_p = 6
R_s = 0.43
L_d = 5.74e-3
L_q = 8.68e-3
Phi = 0.11
J = 0.01

[simulation]
duration = 2.0
decimation = 5
mode = driven

[drive]
profile = constant
omega = 2.0
"""


@pytest.fixture
def fast_scenario(tmp_path):
    p = tmp_path / "fast.scenario"
    p.write_text(FAST)
    return p


@pytest.fixture
def driven_scenario(tmp_path):
    p = tmp_path / "driven.scenario"
    p.write_text(DRIVEN)
    return p


def _summary(outdir):
    with open(outdir / "summary.json") as fh:
        return json.load(fh)


def test_parser_defaults(monkeypatch):
    monkeypatch.delenv("HFSENSE_CONFIG", raising=False)
    args = build_parser().parse_args(["run"])
    assert args.out == "out"
    assert args.workers == 1
    assert args.seed is None


def test_parser_env_overrides(monkeypatch):
    monkeypatch.setenv("HFSENSE_OUT", "/tmp/elsewhere")
    monkeypatch.setenv("HFSENSE_WORKERS", "4")
    monkeypatch.setenv("HFSENSE_SEED", "7")
    args = build_parser().parse_args(["run"])
    assert args.out == "/tmp/elsewhere"
    assert args.workers == 4
    assert args.seed == 7


@pytest.mark.parametrize("name", ["WORKERS", "SEED"])
def test_non_integer_env_is_config_error(name, fast_scenario, tmp_path,
                                         monkeypatch, capsys):
    monkeypatch.setenv(f"HFSENSE_{name}", "abc")
    rc = main(["--config", str(fast_scenario), "--out", str(tmp_path), "run"])
    assert rc == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.strip() == f"config error: HFSENSE_{name}='abc' is not an integer"


def test_band_argument_rejects_inverted():
    with pytest.raises(SystemExit):
        build_parser().parse_args(
            ["compare-rmsd", "--band-proposed", "2:1"])


def test_missing_config_is_config_error(tmp_path, monkeypatch):
    monkeypatch.delenv("HFSENSE_CONFIG", raising=False)
    assert main(["--out", str(tmp_path), "run"]) == EXIT_CONFIG


def test_unreadable_config_is_config_error(tmp_path):
    assert main(["--config", str(tmp_path / "nope.scenario"),
                 "--out", str(tmp_path), "run"]) == EXIT_CONFIG


def test_directory_as_config_is_config_error(tmp_path, capsys):
    rc = main(["--config", str(tmp_path), "--out", str(tmp_path / "o"), "run"])
    assert rc == EXIT_CONFIG
    assert capsys.readouterr().err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["bode", "--omega-min", "0"],
    ["bode", "--omega-min", "10", "--omega-max", "10"],
    ["bode", "--omega-max", "inf"],
    ["bode", "--points", "1"],
    ["equivalence", "--duration", "-1"],
    ["equivalence", "--duration", "0.002"],
    ["sweep-frequency", "--frequencies", "1000", "--t1", "0.1", "--t2", "0.2"],
    ["sweep-frequency", "--frequencies", "1000,1000", "--t1", "0.1",
     "--t2", "0.2"],
    ["sweep-frequency", "--frequencies", "0,1000", "--t1", "0.1",
     "--t2", "0.2"],
])
def test_bad_verb_arguments_are_config_errors(argv, fast_scenario, tmp_path,
                                              capsys):
    out = tmp_path / "out"
    rc = main(["--config", str(fast_scenario), "--out", str(out)] + argv)
    assert rc == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert not (out / "summary.json").exists()


def test_invalid_config_is_config_error(tmp_path):
    p = tmp_path / "bad.scenario"
    p.write_text("[motor]\nn_p = 6\n")
    assert main(["--config", str(p), "--out", str(tmp_path), "run"]) == EXIT_CONFIG


def test_invalid_scenario_value_is_one_line(tmp_path, capsys):
    p = tmp_path / "bad_gain.scenario"
    p.write_text(FAST + "\n[estimator]\nomega_star = -1\n")
    rc = main(["--config", str(p), "--out", str(tmp_path / "o"), "run"])
    assert rc == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert "omega_star" in err


@pytest.mark.parametrize("kind,rc", [("both", EXIT_CONFIG),
                                     ("proposed", EXIT_PASS)])
def test_lti_corner_above_nyquist(tmp_path, capsys, kind, rc):
    """lambda_h*Ts >= pi breaks the LTI high pass's prewarp; that is a config
    error only where the LTI chain is built."""
    p = tmp_path / "nyquist.scenario"
    p.write_text(FAST.replace("duration = 0.3", "duration = 0.05")
                 + "Ts = 2e-5\n\n[controller]\nsensor_mode = true\n"
                 f"\n[estimator]\nkind = {kind}\nlambda_h = 200000\n")
    assert main(["--config", str(p), "--out", str(tmp_path / "o"), "run"]) == rc
    if rc == EXIT_CONFIG:
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert "lambda_h" in err


def test_divergence_inside_a_step_is_one_line(tmp_path, capsys):
    p = tmp_path / "tiny_inertia.scenario"
    p.write_text(FAST.replace("J = 0.01", "J = 1e-320")
                 .replace("duration = 0.3", "duration = 0.05"))
    rc = main(["--config", str(p), "--out", str(tmp_path / "o"), "run"])
    assert rc == EXIT_FAIL
    err = capsys.readouterr().err
    assert err.startswith("simulation aborted: ") and err.count("\n") == 1
    assert "t=" in err


def test_run_writes_trace_and_summary(fast_scenario, tmp_path):
    out = tmp_path / "out"
    rc = main(["--config", str(fast_scenario), "--out", str(out), "run"])
    assert rc == EXIT_PASS
    tr = Trace.from_csv(out / "trace.csv")
    assert len(tr) > 0
    s = _summary(out)
    assert s["command"] == "run" and s["passed"]
    assert s["t_end"] == pytest.approx(0.3)


def test_compare_rmsd_exit_codes(fast_scenario, tmp_path):
    out = tmp_path / "out"
    base = ["--config", str(fast_scenario), "--out", str(out), "compare-rmsd",
            "--t1", "0.1", "--t2", "0.3"]
    assert main(base + ["--band-proposed", "0:1",
                        "--band-conventional", "0:1"]) == EXIT_PASS
    assert _summary(out)["passed"]
    # an impossible band must fail with exit code 1
    assert main(base + ["--band-proposed", "0.9:1.0",
                        "--band-conventional", "0:1"]) == EXIT_FAIL
    assert not _summary(out)["passed"]


def test_compare_rmsd_default_bands(fast_scenario, driven_scenario, tmp_path):
    out = tmp_path / "out"
    main(["--config", str(fast_scenario), "--out", str(out), "compare-rmsd",
          "--t1", "0.1", "--t2", "0.3", "--band-conventional", "0:1"])
    s = _summary(out)
    lo, hi = s["band_proposed"]
    assert lo > 0.0 and hi == pytest.approx(2.0 * lo)
    assert s["band_conventional"] == [0.0, 1.0]
    # no steady lag limit for a driven shaft: the default band is a config error
    assert main(["--config", str(driven_scenario), "--out", str(out),
                 "compare-rmsd"]) == EXIT_CONFIG


def test_sweep_frequency_artifacts(driven_scenario, tmp_path):
    out = tmp_path / "out"
    rc = main(["--config", str(driven_scenario), "--out", str(out),
               "sweep-frequency", "--frequencies", "500,1000",
               "--t1", "1.0", "--t2", "2.0", "--slope-band=-5:5"])
    assert rc == EXIT_PASS
    arr = np.loadtxt(out / "sweep.csv", delimiter=",", skiprows=1)
    assert arr.shape == (2, 3)
    assert "slope" in _summary(out)


def test_residual_order_fast(fast_scenario, tmp_path):
    out = tmp_path / "out"
    p = tmp_path / "sensor.scenario"
    p.write_text(FAST + "\n[controller]\nsensor_mode = true\n")
    rc = main(["--config", str(p), "--out", str(out), "residual-order",
               "--t1", "0.1", "--t2", "0.3", "--ratio-band", "2:8"])
    assert rc == EXIT_PASS
    s = _summary(out)
    assert s["norm_eps"] > s["norm_eps_half"] > 0.0


def test_bode_exports(fast_scenario, tmp_path):
    out = tmp_path / "out"
    rc = main(["--config", str(fast_scenario), "--out", str(out), "bode",
               "--points", "32"])
    assert rc == EXIT_PASS
    for name in ("gd", "hpf", "lpf"):
        tab = np.loadtxt(out / f"bode_{name}.csv", delimiter=",", skiprows=1)
        assert tab.shape == (32, 3)


def test_equivalence_command(fast_scenario, tmp_path):
    out = tmp_path / "out"
    rc = main(["--config", str(fast_scenario), "--out", str(out),
               "equivalence", "--duration", "0.3"])
    assert rc == EXIT_PASS
    assert _summary(out)["max_rel_yv_deviation"] < 1e-9


def test_calibrate_command(driven_scenario, tmp_path):
    out = tmp_path / "out"
    rc = main(["--config", str(driven_scenario), "--out", str(out),
               "calibrate"])
    assert rc == EXIT_PASS
    s = _summary(out)
    assert s["ell1"] == pytest.approx(1.0, abs=0.05)


def test_seed_override(fast_scenario, tmp_path):
    p = tmp_path / "noisy.scenario"
    p.write_text(FAST + "noise_std = 1e-3\n")
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(["--config", str(p), "--out", str(out_a), "--seed", "5",
                 "run"]) == EXIT_PASS
    assert main(["--config", str(p), "--out", str(out_b), "--seed", "9",
                 "run"]) == EXIT_PASS
    a = Trace.from_csv(out_a / "trace.csv")
    b = Trace.from_csv(out_b / "trace.csv")
    assert not np.array_equal(a.i_alpha, b.i_alpha)
