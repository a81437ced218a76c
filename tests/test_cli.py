"""Command-line front-end tests: parsing, exit codes, artifacts."""

import json
import os
import warnings

import numpy as np
import pytest

from hfsense.cli import EXIT_CONFIG, EXIT_FAIL, EXIT_PASS, build_parser, main
from hfsense.sim import TRACE_COLUMNS

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

SENSOR = FAST + "\n[controller]\nsensor_mode = true\n"

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


def _trace(outdir):
    return np.loadtxt(outdir / "trace.csv", delimiter=",", skiprows=1,
                      ndmin=2)


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


def test_empty_env_counts_as_unset(monkeypatch, fast_scenario, tmp_path):
    """An empty HFSENSE_OUT, like an empty HFSENSE_CONFIG, HFSENSE_WORKERS
    or HFSENSE_SEED, leaves the flag's default: outputs go to ./out, not
    into the working directory itself."""
    for name in ("CONFIG", "OUT", "WORKERS", "SEED"):
        monkeypatch.setenv(f"HFSENSE_{name}", "")
    args = build_parser().parse_args(["run"])
    assert (args.config, args.out, args.workers, args.seed) == (
        None, "out", 1, None)
    monkeypatch.chdir(tmp_path)
    assert main(["--config", str(fast_scenario), "bode", "--points",
                 "8"]) == EXIT_PASS
    assert (tmp_path / "out" / "summary.json").exists()
    assert not (tmp_path / "summary.json").exists()


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


@pytest.mark.parametrize("band", ["nan:5", "1:nan", "0:inf", "1:-inf"])
def test_band_argument_rejects_non_finite(band, fast_scenario, tmp_path,
                                          capsys):
    """A NaN end used to pass the hi > lo check, so every ratio failed the
    band; a rejected flag is one config error line, exit 2."""
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["--config", str(fast_scenario), "--out", str(out),
              "residual-order", "--t1", "0.1", "--t2", "0.2",
              "--ratio-band", band])
    assert exc.value.code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert band in err
    assert not (out / "summary.json").exists()


@pytest.mark.parametrize("flag,verb", [
    ("--band-proposed", ["compare-rmsd"]),
    ("--band-conventional", ["compare-rmsd"]),
    ("--slope-band", ["sweep-frequency", "--t1", "1", "--t2", "2"]),
    ("--ratio-band", ["residual-order", "--t1", "1", "--t2", "2"]),
])
@pytest.mark.parametrize("joined", [False, True], ids=["separate", "equals"])
def test_band_with_negative_lower_end_parses(flag, verb, joined):
    """A band whose lower end is negative looks like a flag to argparse;
    "--flag -1:2" and "--flag=-1:2" must give the same band."""
    words = [f"{flag}=-1:2"] if joined else [flag, "-1:2"]
    args = build_parser().parse_args(verb + words)
    assert getattr(args, flag[2:].replace("-", "_")) == (-1.0, 2.0)


@pytest.mark.parametrize("flag,verb", [
    ("--band-proposed", ["compare-rmsd"]),
    ("--slope-band", ["sweep-frequency", "--t1", "1", "--t2", "2"]),
])
@pytest.mark.parametrize("value", ["-1:-2", "-nan:2", "-1", "-x:2"])
def test_bad_negative_band_is_one_config_error(flag, verb, value, tmp_path,
                                               capsys):
    """A band that starts with "-" but is invalid still ends in one config
    error line and exit 2, in both spellings."""
    for words in ([flag, value], [f"{flag}={value}"]):
        with pytest.raises(SystemExit) as exc:
            main(["--config", str(tmp_path / "unread.scenario"),
                  "--out", str(tmp_path / "o"), *verb, *words])
        assert exc.value.code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert flag in err


def test_band_flag_without_value_is_config_error(capsys):
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["compare-rmsd", "--band-proposed"])
    assert exc.value.code == EXIT_CONFIG
    assert capsys.readouterr().err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["sweep-frequency", "--t1", "1", "--t2", "2", "--slope", "1:2"],
    ["sweep-frequency", "--t1", "1", "--t2", "2", "--slope", "-1:2"],
    ["equivalence", "--dur", "0.1"],
], ids=["slope", "slope-negative", "equivalence-dur"])
def test_abbreviated_flag_is_one_config_error(argv, tmp_path, capsys):
    """A flag has one spelling: a prefix of it is rejected, not expanded,
    so a band value starting with "-" cannot parse one way and fail the
    other."""
    with pytest.raises(SystemExit) as exc:
        main(["--config", str(tmp_path / "unread.scenario"),
              "--out", str(tmp_path / "o"), *argv])
    assert exc.value.code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert not (tmp_path / "o").exists()


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


BANDS = ["--band-proposed", "0:1", "--band-conventional", "0:1"]

_BAD_VERB_ARGUMENTS = [
    (FAST, ["bode", "--omega-min", "0"]),
    (FAST, ["bode", "--omega-min", "10", "--omega-max", "10"]),
    (FAST, ["bode", "--omega-max", "inf"]),
    (FAST, ["bode", "--points", "1"]),
    (FAST, ["equivalence", "--duration", "-1"]),
    (FAST, ["equivalence", "--duration", "0.002"]),
    (FAST, ["sweep-frequency", "--frequencies", "1000", "--t1", "0.1",
            "--t2", "0.2"]),
    (FAST, ["sweep-frequency", "--frequencies", "1000,1000", "--t1", "0.1",
            "--t2", "0.2"]),
    (FAST, ["sweep-frequency", "--frequencies", "0,1000", "--t1", "0.1",
            "--t2", "0.2"]),
    (FAST, ["compare-rmsd", "--t1", "0.2", "--t2", "0.1"] + BANDS),
    # one trace record (every 1e-4 s) inside the window: no RMSD to take
    (FAST, ["compare-rmsd", "--t1", "0.10005", "--t2", "0.10015"] + BANDS),
    # closed loop outside sensor mode: the paired runs differ in control law
    (FAST, ["residual-order", "--t1", "0.1", "--t2", "0.3"],
     "paired runs need sensor mode"),
    (SENSOR, ["residual-order", "--t1", "0.3", "--t2", "0.1"]),
    # no drive profile to calibrate against
    (FAST, ["calibrate"]),
    (FAST, ["--workers", "0", "sweep-frequency", "--frequencies", "500,1000",
            "--t1", "0.1", "--t2", "0.2"]),
    # a NaN or negative tolerance used to run and print FAIL
    (FAST, ["equivalence", "--tolerance", "nan"]),
    (FAST, ["equivalence", "--tolerance", "-1"]),
    # NaN ripple scale used to fail inside round(); -1 gave a nonsense fit
    (DRIVEN, ["calibrate", "--ripple-scale", "nan"]),
    (DRIVEN, ["calibrate", "--ripple-scale", "-1"]),
    (DRIVEN, ["calibrate", "--phase-err", "inf"]),
    # the check runs both axes at one gain; unequal gains used to be
    # replaced by gamma_alpha without a word
    (FAST + "\n[estimator]\ngamma_alpha = 1.25e4\ngamma_beta = 2.5e4\n",
     ["equivalence", "--duration", "0.01"]),
    # probe off: no saliency signal to measure; with both bands given,
    # compare-rmsd used to run and exit 1
    (FAST + "\n[injection]\nenabled = false\n",
     ["compare-rmsd", "--t1", "0.1", "--t2", "0.3"] + BANDS, "probe-off"),
    (DRIVEN + "\n[injection]\nenabled = false\n",
     ["sweep-frequency", "--t1", "1", "--t2", "2"], "probe-off"),
    # windows from t = 0 measure the estimators' warm-up (2*epsilon)
    (FAST, ["compare-rmsd", "--t1", "0", "--t2", "0.3"] + BANDS, "warm-up"),
    (DRIVEN, ["sweep-frequency", "--t1", "0", "--t2", "1"], "warm-up"),
    # a locus at 2*n_p*|omega| above omega_h: calibrate used to fit it
    (DRIVEN.replace("omega = 2.0", "omega = 1e306"), ["calibrate"],
     "locus frequency"),
    # a ripple whose fitted gains are not finite: calibrate used to pass
    # with ell3 = inf, or print numpy warnings and then name ell1, ell3
    (DRIVEN, ["calibrate", "--ripple-scale", "1e-310"], "compensation gains"),
    (DRIVEN, ["calibrate", "--ripple-scale", "1e308"], "compensation gains"),
]


# ids as pytest numbered the cases when argv was the only parameter; a
# case's third element, where given, is text its error line must contain
@pytest.mark.parametrize(
    "scenario,argv,message", [(*case, "")[:3] for case in _BAD_VERB_ARGUMENTS],
    ids=[f"argv{i}" for i in range(len(_BAD_VERB_ARGUMENTS))])
def test_bad_verb_arguments_are_config_errors(scenario, argv, message,
                                              tmp_path, capsys):
    p = tmp_path / "case.scenario"
    p.write_text(scenario)
    out = tmp_path / "out"
    rc = main(["--config", str(p), "--out", str(out)] + argv)
    assert rc == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert message in err
    assert not (out / "summary.json").exists()


@pytest.mark.parametrize("verb", [["equivalence", "--duration", "0.01"],
                                  ["calibrate"]])
def test_out_naming_a_file_is_config_error(verb, driven_scenario, tmp_path,
                                           capsys):
    """A verb that writes only summary.json still maps the failed write to
    one config error line."""
    out = tmp_path / "taken"
    out.write_text("not a directory\n")
    rc = main(["--config", str(driven_scenario), "--out", str(out)] + verb)
    assert rc == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert str(out) in err


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
    """The LTI high pass sits at omega_h, and at N = 2 steps per probe period
    omega_h*Ts = pi breaks its prewarp; that is a config error only where
    the LTI chain is built, and it names the keys that set omega_h*Ts."""
    p = tmp_path / "nyquist.scenario"
    p.write_text(FAST.replace("duration = 0.3",
                              "duration = 0.05\nsteps_per_period = 2")
                 + "\n[controller]\nsensor_mode = true\n"
                 f"\n[estimator]\nkind = {kind}\n")
    assert main(["--config", str(p), "--out", str(tmp_path / "o"), "run"]) == rc
    if rc == EXIT_CONFIG:
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert "epsilon, steps_per_period" in err and "Nyquist" in err


def test_divergence_inside_a_step_is_one_line(tmp_path, capsys):
    p = tmp_path / "tiny_inertia.scenario"
    p.write_text(FAST.replace("J = 0.01", "J = 1e-320")
                 .replace("duration = 0.3", "duration = 0.05"))
    rc = main(["--config", str(p), "--out", str(tmp_path / "o"), "run"])
    assert rc == EXIT_FAIL
    err = capsys.readouterr().err
    assert err.startswith("simulation aborted: ") and err.count("\n") == 1
    assert "t=" in err


_REVERSAL = "profile = reversal\nomega = 2.0\n"


@pytest.mark.parametrize("drive,rc", [
    ("profile = constant\nomega = 1e306\n", EXIT_FAIL),
    (_REVERSAL + "omega_end = 4.0\nt_ramp_start = 0\nt_ramp_end = 1e308\n",
     EXIT_CONFIG),
    (_REVERSAL + "omega_end = -2.0\nt_ramp_start = 1e308\n"
     "t_ramp_end = 1.5e308\n", EXIT_CONFIG)],
    ids=["fast_drive", "long_ramp", "far_ramp_start"])
def test_drive_overflow_is_one_line(drive, rc, tmp_path, capsys):
    """A drive whose step maps overflow ends in the one "simulation
    aborted" line, with no numpy warning before it, and leaves a failed
    summary that states the reason.  A ramp whose angle is not a finite
    number is rejected with the scenario: one config error line that names
    the ramp's keys."""
    p = tmp_path / "overflow.scenario"
    p.write_text(DRIVEN.replace("duration = 2.0", "duration = 0.05")
                 .replace("profile = constant\nomega = 2.0\n", drive))
    out = tmp_path / "o"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["--config", str(p), "--out", str(out), "run"]) == rc
    assert [str(w.message) for w in caught] == []
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    if rc == EXIT_FAIL:
        assert err.startswith("simulation aborted: ")
        s = _summary(out)
        assert s["passed"] is False and "reason" in s
    else:
        assert err.startswith("config error: ")
        assert "t_ramp_start" in err and "t_ramp_end" in err
        assert not (out / "summary.json").exists()


def test_diverged_run_leaves_failed_summary(tmp_path, capsys):
    """A diverged run replaces the passing summary of an earlier run in the
    same --out with passed: false and the reason."""
    out = tmp_path / "o"
    good = tmp_path / "good.scenario"
    good.write_text(FAST.replace("duration = 0.3", "duration = 0.05"))
    assert main(["--config", str(good), "--out", str(out), "run"]) == EXIT_PASS
    assert _summary(out)["passed"]
    bad = tmp_path / "tiny_inertia.scenario"
    bad.write_text(good.read_text().replace("J = 0.01", "J = 1e-320"))
    capsys.readouterr()
    assert main(["--config", str(bad), "--out", str(out), "run"]) == EXIT_FAIL
    assert capsys.readouterr().err.count("\n") == 1
    s = _summary(out)
    assert s["command"] == "run" and s["passed"] is False
    assert "t=" in s["reason"]


def test_run_writes_trace_and_summary(fast_scenario, tmp_path):
    out = tmp_path / "out"
    rc = main(["--config", str(fast_scenario), "--out", str(out), "run"])
    assert rc == EXIT_PASS
    with open(out / "trace.csv") as fh:
        assert fh.readline().strip() == ",".join(TRACE_COLUMNS)
    assert _trace(out).shape[0] > 0
    s = _summary(out)
    assert s["command"] == "run" and s["passed"]
    assert s["t_end"] == pytest.approx(0.3)


def test_drive_section_alone_makes_the_run_driven(tmp_path):
    """A [drive] section is all that makes a run driven: the shaft turns at
    the profile's speed from the first record on."""
    p = tmp_path / "driven.scenario"
    p.write_text(DRIVEN.replace("duration = 2.0", "duration = 0.05"))
    out = tmp_path / "out"
    assert main(["--config", str(p), "--out", str(out), "run"]) == EXIT_PASS
    omega = _trace(out)[:, TRACE_COLUMNS.index("omega")]
    assert len(omega) > 1 and np.all(omega == 2.0)
    assert _summary(out)["omega_end"] == 2.0


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


def test_sweep_window_below_two_samples_is_config_error(tmp_path, capsys):
    """A window between two records holds no error to take a spread of:
    one config error line and exit 2, as rmsd rejects it, not numpy
    warnings and a NaN that has no logarithm."""
    p = tmp_path / "short.scenario"
    p.write_text(DRIVEN.replace("duration = 2.0", "duration = 1.1"))
    rc = main(["--config", str(p), "--out", str(tmp_path / "o"),
               "sweep-frequency", "--t1", "1.00001", "--t2", "1.00002",
               "--metric", "ripple", "--frequencies", "500,1000"])
    assert rc == EXIT_CONFIG
    assert capsys.readouterr().err == ("config error: window [1.00001, "
                                       "1.00002] holds fewer than 2 "
                                       "samples\n")


# sizes no host holds, which numpy refuses at once: 8e17 bytes of grid,
# and 5e16 samples of the replay
@pytest.mark.parametrize("argv,flag", [
    (["bode", "--points", str(10 ** 17)], "--points"),
    (["equivalence", "--duration", "1e12"], "--duration")])
def test_unallocatable_flag_value_is_one_config_error(argv, flag,
                                                      fast_scenario,
                                                      tmp_path, capsys):
    out = tmp_path / "o"
    rc = main(["--config", str(fast_scenario), "--out", str(out)] + argv)
    assert rc == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert f" {flag} " in err
    assert not out.exists()


@pytest.mark.parametrize("verb", [["calibrate"],
                                  ["residual-order", "--t1", "0.1",
                                   "--t2", "0.2"]])
def test_unallocatable_replay_grid_is_one_config_error(verb, tmp_path,
                                                       capsys):
    """The record grid of 5e16 steps, which the calibration replay and the
    residual's window check build before any run, is reported as `run`
    reports it."""
    p = tmp_path / "long.scenario"
    p.write_text(DRIVEN.replace("duration = 2.0", "duration = 1e12"))
    out = tmp_path / "o"
    rc = main(["--config", str(p), "--out", str(out)] + verb)
    assert rc == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: scenario too large: duration = "
                          "1e+12 s") and err.count("\n") == 1
    assert not out.exists()


def test_sweep_without_estimator_is_config_error(tmp_path, capsys):
    """A run of estimator kind none carries no angle: the sweep used to fit
    the all-zero prop_theta_hat column, print a steady error and pass."""
    p = tmp_path / "none.scenario"
    p.write_text(DRIVEN + "\n[estimator]\nkind = none\n")
    out = tmp_path / "o"
    rc = main(["--config", str(p), "--out", str(out), "sweep-frequency",
               "--t1", "1", "--t2", "2", "--frequencies", "500,1000"])
    assert rc == EXIT_CONFIG
    assert capsys.readouterr().err == ("config error: a sweep point runs no "
                                       "estimator to measure\n")
    assert not (out / "summary.json").exists()


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_gamma_scale_is_config_error(value, driven_scenario,
                                                tmp_path, capsys):
    """gamma = gamma_scale/epsilon: a non-finite scale is rejected with the
    scenario, before any point is simulated."""
    rc = main(["--config", str(driven_scenario), "--out", str(tmp_path),
               "sweep-frequency", "--t1", "1", "--t2", "2",
               "--gamma-scale", value])
    assert rc == EXIT_CONFIG
    assert capsys.readouterr().err == (
        f"config error: gamma_alpha must be positive and finite "
        f"(got {value})\n")


def test_residual_order_fast(fast_scenario, tmp_path):
    out = tmp_path / "out"
    p = tmp_path / "sensor.scenario"
    p.write_text(SENSOR)
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


@pytest.mark.parametrize("scale", ["1e300", "1e-300"])
def test_calibrate_prints_extreme_gains_readably(scale, driven_scenario,
                                                 tmp_path, capsys):
    """Gains near 1e-300 or 1e300 print in six significant digits: not as
    0.00000, nor as hundreds of digits."""
    out = tmp_path / "out"
    rc = main(["--config", str(driven_scenario), "--out", str(out),
               "calibrate", "--ripple-scale", scale])
    assert rc == EXIT_PASS
    line = capsys.readouterr().out.splitlines()[0]
    gains = dict(item.split("=") for item in line.split())
    assert list(gains) == ["ell1", "ell2", "ell3"]
    s = _summary(out)
    for name, text in gains.items():
        assert len(text) <= 12, line
        assert float(text) == pytest.approx(s[name], rel=1e-5, abs=0.0)
    # the case is extreme: :.5f printed one gain as 0.00000 or in hundreds
    # of digits
    assert any(f"{s[name]:.5f}" == "0.00000" or len(f"{s[name]:.5f}") > 100
               for name in gains)


def test_seed_override(fast_scenario, tmp_path):
    p = tmp_path / "noisy.scenario"
    p.write_text(FAST + "noise_std = 1e-3\n")
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(["--config", str(p), "--out", str(out_a), "--seed", "5",
                 "run"]) == EXIT_PASS
    assert main(["--config", str(p), "--out", str(out_b), "--seed", "9",
                 "run"]) == EXIT_PASS
    i_alpha = TRACE_COLUMNS.index("i_alpha")
    assert not np.array_equal(_trace(out_a)[:, i_alpha],
                              _trace(out_b)[:, i_alpha])
