"""Scenario-file parser tests: happy paths on the shipped files, strict
rejection of malformed input."""

import math
import shutil
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from cli_cases import EXTREMES, main_outcome
from hfsense.cli import EXIT_CONFIG, main
from hfsense.config import _SCHEMA, ConfigError, load_scenario, parse_kv_file
from hfsense.motor import SIM_MOTOR
from hfsense.signal_ops import InjectionConfig
from hfsense.sim import ScenarioConfig


def _write(tmp_path, text):
    p = tmp_path / "case.scenario"
    p.write_text(text)
    return p


MINIMAL = """\
[motor]
n_p = 6
R_s = 0.43
L_d = 5.74e-3
L_q = 8.68e-3
Phi = 0.11
J = 0.01
"""


def test_load_lowspeed_scenario(scenario_dir):
    cfg = load_scenario(scenario_dir / "lowspeed.scenario")
    assert cfg.motor.n_p == 6
    assert cfg.motor.L_q == pytest.approx(8.68e-3)
    assert cfg.injection.epsilon == pytest.approx(1e-3)
    assert cfg.gamma_alpha == pytest.approx(1e4)
    assert cfg.controller.omega_ref == pytest.approx(0.5)
    assert cfg.load_torque == pytest.approx(0.5)
    assert cfg.estimator == "both"
    assert cfg.duration == 10.0
    assert cfg.steps_per_period == 50


def test_load_reversal_scenario(scenario_dir):
    cfg = load_scenario(scenario_dir / "reversal.scenario")
    assert cfg.drive is not None
    assert cfg.drive.kind == "reversal"
    assert cfg.drive.omega == pytest.approx(-cfg.drive.omega_end)
    assert cfg.motor.n_p == 3


def test_all_shipped_scenarios_parse(scenario_dir):
    for p in sorted(scenario_dir.glob("*.scenario")):
        load_scenario(p)  # must not raise


def test_minimal_defaults(tmp_path):
    cfg = load_scenario(_write(tmp_path, MINIMAL))
    assert cfg.injection.V_h == 1.0
    assert cfg.lambda_ell is None
    assert cfg.drive is None


def test_unknown_section(tmp_path):
    p = _write(tmp_path, MINIMAL + "[telemetry]\nrate = 1\n")
    with pytest.raises(ConfigError, match=r"unknown section"):
        load_scenario(p)


def test_unknown_key_reports_line(tmp_path):
    for text, message in [
        ("[injection]\namp = 2\n", r":9: unknown key 'amp'"),
        # steps_per_period is the one way to set the sample period
        ("[simulation]\nsteps_per_period = 10\nTs = 2e-5\n",
         r":10: unknown key 'Ts'"),
        ("[load]\nkind = constant\n", r":8: unknown section \[load\]"),
    ]:
        p = _write(tmp_path, MINIMAL + text)
        with pytest.raises(ConfigError, match=message):
            load_scenario(p)


def test_duplicate_key(tmp_path):
    p = _write(tmp_path, MINIMAL + "[injection]\nV_h = 1\nV_h = 2\n")
    with pytest.raises(ConfigError, match="duplicate"):
        load_scenario(p)


def test_missing_motor_params(tmp_path):
    p = _write(tmp_path, "[motor]\nn_p = 6\n")
    with pytest.raises(ConfigError, match="missing required key"):
        load_scenario(p)


def test_bad_value_type(tmp_path):
    p = _write(tmp_path, MINIMAL.replace("0.43", "fast"))
    with pytest.raises(ConfigError, match="bad value"):
        load_scenario(p)


def test_key_outside_section(tmp_path):
    p = _write(tmp_path, "n_p = 6\n")
    with pytest.raises(ConfigError, match="outside any section"):
        load_scenario(p)


@pytest.mark.parametrize("line,key", [
    ("[simulation]\nduration = nan", "duration"),
    ("[simulation]\nduration = inf", "duration"),
    ("[simulation]\nnoise_std = nan", "noise_std"),
    ("[simulation]\nload_torque = nan", "load_torque"),
    ("[injection]\nV_h = -inf", "V_h"),
    ("[estimator]\ngamma_alpha = 0", "gamma_alpha"),
    ("[estimator]\ngamma_beta = -1e4", "gamma_beta"),
    ("[estimator]\npll_kp = 0", "pll_kp"),
    ("[estimator]\npll_ki = -0.01", "pll_ki"),
    ("[estimator]\nell1 = 0", "ell1"),
    ("[estimator]\nell3 = 0", "ell3"),
    ("[estimator]\nlambda_ell = 0.5", "lambda_ell"),
    ("[estimator]\nomega_star = -1", "omega_star"),
    ("[controller]\nmeas_lpf_cutoff = 0", "meas_lpf_cutoff"),
    ("[controller]\nv_limit = -5", "v_limit"),
    ("[controller]\ni_q_limit = 0", "i_q_limit"),
])
def test_non_finite_or_non_positive_float_is_config_error(tmp_path, line, key):
    p = _write(tmp_path, MINIMAL + line + "\n")
    with pytest.raises(ConfigError, match=key) as info:
        load_scenario(p)
    assert "\n" not in str(info.value)


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("key", ["gamma_alpha", "gamma_beta", "pll_kp",
                                 "pll_ki", "load_torque", "ell1", "ell2",
                                 "ell3", "theta0", "theta0_est", "omega0",
                                 "i_alpha0", "i_beta0", "duration",
                                 "noise_std"])
def test_non_finite_gain_is_rejected_through_replace(key, value,
                                                     scenario_dir):
    """The API path: ScenarioConfig rejects a non-finite gain or other
    float field itself, as the scenario parser rejects any non-finite
    number."""
    cfg = load_scenario(scenario_dir / "lowspeed.scenario")
    if key.startswith("ell"):
        ell = list(cfg.ell)
        ell[int(key[-1]) - 1] = value
        change = {"ell": tuple(ell)}
    else:
        change = {key: value}
    with pytest.raises(ValueError,
                       match=f"{key} must be (positive and )?finite"):
        replace(cfg, **change)


@pytest.mark.parametrize("key,value", [
    ("decimation", 2.5), ("decimation", 2.0), ("steps_per_period", 50.5),
    ("seed", 1.5), ("ell", (1.0, 0.0))])
def test_integer_and_shape_fields_are_rejected_through_replace(key, value,
                                                               scenario_dir):
    """The API path: an integer field given a float, or ell without three
    gains, is rejected at construction with the field's name, where `run`
    used to fail late with a TypeError or the wrong error (the seed only
    with noise on, where numpy reads it).  Scenario files reject these
    through int()."""
    cfg = replace(load_scenario(scenario_dir / "lowspeed.scenario"),
                  noise_std=1e-3)
    with pytest.raises(ValueError, match=key):
        replace(cfg, **{key: value})


def test_corner_resolves_default_and_rejects_bad_values():
    """ScenarioConfig.corner is the one place that resolves the LTI chain's
    one corner, lambda_ell = max(sqrt(omega_h * omega_star), 1); the
    chain's high pass sits at omega_h and has no setting."""
    cfg = ScenarioConfig(SIM_MOTOR, InjectionConfig(V_h=1.0, epsilon=1e-3))
    omega_h = cfg.injection.omega_h
    assert cfg.corner == pytest.approx(math.sqrt(omega_h * 0.5))
    # the corner never drops below 1 rad/s
    assert replace(cfg, omega_star=0.0).corner == 1.0
    assert replace(cfg, lambda_ell=80.0).corner == 80.0
    for key, value in [("lambda_ell", 0.5), ("lambda_ell", math.nan),
                       ("omega_star", math.inf)]:
        with pytest.raises(ValueError, match=key):
            replace(cfg, **{key: value})
    with pytest.raises(TypeError, match="lambda_h"):
        replace(cfg, lambda_h=omega_h)


@pytest.mark.parametrize("lines,message", [
    # Ts = epsilon/steps_per_period underflows to 0
    ("[injection]\nepsilon = 5e-324\n", "underflows to 0"),
    # epsilon/steps_per_period overflows the int-to-float conversion
    ("[simulation]\nsteps_per_period = 1" + "0" * 330 + "\n",
     "steps_per_period is too large"),
    # duration/Ts overflows to inf
    ("[injection]\nepsilon = 1e-300\n[simulation]\nduration = 1e300\n",
     "not a finite number of steps"),
], ids=["Ts-underflow", "steps_per_period-overflow", "n_steps-overflow"])
def test_unusable_step_size_or_count_is_config_error(tmp_path, capsys, lines,
                                                     message):
    p = _write(tmp_path, MINIMAL + lines)
    err = _main_config_error(p, capsys)
    assert message in err


# the keys that set the step size, the step count, the warm-up and the
# LTI chain's filters
_STEP_KEYS = [("injection", "epsilon"), ("injection", "V_h"),
              ("simulation", "steps_per_period"), ("simulation", "duration"),
              ("simulation", "decimation"), ("estimator", "kind"),
              ("estimator", "lambda_ell"), ("estimator", "omega_star")]


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(values=st.dictionaries(
    st.sampled_from(_STEP_KEYS),
    st.sampled_from(EXTREMES)
    | st.integers(-10 ** 400, 10 ** 400).map(str)
    | st.sampled_from(["proposed", "conventional", "none"])))
@example(values={("injection", "epsilon"): "5e-324"})
@example(values={("simulation", "steps_per_period"): "1" + "0" * 330})
@example(values={("injection", "epsilon"): "1e-300",
                 ("simulation", "duration"): "1e300"})
@example(values={("injection", "epsilon"): "1e300",
                 ("simulation", "duration"): "1e301"})
def test_loaded_scenario_has_a_usable_step(tmp_path, values):
    """Any scenario text either is a config error or gives a step size,
    step count and warm-up that are finite positive numbers."""
    text = MINIMAL + "".join(f"[{section}]\n{key} = {value}\n"
                             for (section, key), value in values.items())
    try:
        cfg = load_scenario(_write(tmp_path, text))
    except ConfigError:
        return
    for value in (cfg.Ts, cfg.n_steps, cfg.warmup):
        assert 0.0 < value < math.inf


# every other scenario key
_OTHER_KEYS = [(section, key) for section, keys in _SCHEMA.items()
               for key in keys if (section, key) not in _STEP_KEYS]
# a few ms of each mode: 200 steps, the first 100 the operators' warm-up
_FUZZ_BASE = {"motor": dict(line.split(" = ") for line in MINIMAL.split("\n")
                            if " = " in line),
              "simulation": {"duration": "0.004", "decimation": "10"}}
_FUZZ_DRIVE = {"profile": "reversal", "omega": "2.0", "omega_end": "-2.0",
               "t_ramp_start": "0.001", "t_ramp_end": "0.003"}
_HUGE_N_P = {("motor", "n_p"): "1" + "0" * 330}


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(driven=st.booleans(), values=st.dictionaries(
    st.sampled_from(_OTHER_KEYS), st.sampled_from(EXTREMES), max_size=3))
# an n_p that no float holds, and an L_d * L_q that underflows to 0, which
# motor.virtual_output divides by
@example(driven=False, values=_HUGE_N_P)
@example(driven=True, values=_HUGE_N_P)
@example(driven=False, values={("motor", "L_d"): "5e-324"})
@example(driven=True, values={("motor", "L_q"): "5e-324"})
def test_other_scenario_keys_end_in_a_documented_outcome(tmp_path, capsys,
                                                         driven, values):
    """`hfsense run` on a few ms of a closed-loop or driven scenario, with
    any of the other keys at the edges of a float and of an int, passes;
    or aborts with one line and a failed summary; or is one config error
    line with no summary.  Any other exception fails.  The [drive] keys are
    set in driven form only: a [drive] section makes the run driven."""
    sections = {name: dict(keys) for name, keys in _FUZZ_BASE.items()}
    if driven:
        sections["drive"] = dict(_FUZZ_DRIVE)
    for (section, key), value in values.items():
        if driven or section != "drive":
            sections.setdefault(section, {})[key] = value
    path = tmp_path / "fuzz.scenario"
    path.write_text("".join(
        f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
        for name, keys in sections.items()))
    out = tmp_path / "o"
    shutil.rmtree(out, ignore_errors=True)
    main_outcome(["--config", str(path), "--out", str(out), "run"], out,
                 capsys)


def _main_config_error(path, capsys):
    """`hfsense run` on a scenario file, in process: its stderr, after
    checking that the outcome is a config error."""
    out = path.parent / "o"
    outcome, err = main_outcome(["--config", str(path), "--out", str(out),
                                 "run"], out, capsys)
    assert outcome == "config"
    return err


@pytest.mark.parametrize("key", ["omega_end", "t_ramp_start", "t_ramp_end"])
def test_ramp_key_on_constant_profile_is_config_error(tmp_path, capsys, key):
    drive = "[drive]\nprofile = constant\nomega = 0.5\n"
    driven = "[simulation]\nduration = 0.01\n"
    p = _write(tmp_path, MINIMAL + drive + f"{key} = 1.0\n" + driven)
    with pytest.raises(ConfigError, match=rf"\[drive\] .*takes no {key}"):
        load_scenario(p)
    _main_config_error(p, capsys)
    # an explicit zero is the unset value
    load_scenario(_write(tmp_path, MINIMAL + drive + f"{key} = 0\n" + driven))


@pytest.mark.parametrize("name,mode", [("lowspeed", "driven"),
                                       ("driven_lowspeed", "closed_loop")])
def test_mode_key_is_config_error(tmp_path, capsys, scenario_dir, name, mode):
    """A [drive] section alone makes a run driven; a mode key, which could
    contradict it, is rejected by name."""
    text = (scenario_dir / f"{name}.scenario").read_text()
    p = _write(tmp_path, text.replace("[simulation]\n",
                                      f"[simulation]\nmode = {mode}\n"))
    with pytest.raises(ConfigError, match="unknown key 'mode'"):
        load_scenario(p)
    err = _main_config_error(p, capsys)
    assert "unknown key 'mode' in section [simulation]" in err


def test_negative_seed_is_config_error(tmp_path, capsys):
    # without noise the seed is never read, with noise numpy reads it
    sim = "[simulation]\nduration = 0.01\nseed = -1\n"
    for noise in ("", "noise_std = 0.01\n"):
        p = _write(tmp_path, MINIMAL + sim + noise)
        with pytest.raises(ConfigError, match=r"seed must be >= 0 \(got -1\)"):
            load_scenario(p)
        err = _main_config_error(p, capsys)
        assert f"{p}: seed" in err
    # the --seed flag is checked by the same rule
    p = _write(tmp_path, MINIMAL + "[simulation]\nduration = 0.01\n")
    rc = main(["--config", str(p), "--seed", "-3", "--out",
               str(tmp_path / "o"), "run"])
    assert rc == EXIT_CONFIG
    assert "seed must be >= 0 (got -3)" in capsys.readouterr().err


def test_scenario_too_large_to_allocate_is_config_error(tmp_path, capsys,
                                                        scenario_dir):
    # 5e17 steps: numpy refuses the 355 PiB trace at once, where a size
    # within reach would be allocated page by page
    text = (scenario_dir / "lowspeed.scenario").read_text()
    p = _write(tmp_path, text.replace("duration = 10.0", "duration = 1e13"))
    err = _main_config_error(p, capsys)
    assert "scenario too large: duration = 1e+13 s" in err


@pytest.mark.parametrize("kind", ["both", "conventional"])
def test_carrier_tables_too_large_to_allocate_are_config_error(
        tmp_path, capsys, scenario_dir, kind):
    # 10**30 samples per probe period: the per-phase tables fail at once,
    # more entries than a list index can count
    text = (scenario_dir / "lowspeed.scenario").read_text()
    text = text.replace("steps_per_period = 50",
                        f"steps_per_period = {10 ** 30}")
    p = _write(tmp_path, text.replace("kind = both", f"kind = {kind}"))
    err = _main_config_error(p, capsys)
    assert f"steps of {10 ** 30} per probe period" in err


def test_filter_coefficient_overflow_is_config_error(tmp_path, capsys,
                                                    scenario_dir):
    """A filter whose coefficients overflow at Ts is one config error line
    naming the keys that set it, not a run that diverges or an allocation
    failure: the controller's low pass at Ts = 5e299 s, and the LTI chain's
    high pass, at omega_h, at Ts = 2e-162 s (50000 steps, all of them
    allocatable)."""
    text = (scenario_dir / "lowspeed.scenario").read_text()
    lowpass = (text.replace("epsilon = 1e-3", "epsilon = 1e300")
               .replace("steps_per_period = 50", "steps_per_period = 2")
               .replace("duration = 10.0", "duration = 3e300")
               .replace("kind = both", "kind = proposed")
               .replace("[controller]\n", "[controller]\n"
                        "meas_lpf_cutoff = 1e10\n"))
    err = _main_config_error(_write(tmp_path, lowpass), capsys)
    assert "meas_lpf_cutoff: corner 1e+10 rad/s at Ts = 5e+299 s " \
        "overflows the low-pass coefficients" in err
    highpass = (text.replace("epsilon = 1e-3", "epsilon = 1e-160")
                .replace("duration = 10.0", "duration = 1e-157")
                .replace("kind = both", "kind = conventional")
                .replace("[controller]\n", "[controller]\n"
                         "sensor_mode = true\n"))
    err = _main_config_error(_write(tmp_path, highpass), capsys)
    assert "epsilon, steps_per_period: LTI high pass at omega_h: corner " \
        "6.28319e+160 rad/s at Ts = 2e-162 s overflows the biquad " \
        "coefficients" in err


def test_invariant_violation_is_config_error(tmp_path):
    p = _write(tmp_path, MINIMAL + "[estimator]\nkind = kalman\n")
    with pytest.raises(ConfigError):
        load_scenario(p)


def test_comments_and_blank_lines(tmp_path):
    p = _write(tmp_path, "# header\n\n" + MINIMAL + "  # trailing comment\n")
    cfg = load_scenario(p)
    assert cfg.motor.Phi == pytest.approx(0.11)


def test_parse_kv_file_raw_access(tmp_path):
    p = _write(tmp_path, MINIMAL)
    raw = parse_kv_file(p)
    assert raw["motor"]["n_p"] == ("6", 2)
