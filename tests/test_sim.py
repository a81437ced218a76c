"""Simulation tests: integrator accuracy, profiles, traces, determinism."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hfsense import sim
from hfsense.cli import main
from hfsense.config import load_scenario
from hfsense.controller import ControllerConfig
from hfsense.estimators import ProposedEstimator, rmsd
from hfsense.motor import SIM_MOTOR
from hfsense.signal_ops import InjectionConfig
from hfsense.sim import (
    DriveProfile,
    LoadProfile,
    ScenarioConfig,
    TRACE_COLUMNS,
    SimulationDiverged,
    Trace,
    averaging_residual,
    run,
)

from conftest import SCENARIO_DIR


def _cfg(**kw):
    base = dict(motor=SIM_MOTOR, injection=InjectionConfig(V_h=1.0, epsilon=1e-3),
                duration=0.2, decimation=5)
    base.update(kw)
    return ScenarioConfig(**base)


def test_rk4_order_on_exponential():
    """With the probe off, zero controller gains and the rotor held at
    theta = 0, the loop integrates di_alpha/dt = -(R_s/L_d) i_alpha; its
    global error against the exponential must shrink 16x per halved step."""
    m = SIM_MOTOR
    zero = ControllerConfig(speed_kp=0.0, speed_ki=0.0, current_kp=0.0,
                            current_ki=0.0, omega_ref=0.0)
    errs = []
    for n in (10, 20, 40):
        cfg = _cfg(mode="driven", drive=DriveProfile("constant", omega=0.0),
                   estimator="none", controller=zero, injection_enabled=False,
                   injection=InjectionConfig(V_h=1.0, epsilon=1e-2),
                   steps_per_period=n, i_alpha0=1.0, decimation=1)
        tr = run(cfg)
        assert np.all(tr.v_alpha == 0.0) and np.all(tr.i_beta == 0.0)
        exact = np.exp(-m.R_s / m.L_d * tr.t)
        errs.append(np.max(np.abs(tr.i_alpha - exact)))
    assert errs[2] < 1e-9
    for coarse, fine in zip(errs, errs[1:]):
        assert 14.0 < coarse / fine < 17.0


def test_rk4_rejects_non_finite():
    for mode in ("closed_loop", "driven"):
        for i0 in (math.nan, math.inf):
            cfg = _cfg(mode=mode, drive=DriveProfile("constant", omega=2.0),
                       estimator="none", sensor_mode=True, duration=0.01,
                       i_alpha0=i0)
            with pytest.raises(SimulationDiverged):
                run(cfg)


def test_divergence_inside_a_step_is_reported():
    # a vanishing inertia blows the speed up within one RK4 step, so the
    # angle reaches math.cos as a non-finite value before the state check
    cfg = _cfg(motor=replace(SIM_MOTOR, J=1e-320), duration=0.05)
    with pytest.raises(SimulationDiverged,
                       match=r"from t=\d+\.\d{6}: math domain error"):
        run(cfg)


def test_noisy_run_passes_python_floats(monkeypatch):
    seen = set()
    step = ProposedEstimator.step

    def recording_step(self, t, i_alpha, i_beta):
        seen.add(type(i_alpha))
        return step(self, t, i_alpha, i_beta)

    monkeypatch.setattr(ProposedEstimator, "step", recording_step)
    run(_cfg(noise_std=1e-3, duration=0.01))
    assert seen == {float}


def test_run_rejects_unknown_column():
    with pytest.raises(ValueError, match="unknown trace column .i_gamma."):
        run(_cfg(duration=0.01), ["t", "i_gamma"])
    # an empty or repeated selection is rejected before any step
    for cols in ([], ["t", "t"]):
        with pytest.raises(ValueError, match="non-empty and distinct"):
            run(_cfg(duration=0.01), cols)


def test_load_profiles():
    assert LoadProfile("constant", value=2.0).torque(5.0) == 2.0
    lp = LoadProfile("piecewise", times=(1.0, 2.0), values=(0.0, 1.0, 3.0))
    assert [lp.torque(t) for t in (0.5, 1.5, 2.5)] == [0.0, 1.0, 3.0]
    s = LoadProfile("sinusoidal", value=1.0, amplitude=0.5, frequency=2.0)
    assert s.torque(0.125) == pytest.approx(1.5)
    with pytest.raises(ValueError):
        LoadProfile("ramp")
    with pytest.raises(ValueError):
        LoadProfile("piecewise", times=(1.0,), values=(0.0,))
    # unsorted breakpoints would pick the wrong level through bisection
    with pytest.raises(ValueError):
        LoadProfile("piecewise", times=(2.0, 1.0), values=(0.0, 1.0, 2.0))
    with pytest.raises(ValueError):
        LoadProfile("piecewise", times=(1.0, 1.0), values=(0.0, 1.0, 2.0))


@given(t=st.floats(0.0, 12.0))
@settings(max_examples=50)
def test_drive_reversal_angle_is_exact_integral(t):
    d = DriveProfile("reversal", omega=2.0, omega_end=-2.0,
                     t_ramp_start=4.0, t_ramp_end=5.0)
    # independent quadrature of the speed profile
    # put the ramp breakpoints on the grid so the trapezoid rule is exact
    grid = np.unique(np.concatenate([np.linspace(0.0, t, 4001),
                                     [x for x in (4.0, 5.0) if x <= t]]))
    ref = np.trapezoid([d.omega_at(g) for g in grid], grid)
    assert d.angle_integral(t) == pytest.approx(ref, abs=1e-9)


def test_drive_validation():
    with pytest.raises(ValueError):
        DriveProfile("spline")
    with pytest.raises(ValueError):
        DriveProfile("reversal", t_ramp_start=2.0, t_ramp_end=1.0)


def test_scenario_validation():
    with pytest.raises(ValueError):
        _cfg(estimator="kalman")
    with pytest.raises(ValueError):
        _cfg(mode="hil")
    with pytest.raises(ValueError):
        _cfg(mode="driven")  # no drive profile
    with pytest.raises(ValueError):
        _cfg(steps_per_period=1)
    with pytest.raises(ValueError):
        _cfg(estimator="none")  # closed loop without sensor
    with pytest.raises(ValueError):
        _cfg(duration=1e-3)  # shorter than the operator warm-up


def test_scenario_derived_quantities():
    cfg = _cfg(steps_per_period=50)
    assert cfg.Ts == pytest.approx(2e-5)
    assert cfg.warmup == pytest.approx(2e-3)
    assert cfg.n_steps == 10000


def test_trace_csv_round_trip(tmp_path):
    """`hfsense run` writes the full schema, and every value reads back
    bit-equal to an in-process run of the same scenario."""
    scenario = tmp_path / "short.scenario"
    scenario.write_text((SCENARIO_DIR / "lowspeed.scenario").read_text()
                        .replace("duration = 10.0", "duration = 0.05"))
    out = tmp_path / "out"
    assert main(["--config", str(scenario), "--out", str(out), "run"]) == 0
    path = out / "trace.csv"
    with open(path) as fh:
        assert fh.readline().strip().split(",") == TRACE_COLUMNS
    back = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    tr = run(load_scenario(scenario))
    for k, c in enumerate(TRACE_COLUMNS):
        assert np.array_equal(back[:, k], tr.data[c]), c


def test_trace_requires_all_columns():
    with pytest.raises(ValueError):
        Trace({"t": np.zeros(3)})


def test_closed_loop_runs_and_tracks(sim_motor):
    cfg = _cfg(estimator="both", duration=1.0,
               load=LoadProfile("constant", value=0.1))
    tr = run(cfg)
    assert np.all(np.isfinite(tr.i_alpha))
    # the loop pulls the speed toward the 0.5 rad/s reference
    assert tr.omega[-1] > 0.2
    # estimates stay on the true branch
    err = rmsd(tr.t, tr.theta, tr.prop_theta_hat, 0.5, 1.0)
    assert err < 0.2


def test_sensor_mode_isolates_estimator():
    cfg = _cfg(estimator="none", sensor_mode=True, duration=0.05)
    tr = run(cfg)
    assert np.all(tr.prop_valid == 0.0)
    assert rmsd(tr.t, tr.theta, tr.theta, 0.01, 0.05) == 0.0


def test_driven_speed_follows_profile():
    cfg = _cfg(mode="driven", estimator="proposed", duration=0.3,
               drive=DriveProfile("constant", omega=2.0), theta0=0.7)
    tr = run(cfg)
    expect = 0.7 + SIM_MOTOR.n_p * 2.0 * tr.t
    assert np.allclose(tr.theta, expect, atol=1e-12)
    assert np.array_equal(tr.theta_wrapped, tr.theta % (2.0 * math.pi))
    assert np.all((0.0 <= tr.theta_wrapped) & (tr.theta_wrapped < 2.0 * math.pi))
    assert np.all(tr.omega == 2.0)


def test_determinism_short():
    cfg = _cfg(estimator="both", duration=0.1, noise_std=1e-3, seed=42)
    a = run(cfg)
    b = run(cfg)
    for c in a.columns:
        assert np.array_equal(a.data[c], b.data[c]), c


def test_noise_is_seeded():
    a = run(_cfg(duration=0.05, noise_std=1e-3, seed=1))
    b = run(_cfg(duration=0.05, noise_std=1e-3, seed=2))
    assert not np.array_equal(a.i_alpha, b.i_alpha) or \
        not np.array_equal(a.prop_theta_hat, b.prop_theta_hat)


def test_divergence_detection():
    with pytest.raises(SimulationDiverged):
        run(_cfg(duration=0.1, divergence_limit=1e-6))


def test_averaging_residual_requires_sensor_mode():
    with pytest.raises(ValueError):
        averaging_residual(_cfg(duration=0.05), 0.01, 0.05)


@pytest.mark.parametrize("t1,t2", [(0.04, 0.02), (0.01, 0.06)])
def test_averaging_residual_checks_window_before_running(t1, t2, monkeypatch):
    def no_run(cfg, columns=None):
        raise AssertionError("simulated before checking the window")

    monkeypatch.setattr(sim, "run", no_run)
    cfg = _cfg(estimator="none", sensor_mode=True, duration=0.05)
    with pytest.raises(ValueError, match="window"):
        averaging_residual(cfg, t1, t2)


def test_averaging_residual_is_small():
    cfg = _cfg(estimator="none", sensor_mode=True, duration=0.3)
    t, r, norm = averaging_residual(cfg, 0.1, 0.3)
    # the remainder is O(eps^2); the probe ripple itself is O(eps)
    ripple = cfg.injection.epsilon * SIM_MOTOR.L0 / SIM_MOTOR.det_L \
        * cfg.injection.V_h / (2.0 * math.pi)
    assert norm < 0.1 * ripple
    assert r.shape == (len(t), 2)
