"""Experiment-procedure tests on short, fast configurations."""

import math
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from hfsense import experiments
from hfsense.config import load_scenario
from hfsense.estimators import wrap_mod_pi
from hfsense.experiments import (
    calibrate,
    equivalence_deviation,
    frequency_sweep,
    residual_order,
    steady_angle_error,
    steady_angle_ripple,
    steady_lag_limits,
    sweep,
)
from hfsense.motor import SIM_MOTOR
from hfsense.signal_ops import InjectionConfig, lpf_frequency_response
from hfsense.sim import DriveProfile, ScenarioConfig, Trace, TRACE_COLUMNS

from conftest import SCENARIO_DIR


def test_import_leaves_process_pool_out():
    # the pool is imported only by a sweep with workers > 1
    code = ("import sys, hfsense.experiments; "
            "print('concurrent.futures.process' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"


def _cfg(**kw):
    base = dict(motor=SIM_MOTOR, injection=InjectionConfig(V_h=1.0, epsilon=1e-3),
                duration=0.2, decimation=5)
    base.update(kw)
    return ScenarioConfig(**base)


def _no_run(cfg):
    raise AssertionError("simulated where no run was due")


def _synthetic_trace(bias=0.02, ripple=0.01):
    t = np.linspace(0.0, 1.0, 2001)
    theta = 3.0 * t
    hat = theta + bias + ripple * np.sin(40.0 * t)
    data = {c: np.zeros_like(t) for c in TRACE_COLUMNS}
    data.update(t=t, theta=theta, prop_theta_hat=hat)
    return Trace(data)


def test_steady_error_and_ripple_split():
    tr = _synthetic_trace(bias=0.02, ripple=0.01)
    rms = steady_angle_error(tr, "prop", 0.2, 1.0)
    rip = steady_angle_ripple(tr, "prop", 0.2, 1.0)
    # total ~ sqrt(bias^2 + ripple^2/2); ripple metric drops the bias
    assert rms == pytest.approx(math.hypot(0.02, 0.01 / math.sqrt(2.0)), rel=0.05)
    assert rip == pytest.approx(0.01 / math.sqrt(2.0), rel=0.05)


def test_steady_lag_limits_lowspeed_point():
    # omega_e = 6 * 0.5 = 3 rad/s; gamma*<S^2> = 1e4/(8*pi^2) = 126.65 /s;
    # lambda_ell = sqrt(2*pi*1000 * 0.5) = 56.05 rad/s
    lim = steady_lag_limits(_cfg())
    assert lim["prop"] == pytest.approx(0.02367, rel=1e-3)
    assert lim["conv"] == pytest.approx(0.05332, rel=1e-3)
    # the conventional floor is half the LTI low pass's phase at 2*omega_e
    lam = math.sqrt(2.0 * math.pi * 1000.0 * 0.5)
    assert lim["conv"] == pytest.approx(
        -0.5 * np.angle(lpf_frequency_response(lam, 6.0)), rel=1e-12)
    faster = steady_lag_limits(_cfg(gamma_alpha=2e4, gamma_beta=2e4))
    assert faster["prop"] < lim["prop"]
    assert faster["conv"] == lim["conv"]


@pytest.mark.parametrize("kw", [
    dict(drive=DriveProfile(kind="constant", omega=0.5)),
    dict(injection_enabled=False, sensor_mode=True),
    dict(gamma_beta=2e4),
    dict(ell=(1.1, 0.0, 1.0)),
])
def test_steady_lag_limits_rejects_broken_assumptions(kw):
    with pytest.raises(ValueError):
        steady_lag_limits(_cfg(**kw))


# compare-rmsd measures one sweep point: the scenario with both estimators
def test_compare_rmsd_no_injection(monkeypatch):
    """Without the probe there is no saliency signal to claim an RMSD
    from: the point is rejected and nothing is simulated."""
    monkeypatch.setattr(experiments, "run", _no_run)
    with pytest.raises(ValueError, match="probe-off"):
        sweep([_cfg(injection_enabled=False, sensor_mode=True)], "rms",
              0.1, 0.2)


def test_compare_rmsd_short_window():
    [res] = sweep([_cfg(duration=0.5)], "rms", 0.2, 0.5)
    assert set(res) == {"prop", "conv"}
    assert all(0.0 <= r < 1.0 for r in res.values())


# inverted, empty, outside the trace, and between two records 1e-4 s apart
@pytest.mark.parametrize("t1,t2", [(0.2, 0.1), (0.1, 0.1), (-0.1, 0.2),
                                   (0.1, 0.6), (0.10001, 0.10005)])
def test_compare_rmsd_checks_window_before_running(t1, t2, monkeypatch):
    monkeypatch.setattr(experiments, "run", _no_run)
    with pytest.raises(ValueError, match="window"):
        sweep([_cfg(duration=0.5)], "rms", t1, t2)


# epsilon = 1e-3: the estimators' first valid sample lands at 2e-3 s
@pytest.mark.parametrize("point,t1,match", [
    (dict(injection_enabled=False, sensor_mode=True), 0.1, "probe-off"),
    ({}, 0.0, r"window \[0, 0.2\] starts inside the 0.002 s"),
    ({}, 0.0019, "warm-up"),
], ids=["probe_off", "from_zero", "before_warmup"])
def test_sweep_rejects_unmeasurable_point_before_running(point, t1, match,
                                                         monkeypatch):
    """A probe-off run carries no saliency signal to measure, and a window
    that starts before 2*epsilon measures the estimators' warm-up: either
    point is rejected before any point runs."""
    monkeypatch.setattr(experiments, "run", _no_run)
    with pytest.raises(ValueError, match=match):
        sweep([_cfg(), _cfg(**point)], "rms", t1, 0.2)
    with pytest.raises(ValueError, match=match):
        frequency_sweep(_cfg(**point), [1000.0, 2000.0], t1, 0.2)


def test_sweep_window_may_start_at_warmup():
    """From 2*epsilon on every estimate is valid, so the window may start
    there."""
    cfg = _cfg(duration=0.01)
    [res] = sweep([cfg], "rms", cfg.warmup, 0.01)
    assert set(res) == {"prop", "conv"}


@pytest.mark.parametrize("steps_per_period", [5, 10])
def test_proposed_accuracy_at_coarse_sampling(steps_per_period):
    """At 5 and 10 samples per probe period (5 and 10 kHz sampling of the
    1 kHz probe) the closed loop on the new pipeline still sits in its
    [L, 2L] steady-lag band and beats the LTI chain."""
    cfg = replace(load_scenario(SCENARIO_DIR / "lowspeed.scenario"),
                  steps_per_period=steps_per_period, duration=3.0)
    floor = steady_lag_limits(cfg)["prop"]
    [res] = sweep([replace(cfg, estimator="both")], "rms", 2.0, 3.0)
    assert floor <= res["prop"] <= 2.0 * floor, res
    assert res["prop"] < res["conv"], res


def test_residual_order_ignores_estimator_phase():
    """phi_p only shifts the estimator's reference; the plant never sees it,
    so the averaging remainder must not depend on it."""
    cfg = _cfg(drive=DriveProfile(kind="constant", omega=0.5),
               estimator="none", duration=0.2)
    shifted = replace(cfg, injection=replace(cfg.injection, phi_p=0.7))
    assert residual_order(shifted, 0.1, 0.2) == residual_order(cfg, 0.1, 0.2)


def _fake_run(record):
    """A stand-in for sim.run: records each config and returns a trace whose
    new-pipeline angle trails by epsilon, so the steady error is epsilon."""
    def fake(cfg):
        record.append(cfg)
        return _synthetic_trace(bias=cfg.injection.epsilon, ripple=0.0)
    return fake


def test_config_for_frequency_scaling(monkeypatch):
    """Each frequency's point runs at epsilon = 1/f, with
    gamma = gamma_scale/epsilon when a scale is given."""
    cfg = _cfg()
    ran = []
    monkeypatch.setattr(experiments, "run", _fake_run(ran))
    frequency_sweep(cfg, [2000.0, 1000.0], 0.1, 0.2, gamma_scale=10.0)
    assert [c.injection.epsilon for c in ran] == pytest.approx([5e-4, 1e-3])
    assert [c.gamma_alpha for c in ran] == pytest.approx([2e4, 1e4])
    assert [c.gamma_beta for c in ran] == pytest.approx([2e4, 1e4])
    # without gamma_scale the gains are untouched
    ran.clear()
    frequency_sweep(cfg, [2000.0, 1000.0], 0.1, 0.2)
    assert [c.injection.epsilon for c in ran] == pytest.approx([5e-4, 1e-3])
    assert all(c.gamma_alpha == cfg.gamma_alpha for c in ran)
    assert all(c.gamma_beta == cfg.gamma_beta for c in ran)


def test_frequency_sweep_rejects_bad_metric(monkeypatch):
    with pytest.raises(ValueError):
        frequency_sweep(_cfg(), [500.0], 0.1, 0.2, metric="median")
    monkeypatch.setattr(experiments, "run", _no_run)
    with pytest.raises(ValueError, match="unknown sweep metric"):
        frequency_sweep(_cfg(), [500.0, 1000.0], 0.1, 0.2, metric="median")


def test_frequency_sweep_rejects_degenerate_fits(monkeypatch):
    for freqs in ([1000.0], [1000.0, 1000.0], [0.0, 1000.0]):
        with pytest.raises(ValueError):
            frequency_sweep(_cfg(), freqs, 0.1, 0.2)
    # a zero steady error has no logarithm for the order fit
    monkeypatch.setattr(experiments, "run",
                        lambda cfg: _synthetic_trace(bias=0.0, ripple=0.0))
    with pytest.raises(ValueError, match="no logarithm"):
        frequency_sweep(_cfg(), [500.0, 1000.0], 0.1, 0.2)
    # a reversed window, and one between two records of each point
    # (every 2e-4 s at 500 Hz, 1e-4 s at 1 kHz), are rejected before any
    # sweep point runs
    monkeypatch.setattr(experiments, "run", _no_run)
    with pytest.raises(ValueError, match="window"):
        frequency_sweep(_cfg(), [500.0, 1000.0], 0.2, 0.1)
    with pytest.raises(ValueError, match="window .* fewer than 2 samples"):
        frequency_sweep(_cfg(), [500.0, 1000.0], 0.10001, 0.10005,
                        metric="ripple")


def test_frequency_sweep_caps_pool_at_sweep_points(monkeypatch):
    """The pool forks all of its workers when it starts, so it gets one per
    sweep point at most; a fake pool records the request and maps serially,
    so no process is started."""
    import concurrent.futures

    requested = []

    class SerialPool:
        def __init__(self, max_workers):
            requested.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    ran = []
    monkeypatch.setattr(experiments, "run", _fake_run(ran))
    res = frequency_sweep(_cfg(), [500.0, 1000.0], 0.1, 0.2, workers=10**6)
    assert requested == [2]
    assert len(ran) == 2
    assert res["slope"] == pytest.approx(1.0)
    # one point runs in this process: no pool for it
    assert len(sweep([_cfg()], "rms", 0.1, 0.2, workers=4)) == 1
    assert requested == [2]
    monkeypatch.setattr(experiments, "run", _no_run)
    for workers in (0, -3):
        with pytest.raises(ValueError, match="workers"):
            frequency_sweep(_cfg(), [500.0, 1000.0], 0.1, 0.2, workers=workers)
        with pytest.raises(ValueError, match="workers"):
            sweep([_cfg()], "rms", 0.1, 0.2, workers=workers)
    assert requested == [2]


def test_sweep_rejects_point_without_estimator(monkeypatch):
    """A run of estimator kind none carries no angle to measure: the sweep
    is rejected before any point runs, not fitted on a column of zeros."""
    monkeypatch.setattr(experiments, "run", _no_run)
    still = _cfg(drive=DriveProfile("constant", omega=0.5),
                 estimator="none")
    with pytest.raises(ValueError, match="no estimator"):
        sweep([_cfg(), still], "rms", 0.1, 0.2)
    with pytest.raises(ValueError, match="no estimator"):
        frequency_sweep(still, [500.0, 1000.0], 0.1, 0.2)


@pytest.mark.parametrize("metric", ["rms", "ripple"])
def test_sweep_measures_every_estimator_a_run_carries(metric):
    """Driven estimators do not feed back, so one estimator="both" point
    gives each pipeline the value of its own single-estimator run."""
    base = _cfg(drive=DriveProfile("constant", omega=0.5),
                duration=0.3, theta0=0.3)
    both, prop, conv = sweep([replace(base, estimator=k) for k in
                              ("both", "proposed", "conventional")],
                             metric, 0.15, 0.3)
    assert set(prop) == {"prop"} and set(conv) == {"conv"}
    assert both == {"prop": prop["prop"], "conv": conv["conv"]}
    assert both["prop"] != both["conv"]


def test_frequency_sweep_shape():
    cfg = _cfg(estimator="proposed", duration=0.3,
               drive=DriveProfile("constant", omega=0.5), theta0=0.3)
    res = frequency_sweep(cfg, [500.0, 1000.0], 0.15, 0.3)
    assert len(res["errors"]) == 2
    assert res["epsilons"] == pytest.approx([2e-3, 1e-3])
    assert all(e > 0.0 for e in res["errors"])
    assert isinstance(res["slope"], float)


def test_equivalence_short():
    res = equivalence_deviation(SIM_MOTOR, InjectionConfig(V_h=1.0, epsilon=1e-3),
                                duration=0.5)
    assert res["max_rel_yv_deviation"] < 1e-9
    assert res["max_theta_deviation"] < 1e-9


def test_equivalence_follows_estimator_phase():
    """Both forms demodulate against the same phi_p-shifted reference."""
    inj = InjectionConfig(V_h=1.0, epsilon=1e-3, phi_p=0.7)
    res = equivalence_deviation(SIM_MOTOR, inj, duration=0.1)
    assert res["max_rel_yv_deviation"] <= 1e-9


def test_calibrate_requires_constant_drive():
    with pytest.raises(ValueError):
        calibrate(_cfg())
    with pytest.raises(ValueError):
        calibrate(_cfg(drive=DriveProfile("constant", omega=0.0)))
    # the locus at 2*n_p*|omega| = 1.2e307 rad/s, far above omega_h: the
    # replay used to fit such a drive and pass
    with pytest.raises(ValueError, match="locus frequency"):
        calibrate(_cfg(drive=DriveProfile("constant", omega=1e306)))


@pytest.mark.parametrize("kw,match", [
    ({"phase_err": math.nan}, "phase_err must be finite, got nan"),
    ({"phase_err": -math.inf}, "phase_err must be finite, got -inf"),
    ({"ripple_scale": math.nan}, "ripple_scale .* got nan"),
    ({"ripple_scale": -1.0}, "ripple_scale .* got -1.0"),
    ({"ripple_scale": 0.0}, "ripple_scale .* got 0.0"),
    ({"ripple_scale": math.inf}, "ripple_scale .* got inf"),
])
def test_calibrate_rejects_bad_distortion(kw, match):
    """Each bad value is named before any estimator runs."""
    cfg = _cfg(drive=DriveProfile("constant", omega=2.0))
    with pytest.raises(ValueError, match=match):
        calibrate(cfg, **kw)


def test_calibrate_phase_error_recovery():
    """A demodulation phase shift drifts the raw estimate; the fitted gains
    restore the accuracy to within 2x of the undistorted run."""
    cfg = _cfg(drive=DriveProfile("constant", omega=2.0),
               duration=2.0)
    clean = calibrate(cfg)
    shifted = calibrate(cfg, phase_err=0.2)
    assert shifted["rmsd_raw"] > clean["rmsd_raw"]
    assert shifted["rmsd_compensated"] <= 2.0 * max(clean["rmsd_compensated"],
                                                    clean["rmsd_raw"])
