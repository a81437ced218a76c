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
    _config_for_frequency,
    calibrate,
    compare_rmsd,
    equivalence_deviation,
    frequency_sweep,
    residual_order,
    steady_angle_error,
    steady_angle_ripple,
    steady_lag_limits,
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
    assert lim["proposed"] == pytest.approx(0.02367, rel=1e-3)
    assert lim["conventional"] == pytest.approx(0.05332, rel=1e-3)
    # the conventional floor is half the LTI low pass's phase at 2*omega_e
    lam = math.sqrt(2.0 * math.pi * 1000.0 * 0.5)
    assert lim["conventional"] == pytest.approx(
        -0.5 * np.angle(lpf_frequency_response(lam, 6.0)), rel=1e-12)
    faster = steady_lag_limits(_cfg(gamma_alpha=2e4, gamma_beta=2e4))
    assert faster["proposed"] < lim["proposed"]
    assert faster["conventional"] == lim["conventional"]


@pytest.mark.parametrize("kw", [
    dict(mode="driven", drive=DriveProfile(kind="constant", omega=0.5)),
    dict(injection_enabled=False, sensor_mode=True),
    dict(gamma_beta=2e4),
    dict(ell=(1.1, 0.0, 1.0)),
])
def test_steady_lag_limits_rejects_broken_assumptions(kw):
    with pytest.raises(ValueError):
        steady_lag_limits(_cfg(**kw))


def test_compare_rmsd_no_injection():
    res = compare_rmsd(_cfg(injection_enabled=False, sensor_mode=True),
                       0.1, 0.2)
    assert res["low_confidence"]
    assert res["proposed"] is None and res["conventional"] is None


def test_compare_rmsd_short_window():
    res = compare_rmsd(_cfg(duration=0.5), 0.2, 0.5)
    assert not res["low_confidence"]
    assert 0.0 <= res["proposed"] < 1.0
    assert 0.0 <= res["conventional"] < 1.0


@pytest.mark.parametrize("steps_per_period", [5, 10])
def test_proposed_accuracy_at_coarse_sampling(steps_per_period):
    """At 5 and 10 samples per probe period (5 and 10 kHz sampling of the
    1 kHz probe) the closed loop on the new pipeline still sits in its
    [L, 2L] steady-lag band and beats the LTI chain."""
    cfg = replace(load_scenario(SCENARIO_DIR / "lowspeed.scenario"),
                  steps_per_period=steps_per_period, duration=3.0)
    floor = steady_lag_limits(cfg)["proposed"]
    res = compare_rmsd(cfg, 2.0, 3.0)
    assert not res["low_confidence"]
    assert floor <= res["proposed"] <= 2.0 * floor, res
    assert res["proposed"] < res["conventional"], res


def test_residual_order_ignores_estimator_phase():
    """phi_p only shifts the estimator's reference; the plant never sees it,
    so the averaging remainder must not depend on it."""
    cfg = _cfg(mode="driven", drive=DriveProfile(kind="constant", omega=0.5),
               estimator="none", duration=0.2)
    shifted = replace(cfg, injection=replace(cfg.injection, phi_p=0.7))
    assert residual_order(shifted, 0.1, 0.2) == residual_order(cfg, 0.1, 0.2)


def test_config_for_frequency_scaling():
    cfg = _cfg()
    out = _config_for_frequency(cfg, 2000.0, gamma_scale=10.0)
    assert out.injection.epsilon == pytest.approx(5e-4)
    assert out.gamma_alpha == pytest.approx(2e4)
    assert out.gamma_beta == pytest.approx(2e4)
    # without gamma_scale the gains are untouched
    same = _config_for_frequency(cfg, 2000.0, gamma_scale=None)
    assert same.gamma_alpha == cfg.gamma_alpha


def test_frequency_sweep_rejects_bad_metric():
    with pytest.raises(ValueError):
        frequency_sweep(_cfg(), [500.0], 0.1, 0.2, metric="median")


def test_frequency_sweep_rejects_degenerate_fits(monkeypatch):
    for freqs in ([1000.0], [1000.0, 1000.0], [0.0, 1000.0]):
        with pytest.raises(ValueError):
            frequency_sweep(_cfg(), freqs, 0.1, 0.2)
    # a zero steady error has no logarithm for the order fit
    monkeypatch.setattr(experiments, "_sweep_point", lambda job: 0.0)
    with pytest.raises(ValueError, match="no logarithm"):
        frequency_sweep(_cfg(), [500.0, 1000.0], 0.1, 0.2)


def test_frequency_sweep_shape():
    cfg = _cfg(mode="driven", estimator="proposed", duration=0.3,
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


def test_calibrate_requires_constant_drive():
    with pytest.raises(ValueError):
        calibrate(_cfg())
    with pytest.raises(ValueError):
        calibrate(_cfg(mode="driven", drive=DriveProfile("constant", omega=0.0)))


def test_calibrate_phase_error_recovery():
    """A demodulation phase shift drifts the raw estimate; the fitted gains
    restore the accuracy to within 2x of the undistorted run."""
    cfg = _cfg(mode="driven", drive=DriveProfile("constant", omega=2.0),
               duration=2.0)
    clean = calibrate(cfg)
    shifted = calibrate(cfg, phase_err=0.2)
    assert shifted["rmsd_raw"] > clean["rmsd_raw"]
    assert shifted["rmsd_compensated"] <= 2.0 * max(clean["rmsd_compensated"],
                                                    clean["rmsd_raw"])
