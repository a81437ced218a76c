"""Reusable experiment procedures behind the CLI verbs.

Each function takes a ScenarioConfig (plus experiment knobs) and returns a
plain dict of measured quantities, so the CLI, the test suite and interactive
use all share one code path.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from .estimators import (
    BlockFormEstimator,
    ProposedEstimator,
    fit_compensation,
    rmsd,
    synthesize_injection_current,
    wrap_mod_pi,
)
from .motor import MotorParams
from .signal_ops import InjectionConfig
from .sim import ScenarioConfig, Trace, averaging_residual, run

TWO_PI = 2.0 * math.pi


def steady_angle_error(trace: Trace, prefix: str, t1: float, t2: float) -> float:
    """RMS of the mod-pi wrapped angle error over [t1, t2]."""
    return rmsd(trace.t, trace.theta, trace.data[f"{prefix}_theta_hat"], t1, t2)


def steady_angle_ripple(trace: Trace, prefix: str, t1: float, t2: float) -> float:
    """Std-dev of the mod-pi wrapped angle error over [t1, t2].

    Isolates the oscillating part of the steady error (for the standstill
    low-pass chain this is the carrier-harmonic leakage, which shrinks
    proportionally to the probe period, while the error's mean settles much
    faster than that bound).
    """
    t = np.asarray(trace.t)
    m = (t >= t1) & (t <= t2)
    e = wrap_mod_pi(trace.data[f"{prefix}_theta_hat"][m] - trace.theta[m])
    return float(np.std(e))


def steady_lag_limits(cfg: ScenarioConfig) -> dict:
    """Steady angle lag of each demodulator at the closed-loop reference speed.

    In the averaged model the virtual output turns at 2*omega_e, with
    omega_e = n_p*omega_ref, and each demodulator passes it through a
    first-order low pass, so the recovered angle trails by half that low
    pass's phase: 0.5*atan(2*omega_e/(gamma*<S^2>)) for the gradient flow,
    with <S^2> = V_h^2/(8*pi^2), and 0.5*atan(2*omega_e/lambda_ell) for the
    LTI chain.  The regressor's transport delay and the high pass's group
    delay only add to these, so each value is a floor that no steady run
    beats.

    Assumes the closed loop holds omega_ref in steady state, equal adaptation
    gains on both axes and identity compensation gains; raises ValueError
    where the scenario breaks these.
    """
    if cfg.mode != "closed_loop":
        raise ValueError("steady lag limits need a closed-loop scenario")
    if not cfg.injection_enabled:
        raise ValueError("steady lag limits need the probe enabled")
    if cfg.gamma_alpha != cfg.gamma_beta:
        raise ValueError("steady lag limits need gamma_alpha == gamma_beta")
    if cfg.ell != (1.0, 0.0, 1.0):
        raise ValueError("steady lag limits need identity compensation gains")
    inj = cfg.injection
    two_omega_e = 2.0 * abs(cfg.motor.n_p * cfg.controller.omega_ref)
    mean_s2 = 0.5 * (inj.V_h / TWO_PI) ** 2
    return {
        "proposed": 0.5 * math.atan(two_omega_e / (cfg.gamma_alpha * mean_s2)),
        "conventional": 0.5 * math.atan(two_omega_e / cfg.chain.lambda_ell),
    }


def compare_rmsd(cfg: ScenarioConfig, t1: float = 5.0, t2: float = 10.0) -> dict:
    """Run both estimators on one closed-loop trace and report their RMSDs."""
    cfg = replace(cfg, estimator="both")
    trace = run(cfg)
    out = {"t1": t1, "t2": t2}
    if not cfg.injection_enabled:
        # no probe, no saliency signal: nothing to claim
        out["low_confidence"] = True
        out["proposed"] = out["conventional"] = None
        return out
    out["low_confidence"] = bool(
        np.any(trace.prop_valid[trace.t >= t1] == 0.0))
    out["proposed"] = steady_angle_error(trace, "prop", t1, t2)
    out["conventional"] = steady_angle_error(trace, "conv", t1, t2)
    return out


def _config_for_frequency(cfg: ScenarioConfig, f_hz: float,
                          gamma_scale: float | None) -> ScenarioConfig:
    eps = 1.0 / f_hz
    inj = replace(cfg.injection, epsilon=eps)
    kw = {"injection": inj}
    if gamma_scale is not None:
        kw["gamma_alpha"] = gamma_scale / eps
        kw["gamma_beta"] = gamma_scale / eps
    return replace(cfg, **kw)


def _sweep_point(args):
    cfg, f_hz, gamma_scale, prefix, t1, t2, metric = args
    trace = run(_config_for_frequency(cfg, f_hz, gamma_scale))
    fn = steady_angle_ripple if metric == "ripple" else steady_angle_error
    return fn(trace, prefix, t1, t2)


def frequency_sweep(cfg: ScenarioConfig, freqs_hz, t1: float, t2: float,
                    gamma_scale: float | None = None,
                    workers: int = 1, metric: str = "rms") -> dict:
    """Steady angle error vs probe frequency, with the log-log order fit.

    The error of each run is measured against epsilon = 1/f; the returned
    slope is the fitted exponent of error ~ epsilon^slope.  When gamma_scale
    is given the adaptation gain is scaled as gamma = gamma_scale/epsilon,
    matching the gain condition of the accuracy analysis.
    """
    if metric not in ("rms", "ripple"):
        raise ValueError(f"unknown sweep metric {metric!r}")
    if not all(0.0 < f < math.inf for f in freqs_hz):
        raise ValueError("frequencies must be positive and finite")
    if len(set(freqs_hz)) < 2:
        raise ValueError("the order fit needs at least 2 distinct frequencies")
    prefix = "conv" if cfg.estimator == "conventional" else "prop"
    jobs = [(cfg, f, gamma_scale, prefix, t1, t2, metric) for f in freqs_hz]
    if workers > 1:
        # imported here, so importing this module loads no multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as ex:
            errors = list(ex.map(_sweep_point, jobs))
    else:
        errors = [_sweep_point(j) for j in jobs]
    for f, e in zip(freqs_hz, errors):
        if not e > 0.0:
            raise ValueError(f"steady error {e} at {f} Hz has no logarithm")
    eps = np.array([1.0 / f for f in freqs_hz])
    slope = float(np.polyfit(np.log(eps), np.log(errors), 1)[0])
    return {
        "freqs_hz": list(freqs_hz),
        "epsilons": eps.tolist(),
        "errors": [float(e) for e in errors],
        "slope": slope,
    }


def residual_order(cfg: ScenarioConfig, t1: float, t2: float) -> dict:
    """Max-norm of the averaging remainder at epsilon and epsilon/2.

    The remainder is O(epsilon^2), so halving epsilon should shrink the norm
    by a factor near 4.
    """
    _, _, norm_1 = averaging_residual(cfg, t1, t2)
    inj2 = replace(cfg.injection, epsilon=0.5 * cfg.injection.epsilon)
    _, _, norm_2 = averaging_residual(replace(cfg, injection=inj2), t1, t2)
    return {
        "epsilon": cfg.injection.epsilon,
        "norm_eps": norm_1,
        "norm_eps_half": norm_2,
        "ratio": norm_1 / norm_2,
    }


def equivalence_deviation(params: MotorParams, inj: InjectionConfig,
                          steps_per_period: int = 50, duration: float = 10.0,
                          gamma: float = 1e4, omega_e: float = 3.0,
                          theta0: float = 0.3) -> dict:
    """Per-sample agreement of the two forms of the proposed pipeline.

    Feeds the same synthetic injection current (slowly rotating angle plus a
    drifting slow component) through the operator form and through the
    HPF/demod/LPF block form, and reports the worst relative deviation of the
    virtual-output estimates and the worst angle deviation.
    """
    if not 2.0 * inj.epsilon < duration < math.inf:
        raise ValueError(f"duration {duration} s must be finite and exceed "
                         f"the {2.0 * inj.epsilon} s operator warm-up")
    Ts = inj.epsilon / steps_per_period
    n = int(round(duration / Ts))
    t = np.arange(n + 1) * Ts
    cur = synthesize_injection_current(params, inj, theta0 + omega_e * t, t,
                                       i_bar=(0.5, -0.2))
    est_a = ProposedEstimator(params, inj, Ts, gamma, gamma, theta0=theta0)
    est_b = BlockFormEstimator(params, inj, Ts, gamma, gamma, theta0=theta0)
    step_a, step_b = est_a.step, est_b.step
    worst_yv = 0.0
    worst_theta = 0.0
    # memoryviews index to Python floats without a copy; numpy scalars make
    # every estimator step slower
    tv, cv = memoryview(t), memoryview(cur)
    for k in range(n + 1):
        tk, ia, ib = tv[k], cv[k, 0], cv[k, 1]
        ra = step_a(tk, ia, ib)
        rb = step_b(tk, ia, ib)
        if ra is None or rb is None:
            continue
        th_a, y1_a, y2_a = ra
        th_b, y1_b, y2_b = rb
        worst_yv = max(worst_yv, abs(y1_a - y1_b), abs(y2_a - y2_b))
        worst_theta = max(worst_theta, abs(th_a - th_b))
    # relative to the natural size of the yv signal; dividing by a positive
    # constant is monotonic, so the max may be taken first
    scale = abs(params.L1) / params.det_L
    return {"max_rel_yv_deviation": float(worst_yv / scale),
            "max_theta_deviation": float(worst_theta)}


def calibrate(cfg: ScenarioConfig, phase_err: float = 0.0,
              ripple_scale: float = 1.0) -> dict:
    """Fit the compensation gains from a constant-speed synthetic trace.

    The trace is built from the averaged current decomposition with an
    optional artificial phase shift or amplitude scale on the ripple (the
    loss mechanisms seen on hardware).  Returns the fitted gains and the
    steady angle error before/after applying them.
    """
    if cfg.drive is None or cfg.drive.kind != "constant" or cfg.drive.omega == 0.0:
        raise ValueError("calibration needs a constant nonzero drive speed")
    params, inj, Ts = cfg.motor, cfg.injection, cfg.Ts
    omega_e = params.n_p * cfg.drive.omega
    n = cfg.n_steps
    t = np.arange(n + 1) * Ts
    theta_true = cfg.theta0 + omega_e * t
    cur = synthesize_injection_current(params, inj, theta_true, t,
                                       phase_err=phase_err,
                                       ripple_scale=ripple_scale)
    tv, cv = memoryview(t), memoryview(cur)  # Python floats, no copy

    def run_estimator(ell):
        est = ProposedEstimator(params, inj, Ts, cfg.gamma_alpha,
                                cfg.gamma_beta, ell, theta0=cfg.theta0)
        m = len(t)
        th = np.empty(m)
        y1 = np.empty(m)
        y2 = np.empty(m)
        for k in range(m):
            est.step(tv[k], cv[k, 0], cv[k, 1])
            th[k] = est.theta_hat
            y1[k] = est.yv1
            y2[k] = est.yv2
        return th, y1, y2

    t_settle = min(0.5, 0.25 * cfg.duration)
    th_raw, y1, y2 = run_estimator((1.0, 0.0, 1.0))
    ell = fit_compensation(t, y1, y2, params, omega_e, t_start=t_settle)
    th_fit, _, _ = run_estimator(ell)
    m = t >= t_settle

    def err(th_hat):
        e = wrap_mod_pi(th_hat[m] - theta_true[m])
        return float(np.sqrt(np.mean(e * e)))

    return {"ell1": ell[0], "ell2": ell[1], "ell3": ell[2],
            "rmsd_raw": err(th_raw), "rmsd_compensated": err(th_fit)}
