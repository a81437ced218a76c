"""Reusable experiment procedures behind the CLI verbs.

Each function takes a ScenarioConfig (plus experiment knobs) and returns a
plain dict of measured quantities, per pipeline keyed by trace prefix.
`sweep`, the one run-and-measure path, runs many configs and measures every
estimator a run carries, so one estimator="both" point serves both
pipelines.  The estimator replays (`equivalence_deviation`, `calibrate`)
advance each estimator over whole blocks of samples per call, passing numpy
slices of the synthesized current: past its warm-up, each block of at least
2N samples (the regressor's hold window) runs the new pipeline as array
operations, all but its demodulator recurrences.
"""

from __future__ import annotations

import math
from dataclasses import replace
from functools import partial

import numpy as np

from .estimators import (
    BlockFormEstimator,
    ProposedEstimator,
    fit_compensation,
    rmsd,
    synthesize_injection_current,
    window_mask,
    wrap_mod_pi,
)
from .motor import MotorParams
from .signal_ops import TWO_PI, InjectionConfig, sample_period
from .sim import (
    ScenarioConfig,
    SimulationDiverged,
    Trace,
    averaging_residual,
    record_times,
    run,
)

# samples per block of an estimator replay (`equivalence_deviation`)
_REPLAY_BLOCK = 4096


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
    m = window_mask(trace.t, t1, t2)
    e = wrap_mod_pi(trace.data[f"{prefix}_theta_hat"][m] - trace.theta[m])
    return float(np.std(e))


def largest_angle_error(trace: Trace, prefix: str, t1: float,
                        t2: float) -> float:
    """Largest |theta_hat - theta|, the error wrapped to (-pi, pi], over
    the valid samples in [t1, t2]; ValueError if the window holds none.

    Modulo 2*pi, not pi: above pi/2 the estimate has lost the magnetic
    polarity, which the mod-pi measures above cannot see.
    """
    m = window_mask(trace.t, t1, t2) & (trace.data[f"{prefix}_valid"] == 1.0)
    if not m.any():
        raise ValueError(f"window [{t1:g}, {t2:g}] holds no valid {prefix} "
                         "sample")
    e = trace.data[f"{prefix}_theta_hat"][m] - trace.theta[m]
    return float(np.max(np.abs((e + math.pi) % TWO_PI - math.pi)))


# the sweep's measures of an estimator's angle, by metric name
METRICS = {"rms": steady_angle_error, "ripple": steady_angle_ripple,
           "polarity": largest_angle_error}


def steady_lag_limits(cfg: ScenarioConfig) -> dict:
    """Steady angle lag per trace prefix at the closed-loop reference speed.

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
    if cfg.drive is not None:
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
    return {"prop": 0.5 * math.atan(two_omega_e / (cfg.gamma_alpha * mean_s2)),
            "conv": 0.5 * math.atan(two_omega_e / cfg.corner)}


def _measure(cfg: ScenarioConfig, fn, t1: float, t2: float) -> dict:
    trace = run(cfg)
    return {p: fn(trace, p, t1, t2) for p in cfg.pipelines}


def sweep(configs: list[ScenarioConfig], metric: str, t1: float, t2: float,
          workers: int = 1) -> list[dict]:
    """Per config, one run and the METRICS measure named `metric`
    over [t1, t2] of each estimator it carries, keyed "prop" and "conv".
    Every point is checked before any runs: it carries an estimator and the
    probe, and the window lies on its record grid after the warm-up.
    """
    if metric not in METRICS:
        raise ValueError(f"unknown sweep metric {metric!r}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    for cfg in configs:
        window_mask(record_times(cfg), t1, t2)
        if not cfg.pipelines:
            raise ValueError("a sweep point runs no estimator to measure")
        if not cfg.injection_enabled:
            raise ValueError("a probe-off sweep point has no saliency signal")
        if t1 < cfg.warmup:
            raise ValueError(f"window [{t1:g}, {t2:g}] starts inside the "
                             f"{cfg.warmup:g} s estimator warm-up")
    measure = partial(_measure, fn=METRICS[metric], t1=t1, t2=t2)
    # one process per point at most: the pool forks all its workers at start
    workers = min(workers, len(configs))
    if workers <= 1:
        return [measure(cfg) for cfg in configs]
    # imported here, so importing this module loads no multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=workers) as ex:
        return list(ex.map(measure, configs))


def order_fit(epsilons, errors) -> float:
    """Fitted exponent of error ~ epsilon^slope, on log-log axes."""
    for x, e in zip(epsilons, errors):
        if not e > 0.0:
            raise ValueError(f"steady error {e} at epsilon {x:g} has no logarithm")
    return float(np.polyfit(np.log(epsilons), np.log(errors), 1)[0])


def frequency_sweep(cfg: ScenarioConfig, freqs_hz, t1: float, t2: float,
                    gamma_scale: float | None = None,
                    workers: int = 1, metric: str = "rms") -> dict:
    """Steady angle error vs probe frequency f, with the log-log order fit.

    One `sweep` point per f, at epsilon = 1/f, measures the first of the
    scenario's pipelines (the new one for "both").  A gamma_scale sets
    gamma = gamma_scale/epsilon, the gain condition of the accuracy analysis.
    """
    if len(set(freqs_hz)) < 2 or not all(0.0 < f < math.inf for f in freqs_hz):
        raise ValueError("the order fit needs at least 2 distinct positive, "
                         "finite frequencies")
    eps = [1.0 / f for f in freqs_hz]
    gains = [{} if gamma_scale is None else dict.fromkeys(
        ("gamma_alpha", "gamma_beta"), gamma_scale / e) for e in eps]
    configs = [replace(cfg, injection=replace(cfg.injection, epsilon=e), **g)
               for e, g in zip(eps, gains)]
    errors = [m[cfg.pipelines[0]]
              for m in sweep(configs, metric, t1, t2, workers)]
    return {"freqs_hz": list(freqs_hz), "epsilons": eps, "errors": errors,
            "slope": order_fit(eps, errors)}


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
    N = steps_per_period
    Ts = sample_period(inj, N)
    n = int(round(duration / Ts))
    t = np.arange(n + 1) * Ts
    cur = synthesize_injection_current(params, inj, theta0 + omega_e * t, t,
                                       i_bar=(0.5, -0.2))
    est_a = ProposedEstimator(params, inj, N, gamma, gamma, theta0=theta0)
    est_b = BlockFormEstimator(params, inj, N, gamma, gamma, theta0=theta0)
    # blocks of whole carrier periods, so each starts at phase 0 and its
    # rows are 0, 1, ...: the kernels read the sample index only as k mod N;
    # at least two periods, the regressor's hold window, so that a block
    # past the warm-up runs as arrays, and about _REPLAY_BLOCK samples, over
    # which the arrays' fixed costs spread
    block = N * max(2, _REPLAY_BLOCK // N)
    # per form: rows of theta_hat, omega_hat (no PLL runs, never read),
    # yv1, yv2 and the valid flag
    rows = out_a, out_b = np.zeros((2, 5, block))
    worst_yv = worst_theta = 0.0
    for kb in range(0, n + 1, block):
        ke = min(kb + block, n + 1)
        ia, ib = cur[kb:ke].T
        est_a.step(0, ia, ib, out_a)
        est_b.step(0, ia, ib, out_b)
        a, b = rows[:, :, :ke - kb]
        with np.errstate(all="ignore"):
            dev = np.abs(a[:4] - b[:4])
        # an estimate that overflowed has no deviation to take (inf - inf)
        if not dev.max() < math.inf:
            k = kb + int(np.argmin(np.isfinite(dev).all(axis=0)))
            raise SimulationDiverged(f"replayed estimate not finite at "
                                     f"t={k * Ts:.6f}")
        valid = (a[4] != 0.0) & (b[4] != 0.0)
        # fmax, as the > of a running max, never takes a NaN
        worst_yv = np.fmax.reduce(dev[2:], axis=None, initial=worst_yv,
                                  where=valid)
        worst_theta = np.fmax.reduce(dev[0], initial=worst_theta,
                                     where=valid)
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
    if not math.isfinite(phase_err):
        raise ValueError(f"phase_err must be finite, got {phase_err}")
    if not 0.0 < ripple_scale < math.inf:
        raise ValueError(f"ripple_scale must be positive and finite, "
                         f"got {ripple_scale}")
    if cfg.drive is None or cfg.drive.kind != "constant" or cfg.drive.omega == 0.0:
        raise ValueError("calibration needs a constant nonzero drive speed")
    params, inj, N = cfg.motor, cfg.injection, cfg.steps_per_period
    omega_e = params.n_p * cfg.drive.omega
    # averaging separates the locus, at 2*omega_e, from the carrier
    if not 2.0 * abs(omega_e) < inj.omega_h:
        raise ValueError(f"calibration needs the locus frequency "
                         f"2*n_p*|omega| = {2.0 * abs(omega_e):g} rad/s below "
                         f"omega_h = {inj.omega_h:g} rad/s")
    t = record_times(replace(cfg, decimation=1))
    theta_true = cfg.theta0 + omega_e * t
    cur = synthesize_injection_current(params, inj, theta_true, t,
                                       phase_err=phase_err,
                                       ripple_scale=ripple_scale)
    ca, cb = cur.T

    def run_estimator(ell):
        est = ProposedEstimator(params, inj, N, cfg.gamma_alpha,
                                cfg.gamma_beta, ell, theta0=cfg.theta0)
        # theta_hat, yv1, yv2, and one row for omega_hat and the valid flag,
        # which are not read
        th, y1, y2, spare = np.empty((4, len(t)))
        est.step(0, ca, cb, [memoryview(r) for r in (th, spare, y1, y2, spare)])
        return th, y1, y2

    t_settle = min(0.5, 0.25 * cfg.duration)
    th_raw, y1, y2 = run_estimator((1.0, 0.0, 1.0))
    ell = fit_compensation(t, y1, y2, params, omega_e, t_start=t_settle)
    th_fit, _, _ = run_estimator(ell)
    return {"ell1": ell[0], "ell2": ell[1], "ell3": ell[2],
            "rmsd_raw": rmsd(t, theta_true, th_raw, t_settle, t[-1]),
            "rmsd_compensated": rmsd(t, theta_true, th_fit, t_settle, t[-1])}
