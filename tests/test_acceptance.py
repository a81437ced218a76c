"""End-to-end acceptance suite.

One test per acceptance criterion; each prints a single PASS/FAIL line with
the measured numbers (visible with -v through the test outcome, and in the
captured output on failure).  The heavier closed-loop runs are shared through
module-scoped fixtures.
"""

import cmath
import math
import time
from dataclasses import replace

import numpy as np
import pytest

from hfsense.config import load_scenario
from hfsense.estimators import ProposedEstimator, rmsd, wrap_mod_pi
from hfsense.experiments import (
    equivalence_deviation,
    frequency_sweep,
    order_fit,
    residual_order,
    steady_angle_error,
    steady_angle_ripple,
    steady_lag_limits,
    sweep,
)
from hfsense.motor import SIM_MOTOR, virtual_output
from hfsense.signal_ops import (
    TWO_PI,
    InjectionConfig,
    gd_frequency_response,
    hpf_frequency_response,
    lpf_frequency_response,
    probe_signal,
)
from hfsense.sim import DriveProfile, run

from conftest import SCENARIO_DIR
from oracles import HighPass2, LowPass1, Regressor, unwrapped_phase_at

SWEEP_FREQS = [500.0, 1000.0, 2000.0]


def _report(name: str, passed: bool, detail: str):
    line = f"criterion {name}: {'PASS' if passed else 'FAIL'} - {detail}"
    print(line)
    assert passed, line


@pytest.fixture(scope="module")
def lowspeed_cfg():
    return load_scenario(SCENARIO_DIR / "lowspeed.scenario")


@pytest.fixture(scope="module")
def lowspeed_run(lowspeed_cfg):
    """Reference closed-loop run (both estimators) plus its wall time."""
    t0 = time.perf_counter()
    trace = run(lowspeed_cfg)
    return trace, time.perf_counter() - t0


def test_criterion_1_closed_loop_rmsd(lowspeed_cfg, lowspeed_run):
    """Closed-loop low-speed benchmark: RMSD bands, ordering, runtime.

    Each pipeline's band is [L, 2L], where L is its demodulator's steady lag
    limit at this operating point: the steady error is a constant lag, and no
    steady run trails by less than L.
    """
    trace, elapsed = lowspeed_run
    limits = steady_lag_limits(lowspeed_cfg)
    window = (trace.t >= 5.0) & (trace.t <= 10.0)
    rmsds = {}
    parts = []
    ok_bands = True
    for name, prefix in (("proposed", "prop"), ("conventional", "conv")):
        r = steady_angle_error(trace, prefix, 5.0, 10.0)
        floor = limits[prefix]
        ok = floor <= r <= 2.0 * floor
        mean_err = float(np.mean(wrap_mod_pi(
            trace.data[f"{prefix}_theta_hat"][window] - trace.theta[window])))
        ripple = steady_angle_ripple(trace, prefix, 5.0, 10.0)
        parts.append(f"{name} {r:.4f} rad (floor {floor:.4f}, band "
                     f"[{floor:.4f}, {2.0 * floor:.4f}] {'ok' if ok else 'MISS'}"
                     f", mean {mean_err:+.4f}, ripple {ripple:.4f})")
        rmsds[name] = r
        ok_bands = ok_bands and ok
    ordering = rmsds["proposed"] < rmsds["conventional"]
    fast_enough = elapsed < 60.0
    detail = (", ".join(parts) +
              f", ordering {'ok' if ordering else 'VIOLATED'}"
              f", runtime {elapsed:.1f} s")
    _report("1 (closed-loop RMSD)", ok_bands and ordering and fast_enough,
            detail)


def test_criterion_2_averaging_residual_order(lowspeed_cfg):
    """Probe-on minus probe-off current matches the first-order ripple model;
    the remainder shrinks ~4x when the probe period is halved."""
    cfg = replace(lowspeed_cfg, estimator="none", sensor_mode=True,
                  duration=3.0)
    res = residual_order(cfg, 1.0, 3.0)
    ok = 3.0 <= res["ratio"] <= 5.0
    _report("2 (averaging residual order)", ok,
            f"|r|_inf {res['norm_eps']:.3e} -> {res['norm_eps_half']:.3e} A, "
            f"ratio {res['ratio']:.2f} (band [3, 5])")


def test_criterion_3_accuracy_orders(lowspeed_cfg):
    """Log-log slope of steady angle error vs probe period.

    At slow nonzero speed the new pipeline's error scales ~ epsilon (the
    adaptation gain is scaled as gamma ~ 1/epsilon) while the LTI chain's
    scales ~ sqrt(epsilon) through its lambda_ell = sqrt(omega_h omega*)
    corner.  At standstill the LTI chain's error mean settles as epsilon^2
    (resistive second-order bias), so the first-order mechanism left is the
    carrier-harmonic leakage through the lambda_ell = 1 low pass; the
    standstill sweep therefore measures the steady ripple (std-dev of the
    windowed error) rather than the total RMS.
    """
    base = replace(lowspeed_cfg, estimator="both",
                   drive=DriveProfile(kind="constant", omega=0.5),
                   duration=3.0, theta0=0.3)
    # gamma = 10/epsilon for the new pipeline; the LTI chain reads no gamma,
    # and driven estimators do not feed back, so one run serves both
    eps = [1.0 / f for f in SWEEP_FREQS]
    driven = sweep([replace(base, injection=replace(base.injection, epsilon=e),
                            gamma_alpha=10.0 / e, gamma_beta=10.0 / e)
                    for e in eps], "rms", 1.5, 3.0, workers=3)
    prop, conv = (order_fit(eps, [m[p] for m in driven])
                  for p in ("prop", "conv"))
    still = replace(lowspeed_cfg, estimator="conventional",
                    drive=DriveProfile(kind="constant", omega=0.0),
                    lambda_ell=1.0, theta0=0.7, duration=20.0)
    conv0 = frequency_sweep(still, SWEEP_FREQS, 14.0, 20.0, workers=3,
                            metric="ripple")
    ok_p = 0.7 <= prop <= 1.3
    ok_c = 0.25 <= conv <= 0.75
    ok_s = 0.7 <= conv0["slope"] <= 1.3
    _report("3 (accuracy orders)", ok_p and ok_c and ok_s,
            f"proposed slope {prop:.3f} (band [0.7, 1.3]), "
            f"conventional {conv:.3f} (band [0.25, 0.75]), "
            f"conventional standstill ripple {conv0['slope']:.3f} "
            f"(band [0.7, 1.3])")


def test_criterion_4_block_form_equivalence(lowspeed_cfg):
    """Operator form vs block-diagram form of the new pipeline agree to
    1e-9 relative, per sample, over 10 s of identical input."""
    res = equivalence_deviation(lowspeed_cfg.motor, lowspeed_cfg.injection,
                                steps_per_period=50, duration=10.0)
    ok = res["max_rel_yv_deviation"] <= 1e-9
    _report("4 (pipeline equivalence)", ok,
            f"max relative deviation {res['max_rel_yv_deviation']:.3e} "
            f"(tolerance 1e-9), max angle deviation "
            f"{res['max_theta_deviation']:.3e} rad")


def test_criterion_5_operator_properties():
    """Filter and demodulator properties at the documented tolerances."""
    inj = InjectionConfig(V_h=1.0, epsilon=1e-3)
    Ts = inj.epsilon / 50.0
    lam_h = inj.omega_h
    checks = []

    # discrete HPF rejects DC below 1e-6
    hp = HighPass2(lam_h, Ts)
    y = 0.0
    for _ in range(20000):
        y = hp.step(3.0)
    checks.append(("HPF DC rejection", abs(y) < 1e-6, f"residual {abs(y):.2e}"))

    # discrete LPF unit DC gain to 1e-10
    lp = LowPass1(50.0, Ts)
    y = 0.0
    for _ in range(300000):
        y = lp.step(1.0)
    checks.append(("LPF unit DC gain", abs(y - 1.0) < 1e-10,
                   f"deviation {abs(y - 1.0):.2e}"))

    # continuous HPF at its corner: unit gain, +90 degrees, to 1e-9
    h = complex(hpf_frequency_response(lam_h, lam_h))
    ok = abs(abs(h) - 1.0) < 1e-9 and abs(cmath.phase(h) - 0.5 * math.pi) < 1e-9
    checks.append(("HPF corner gain/phase", ok,
                   f"|H| {abs(h):.12f}, phase {math.degrees(cmath.phase(h)):.6f} deg"))
    assert abs(complex(lpf_frequency_response(50.0, 0.0)) - 1.0) == 0.0

    # delay-minus-hold response at the probe frequency: unity with one full
    # turn of (unwrapped) phase lag
    g = gd_frequency_response(inj.epsilon, inj.omega_h)
    ph = unwrapped_phase_at(inj.epsilon, inj.omega_h)
    ok = abs(g - 1.0) < 1e-9 and abs(ph + TWO_PI) < 1e-9
    checks.append(("regressor response at probe frequency", ok,
                   f"G {g:.3e}, unwrapped phase {ph:.9f} rad"))

    # delay-minus-hold annihilates constants (exact for dyadic values)
    reg = Regressor(inj.epsilon, Ts)
    for _ in range(150):
        yf = reg.step(0.625, 0.625)
    checks.append(("constant annihilation", yf == (0.0, 0.0),
                   f"residual {yf}"))

    # the proposed estimator's gradient flows under persistent excitation
    # converge to the ripple coefficients within 2%
    est = ProposedEstimator(SIM_MOTOR, inj, 50)
    coef = (120.0, -45.0)
    n = int(round(0.2 / Ts))
    S = [inj.epsilon * probe_signal(inj, k * Ts) for k in range(n + 1)]
    est.step(0, [coef[0] * s for s in S], [coef[1] * s for s in S])
    rel = max(abs(est.yv1 - coef[0]) / abs(coef[0]),
              abs(est.yv2 - coef[1]) / abs(coef[1]))
    checks.append(("gradient-flow PE convergence", rel < 0.02,
                   f"relative error {rel:.2e}"))

    passed = all(ok for _, ok, _ in checks)
    detail = "; ".join(f"{name} {'ok' if ok else 'FAIL'} ({info})"
                       for name, ok, info in checks)
    _report("5 (operator properties)", passed, detail)


def test_criterion_6_angle_recovery_and_reversal():
    """Angle recovery round trip to 1e-12 over a 1000-point grid, and branch
    tracking through a +/-20 RPM speed reversal with no half-turn jump."""
    cfg = load_scenario(SCENARIO_DIR / "reversal.scenario")
    worst = 0.0
    from oracles import virtual_output_to_angle
    for theta in np.linspace(-math.pi, math.pi, 1000):
        y1, y2 = virtual_output(cfg.motor, theta)
        rec = virtual_output_to_angle(y1, y2, cfg.motor, prev_theta=theta)
        worst = max(worst, abs(float(wrap_mod_pi(rec - theta))))
    round_trip_ok = worst <= 1e-12

    trace = run(cfg)
    branch = trace.prop_theta_hat - trace.theta
    max_jump = float(np.max(np.abs(np.diff(branch))))
    settle = trace.t >= 1.0
    max_err = float(np.max(np.abs(wrap_mod_pi(
        trace.prop_theta_hat[settle] - trace.theta[settle]))))
    no_flip = max_jump < 0.5 * math.pi and max_err < 0.5
    _report("6 (angle recovery/branch tracking)", round_trip_ok and no_flip,
            f"round-trip worst {worst:.2e} rad (tolerance 1e-12); reversal "
            f"max branch jump {max_jump:.3f} rad, max settled error "
            f"{max_err:.3f} rad")


def test_criterion_7_determinism_and_refinement(lowspeed_cfg, lowspeed_run):
    """Identical configs give bit-identical traces; halving the step moves
    the closed-loop RMSD by under 2%."""
    trace, _ = lowspeed_run
    again = run(lowspeed_cfg)
    identical = all(np.array_equal(trace.data[c], again.data[c])
                    for c in trace.columns)

    fine = run(replace(lowspeed_cfg, steps_per_period=100))
    r_prop = steady_angle_error(trace, "prop", 5.0, 10.0)
    r_prop_f = steady_angle_error(fine, "prop", 5.0, 10.0)
    r_conv = steady_angle_error(trace, "conv", 5.0, 10.0)
    r_conv_f = steady_angle_error(fine, "conv", 5.0, 10.0)
    d_prop = abs(r_prop_f - r_prop) / r_prop
    d_conv = abs(r_conv_f - r_conv) / r_conv
    ok = identical and d_prop < 0.02 and d_conv < 0.02
    _report("7 (determinism/refinement)", ok,
            f"bit-identical rerun: {identical}; RMSD change on halved step: "
            f"proposed {100.0 * d_prop:.2f}%, conventional "
            f"{100.0 * d_conv:.2f}% (limit 2%)")
