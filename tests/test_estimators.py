"""Estimator tests: angle recovery, branch tracking, both pipelines on
synthetic ripple currents, the fused steps against the standalone operators,
PLL, compensation fitting."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from hfsense.estimators import (
    ConventionalEstimator,
    BlockFormEstimator,
    LtiChainConfig,
    Pll,
    ProposedEstimator,
    _locus_angle,
    fit_compensation,
    rmsd,
    synthesize_injection_current,
    wrap_mod_pi,
)
from hfsense.motor import SIM_MOTOR, virtual_output
from hfsense.signal_ops import (
    TWO_PI,
    HighPass2,
    InjectionConfig,
    LowPass1,
    Regressor,
    carrier_steps,
    probe_signal,
)
from oracles import DegenerateSignalError, virtual_output_to_angle

angles = st.floats(-30.0, 30.0, allow_nan=False)


@given(phi=st.floats(-math.pi, math.pi), prev=angles,
       L1=st.sampled_from([-1e-3, 1e-3]))
def test_locus_angle_branch_properties(phi, prev, L1):
    """The angle of the locus point (cos phi, sin phi), resolved by branch."""
    dx, dy = math.cos(phi), math.sin(phi)
    raw = 0.5 * math.atan2(dy, dx)
    sign = 1.0 if L1 < 0.0 else -1.0  # the point is negated for L_d > L_q
    out = _locus_angle(sign * dx, sign * dy, L1, prev)
    # same angle modulo pi, and on the branch nearest prev
    assert math.isclose((out - raw) / math.pi, round((out - raw) / math.pi),
                        abs_tol=1e-9)
    assert abs(out - prev) <= 0.5 * math.pi + 1e-9


@given(e=angles)
def test_wrap_mod_pi_range(e):
    w = float(wrap_mod_pi(e))
    assert -0.5 * math.pi < w <= 0.5 * math.pi + 1e-12
    k = (w - e) / math.pi  # the wrap only ever shifts by whole multiples of pi
    assert math.isclose(k, round(k), abs_tol=1e-9)


def test_angle_round_trip(sim_motor):
    """virtual_output followed by the angle recovery is the identity mod pi."""
    worst = 0.0
    for theta in np.linspace(-math.pi, math.pi, 1000):
        y1, y2 = virtual_output(sim_motor, theta)
        rec = virtual_output_to_angle(y1, y2, sim_motor, prev_theta=theta)
        err = abs(float(wrap_mod_pi(rec - theta)))
        worst = max(worst, err)
    assert worst <= 1e-12


def test_angle_recovery_degenerate_center(sim_motor):
    c = sim_motor.L0 / sim_motor.det_L
    with pytest.raises(DegenerateSignalError):
        virtual_output_to_angle(c, 0.0, sim_motor, 0.0, min_radius=1.0)


def test_rmsd_basics():
    t = np.linspace(0.0, 1.0, 101)
    th = 3.0 * t
    assert rmsd(t, th, th, 0.2, 0.8) == 0.0
    # a constant pi offset is invisible modulo pi
    assert rmsd(t, th, th + math.pi, 0.2, 0.8) == pytest.approx(0.0, abs=1e-12)
    assert rmsd(t, th, th + 0.05, 0.2, 0.8) == pytest.approx(0.05, rel=1e-9)
    with pytest.raises(ValueError):
        rmsd(t, th, th, 0.8, 0.2)
    with pytest.raises(ValueError):
        rmsd(t, th, th, 0.2, 2.0)


def test_rmsd_rejects_window_below_two_samples():
    """One sample spans no time; the trapezoid mean over it would be NaN."""
    t = np.linspace(0.0, 1.0, 11)
    with pytest.raises(ValueError, match="fewer than 2 samples"):
        rmsd(t, t, t, 0.45, 0.55)
    with pytest.raises(ValueError, match="fewer than 2 samples"):
        rmsd(t, t, t, 0.41, 0.49)


def _run_on_synthetic(est, sim_motor, inj, Ts, theta0, omega_e, duration):
    n = int(round(duration / Ts))
    t = np.arange(n + 1) * Ts
    cur = synthesize_injection_current(sim_motor, inj, theta0 + omega_e * t, t)
    for k in range(n + 1):
        est.step(k, cur[k, 0], cur[k, 1])
    return t


def test_proposed_estimator_tracks_synthetic(sim_motor, inj, Ts):
    omega_e = 3.0
    est = ProposedEstimator(sim_motor, inj, Ts, theta0=0.4)
    t = _run_on_synthetic(est, sim_motor, inj, Ts, 0.4, omega_e, 0.5)
    final_err = float(wrap_mod_pi(est.theta_hat - (0.4 + omega_e * t[-1])))
    # steady lag ~ omega_e/(gamma*<S^2>) ~ 0.024 rad at these gains
    assert abs(final_err) < 0.05
    assert not est.low_confidence


def test_conventional_estimator_tracks_synthetic(sim_motor, inj, Ts):
    omega_e = 3.0
    chain = LtiChainConfig.from_injection(inj, omega_star=0.5)
    est = ConventionalEstimator(sim_motor, inj, Ts, chain, theta0=0.4)
    t = _run_on_synthetic(est, sim_motor, inj, Ts, 0.4, omega_e, 0.5)
    final_err = float(wrap_mod_pi(est.theta_hat - (0.4 + omega_e * t[-1])))
    # steady lag ~ atan(2*omega_e/lambda_ell)/2 ~ 0.053 rad
    assert abs(final_err) < 0.12


def test_all_estimators_track_with_ld_above_lq(sim_motor, inj, Ts):
    """Swapped inductances (L1 > 0) flip the saliency locus; each estimator
    still recovers the angle modulo pi, not a quarter turn off."""
    motor = replace(sim_motor, L_d=sim_motor.L_q, L_q=sim_motor.L_d)
    assert motor.L1 > 0.0
    omega_e, theta0 = 3.0, 0.4
    ests = {
        "proposed": ProposedEstimator(motor, inj, Ts, theta0=theta0),
        "block_form": BlockFormEstimator(motor, inj, Ts, theta0=theta0),
        "conventional": ConventionalEstimator(
            motor, inj, Ts, LtiChainConfig.from_injection(inj, 0.5),
            theta0=theta0),
    }
    n = int(round(0.5 / Ts))
    t = np.arange(n + 1) * Ts
    theta = theta0 + omega_e * t
    cur = synthesize_injection_current(motor, inj, theta, t)
    settled = t >= 0.25
    for name, est in ests.items():
        th = np.empty(n + 1)
        for k in range(n + 1):
            est.step(k, cur[k, 0], cur[k, 1])
            th[k] = est.theta_hat
        mean_err = float(np.mean(wrap_mod_pi(th[settled] - theta[settled])))
        assert abs(mean_err) < 0.25 * math.pi, (name, mean_err)


def test_synthesized_current_follows_virtual_output(sim_motor, inj, Ts):
    """i = i_bar + epsilon * y_v(theta) * S, sample by sample."""
    t = np.arange(200) * Ts
    theta = np.linspace(-3.0, 5.0, t.size)
    cur = synthesize_injection_current(sim_motor, inj, theta, t,
                                       i_bar=(0.3, -0.1), phase_err=0.2,
                                       ripple_scale=0.8)
    for k in range(t.size):
        y1, y2 = virtual_output(sim_motor, theta[k])
        S = -0.8 * inj.V_h / TWO_PI * math.cos(inj.omega_h * t[k] + 0.2)
        assert cur[k, 0] == pytest.approx(0.3 + inj.epsilon * y1 * S,
                                          rel=1e-14, abs=1e-15)
        assert cur[k, 1] == pytest.approx(-0.1 + inj.epsilon * y2 * S,
                                          rel=1e-14, abs=1e-15)
    with pytest.raises(ValueError):
        synthesize_injection_current(sim_motor, inj, theta[:-1], t)


def test_estimator_seeding(sim_motor, inj, Ts):
    est = ProposedEstimator(sim_motor, inj, Ts, theta0=0.9)
    assert est.theta_hat == 0.9
    assert (est.yv1, est.yv2) == pytest.approx(virtual_output(sim_motor, 0.9))
    conv = ConventionalEstimator(
        sim_motor, inj, Ts, LtiChainConfig.from_injection(inj, 0.5), theta0=0.9)
    assert (conv.yv1, conv.yv2) == pytest.approx(virtual_output(sim_motor, 0.9))


def test_proposed_warmup_returns_none(sim_motor, inj, Ts):
    est = ProposedEstimator(sim_motor, inj, Ts)
    n_warm = round(2.0 * inj.epsilon / Ts)
    for k in range(n_warm):
        assert est.step(k, 0.0, 0.0) is None
    assert est.step(n_warm, 0.0, 0.0) is not None


def test_step_rejects_a_float_time(sim_motor, inj, Ts):
    """Each kernel steps by the integer sample index; a float, such as a
    time in seconds, raises TypeError at the first sample and after warm-up,
    and leaves the estimator as it was."""
    chain = LtiChainConfig.from_injection(inj, omega_star=0.5)
    n = int(round(0.01 / Ts))
    t = np.arange(n) * Ts
    cur = synthesize_injection_current(sim_motor, inj, 0.4 + 3.0 * t, t)
    for make in (lambda: ProposedEstimator(sim_motor, inj, Ts, theta0=0.4),
                 lambda: BlockFormEstimator(sim_motor, inj, Ts, theta0=0.4),
                 lambda: ConventionalEstimator(sim_motor, inj, Ts, chain,
                                               theta0=0.4)):
        est, fresh = make(), make()
        with pytest.raises(TypeError):
            est.step(0.5 * Ts, 0.0, 0.0)
        for k in range(n):
            ia, ib = float(cur[k, 0]), float(cur[k, 1])
            assert est.step(k, ia, ib) == fresh.step(k, ia, ib)
        with pytest.raises(TypeError):
            est.step(n * Ts, 0.0, 0.0)


def test_estimators_reject_ts_not_dividing_epsilon(sim_motor, inj):
    Ts = inj.epsilon / 50.5
    chain = LtiChainConfig.from_injection(inj, omega_star=0.5)
    with pytest.raises(ValueError):
        ConventionalEstimator(sim_motor, inj, Ts, chain)
    with pytest.raises(ValueError):
        ProposedEstimator(sim_motor, inj, Ts)
    with pytest.raises(ValueError):
        BlockFormEstimator(sim_motor, inj, Ts)


def test_ell_validation(sim_motor, inj, Ts):
    with pytest.raises(ValueError):
        ProposedEstimator(sim_motor, inj, Ts, ell=(0.0, 0.0, 1.0))
    for gammas in ((0.0, 1e4), (1e4, -1.0)):
        with pytest.raises(ValueError, match="gamma"):
            ProposedEstimator(sim_motor, inj, Ts, *gammas)


def test_block_form_matches_operator_form(sim_motor, inj, Ts):
    """Short cross-check of the two implementations of the same pipeline
    (the acceptance suite runs the long version), from carrier phase 23."""
    omega_e = 3.0
    a = ProposedEstimator(sim_motor, inj, Ts, theta0=0.2)
    b = BlockFormEstimator(sim_motor, inj, Ts, theta0=0.2)
    k0, n = 23, int(round(0.2 / Ts))
    assert k0 % carrier_steps(inj, Ts) != 0
    t = (k0 + np.arange(n + 1)) * Ts
    cur = synthesize_injection_current(sim_motor, inj, 0.2 + omega_e * t, t,
                                       i_bar=(0.3, -0.1))
    scale = abs(sim_motor.L1) / sim_motor.det_L
    for k in range(n + 1):
        ra = a.step(k0 + k, cur[k, 0], cur[k, 1])
        rb = b.step(k0 + k, cur[k, 0], cur[k, 1])
        if ra is None:
            continue
        assert abs(a.yv1 - b.yv1) / scale < 1e-10
        assert abs(a.yv2 - b.yv2) / scale < 1e-10


SALIENCY = pytest.mark.parametrize(
    "motor", [SIM_MOTOR, replace(SIM_MOTOR, L_d=SIM_MOTOR.L_q, L_q=SIM_MOTOR.L_d)],
    ids=["ld_below_lq", "ld_above_lq"])


@SALIENCY
def test_fused_conventional_step_matches_composed_operators(motor):
    """Bit for bit against HighPass2 -> carrier -> LowPass1 -> _locus_angle
    over 3000 seeded samples of ripple plus noise, from carrier phase 37."""
    inj = InjectionConfig(V_h=1.5, epsilon=1e-3, phi=0.3)
    Ts = inj.epsilon / 50.0
    chain = LtiChainConfig(lambda_h=inj.omega_h, lambda_ell=80.0)
    k0, n = 37, 3000
    t = (k0 + np.arange(n)) * Ts
    rng = np.random.default_rng(5)
    cur = synthesize_injection_current(motor, inj, 0.7 + 40.0 * t, t,
                                       i_bar=(0.5, -0.2)) \
        + rng.normal(0.0, 1e-3, (n, 2))
    est = ConventionalEstimator(motor, inj, Ts, chain, theta0=0.7)
    # the same chain composed from the standalone operators
    scale = 2.0 * inj.omega_h * motor.det_L / inj.V_h
    y10, y20 = virtual_output(motor, 0.7)
    hpf = [HighPass2(chain.lambda_h, Ts) for _ in range(2)]
    lpf = [LowPass1(chain.lambda_ell, Ts, y0=y * motor.det_L / scale)
           for y in (y10, y20)]
    N = carrier_steps(inj, Ts)
    theta = 0.7
    mismatches = []
    for k in range(n):
        ia, ib = float(cur[k, 0]), float(cur[k, 1])
        demod = math.sin(inj.omega_h * ((k0 + k) % N) * Ts + inj.phi)
        Ya = scale * lpf[0].step(hpf[0].step(ia) * demod)
        Yb = scale * lpf[1].step(hpf[1].step(ib) * demod)
        theta = _locus_angle(Ya - motor.L0, Yb, motor.L1, theta)
        want = (theta, Ya / motor.det_L, Yb / motor.det_L)
        got = est.step(k0 + k, ia, ib)
        if got != want:
            mismatches.append((k, got, want))
    assert not mismatches, mismatches[:3]


@SALIENCY
def test_fused_proposed_angle_matches_virtual_output_to_angle(motor, inj, Ts):
    """Bit for bit against virtual_output_to_angle on the estimator's own
    virtual output, over 4000 samples whose locus point passes through the
    degenerate radius, where the previous angle is held."""
    n = 4000
    t = np.arange(n) * Ts
    centre = motor.L0 / motor.det_L
    r_min = 0.1 * abs(motor.L1) / motor.det_L
    rng = np.random.default_rng(3)
    # a locus point whose distance to the centre dips to zero and back
    rho = 2.0 * r_min * np.abs(np.sin(2.0 * math.pi * t / 0.04))
    phi = 0.4 + 30.0 * t
    S = np.array([probe_signal(inj, tk) for tk in t])
    cur = inj.epsilon * S[:, None] * np.column_stack(
        [centre + rho * np.cos(phi), rho * np.sin(phi)]) \
        + rng.normal(0.0, 1e-5, (n, 2))
    est = ProposedEstimator(motor, inj, Ts, theta0=0.2)
    prev = est.theta_hat
    held = valid = 0
    mismatches = []
    for k in range(n):
        if est.step(k, float(cur[k, 0]), float(cur[k, 1])) is None:
            continue
        try:
            want = virtual_output_to_angle(est.yv1, est.yv2, motor, prev,
                                           min_radius=r_min)
            degenerate = False
            valid += 1
        except DegenerateSignalError:
            want, degenerate = prev, True
            held += 1
        if (est.theta_hat, est.low_confidence) != (want, degenerate):
            mismatches.append((k, est.theta_hat, want))
        prev = est.theta_hat
    assert not mismatches, mismatches[:3]
    assert held > 0.1 * n and valid > 0.1 * n


def _state_reading(a: float, unit: float, target: float) -> float:
    """A state x that reads target after decaying by a: (a*x)/unit ==
    target bit for bit, searched an ulp at a time."""
    x = target * unit / a
    for _ in range(64):
        y = (a * x) / unit
        if y == target:
            return x
        x = math.nextafter(x, math.inf if y < target else -math.inf)
    raise AssertionError(f"no state reads {target!r}")


@pytest.mark.parametrize("form", [ProposedEstimator, BlockFormEstimator])
def test_locus_point_on_the_degenerate_radius_is_held(form, sim_motor, inj,
                                                      Ts):
    """A locus point exactly on the radius carries no angle, so the previous
    angle is held (the check is <=, not <); one ulp outside it the sample
    is valid.  Zero current makes the regressor output exactly 0, so the
    demodulator state only decays by this sample's a_j; it is set so that
    the decayed state reads y1 == centre and y2 == r_min bit for bit."""
    centre = sim_motor.L0 / sim_motor.det_L
    r_min = 0.1 * abs(sim_motor.L1) / sim_motor.det_L
    n_warm = round(2.0 * inj.epsilon / Ts)
    for y2, held in ((r_min, True), (math.nextafter(r_min, math.inf), False)):
        est = form(sim_motor, inj, Ts, theta0=0.3)
        for k in range(n_warm):
            assert est.step(k, 0.0, 0.0) is None
        unit = est._state_per_output(sim_motor)
        (aa, _), (ab, _) = est._table[n_warm % carrier_steps(inj, Ts)]
        est._s = (*est._s[:5], _state_reading(aa, unit, centre),
                  _state_reading(ab, unit, y2))
        _, y1_got, y2_got = est.step(n_warm, 0.0, 0.0)
        assert (y1_got, y2_got) == (centre, y2)
        assert est.low_confidence is held
        assert (est.theta_hat == 0.3) is held


def test_block_form_runs_its_own_copy_of_the_kernel():
    """BlockFormEstimator runs ProposedEstimator's step through its own code
    object, with the same bytecode.  CPython 3.11 specializes attribute
    access per code object: one code object shared by both classes, which
    equivalence_deviation alternates every sample, misses every specialized
    lookup, and the estimator_replay benchmark ran 13% fewer steps/s."""
    own = BlockFormEstimator.__dict__["step"].__code__
    shared = ProposedEstimator.step.__code__
    assert own is not shared
    assert own.co_code == shared.co_code


@SALIENCY
def test_fused_new_pipeline_steps_match_regressor_oracle(motor):
    """Both new-pipeline kernels bit for bit against Regressor.step, then
    the per-phase step and _locus_angle: seeded ripple plus noise from
    carrier phase 37, unequal gains, past the regressor's periodic rebase."""
    inj = InjectionConfig(V_h=1.5, epsilon=1e-3, phi_p=0.4)
    Ts = inj.epsilon / 20.0
    N = carrier_steps(inj, Ts)
    gammas = (1.2e4, 8e3)
    ell = (1.05, 0.02, 0.95)
    k0, n = 37, Regressor._REBASE_EVERY + 300
    t = (k0 + np.arange(n)) * Ts
    rng = np.random.default_rng(11)
    cur = synthesize_injection_current(motor, inj, 0.7 + 25.0 * t, t,
                                       i_bar=(0.5, -0.2)) \
        + rng.normal(0.0, 1e-3, (n, 2))
    prop = ProposedEstimator(motor, inj, Ts, *gammas, ell, theta0=0.7)
    block = BlockFormEstimator(motor, inj, Ts, *gammas, theta0=0.7)
    reg = Regressor(inj.epsilon, Ts)
    # per-phase steps of each form; states seeded as the constructors do
    tables = [list(zip(*(est._phase_table(gm) for gm in gammas)))
              for est in (prop, block)]
    # the block form reads yv = scale*(g*z)/det_L as one division of z by
    # the state per unit of virtual output, from its low-pass gain g and
    # the conventional rescaling
    g = 0.5 * (inj.V_h / TWO_PI) ** 2
    scale = 2.0 * inj.omega_h * motor.det_L / inj.V_h
    unit_z = motor.det_L / (scale * g)
    y10, y20 = virtual_output(motor, 0.7)
    d = inj.epsilon
    x = (d * y10, d * y20)
    z = (unit_z * y10, unit_z * y20)
    th_x = th_z = 0.7
    centre = motor.L0 / motor.det_L
    cold, mismatches = [], []
    for k in range(n):
        ia, ib = float(cur[k, 0]), float(cur[k, 1])
        got = (prop.step(k0 + k, ia, ib), block.step(k0 + k, ia, ib))
        yf = reg.step(ia, ib)
        if yf is None:
            cold.append(k)
            want = (None, None)
        else:
            j = (k0 + k) % N
            (aa, ca), (ab, cb) = tables[0][j]
            x = (aa * x[0] + ca * yf[0], ab * x[1] + cb * yf[1])
            y1 = ell[0] * (x[0] / d) + ell[1]
            y2 = ell[2] * (x[1] / d)
            th_x = _locus_angle(y1 - centre, y2, motor.L1, th_x)
            (aa, ca), (ab, cb) = tables[1][j]
            z = (aa * z[0] + ca * yf[0], ab * z[1] + cb * yf[1])
            w1, w2 = z[0] / unit_z, z[1] / unit_z
            th_z = _locus_angle(w1 - centre, w2, motor.L1, th_z)
            want = ((th_x, y1, y2), (th_z, w1, w2))
        # the ripple keeps the locus point off the degenerate radius
        if got != want or (want[0] is not None
                           and (prop.low_confidence or block.low_confidence)):
            mismatches.append((k, got, want))
    assert cold == list(range(round(2.0 * inj.epsilon / Ts)))
    assert not mismatches, mismatches[:3]


def test_chain_config_defaults(inj):
    chain = LtiChainConfig.from_injection(inj, omega_star=0.5)
    assert chain.lambda_h == pytest.approx(inj.omega_h)
    assert chain.lambda_ell == pytest.approx(math.sqrt(inj.omega_h * 0.5))
    # the corner never drops below 1 rad/s
    assert LtiChainConfig.from_injection(inj, 0.0).lambda_ell == 1.0
    with pytest.raises(ValueError):
        LtiChainConfig(lambda_h=-1.0, lambda_ell=10.0)
    with pytest.raises(ValueError):
        LtiChainConfig(lambda_h=10.0, lambda_ell=0.5)


def test_pll_tracks_ramp():
    pll = Pll(5.0, 0.01, n_p=6)
    Ts = 1e-4
    omega_e = 3.0
    for k in range(1, 200001):
        pll.step(omega_e * k * Ts, Ts)
    # the proportional path alone locks the rate quickly
    assert pll.omega_hat == pytest.approx(omega_e / 6.0, rel=0.02)
    with pytest.raises(ValueError):
        Pll(0.0, 0.01, 6)


def _calibration_trace(sim_motor, inj, omega_e, duration, **kw):
    Ts = inj.epsilon / 50.0
    n = int(round(duration / Ts))
    t = np.arange(n + 1) * Ts
    cur = synthesize_injection_current(sim_motor, inj, omega_e * t, t, **kw)
    est = ProposedEstimator(sim_motor, inj, Ts)
    y1 = np.empty(n + 1)
    y2 = np.empty(n + 1)
    th = np.empty(n + 1)
    for k in range(n + 1):
        est.step(k, cur[k, 0], cur[k, 1])
        y1[k], y2[k] = est.yv1, est.yv2
        th[k] = est.theta_hat
    return t, y1, y2, th


def test_fit_compensation_identity(sim_motor, inj):
    omega_e = 12.0
    t, y1, y2, _ = _calibration_trace(sim_motor, inj, omega_e, 1.5)
    ell = fit_compensation(t, y1, y2, sim_motor, omega_e, t_start=0.3)
    assert ell[0] == pytest.approx(1.0, abs=0.02)
    assert ell[1] == pytest.approx(0.0, abs=0.02 * sim_motor.L0 / sim_motor.det_L)
    assert ell[2] == pytest.approx(1.0, abs=0.02)


def test_fit_compensation_amplitude_loss(sim_motor, inj):
    omega_e = 12.0
    t, y1, y2, _ = _calibration_trace(sim_motor, inj, omega_e, 1.5,
                                      ripple_scale=0.8)
    ell = fit_compensation(t, y1, y2, sim_motor, omega_e, t_start=0.3)
    assert ell[0] == pytest.approx(1.25, rel=0.03)
    assert ell[2] == pytest.approx(1.25, rel=0.03)


def test_fit_compensation_needs_two_revolutions(sim_motor, inj):
    t = np.linspace(0.0, 0.1, 100)
    with pytest.raises(ValueError):
        fit_compensation(t, np.sin(t), np.cos(t), sim_motor, omega_e=12.0)

