"""Machine-model tests: inductance algebra, derivative oracle, fused RK4
step and its frame cross-check, driven step maps, virtual output."""

import math
import random
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from hfsense.motor import (
    BENCH_MOTOR,
    SIM_MOTOR,
    MotorParams,
    driven_step_tables,
    rk4_constants,
    rk4_step,
    virtual_output,
)
from oracles import (
    derivative_scalars,
    driven_step_bound,
    frame_rotate,
    inductance_matrix,
    rk4_reference,
    rk4_rotor_reference,
    saliency_matrix,
)

angles = st.floats(-50.0, 50.0, allow_nan=False)


def test_split_parameters():
    m = SIM_MOTOR
    assert m.L0 == pytest.approx(0.5 * (5.74e-3 + 8.68e-3))
    assert m.L1 == pytest.approx(0.5 * (5.74e-3 - 8.68e-3))
    assert m.L1 < 0.0  # L_d < L_q for an interior-magnet machine
    assert m.det_L == pytest.approx(5.74e-3 * 8.68e-3)


@given(theta=angles)
def test_inductance_eigenvalues_are_axis_inductances(theta):
    L = inductance_matrix(SIM_MOTOR, theta)
    ev = np.sort(np.linalg.eigvalsh(L))
    assert ev[0] == pytest.approx(SIM_MOTOR.L_d, rel=1e-12)
    assert ev[1] == pytest.approx(SIM_MOTOR.L_q, rel=1e-12)
    assert np.linalg.det(L) == pytest.approx(SIM_MOTOR.det_L, rel=1e-12)


def _deriv(m, ia, ib, th, om, va, vb, TL):
    return derivative_scalars(m.n_p, m.R_s, m.L_d, m.L_q, m.Phi, m.J, m.f,
                              ia, ib, th, om, va, vb, TL)


@given(theta=angles, va=st.floats(-100.0, 100.0), vb=st.floats(-100.0, 100.0))
def test_inverse_inductance(theta, va, vb):
    """At zero current and speed the stator equation is di/dt = L^-1 v, so
    its rotor-frame inverse R diag(1/L_d, 1/L_q) R^T must match a numerical
    inverse of L(theta)."""
    got = _deriv(BENCH_MOTOR, 0.0, 0.0, theta, 0.0, va, vb, 0.0)[:2]
    expect = np.linalg.inv(inductance_matrix(BENCH_MOTOR, theta)) @ [va, vb]
    scale = max(abs(va), abs(vb), 1.0) / BENCH_MOTOR.L_d
    assert np.allclose(got, expect, rtol=0.0, atol=1e-12 * scale)


@given(theta=angles)
def test_saliency_matrix_involution(theta):
    Q = saliency_matrix(theta)
    # Q is a reflection: symmetric, trace-free, Q^2 = I
    assert Q[0, 1] == pytest.approx(Q[1, 0])
    assert Q[0, 0] == pytest.approx(-Q[1, 1])
    assert np.allclose(Q @ Q, np.eye(2), atol=1e-12)


@given(theta=angles)
def test_virtual_output_is_inverse_inductance_column(theta):
    """y_v equals L(theta)^-1 applied to the alpha-axis unit vector."""
    y = np.array(virtual_output(SIM_MOTOR, theta))
    expect = np.linalg.inv(inductance_matrix(SIM_MOTOR, theta))[:, 0]
    assert np.allclose(y, expect, atol=1e-12)


# a machine with L_d > L_q: L1 > 0 flips the sign of every saliency term
SALIENT_DQ = replace(SIM_MOTOR, L_d=SIM_MOTOR.L_q, L_q=SIM_MOTOR.L_d)


def _random_step_args(rng):
    """State, voltages and load of one step, over magnitudes from tiny to
    far beyond the shipped scenarios' (angles of many turns, kA, krad/s)."""
    def val(scale):
        return rng.choice((-1.0, 1.0)) * scale * 10.0 ** rng.uniform(-6.0, 0.0)

    return (val(1e3), val(1e3), rng.uniform(-200.0, 200.0), val(1e3),
            val(600.0), val(600.0), val(600.0), val(600.0), val(50.0))


_MOTORS = [SIM_MOTOR, BENCH_MOTOR, SALIENT_DQ]
_MOTOR_IDS = ["sim", "bench", "ld_gt_lq"]


def _matrix_form(m, ia, ib, th, om, va, vb, TL):
    """di/dt and domega/dt from d/dt(L(theta) i + Phi (cos, sin)) = v - R i,
    solved with the inductance matrix in the stationary frame."""
    i = np.array([ia, ib])
    J2 = np.array([[0.0, -1.0], [1.0, 0.0]])
    dL = 2.0 * m.n_p * om * m.L1 * (J2 @ saliency_matrix(th))
    emf = m.n_p * om * m.Phi * np.array([-math.sin(th), math.cos(th)])
    di = np.linalg.solve(inductance_matrix(m, th),
                         np.array([va, vb]) - m.R_s * i - dL @ i - emf)
    torque = m.n_p * m.Phi * (ib * math.cos(th) - ia * math.sin(th))
    return di, (torque - m.f * om - TL) / m.J


def test_derivative_against_matrix_form():
    """Scalar rotor-frame derivative vs an independent matrix evaluation in
    the stationary frame: at one point, then on the seeded states of the
    RK4 test on every motor, within 1e-12 of the magnitude of the terms
    each side sums (as in `test_inverse_inductance`)."""
    m = SIM_MOTOR
    ia, ib, th, om = 1.0, 0.0, math.pi / 6.0, 2.0
    va, vb, TL = 3.0, -1.0, 0.2
    di, dom = _matrix_form(m, ia, ib, th, om, va, vb, TL)
    got = _deriv(m, ia, ib, th, om, va, vb, TL)
    assert got[0] == pytest.approx(di[0], rel=1e-12)
    assert got[1] == pytest.approx(di[1], rel=1e-12)
    assert got[2] == pytest.approx(m.n_p * om)
    assert got[3] == pytest.approx(dom, rel=1e-12)
    for m in _MOTORS:
        rng = random.Random(20260 + 2 * m.n_p)
        L_min, L_max = sorted((m.L_d, m.L_q))
        for _ in range(500):
            ia, ib, th, om, va, _, _, vb, TL = _random_step_args(rng)
            di, dom = _matrix_form(m, ia, ib, th, om, va, vb, TL)
            got = _deriv(m, ia, ib, th, om, va, vb, TL)
            i, w = max(abs(ia), abs(ib)), abs(m.n_p * om)
            scale = (max(abs(va), abs(vb)) + m.R_s * i
                     + w * (L_max * i + m.Phi)) / L_min + w * i
            assert np.allclose(got[:2], di, rtol=0.0, atol=1e-12 * scale), \
                (ia, ib, th, om, va, vb)
            assert got[2] == m.n_p * om
            scale = (m.n_p * m.Phi * i + m.f * abs(om) + abs(TL)) / m.J
            assert abs(got[3] - dom) <= 1e-12 * scale, (ia, ib, th, om, TL)


def _probe_trajectory(h, n):
    """Voltages of the test trajectory's n steps: a 30 V, 1 kHz alpha probe
    at t, t+h/2 and t+h, and a slow beta voltage held over the step."""
    for k in range(n):
        t = k * h
        yield (*(30.0 * math.sin(6283.185307179586 * x)
                 for x in (t, t + 0.5 * h, t + h)), 5.0 * math.cos(3.0 * t))


def _to_rotor(ia, ib, th):
    """The (d, q) state of a stationary-frame state, with cos and sin of
    theta, as `sim.run` converts its initial currents."""
    return (*frame_rotate(th, ia, ib), th, math.cos(th), math.sin(th))


# the ids name the mode: this step integrates the mechanics
@pytest.mark.parametrize("motor", _MOTORS,
                         ids=[f"mechanics-{i}" for i in _MOTOR_IDS])
def test_rk4_step_matches_derivative_oracle(motor):
    """The fused plant step equals four `rotor_derivative` calls composed as
    RK4 on the (d, q) state, plus the end rotation, with ==: on seeded
    random states (converted to (d, q)), voltages and loads, and along a
    trajectory that feeds each step's result into the next.  The carried
    cos and sin are those of the new angle."""
    rng = random.Random(20260 + 2 * motor.n_p)
    for h in (2e-5, 1e-4, 1.3e-3):
        kc = rk4_constants(motor, h)
        for _ in range(1500):
            ia, ib, th, om, va, vam, vae, vb, TL = _random_step_args(rng)
            i_d, i_q, th, c, s = _to_rotor(ia, ib, th)
            got = rk4_step(kc, i_d, i_q, th, om, c, s, va, vam, vae, vb, TL)
            want = rk4_rotor_reference(motor, h, i_d, i_q, th, om, va, vam,
                                       vae, vb, TL)
            assert got == (*want, math.cos(want[4]), math.sin(want[4])), \
                (h, ia, ib, th, om, va, vam, vae, vb, TL)
    h = 2e-5
    kc = rk4_constants(motor, h)
    i_d, i_q, th, c, s = _to_rotor(0.3, -0.2, 1.0)
    got = (i_d, i_q, th, 0.5, c, s)
    want = (i_d, i_q, th, 0.5)
    for k, (va, vam, vae, vb) in enumerate(_probe_trajectory(h, 3000)):
        step = rk4_step(kc, *got, va, vam, vae, vb, 0.5)
        ref = rk4_rotor_reference(motor, h, *want, va, vam, vae, vb, 0.5)
        assert step[:6] == ref, k
        got, want = step[2:], ref[2:]


def _frame_terms(a, D, n):
    """sum over k = 1..n of binom(n, k) B_k D[n - k]: the terms of the n-th
    derivative of R(theta(t)) x (Leibniz) that the frame's rotation brings
    in.  D[j] bounds the j-th derivative of x, a[m] that of theta, and
    B_k, the complete Bell polynomial of a[1..k] (Faa di Bruno), bounds the
    k-th derivative of R(theta(t)), since every derivative of R(theta) in
    theta is a rotation."""
    B = [1.0]
    for m in range(n):
        B.append(sum(math.comb(m, k) * B[m - k] * a[k + 1]
                     for k in range(m + 1)))
    return sum(math.comb(n, k) * B[k] * D[n - k] for k in range(1, n + 1))


@pytest.mark.parametrize("motor", _MOTORS, ids=_MOTOR_IDS)
def test_rk4_step_agrees_with_the_stationary_frame_step(motor):
    """The rotor-frame step and the stationary-frame `rk4_reference` are
    RK4 on the same equation in two frames, so they agree up to the part of
    RK4's local error that the frame changes, plus rounding.  Checked along
    the trajectory of `test_rk4_step_matches_derivative_oracle` at h =
    2e-5, one step at a time from the rotor-frame step's own state.

    The bound per step.  RK4 commutes with a constant rotation, so the
    frames differ only through R(theta(t)) turning.  An RK4 local error is
    of the scale h^5/5! times a fifth derivative of the state, and by
    Leibniz the fifth derivative of R(theta) x gains the terms
    sum_{k>=1} binom(5, k) |d^k R/dt^k| |x^(5-k)| from the rotation
    (`_frame_terms`).  Bounds used over the step, with i the largest
    current, w = n_p max|omega| and L_min <= L_max the axis inductances:
      |x| <= i,  |x'| <= D1 = (|v| + R_s i + w (L_max i + Phi)) / L_min,
      |x^(j)| <= Omega^(j-1) D1, Omega = max(probe frequency, (R_s +
      w L_max)/L_min) + w;
      theta' = w,  theta'' = n_p omega' <= n_p (n_p Phi i + f|omega| +
      |T_L|)/J,  theta^(m) = n_p omega^(m-1) <= n_p (n_p Phi/J
      |x^(m-2)| + f/J |omega^(m-2)|).
    omega' is n_p Phi/J times i_q plus terms of omega, and theta' is n_p
    omega, so their frame terms are those of the fourth and of the third
    derivative, times n_p Phi/J and n_p^2 Phi/J.  The rounding floor is
    `driven_step_bound` on the currents and 1e-14 of |theta| and |omega|.
    """
    h = 2e-5
    Omega_p = 6283.185307179586
    TL = 0.5
    kc = rk4_constants(motor, h)
    L_min, L_max = sorted((motor.L_d, motor.L_q))
    mech = motor.n_p * motor.Phi / motor.J
    fJ = motor.f / motor.J
    i_d, i_q, th, c, s = _to_rotor(0.3, -0.2, 1.0)
    state = (0.3, -0.2, i_d, i_q, th, 0.5, c, s)
    for k, volts in enumerate(_probe_trajectory(h, 3000)):
        ia, ib, i_d, i_q, th, om, c, s = state
        want = rk4_reference(motor, h, ia, ib, th, om, *volts, TL)
        state = rk4_step(kc, i_d, i_q, th, om, c, s, *volts, TL)
        got = state[:2] + state[4:6]
        i = max(abs(ia), abs(ib), *map(abs, got[:2]))
        om_max = max(abs(om), abs(got[3]))
        w = motor.n_p * om_max
        D1 = (max(map(abs, volts)) + motor.R_s * i
              + w * (L_max * i + motor.Phi)) / L_min
        Omega = max(Omega_p, (motor.R_s + w * L_max) / L_min) + w
        D = [i] + [D1 * Omega ** j for j in range(4)]
        W = [om_max, (mech * i + fJ * om_max + abs(TL) / motor.J)]
        for j in range(2, 5):
            W.append(mech * D[j - 1] + fJ * W[j - 1])
        a = [None] + [motor.n_p * x for x in W]
        scale = h ** 5 / 120.0
        bound_i = (scale * _frame_terms(a, D, 5)
                   + driven_step_bound(motor, h, (ia, ib), got[:2], volts,
                                       (om, got[3])))
        bound_th = scale * motor.n_p * mech * _frame_terms(a, D, 3) \
            + 1e-14 * max(abs(th), abs(got[2]))
        bound_om = scale * mech * _frame_terms(a, D, 4) + 1e-14 * om_max
        assert max(abs(got[0] - want[0]), abs(got[1] - want[1])) <= bound_i, k
        assert abs(got[2] - want[2]) <= bound_th, k
        assert abs(got[3] - want[3]) <= bound_om, k


def _affine_step(P, k, ia, ib, vca, vcb):
    """Step k of the maps from `driven_step_tables`, written as `sim.run`
    applies them."""
    p0, p1, p2, p3, p4, p5, p6, p7, p8, p9 = P[:, k].tolist()
    return (p0 * ia + p1 * ib + p2 * vca + p3 * vcb + p4,
            p5 * ia + p6 * ib + p7 * vca + p8 * vcb + p9)


@pytest.mark.parametrize("motor", _MOTORS, ids=_MOTOR_IDS)
def test_driven_step_tables_match_derivative_oracle(motor):
    """Under a prescribed drive a step is the affine map from
    `driven_step_tables` applied to the currents and the held control
    voltage.  It agrees with four `rotor_derivative` calls composed as RK4
    on the (d, q) state at the prescribed angles, plus the end rotation
    (the probe added to the control voltage, as `sim.run` forms it),
    within `driven_step_bound`: on seeded random states (converted to
    (d, q)), voltages and drives, and along a trajectory, one step at a
    time from the oracle's state."""
    rng = random.Random(20260 + 2 * motor.n_p + 1)
    for h in (2e-5, 1e-4, 1.3e-3):
        cases = []
        for _ in range(1500):
            ia, ib, th, om, p_t, p_m, p_e, vcb, _ = _random_step_args(rng)
            vca = rng.choice((-1.0, 1.0)) * 600.0 * 10.0 ** rng.uniform(-6, 0)
            drive = (rng.uniform(-200.0, 200.0), om * rng.uniform(0.5, 2.0),
                     rng.uniform(-200.0, 200.0), om * rng.uniform(0.5, 2.0))
            cases.append((ia, ib, vca, vcb, th, om, *drive, p_t, p_m, p_e))
        cols = np.array(cases).T
        P = driven_step_tables(motor, h, *cols[4:])
        assert P.shape == (10, len(cases))
        for k, (ia, ib, vca, vcb, th, om, thm, omm, the, ome, p_t, p_m,
                p_e) in enumerate(cases):
            volts = (vca + p_t, vca + p_m, vca + p_e, vcb)
            got = _affine_step(P, k, ia, ib, vca, vcb)
            want = rk4_rotor_reference(motor, h, *frame_rotate(th, ia, ib),
                                       th, om, *volts, 0.0,
                                       (thm, omm, the, ome))[:2]
            bound = driven_step_bound(motor, h, (ia, ib), want, volts,
                                      (om, omm, ome))
            assert max(abs(g - w) for g, w in zip(got, want)) <= bound, \
                (h, ia, ib, vca, vcb, th, om, thm, omm, the, ome)
    h = 2e-5
    n = 3000
    t = np.arange(n) * h
    grids = (t, t + 0.5 * h, t + h)
    probe = [30.0 * np.sin(6283.185307179586 * x) for x in grids]
    mech = [a for x in grids for a in (1.0 + 9.0 * x, np.full(n, 1.5))]
    P = driven_step_tables(motor, h, *mech, *probe)
    i = (0.3, -0.2)
    for k in range(n):
        vca, vcb = 4.0 * math.cos(5.0 * t[k]), 5.0 * math.cos(3.0 * t[k])
        volts = (vca + probe[0][k], vca + probe[1][k], vca + probe[2][k], vcb)
        drive = (mech[2][k], 1.5, mech[4][k], 1.5)
        want = rk4_rotor_reference(motor, h, *frame_rotate(mech[0][k], *i),
                                   mech[0][k], 1.5, *volts, 0.0, drive)[:2]
        got = _affine_step(P, k, *i, vca, vcb)
        bound = driven_step_bound(motor, h, i, want, volts, (1.5,))
        assert max(abs(g - w) for g, w in zip(got, want)) <= bound, k
        i = want


def test_torque_sign_convention():
    # positive q-axis current accelerates the rotor at theta = 0
    assert _deriv(SIM_MOTOR, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0)[3] > 0.0
    assert _deriv(SIM_MOTOR, 0.0, -1.0, 0.0, 0.0, 0.0, 0.0, 0.0)[3] < 0.0


def test_parameter_validation():
    # a pole-pair count is an integer >= 1
    for n_p in (0, 2.5, math.nan, math.inf):
        with pytest.raises(ValueError, match="n_p must be an integer >= 1"):
            MotorParams(n_p=n_p, R_s=0.1, L_d=1e-3, L_q=2e-3, Phi=0.1, J=0.01)
    with pytest.raises(ValueError):
        MotorParams(n_p=3, R_s=0.1, L_d=2e-3, L_q=2e-3, Phi=0.1, J=0.01)
    with pytest.raises(ValueError):
        MotorParams(n_p=3, R_s=-0.1, L_d=1e-3, L_q=2e-3, Phi=0.1, J=0.01)
    with pytest.raises(ValueError):
        MotorParams(n_p=3, R_s=0.1, L_d=1e-3, L_q=2e-3, Phi=0.1, J=0.0)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("key", ["R_s", "L_d", "L_q", "Phi", "J", "f"])
def test_parameters_reject_non_finite(key, value):
    """A NaN or infinite constant is rejected when the machine is built,
    naming the field."""
    with pytest.raises(ValueError, match=f"{key} must be finite"):
        replace(SIM_MOTOR, **{key: value})


def test_theta_wrapped():
    """The trace's wrapped electrical angle lies in [0, 2 pi) and equals the
    unwrapped rotor angle modulo 2 pi (theta = 7 wraps to 7 - 2 pi)."""
    from hfsense.signal_ops import InjectionConfig
    from hfsense.sim import DriveProfile, ScenarioConfig, run

    cfg = ScenarioConfig(motor=SIM_MOTOR, injection=InjectionConfig(V_h=1.0, epsilon=1e-3),
                         drive=DriveProfile("constant", omega=0.0),
                         estimator="none", theta0=7.0, duration=0.01,
                         decimation=5)
    tr = run(cfg)
    assert np.all((0.0 <= tr.theta_wrapped) & (tr.theta_wrapped < 2.0 * math.pi))
    assert tr.theta_wrapped[0] == pytest.approx(7.0 - 2.0 * math.pi)
