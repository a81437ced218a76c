"""Machine-model tests: inductance algebra, derivative oracle, virtual output."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from hfsense.motor import (
    BENCH_MOTOR,
    SIM_MOTOR,
    MotorParams,
    derivative_scalars,
    inductance_matrix,
    saliency_matrix,
    virtual_output,
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
    return derivative_scalars(m.n_p, m.R_s, m.L0, m.L1, m.det_L, m.Phi, m.J,
                              m.f, ia, ib, th, om, va, vb, TL)


@given(theta=angles, va=st.floats(-100.0, 100.0), vb=st.floats(-100.0, 100.0))
def test_inverse_inductance(theta, va, vb):
    """At zero current and speed the stator equation is di/dt = L^-1 v, so
    its adjugate inverse must match a numerical inverse of L(theta)."""
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


def test_derivative_against_matrix_form():
    """Scalar hot-loop derivative vs an independent matrix evaluation."""
    m = SIM_MOTOR
    ia, ib, th, om = 1.0, 0.0, math.pi / 6.0, 2.0
    va, vb, TL = 3.0, -1.0, 0.2
    i = np.array([ia, ib])
    J2 = np.array([[0.0, -1.0], [1.0, 0.0]])
    # d/dt(L(theta) i + Phi (cos, sin)) = v - R i
    dL = 2.0 * m.n_p * om * m.L1 * (J2 @ saliency_matrix(th))
    emf = m.n_p * om * m.Phi * np.array([-math.sin(th), math.cos(th)])
    di = np.linalg.solve(inductance_matrix(m, th),
                         np.array([va, vb]) - m.R_s * i - dL @ i - emf)
    torque = m.n_p * m.Phi * (ib * math.cos(th) - ia * math.sin(th))
    dom = (torque - m.f * om - TL) / m.J
    got = derivative_scalars(m.n_p, m.R_s, m.L0, m.L1, m.det_L, m.Phi, m.J,
                             m.f, ia, ib, th, om, va, vb, TL)
    assert got[0] == pytest.approx(di[0], rel=1e-12)
    assert got[1] == pytest.approx(di[1], rel=1e-12)
    assert got[2] == pytest.approx(m.n_p * om)
    assert got[3] == pytest.approx(dom, rel=1e-12)


def test_torque_sign_convention():
    # positive q-axis current accelerates the rotor at theta = 0
    assert _deriv(SIM_MOTOR, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0)[3] > 0.0
    assert _deriv(SIM_MOTOR, 0.0, -1.0, 0.0, 0.0, 0.0, 0.0, 0.0)[3] < 0.0


def test_parameter_validation():
    with pytest.raises(ValueError):
        MotorParams(n_p=0, R_s=0.1, L_d=1e-3, L_q=2e-3, Phi=0.1, J=0.01)
    with pytest.raises(ValueError):
        MotorParams(n_p=3, R_s=0.1, L_d=2e-3, L_q=2e-3, Phi=0.1, J=0.01)
    with pytest.raises(ValueError):
        MotorParams(n_p=3, R_s=-0.1, L_d=1e-3, L_q=2e-3, Phi=0.1, J=0.01)
    with pytest.raises(ValueError):
        MotorParams(n_p=3, R_s=0.1, L_d=1e-3, L_q=2e-3, Phi=0.1, J=0.0)



def test_theta_wrapped():
    """The trace's wrapped electrical angle lies in [0, 2 pi) and equals the
    unwrapped rotor angle modulo 2 pi (theta = 7 wraps to 7 - 2 pi)."""
    from hfsense.signal_ops import InjectionConfig
    from hfsense.sim import DriveProfile, ScenarioConfig, run

    cfg = ScenarioConfig(motor=SIM_MOTOR, injection=InjectionConfig(V_h=1.0, epsilon=1e-3),
                         mode="driven", drive=DriveProfile("constant", omega=0.0),
                         estimator="none", theta0=7.0, duration=0.01,
                         decimation=5)
    tr = run(cfg)
    assert np.all((0.0 <= tr.theta_wrapped) & (tr.theta_wrapped < 2.0 * math.pi))
    assert tr.theta_wrapped[0] == pytest.approx(7.0 - 2.0 * math.pi)
