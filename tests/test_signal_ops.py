"""Operator tests: probe, regressor, gradient flow, filters, responses."""

import cmath
import math
import random
import warnings
from collections import deque
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hfsense.estimators import ProposedEstimator
from hfsense.motor import virtual_output
from hfsense.signal_ops import (
    TWO_PI,
    InjectionConfig,
    bode_table,
    gd_frequency_response,
    highpass_coefficients,
    hpf_frequency_response,
    lowpass_coefficients,
    lpf_frequency_response,
    probe_signal,
    sample_period,
)
from hfsense.sim import ScenarioConfig, _probe_tables
from conftest import SIM_MOTOR
from oracles import HighPass2, LowPass1, Regressor, unwrapped_phase_at

finite = st.floats(-1e6, 1e6, allow_nan=False)


def test_injection_config_basics():
    cfg = InjectionConfig(V_h=2.0, epsilon=5e-4)
    assert cfg.omega_h == pytest.approx(TWO_PI / 5e-4)
    with pytest.raises(ValueError):
        InjectionConfig(V_h=0.0)
    with pytest.raises(ValueError):
        InjectionConfig(epsilon=-1.0)
    with pytest.raises(ValueError):
        InjectionConfig(phi=7.0)


@pytest.mark.parametrize("value", [math.inf, math.nan])
@pytest.mark.parametrize("key", ["V_h", "epsilon"])
def test_injection_config_rejects_non_finite(key, value):
    """An infinite amplitude or period used to build and end `run` in a
    ZeroDivisionError, a NaN amplitude in SimulationDiverged."""
    with pytest.raises(ValueError, match=f"{key} must be positive and finite"):
        InjectionConfig(**{key: value})


def test_probe_and_injection_values(inj):
    # S(0) = -V_h/(2 pi); the simulator injects V_h sin(omega_h t) per
    # carrier phase, at the step (j*Ts), at the half step and at the step's
    # end, (j + 1)*Ts
    assert probe_signal(inj, 0.0) == pytest.approx(-1.0 / TWO_PI)
    cfg = ScenarioConfig(motor=SIM_MOTOR, injection=inj, steps_per_period=50)
    at_step, at_mid, at_end = _probe_tables(cfg)
    assert len(at_step) == len(at_mid) == len(at_end) == 50
    assert at_step[0] == 0.0
    assert at_mid[12] == pytest.approx(1.0)  # 12.5 Ts: quarter period
    assert at_step[25] == pytest.approx(0.0, abs=1e-12)
    assert at_step[10] == pytest.approx(math.sin(0.4 * math.pi))
    off = _probe_tables(replace(cfg, injection_enabled=False))
    assert off == ([0.0] * 50, [0.0] * 50, [0.0] * 50)


def test_delay_line_exact(Ts):
    """Impulse response: the unit sample comes out exactly d later, minus
    the hold's box of height 1/(2d) over the two increments it touches."""
    n = 10
    reg = Regressor(n * Ts, Ts)
    m_a, m_b = 25, 31  # impulse samples, alpha and beta
    out = [reg.step(float(k == m_a), float(k == m_b)) for k in range(80)]
    assert out[:2 * n] == [None] * (2 * n)

    def expected(k, m):
        # increments 0.5*(u[j-1] + u[j]) at j = m and m + 1 are 0.5 each
        held = 0.5 * (k - 2 * n < m <= k) + 0.5 * (k - 2 * n < m + 1 <= k)
        return float(k - n == m) - held / (2 * n)

    for k in range(2 * n, 80):
        assert out[k] == (expected(k, m_a), expected(k, m_b)), k
    assert out[m_a + n][0] == 1.0 - 1.0 / (2 * n)


def test_delay_rejects_misaligned(Ts):
    with pytest.raises(ValueError):
        Regressor(10.5 * Ts, Ts)
    with pytest.raises(ValueError):
        Regressor(0.0, Ts)


@given(c=finite)
def test_hold_reproduces_constants(c):
    # the delayed sample is c exactly, so the output is c minus the hold
    Ts = 1e-3
    reg = Regressor(10 * Ts, Ts)  # hold window 20 Ts
    out = None
    for _ in range(40):
        out = reg.step(c, -c)
    tol = max(1e-12 * abs(c), 1e-9)
    assert abs(out[0]) <= tol and abs(out[1]) <= tol


def test_hold_of_linear_ramp_is_midpoint_mean(Ts):
    # trapezoidal mean of u(t) = t over a trailing window w ending at t
    # equals t - w/2 exactly (the rule is exact on polynomials of degree 1),
    # which is the sample delayed by d = w/2: the output vanishes
    w = 40 * Ts
    reg = Regressor(0.5 * w, Ts)
    out = None
    n = 100
    for k in range(n + 1):
        r = reg.step(k * Ts, 2.0 * k * Ts)
        if r is not None:
            out = r
    t_end = n * Ts
    assert out[0] == pytest.approx(0.0, abs=1e-12 * (t_end - 0.5 * w))
    assert out[1] == pytest.approx(0.0, abs=2e-12 * (t_end - 0.5 * w))


@given(c=finite)
@settings(max_examples=25)
def test_delay_minus_hold_annihilates_constants(c, inj):
    """The regressor high pass kills constant inputs.

    The cancellation is exact up to the rounding of the running sum (zero to
    the last bit for dyadic constants; bounded by a few ulps otherwise).
    """
    Ts = inj.epsilon / 20.0
    reg = Regressor(inj.epsilon, Ts)
    for _ in range(60):
        yf = reg.step(c, -c)
    a, b = yf
    assert abs(a) <= 1e-13 * max(1.0, abs(c))
    assert abs(b) <= 1e-13 * max(1.0, abs(c))
    # dyadic constants accumulate without rounding: exact zero
    reg2 = Regressor(inj.epsilon, Ts)
    for _ in range(60):
        yf = reg2.step(0.375, -0.375)
    assert yf == (0.0, 0.0)


def test_delay_minus_hold_annihilates_ramps():
    """G_d has a double zero at DC: affine inputs give exactly zero.

    With a dyadic Ts every increment, running sum and mean of u = a + b*k*Ts
    is exact, before and after the running-sum rebuild."""
    Ts = 2.0 ** -12
    reg = Regressor(10 * Ts, Ts)
    outs = set()
    for k in range(Regressor._REBASE_EVERY + 500):
        yf = reg.step(k * Ts, 0.75 - 3.0 * k * Ts)
        if k >= 20:
            outs.add(yf)
    assert outs == {(0.0, 0.0)}


def test_gradient_flow_convergence(inj):
    """Under the persistently exciting probe, each axis of the proposed
    estimator converges to the coefficient of S in its input ripple
    epsilon*c*S(t) within 2%."""
    coef = (120.0, -45.0)
    Ts = sample_period(inj, 50)
    est = ProposedEstimator(SIM_MOTOR, inj, 50)
    n = int(round(0.2 / Ts))
    S = [probe_signal(inj, k * Ts) for k in range(n + 1)]
    est.step(0, [inj.epsilon * coef[0] * s for s in S],
             [inj.epsilon * coef[1] * s for s in S])
    assert est.yv1 == pytest.approx(coef[0], rel=0.02)
    assert est.yv2 == pytest.approx(coef[1], rel=0.02)


def _reference_flow(gamma, cfg, x0, ks, us, Ts):
    """Per-sample gradient step x+ = x + Ts*gamma*S(k*Ts)*(u - S(k*Ts)*x)."""
    x = x0
    xs = []
    for k, u in zip(ks, us):
        S = probe_signal(cfg, k * Ts)
        x = x + Ts * gamma * S * (u - S * x)
        xs.append(x)
    return xs


def test_gradient_flow_phase_table_matches_sampled_step():
    """The proposed estimator's tabulated step equals the per-sample rule on
    both axes (unequal gains) for any starting phase."""
    cfg = InjectionConfig(V_h=1.5, epsilon=1e-3, phi_p=0.7)
    n = 50
    Ts = sample_period(cfg, n)
    gammas = (2e4, 7e3)
    theta0 = 0.3
    est = ProposedEstimator(SIM_MOTOR, cfg, n, *gammas, theta0=theta0)
    reg = Regressor(cfg.epsilon, Ts)
    ks = range(37, 37 + 6 * n)
    cur = [(2e-3 * probe_signal(cfg, k * Ts) + 1e-4 * math.sin(0.3 * k),
            -1e-3 * probe_signal(cfg, k * Ts) + 2e-4 * math.cos(0.2 * k))
           for k in ks]
    yf = [reg.step(*i) for i in cur]
    warm = [(k, u) for k, u in zip(ks, yf) if u is not None]
    assert len(warm) == 4 * n
    x0 = [cfg.epsilon * y for y in virtual_output(SIM_MOTOR, theta0)]
    ref = [_reference_flow(g, cfg, x, [k for k, _ in warm],
                           [u[axis] for _, u in warm], Ts)
           for axis, (g, x) in enumerate(zip(gammas, x0))]
    xs = []
    for k, i in zip(ks, cur):
        if est.step(k, (i[0],), (i[1],)) is not None:
            x = est._s[5:7]
            xs.append(x)
            assert (est.yv1, est.yv2) == (x[0] / cfg.epsilon,
                                          x[1] / cfg.epsilon)
    assert len(xs) == len(warm)
    for axis in (0, 1):
        for x, x_ref in zip(xs, ref[axis]):
            assert abs(x[axis] - x_ref) <= 1e-12 * abs(x_ref)


def test_carrier_kernels_reject_misaligned_ts(inj):
    """Ts is built from N samples per probe period, so it divides epsilon;
    an N that is not an integer >= 1 (epsilon/50.5 was the misaligned Ts)
    is rejected."""
    assert sample_period(inj, 50) == inj.epsilon / 50
    for N in (0, 2.5, 2e-5, 50.5):
        with pytest.raises(ValueError, match="steps per probe period"):
            sample_period(inj, N)


class _DequeDelay:
    def __init__(self, n):
        self.n = n
        self.buf = deque(maxlen=n)

    def step(self, u):
        out = self.buf[0] if len(self.buf) == self.n else None
        self.buf.append(u)
        return out


class _DequeHold:
    def __init__(self, n, rebase_every):
        self.n = n
        self.rebase_every = rebase_every
        self.inc = deque(maxlen=n)
        self.sum = 0.0
        self.prev = None
        self.count = 0

    def step(self, u):
        if self.prev is None:
            self.prev = u
            return None
        inc = 0.5 * (self.prev + u)
        self.prev = u
        if len(self.inc) == self.n:
            self.sum -= self.inc[0]
        self.inc.append(inc)
        self.sum += inc
        self.count += 1
        if self.count % self.rebase_every == 0:
            self.sum = math.fsum(self.inc)
        if len(self.inc) < self.n:
            return None
        return self.sum / self.n


def test_ring_buffers_match_deque_reference(Ts):
    """Deque delay minus deque hold on each axis: sample for sample, bit for
    bit, across a running-sum rebuild."""
    rng = random.Random(5)
    reg = Regressor(7 * Ts, Ts)
    refs = [(_DequeDelay(7), _DequeHold(14, Regressor._REBASE_EVERY))
            for _ in range(2)]
    yf = None
    for _ in range(Regressor._REBASE_EVERY + 100):
        u = (rng.uniform(-3.0, 3.0) + 1e3, rng.uniform(-1.0, 1.0))
        ref = [(d.step(x), z.step(x)) for (d, z), x in zip(refs, u)]
        expected = None if None in ref[0] + ref[1] else \
            tuple(a - b for a, b in ref)
        yf = reg.step(*u)
        assert yf == expected
    assert refs[0][1].count > Regressor._REBASE_EVERY
    assert yf is not None


def test_lowpass_dc_gain(Ts):
    lp = LowPass1(50.0, Ts)
    y = 0.0
    for _ in range(200000):
        y = lp.step(1.0)
    assert abs(y - 1.0) < 1e-10


def test_lowpass_seeding(Ts):
    lp = LowPass1(50.0, Ts, y0=0.3)
    # constant input equal to the seed leaves the state unchanged
    assert lp.step(0.3) == pytest.approx(0.3, rel=1e-14)
    for lam in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="corner"):
            lowpass_coefficients(lam, Ts)
    # lam*Ts overflows to inf, where the coefficients would be NaN
    with pytest.raises(ValueError, match="corner 1e.300 rad/s at Ts = "
                       "2e.298 s overflows the low-pass coefficients"):
        lowpass_coefficients(1e300, 2e298)


def _discrete_response(b, a, omega, Ts):
    z = cmath.exp(1j * omega * Ts)
    num = b[0] + b[1] / z + b[2] / z**2
    den = 1.0 + a[0] / z + a[1] / z**2
    return num / den


def test_highpass_dc_rejection(Ts):
    hp = HighPass2(TWO_PI * 1000.0, Ts)
    y = 1.0
    for _ in range(5000):
        y = hp.step(2.5)
    assert abs(y) < 1e-6


def test_highpass_corner_exact(Ts):
    """Prewarping pins the discrete response at the corner: unit gain, +90 deg."""
    lam = TWO_PI * 1000.0
    b0, b1, b2, a1, a2 = highpass_coefficients(lam, Ts)
    H = _discrete_response((b0, b1, b2), (a1, a2), lam, Ts)
    assert abs(abs(H) - 1.0) < 1e-9
    assert abs(cmath.phase(H) - 0.5 * math.pi) < 1e-9


def test_highpass_validation(Ts):
    # at or above the Nyquist rate pi/Ts the prewarp is void, and a
    # prewarp angle lam*Ts/2 that underflows to 0 has no tangent to divide by
    for lam in (-1.0, math.nan, math.inf, math.pi / Ts, 4.0 / Ts, 5e-324):
        with pytest.raises(ValueError, match="corner"):
            highpass_coefficients(lam, Ts)
    # below about Ts = 1e-154 the prewarped K = lam/tan(lam*Ts/2) ~ 2/Ts
    # squares past the float range (OverflowError), or just short of it
    # while 2*K*K does not (inf coefficients, at 1.8e-154)
    for tiny in (1.8e-154, 2e-162, 1e-303):
        with pytest.raises(ValueError, match=f"at Ts = {tiny:g} s overflows "
                           "the biquad coefficients"):
            highpass_coefficients(TWO_PI * 1000.0, tiny)


def test_gd_response_at_probe_frequency(inj):
    """G_d(j omega_h) = 1 and the phase unwrapped from DC is -2 pi."""
    g = gd_frequency_response(inj.epsilon, inj.omega_h)
    assert abs(g - 1.0) < 1e-9
    ph = unwrapped_phase_at(inj.epsilon, inj.omega_h)
    assert abs(ph + TWO_PI) < 1e-9


def test_gd_response_limits(inj):
    assert gd_frequency_response(inj.epsilon, 0.0) == 0.0
    arr = gd_frequency_response(inj.epsilon, np.array([0.0, inj.omega_h]))
    assert arr.shape == (2,)
    with pytest.raises(ValueError):
        gd_frequency_response(0.0, 1.0)


def test_gd_response_near_dc():
    """Far below the probe frequency G_d(j omega) = x^2/6 - j x^3/6 +
    O(x^4), x = d*omega, where the closed form cancels to rounding noise
    (it read 2e-11j for 1.7e-13 at x = 1e-6); an x whose square
    underflows gives 0, not a 0/0 with numpy warnings."""
    for x in (1e-4, 1e-6, 1e-100):
        g = gd_frequency_response(1e-3, x / 1e-3)
        assert g == pytest.approx(x * x / 6 - 1j * x ** 3 / 6, rel=1e-7)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert gd_frequency_response(1e-3, 5e-324) == 0.0


def test_lti_responses_at_corner():
    lam = 123.0
    assert lpf_frequency_response(lam, 0.0) == pytest.approx(1.0)
    h = hpf_frequency_response(lam, lam)
    assert abs(h) == pytest.approx(1.0, abs=1e-12)
    assert cmath.phase(complex(h)) == pytest.approx(0.5 * math.pi, abs=1e-12)
    assert abs(hpf_frequency_response(lam, 0.0)) == 0.0


def test_hpf_response_stays_finite_at_high_frequency():
    """2s^2/(lam + s)^2 tends to 2 as omega grows, and stays finite, with no
    RuntimeWarning, above about 1e154 rad/s, where s*s overflows; `bode`
    writes it to bode_hpf.csv."""
    omega = np.logspace(0.0, 300.0, 5)
    h = hpf_frequency_response(TWO_PI * 1000.0, omega)
    assert np.isfinite(h).all()
    assert h[-1] == pytest.approx(2.0, rel=1e-15)
    assert np.isfinite(bode_table(hpf_frequency_response(
        TWO_PI * 1000.0, omega, log=True), omega)).all()


def test_bode_tables_finite_with_low_frequency_limits():
    """From 5e-324 to 1e300 rad/s each table is finite, where G_d and the
    high pass underflow at the low end: there the high pass sits at 180
    deg and G_d rises at 40 dB/decade with phase 0; the high pass tends
    to 2 (6.02 dB, 0 deg) and the low pass to -90 deg at the high end."""
    omega = np.logspace(math.log10(5e-324), 300.0, 9)
    d, lam = 1e-3, TWO_PI * 1000.0
    gd, hpf, lpf = (bode_table(r, omega) for r in (
        gd_frequency_response(d, omega, log=True),
        hpf_frequency_response(lam, omega, log=True),
        lpf_frequency_response(30.0, omega, log=True)))
    for tab in (gd, hpf, lpf):
        assert np.isfinite(tab).all()
    low = omega < 1e-100
    assert np.all(hpf[low, 2] == pytest.approx(180.0, abs=1e-12))
    slope = np.diff(gd[low, 1]) / np.diff(np.log10(omega[low]))
    assert slope == pytest.approx(40.0, rel=1e-9)
    assert np.all(np.abs(gd[low, 2]) < 1e-12)
    assert hpf[-1, 1] == pytest.approx(20.0 * math.log10(2.0), rel=1e-12)
    assert hpf[-1, 2] == 0.0 and lpf[-1, 2] == -90.0
    # the same values as the responses themselves where these are normal
    mid = (omega > 1e-100) & (omega < 1e100)
    for log_r, r in [(gd_frequency_response(d, omega[mid], log=True),
                      gd_frequency_response(d, omega[mid])),
                     (hpf_frequency_response(lam, omega[mid], log=True),
                      hpf_frequency_response(lam, omega[mid]))]:
        assert np.exp(log_r) == pytest.approx(r, rel=1e-12)


def test_bode_table_layout():
    omega = np.logspace(0, 4, 50)
    tab = bode_table(lpf_frequency_response(10.0, omega, log=True), omega)
    assert tab.shape == (50, 3)
    assert tab[0, 1] == pytest.approx(0.0, abs=0.1)   # DC ~ 0 dB
    assert np.all(np.diff(tab[:, 2]) <= 1e-9)         # phase falls monotonically
