"""Estimator tests: angle recovery, branch tracking, both pipelines on
synthetic ripple currents, the fused steps against the standalone operators,
PLL, compensation fitting."""

import copy
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from hfsense import estimators
from hfsense.config import load_scenario
from hfsense.controller import ControllerConfig, SensorlessController
from hfsense.estimators import (
    ConventionalEstimator,
    BlockFormEstimator,
    Pll,
    ProposedEstimator,
    _RINT,
    check_contraction,
    fit_compensation,
    rmsd,
    synthesize_injection_current,
    wrap_mod_pi,
)
from hfsense.motor import virtual_output
from hfsense.signal_ops import (
    TWO_PI,
    InjectionConfig,
    probe_signal,
    sample_period,
)
from hfsense.sim import ScenarioConfig
from conftest import SIM_MOTOR
from oracles import (
    DegenerateSignalError,
    HighPass2,
    LowPass1,
    Regressor,
    locus_angle,
    virtual_output_to_angle,
)

angles = st.floats(-30.0, 30.0, allow_nan=False)


def _lambda_ell(inj):
    """The LTI chain's corner that ScenarioConfig resolves by default:
    lambda_ell = sqrt(omega_h * 0.5)."""
    return math.sqrt(inj.omega_h * 0.5)


@given(phi=st.floats(-math.pi, math.pi), prev=angles,
       L1=st.sampled_from([-1e-3, 1e-3]))
def test_locus_angle_branch_properties(phi, prev, L1):
    """The angle of the locus point (cos phi, sin phi), resolved by branch."""
    dx, dy = math.cos(phi), math.sin(phi)
    raw = 0.5 * math.atan2(dy, dx)
    sign = 1.0 if L1 < 0.0 else -1.0  # the point is negated for L_d > L_q
    out = locus_angle(sign * dx, sign * dy, L1, prev)
    # same angle modulo pi, and on the branch nearest prev
    assert math.isclose((out - raw) / math.pi, round((out - raw) / math.pi),
                        abs_tol=1e-9)
    assert abs(out - prev) <= 0.5 * math.pi + 1e-9


@given(x=st.floats(-2.0 ** 51, 2.0 ** 51)
       | st.integers(-10 ** 6, 10 ** 6).map(lambda n: n + 0.5))
def test_rint_rounds_as_round_does(x):
    """The kernels' rounding of the branch count: to the nearest integer,
    ties to even, as round() does, and with the sign of zero of
    pi * round(x), so the angle comes out bit for bit."""
    got = math.pi * (x + _RINT - _RINT)
    want = math.pi * round(x)
    assert got == want and math.copysign(1.0, got) == math.copysign(1.0, want)


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
    est.step(0, cur[:, 0].tolist(), cur[:, 1].tolist())
    return t


def test_proposed_estimator_tracks_synthetic(sim_motor, inj, Ts, N):
    omega_e = 3.0
    est = ProposedEstimator(sim_motor, inj, N, theta0=0.4)
    t = _run_on_synthetic(est, sim_motor, inj, Ts, 0.4, omega_e, 0.5)
    final_err = float(wrap_mod_pi(est.theta_hat - (0.4 + omega_e * t[-1])))
    # steady lag ~ omega_e/(gamma*<S^2>) ~ 0.024 rad at these gains
    assert abs(final_err) < 0.05
    # the last locus point lies outside the radius where the angle is held
    centre = sim_motor.L0 / sim_motor.det_L
    r_min = 0.1 * abs(sim_motor.L1) / sim_motor.det_L
    assert math.hypot(est.yv1 - centre, est.yv2) > r_min


def test_conventional_estimator_tracks_synthetic(sim_motor, inj, Ts, N):
    omega_e = 3.0
    est = ConventionalEstimator(sim_motor, inj, N, _lambda_ell(inj),
                                theta0=0.4)
    t = _run_on_synthetic(est, sim_motor, inj, Ts, 0.4, omega_e, 0.5)
    final_err = float(wrap_mod_pi(est.theta_hat - (0.4 + omega_e * t[-1])))
    # steady lag ~ atan(2*omega_e/lambda_ell)/2 ~ 0.053 rad
    assert abs(final_err) < 0.12


def test_all_estimators_track_with_ld_above_lq(sim_motor, inj, Ts, N):
    """Swapped inductances (L1 > 0) flip the saliency locus; each estimator
    still recovers the angle modulo pi, not a quarter turn off."""
    motor = replace(sim_motor, L_d=sim_motor.L_q, L_q=sim_motor.L_d)
    assert motor.L1 > 0.0
    omega_e, theta0 = 3.0, 0.4
    ests = {
        "proposed": ProposedEstimator(motor, inj, N, theta0=theta0),
        "block_form": BlockFormEstimator(motor, inj, N, theta0=theta0),
        "conventional": ConventionalEstimator(
            motor, inj, N, _lambda_ell(inj), theta0=theta0),
    }
    n = int(round(0.5 / Ts))
    t = np.arange(n + 1) * Ts
    theta = theta0 + omega_e * t
    cur = synthesize_injection_current(motor, inj, theta, t)
    settled = t >= 0.25
    for name, est in ests.items():
        th, spare = np.empty((2, n + 1))
        est.step(0, cur[:, 0].tolist(), cur[:, 1].tolist(),
                 (th, spare, spare, spare, spare))
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


def test_synthesized_current_that_overflows_warns_nothing(sim_motor, Ts):
    """A ripple beyond a float's range is built without a numpy warning;
    the replays report the currents that are not finite."""
    tiny = replace(sim_motor, L_d=3e-162, L_q=6e-162)
    t = np.arange(20) * Ts
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cur = synthesize_injection_current(
            tiny, InjectionConfig(V_h=1e300), 0.3 + t, t)
    assert not np.isfinite(cur).all()


def test_read_out_constant_out_of_a_float_range_is_rejected(sim_motor, N):
    """The LTI chain's scale 2*omega_h*L_d*L_q/V_h underflowing to 0, and
    the block form's state per output, whose (V_h/2pi)^2 overflows, are
    each a ValueError naming the keys, not an arithmetic error."""
    tiny = replace(sim_motor, L_d=3e-162, L_q=6e-162)
    builds = [
        lambda: ConventionalEstimator(tiny, InjectionConfig(V_h=1e10), N,
                                      80.0),
        lambda: BlockFormEstimator(sim_motor, InjectionConfig(V_h=1.5e155),
                                   N, 8e-305, 8e-305),
    ]
    for build in builds:
        with pytest.raises(ValueError, match="V_h, L_d/L_q and epsilon"):
            build()


def test_estimator_seeding(sim_motor, inj, Ts, N):
    est = ProposedEstimator(sim_motor, inj, N, theta0=0.9)
    assert est.theta_hat == 0.9
    assert (est.yv1, est.yv2) == pytest.approx(virtual_output(sim_motor, 0.9))
    conv = ConventionalEstimator(
        sim_motor, inj, N, _lambda_ell(inj), theta0=0.9)
    assert (conv.yv1, conv.yv2) == pytest.approx(virtual_output(sim_motor, 0.9))


def test_proposed_warmup_returns_none(sim_motor, inj, Ts, N):
    est = ProposedEstimator(sim_motor, inj, N)
    n_warm = round(2.0 * inj.epsilon / Ts)
    for k in range(n_warm):
        assert est.step(k, (0.0,), (0.0,)) is None
    assert est.step(n_warm, (0.0,), (0.0,)) is not None


def test_step_rejects_a_float_time(sim_motor, inj, Ts, N):
    """Each kernel steps by the integer sample index; a float, such as a
    time in seconds, raises TypeError at the first sample and after warm-up,
    and leaves the estimator as it was."""
    n = int(round(0.01 / Ts))
    t = np.arange(n) * Ts
    cur = synthesize_injection_current(sim_motor, inj, 0.4 + 3.0 * t, t)
    for make in (lambda: ProposedEstimator(sim_motor, inj, N, theta0=0.4),
                 lambda: BlockFormEstimator(sim_motor, inj, N, theta0=0.4),
                 lambda: ConventionalEstimator(sim_motor, inj, N,
                                               _lambda_ell(inj), theta0=0.4)):
        est, fresh = make(), make()
        with pytest.raises(TypeError):
            est.step(0.5 * Ts, (0.0,), (0.0,))
        for k in range(n):
            ia, ib = (float(cur[k, 0]),), (float(cur[k, 1]),)
            assert est.step(k, ia, ib) == fresh.step(k, ia, ib)
            assert _state(est) == _state(fresh)
        with pytest.raises(TypeError):
            est.step(n * Ts, (0.0,), (0.0,))


def test_estimators_reject_ts_not_dividing_epsilon(sim_motor, inj):
    """Each estimator is built from N samples per probe period and takes
    Ts = epsilon/N, so a Ts that does not divide epsilon cannot be asked
    for: N must be an integer >= 1 (epsilon/50.5 was the misaligned Ts)."""
    for N in (0, 2.5, 2e-5, 50.5):
        with pytest.raises(ValueError, match="steps per probe period"):
            ConventionalEstimator(sim_motor, inj, N, _lambda_ell(inj))
        with pytest.raises(ValueError, match="steps per probe period"):
            ProposedEstimator(sim_motor, inj, N)
        with pytest.raises(ValueError, match="steps per probe period"):
            BlockFormEstimator(sim_motor, inj, N)


@pytest.mark.parametrize("N", [2, 1])
def test_conventional_rejects_high_pass_at_or_above_nyquist(sim_motor, inj,
                                                            N):
    """The high pass sits at omega_h, and its prewarp tan(omega_h*Ts/2)
    holds only below the Nyquist rate pi/Ts: with omega_h*Ts = 2*pi/N at or
    above pi (N <= 2) the estimator is not built, where it would return a
    meaningless angle or NaN."""
    with pytest.raises(ValueError, match="Nyquist"):
        ConventionalEstimator(sim_motor, inj, N, 56.0)


def test_ell_validation(sim_motor, inj, Ts, N):
    """ell1 = 0 is rejected; so is a gain of 0, -1, NaN or +-inf on either
    axis of either form, by the contraction check, which names its key."""
    with pytest.raises(ValueError):
        ProposedEstimator(sim_motor, inj, N, ell=(0.0, 0.0, 1.0))
    for form in (ProposedEstimator, BlockFormEstimator):
        for gamma in (0.0, -1.0, math.nan, math.inf, -math.inf):
            for key, gammas in (("gamma_alpha", (gamma, 1e4)),
                                ("gamma_beta", (1e4, gamma))):
                with pytest.raises(ValueError, match=f"^{key} = "):
                    form(sim_motor, inj, N, *gammas)


def _log_gain(table):
    """sum log|a_j| of a demodulator's per-phase table, from the table."""
    return sum(math.log(abs(a)) for a, _ in table)


def test_gain_whose_flow_cannot_contract_is_rejected(sim_motor, inj, N,
                                                     scenario_dir):
    """A gain is rejected where the update's product of a_j over a probe
    period has a magnitude of at least 1, on either axis and in either
    form, and through ScenarioConfig under its own key.  The boundary is
    found by bisecting the table's sum log|a_j| between 4e6 (-32.1 on the
    lowspeed table) and 1e7 (+11.7)."""
    est = ProposedEstimator(sim_motor, inj, N)
    lo, hi = 4e6, 1e7
    assert _log_gain(est._phase_table(lo)) < 0.0 <= _log_gain(
        est._phase_table(hi))
    while math.nextafter(lo, hi) != hi:
        mid = 0.5 * (lo + hi)
        if _log_gain(est._phase_table(mid)) < 0.0:
            lo = mid
        else:
            hi = mid
    cfg = load_scenario(scenario_dir / "lowspeed.scenario")
    for form in (ProposedEstimator, BlockFormEstimator):
        form(sim_motor, inj, N, lo, lo)
        for key, gammas in (("gamma_alpha", (hi, lo)),
                            ("gamma_beta", (lo, hi))):
            with pytest.raises(ValueError, match=f"^{key} = .* does not "
                               "contract the demodulator's sampled flow"):
                form(sim_motor, inj, N, *gammas)
    replace(cfg, gamma_alpha=lo, gamma_beta=lo)
    for key in ("gamma_alpha", "gamma_beta"):
        with pytest.raises(ValueError, match=f"^{key} = "):
            replace(cfg, **{key: hi})
    # a scenario that runs the LTI chain alone leaves the gains unchecked
    replace(cfg, estimator="conventional", gamma_alpha=hi)


# each part's rejection of its filters or its gains at Ts, as the part
# raises it: (part, settings, message naming the keys); a ScenarioConfig
# with those settings, which builds the part, gives the same message
_PART_MESSAGES = [
    ("controller", dict(injection=InjectionConfig(epsilon=1e300),
                        steps_per_period=2, duration=3e300,
                        controller=ControllerConfig(meas_lpf_cutoff=1e10)),
     "meas_lpf_cutoff: corner 1e+10 rad/s at Ts = 5e+299 s overflows the "
     "low-pass coefficients"),
    ("conv", dict(injection=InjectionConfig(epsilon=1e-160),
                  duration=1e-157),
     "epsilon, steps_per_period: LTI high pass at omega_h: corner "
     "6.28319e+160 rad/s at Ts = 2e-162 s overflows the biquad "
     "coefficients"),
    ("conv", dict(steps_per_period=2, duration=0.05),
     "epsilon, steps_per_period: LTI high pass at omega_h: corner 6283.19 "
     "rad/s is not below the Nyquist rate pi/Ts = 6283.19 rad/s"),
    ("conv", dict(injection=InjectionConfig(epsilon=1e3), duration=1e4,
                  lambda_ell=1e308),
     "lambda_ell: corner 1e+308 rad/s at Ts = 20 s overflows the low-pass "
     "coefficients"),
    ("prop", dict(duration=0.05, gamma_beta=1e9),
     "gamma_beta = 1e+09 does not contract the demodulator's sampled flow: "
     "the sum of log|1 - Ts*gamma*S_j^2| over a probe period is 242 >= 0"),
]


@pytest.mark.parametrize("part,settings,message", _PART_MESSAGES,
                         ids=["meas_lpf_cutoff", "hpf-overflow", "hpf-nyquist",
                              "lambda_ell", "gamma_beta"])
def test_parts_name_the_keys_of_their_checks(part, settings, message):
    """The controller and each estimator reject a filter, or a gain, that
    fails its check at Ts themselves, naming the scenario keys that set it;
    a ScenarioConfig rejects it with the same message, by building them."""
    kind = {"conv": "conventional"}.get(part, "proposed")
    kw = dict(estimator=kind, sensor_mode=True, **settings)
    cfg = dict(motor=SIM_MOTOR, **kw)
    with pytest.raises(ValueError) as from_config:
        ScenarioConfig(**cfg)
    assert str(from_config.value) == message
    inj = kw.get("injection", InjectionConfig())
    N = kw.get("steps_per_period", 50)
    build = {
        "controller": lambda: SensorlessController(
            SIM_MOTOR, kw["controller"], sample_period(inj, N)),
        "conv": lambda: ConventionalEstimator(
            SIM_MOTOR, inj, N, kw.get("lambda_ell", _lambda_ell(inj))),
        "prop": lambda: ProposedEstimator(SIM_MOTOR, inj, N, 1e4,
                                          kw["gamma_beta"])}[part]
    with pytest.raises(ValueError) as from_part:
        build()
    assert str(from_part.value) == message


def test_zero_decay_factor_contracts():
    """A zero a_j resets the state once per period: it contracts, however
    large the other factors."""
    check_contraction("gamma_alpha", 1.0, [(0.0, 1.0), (-1e300, 1.0)])
    with pytest.raises(ValueError, match=r"is 691 >= 0"):
        check_contraction("gamma_alpha", 1.0, [(1.0, 1.0), (-1e300, 1.0)])
    with pytest.raises(ValueError, match=r"is nan >= 0"):
        check_contraction("gamma_beta", 1.0, [(math.nan, 1.0)])


def test_block_form_matches_operator_form(sim_motor, inj, Ts, N):
    """Short cross-check of the two implementations of the same pipeline
    (the acceptance suite runs the long version), from carrier phase 23."""
    omega_e = 3.0
    a = ProposedEstimator(sim_motor, inj, N, theta0=0.2)
    b = BlockFormEstimator(sim_motor, inj, N, theta0=0.2)
    k0, n = 23, int(round(0.2 / Ts))
    assert k0 % N != 0
    t = (k0 + np.arange(n + 1)) * Ts
    cur = synthesize_injection_current(sim_motor, inj, 0.2 + omega_e * t, t,
                                       i_bar=(0.3, -0.1))
    scale = abs(sim_motor.L1) / sim_motor.det_L
    for k in range(n + 1):
        ra = a.step(k0 + k, (cur[k, 0],), (cur[k, 1],))
        rb = b.step(k0 + k, (cur[k, 0],), (cur[k, 1],))
        if ra is None:
            continue
        assert abs(a.yv1 - b.yv1) / scale < 1e-10
        assert abs(a.yv2 - b.yv2) / scale < 1e-10


SALIENCY = pytest.mark.parametrize(
    "motor", [SIM_MOTOR, replace(SIM_MOTOR, L_d=SIM_MOTOR.L_q, L_q=SIM_MOTOR.L_d)],
    ids=["ld_below_lq", "ld_above_lq"])


@SALIENCY
def test_fused_conventional_step_matches_composed_operators(motor):
    """Bit for bit against HighPass2 -> carrier -> LowPass1 -> locus_angle
    over 3000 seeded samples of ripple plus noise, from carrier phase 37."""
    inj = InjectionConfig(V_h=1.5, epsilon=1e-3, phi=0.3)
    N = 50
    Ts = sample_period(inj, N)
    lambda_ell = 80.0
    k0, n = 37, 3000
    t = (k0 + np.arange(n)) * Ts
    rng = np.random.default_rng(5)
    cur = synthesize_injection_current(motor, inj, 0.7 + 40.0 * t, t,
                                       i_bar=(0.5, -0.2)) \
        + rng.normal(0.0, 1e-3, (n, 2))
    est = ConventionalEstimator(motor, inj, N, lambda_ell, theta0=0.7)
    # the same chain composed from the standalone operators
    scale = 2.0 * inj.omega_h * motor.det_L / inj.V_h
    y10, y20 = virtual_output(motor, 0.7)
    hpf = [HighPass2(inj.omega_h, Ts) for _ in range(2)]
    lpf = [LowPass1(lambda_ell, Ts, y0=y * motor.det_L / scale)
           for y in (y10, y20)]
    theta = 0.7
    mismatches = []
    for k in range(n):
        ia, ib = float(cur[k, 0]), float(cur[k, 1])
        demod = math.sin(inj.omega_h * ((k0 + k) % N) * Ts + inj.phi)
        Ya = scale * lpf[0].step(hpf[0].step(ia) * demod)
        Yb = scale * lpf[1].step(hpf[1].step(ib) * demod)
        theta = locus_angle(Ya - motor.L0, Yb, motor.L1, theta)
        want = (theta, Ya / motor.det_L, Yb / motor.det_L)
        est.step(k0 + k, (ia,), (ib,))
        got = (est.theta_hat, est.yv1, est.yv2)
        if got != want:
            mismatches.append((k, got, want))
    assert not mismatches, mismatches[:3]


@SALIENCY
def test_fused_proposed_angle_matches_virtual_output_to_angle(motor, inj, Ts,
                                                              N):
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
    est = ProposedEstimator(motor, inj, N, theta0=0.2)
    prev = est.theta_hat
    held = valid = 0
    mismatches = []
    for k in range(n):
        if est.step(k, (float(cur[k, 0]),), (float(cur[k, 1]),)) is None:
            continue
        try:
            want = virtual_output_to_angle(est.yv1, est.yv2, motor, prev,
                                           min_radius=r_min)
            degenerate = False
            valid += 1
        except DegenerateSignalError:
            want, degenerate = prev, True
            held += 1
        if est.theta_hat != want:
            mismatches.append((k, est.theta_hat, want, degenerate))
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
                                                      Ts, N):
    """A locus point exactly on the radius carries no angle, so the previous
    angle is held (the check is <=, not <); one ulp outside it the sample
    is valid.  Zero current makes the regressor output exactly 0, so the
    demodulator state only decays by this sample's a_j; it is set so that
    the decayed state reads y1 == centre and y2 == r_min bit for bit."""
    centre = sim_motor.L0 / sim_motor.det_L
    r_min = 0.1 * abs(sim_motor.L1) / sim_motor.det_L
    n_warm = round(2.0 * inj.epsilon / Ts)
    for y2, held in ((r_min, True), (math.nextafter(r_min, math.inf), False)):
        est = form(sim_motor, inj, N, theta0=0.3)
        for k in range(n_warm):
            assert est.step(k, (0.0,), (0.0,)) is None
        unit = est._state_per_output(sim_motor)
        aa, _, ab, _ = est._table[n_warm % N]
        est._s = (*est._s[:5], _state_reading(aa, unit, centre),
                  _state_reading(ab, unit, y2), *est._s[7:])
        _, y1_got, y2_got = est.step(n_warm, (0.0,), (0.0,))
        assert (y1_got, y2_got) == (centre, y2)
        assert (est.theta_hat == 0.3) is held


@SALIENCY
def test_fused_new_pipeline_steps_match_regressor_oracle(motor):
    """Both new-pipeline kernels bit for bit against Regressor.step, then
    the per-phase step and locus_angle: seeded ripple plus noise from
    carrier phase 37, unequal gains, past the regressor's periodic rebase."""
    inj = InjectionConfig(V_h=1.5, epsilon=1e-3, phi_p=0.4)
    N = 20
    Ts = sample_period(inj, N)
    gammas = (1.2e4, 8e3)
    ell = (1.05, 0.02, 0.95)
    k0, n = 37, Regressor._REBASE_EVERY + 300
    t = (k0 + np.arange(n)) * Ts
    rng = np.random.default_rng(11)
    cur = synthesize_injection_current(motor, inj, 0.7 + 25.0 * t, t,
                                       i_bar=(0.5, -0.2)) \
        + rng.normal(0.0, 1e-3, (n, 2))
    prop = ProposedEstimator(motor, inj, N, *gammas, ell, theta0=0.7)
    block = BlockFormEstimator(motor, inj, N, *gammas, theta0=0.7)
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
    r_min = 0.1 * abs(motor.L1) / motor.det_L
    cold, mismatches = [], []
    for k in range(n):
        ia, ib = float(cur[k, 0]), float(cur[k, 1])
        got = (prop.step(k0 + k, (ia,), (ib,)),
               block.step(k0 + k, (ia,), (ib,)))
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
            th_x = locus_angle(y1 - centre, y2, motor.L1, th_x)
            (aa, ca), (ab, cb) = tables[1][j]
            z = (aa * z[0] + ca * yf[0], ab * z[1] + cb * yf[1])
            w1, w2 = z[0] / unit_z, z[1] / unit_z
            th_z = locus_angle(w1 - centre, w2, motor.L1, th_z)
            want = ((th_x, y1, y2), (th_z, w1, w2))
        # the ripple keeps the locus point off the degenerate radius
        if got != want or (want[0] is not None and min(
                math.hypot(y1 - centre, y2), math.hypot(w1 - centre, w2))
                <= r_min):
            mismatches.append((k, got, want))
    assert cold == list(range(round(2.0 * inj.epsilon / Ts)))
    assert not mismatches, mismatches[:3]


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


def test_inline_pll_checks_its_gains_without_the_oracle(sim_motor, inj, N,
                                                         monkeypatch):
    """Each estimator takes its PLL's constants from `_pll_parts`, which
    checks the gains itself: no estimator builds a `Pll`."""
    def no_pll(*args, **kwargs):
        raise AssertionError("an estimator built a Pll")

    monkeypatch.setattr(estimators, "Pll", no_pll)
    forms = [lambda g: ProposedEstimator(sim_motor, inj, N, pll_gains=g),
             lambda g: ConventionalEstimator(sim_motor, inj, N, 30.0,
                                             pll_gains=g)]
    for make in forms:
        make(GAINS)
        for gains in ((0.0, 0.01), (5.0, math.inf), (math.nan, 0.01)):
            with pytest.raises(ValueError, match="^PLL gains must be "
                               "positive and finite$"):
                make(gains)


# a PLL as sim.run gives each estimator
GAINS = (5.0, 0.01)


def _forms(motor, inj, N, gains=GAINS):
    """A maker of each estimator, with off-default settings and a PLL of
    the given gains."""
    return {
        "proposed": lambda: ProposedEstimator(
            motor, inj, N, 1.2e4, 8e3, (1.05, 0.02, 0.95), theta0=0.7,
            pll_gains=gains),
        "block_form": lambda: BlockFormEstimator(
            motor, inj, N, 1.2e4, 8e3, theta0=0.7, pll_gains=gains),
        "conventional": lambda: ConventionalEstimator(
            motor, inj, N, 80.0, theta0=0.7, pll_gains=gains),
    }


def _noisy_ripple(motor, inj, Ts, k0, n):
    """n samples of ripple plus seeded noise from sample k0, as two lists."""
    t = (k0 + np.arange(n)) * Ts
    rng = np.random.default_rng(7)
    cur = synthesize_injection_current(motor, inj, 0.7 + 25.0 * t, t,
                                       i_bar=(0.5, -0.2)) \
        + rng.normal(0.0, 1e-3, (n, 2))
    return cur.T.tolist()


def _state(est):
    """All an estimator carries from one run to the next: its state tuples,
    the ring lists inside its constants, and its outputs."""
    return (est._s, est._k, est.theta_hat, est.yv1, est.yv2, est.omega_hat)


@pytest.mark.parametrize("dec", [1, 3])
@pytest.mark.parametrize("form", ["proposed", "block_form", "conventional"])
def test_runs_of_any_length_give_equal_outputs_and_state(form, dec, inj, Ts,
                                                         N):
    """One input, from carrier phase 37, passed whole or split into runs of
    1, 2, 7, 1023, 1024 or 1025 samples: the same rows, the same return
    value of the last run and the same final state, with ==."""
    make = _forms(SIM_MOTOR, inj, N)[form]
    k0, n = 37, 3100
    ia, ib = _noisy_ripple(SIM_MOTOR, inj, Ts, k0, n)
    n_rows = (k0 + n - 1) // dec + 1
    whole = make()
    want = np.zeros((5, n_rows))
    last_want = whole.step(k0, ia, ib, want, dec)
    # valid from the first sample on (the LTI chain), or once the regressor
    # holds its 2d window (the new pipeline)
    first = k0 + (0 if form == "conventional"
                  else round(2.0 * inj.epsilon / Ts))
    k = np.arange(n_rows) * dec
    assert np.array_equal(want[4][k >= k0], 1.0 * (k[k >= k0] >= first))
    # row r holds sample r*dec
    every = np.zeros((5, k0 + n))
    make().step(k0, ia, ib, every)
    assert np.array_equal(want[:, k >= k0], every[:, k[k >= k0]])
    for size in (1, 2, 7, 1023, 1024, 1025):
        est = make()
        got = np.zeros((5, n_rows))
        for j in range(0, n, size):
            last = est.step(k0 + j, ia[j:j + size], ib[j:j + size], got, dec)
        assert last == last_want, size
        assert np.array_equal(got, want), size
        assert _state(est) == _state(whole), size


@pytest.mark.parametrize("kind", ["list", "array", "memoryview"])
@pytest.mark.parametrize("form", ["proposed", "block_form"])
def test_block_runs_across_the_rebase_equal_the_resident_kernel(form, kind,
                                                                inj, Ts, N):
    """A run of the new pipeline from carrier phase 37, one rebase of the
    regressor's sums long plus 300 samples, passed whole, in runs of 1024
    or 1025 samples, or split at the rebase sample (it opens the second run
    or ends the first), each as lists, numpy arrays or strided memoryview
    columns: the same rows and final state, with ==, as the resident
    kernel fed one sample at a time.  Runs of at least 2N warm samples
    take the regressor from arrays, the rest step on the kernel."""
    make = _forms(SIM_MOTOR, inj, N)[form]
    k0, n, dec = 37, Regressor._REBASE_EVERY + 300, 3
    ia, ib = _noisy_ripple(SIM_MOTOR, inj, Ts, k0, n)
    n_rows = (k0 + n - 1) // dec + 1
    resident = make()
    want = np.zeros((5, n_rows))
    _resident(resident, k0, ia, ib, want, dec)
    cols = np.array([ia, ib]).T  # C order: each column is strided
    ia, ib = {"list": (ia, ib), "array": tuple(cols.T),
              "memoryview": (memoryview(cols[:, 0]),
                             memoryview(cols[:, 1]))}[kind]
    # the first sample opens the window; the rebase comes after that many
    # more
    rebase = 1 + Regressor._REBASE_EVERY
    for ends in ([n], range(1024, n + 1024, 1024), range(1025, n + 1025, 1025),
                 [rebase - 1, n], [rebase, n]):
        est = make()
        got = np.zeros((5, n_rows))
        j = 0
        for e in ends:
            est.step(k0 + j, ia[j:e], ib[j:e], got, dec)
            j = min(e, n)
        assert j == n
        assert np.array_equal(got, want), list(ends)[:2]
        assert _state(est) == _state(resident), list(ends)[:2]


@pytest.mark.parametrize("form", ["proposed", "block_form", "conventional"])
def test_numpy_runs_leave_python_floats(form, inj, Ts, N):
    """Runs passed as numpy arrays, of 1, 2N - 1, 2N and 3N + 7 samples
    (inside the warm-up, across its end, past it), leave the state as the
    same runs passed as lists do: equal, and of the same types, with
    theta_hat, omega_hat, yv1 and yv2 Python floats, never numpy
    scalars."""
    make = _forms(SIM_MOTOR, inj, N)[form]
    sizes = (1, 2 * N - 1, 2 * N, 3 * N + 7)
    ia, ib = _noisy_ripple(SIM_MOTOR, inj, Ts, 37, sum(sizes))
    est, ref = make(), make()
    k = 37
    for n in sizes:
        a, b = ia[k - 37:k - 37 + n], ib[k - 37:k - 37 + n]
        est.step(k, np.array(a), np.array(b))
        ref.step(k, a, b)
        k += n
        assert _state(est) == _state(ref), n
        kinds = [type(x) for x in (*est._s, est.theta_hat, est.omega_hat,
                                   est.yv1, est.yv2)]
        assert kinds == [type(x) for x in (*ref._s, ref.theta_hat,
                                           ref.omega_hat, ref.yv1, ref.yv2)]
        assert set(kinds) <= {int, float} and kinds[-4:] == [float] * 4, n
        # the new pipeline's regressor rings
        rings = est._k[3:7] if form != "conventional" else ()
        assert all(type(x) is float for r in rings for x in r), n


@pytest.mark.parametrize("form", ["proposed", "block_form"])
def test_short_block_runs_across_frequent_rebases_equal_the_resident_kernel(
        form, inj, monkeypatch):
    """N = 2 and a rebase every 7 samples, fed in runs of m = 4 samples as
    numpy arrays: many runs hold a one-sample stretch between rebases,
    whose sums numpy 2.4's np.negative(..., out=...) got wrong for these
    shapes.  Rows and state equal the resident kernel's, with ==."""
    monkeypatch.setattr(estimators, "_REBASE_EVERY", 7)
    N = 2
    make = _forms(SIM_MOTOR, inj, N)[form]
    k0, n = 43, 833
    ia, ib = _noisy_ripple(SIM_MOTOR, inj, sample_period(inj, N), k0, n)
    resident, est = make(), make()
    want, got = np.zeros((2, 5, k0 + n))
    _resident(resident, k0, ia, ib, want, 1)
    ia, ib = np.array(ia), np.array(ib)
    for j in range(0, n, 2 * N):
        est.step(k0 + j, ia[j:j + 2 * N], ib[j:j + 2 * N], got)
    assert np.array_equal(got, want)
    assert _state(est) == _state(resident)


@pytest.mark.parametrize("form", ["proposed", "block_form"])
def test_block_run_pieces_end_at_a_rebase_or_after_piece_samples(
        form, inj, Ts, N, monkeypatch):
    """One numpy run with a rebase of the regressor's sums every 333
    samples and pieces of at most 128: each `_warm_block` call takes at
    most _PIECE samples and no more than are left to the next rebase, so
    the sums rebase at most at its last sample.  Some pieces end at a
    rebase, some after _PIECE samples, and together they take every warm
    sample as arrays.  Rows and state equal the resident kernel's, with
    ==."""
    monkeypatch.setattr(estimators, "_REBASE_EVERY", 333)
    monkeypatch.setattr(estimators, "_PIECE", 128)
    pieces = []  # (samples, samples left to the next rebase, as arrays)
    warm_block = ProposedEstimator._warm_block

    def spy(est, k0, ia, ib, out, dec):
        left = est._s[4]
        pieces.append((len(ia), left, warm_block(est, k0, ia, ib, out, dec)))
        return pieces[-1][2]

    monkeypatch.setattr(ProposedEstimator, "_warm_block", spy)
    make = _forms(SIM_MOTOR, inj, N)[form]
    k0, n = 37, 3100
    ia, ib = _noisy_ripple(SIM_MOTOR, inj, Ts, k0, n)
    resident, est = make(), make()
    want, got = np.zeros((2, 5, k0 + n))
    _resident(resident, k0, ia, ib, want, 1)
    est.step(k0, np.array(ia), np.array(ib), got)
    assert np.array_equal(got, want)
    assert _state(est) == _state(resident)
    assert all(size <= 128 and size <= left for size, left, _ in pieces)
    assert any(size == left for size, left, _ in pieces)
    assert any(size == 128 < left for size, left, _ in pieces)
    # the warm-up, 2N + 1 samples, steps on the kernel
    assert sum(size for size, _, _ in pieces) == n - (2 * N + 1)
    assert all(arrays for _, _, arrays in pieces)


def _same(a, b) -> bool:
    """a == b, nested through tuples, lists and arrays, a NaN equal to a
    NaN."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.array_equal(a, b, equal_nan=True)
    if isinstance(a, (tuple, list)):
        return (type(a) is type(b) and len(a) == len(b)
                and all(_same(x, y) for x, y in zip(a, b)))
    return a == b or (a != a and b != b)


def _spy_blocks(monkeypatch):
    """What each `_warm_block` call returns: True when the piece ran as
    arrays, False when it stepped on the kernel."""
    calls = []
    warm_block = ProposedEstimator._warm_block

    def spy(*args):
        calls.append(warm_block(*args))
        return calls[-1]

    monkeypatch.setattr(ProposedEstimator, "_warm_block", spy)
    return calls


def _block_equals_resident(est, k0, ia, ib):
    """Rows and state of one numpy `step` over the run against a copy of
    est whose resident kernel takes the same samples, with == (NaNs equal
    NaNs)."""
    twin = copy.deepcopy(est)
    n_rows = k0 + len(ia)
    want, got = np.zeros((2, 5, n_rows))
    _resident(twin, k0, ia, ib, want, 1)
    est.step(k0, np.array(ia), np.array(ib), got)
    assert _same(got, want)
    assert _same(_state(est), _state(twin))
    return got


def _zero_fed(form, motor, inj, N, y1, y2, theta0=0.3):
    """A warm estimator fed zero current, its angle set to theta0 and its
    demodulator state so that its next sample reads (yv1, yv2) == (y1, y2)
    bit for bit, and that sample's index.  The regressor output is then
    exactly 0, so that sample's update is only the decay by its a_j (see
    `test_locus_point_on_the_degenerate_radius_is_held`)."""
    est = form(motor, inj, N, theta0=theta0)
    k = 2 * N + 1  # the hold window fills, then one warm sample
    est.step(0, [0.0] * k, [0.0] * k)
    assert est._s[3] == 0
    unit = est._state_per_output(motor)
    aa, _, ab, _ = est._table[k % N]
    est._s = (*est._s[:5], _state_reading(aa, unit, y1),
              _state_reading(ab, unit, y2), *est._s[7:])
    est.theta_hat = theta0
    return est, k


def _hypot_splits(centre: float, r_min: float) -> list[tuple[float, float]]:
    """Locus points (y1, y2) near the radius that np.hypot and math.hypot
    put on opposite sides of it, at most one each way; none where the two
    agree on all the points tried."""
    found = {}
    # |cos(phi)| <= 0.88, so r_min**2 - dx**2 stays positive
    for i in range(2000):
        phi = 0.5 + i * 1e-3
        y1 = centre + r_min * math.cos(phi)
        dx = y1 - centre
        y2 = math.sqrt(r_min * r_min - dx * dx)
        for _ in range(3):
            inside = math.hypot(dx, y2) <= r_min
            if inside != (np.hypot(dx, y2) <= r_min):
                found.setdefault(inside, (y1, y2))
            y2 = math.nextafter(y2, math.inf)
        if len(found) == 2:
            break
    return list(found.values())


@pytest.mark.parametrize("form", [ProposedEstimator, BlockFormEstimator])
def test_block_run_holds_on_the_degenerate_radius(form, sim_motor, inj, N,
                                                  monkeypatch):
    """`test_locus_point_on_the_degenerate_radius_is_held` through a block
    run of 2N + 7 warm samples: its first sample, on the radius, is held,
    one ulp outside it is valid, and the rows and state equal the resident
    kernel's.  The array path decides the hold with np.hypot and, near
    r_min, with math.hypot; points that the two put on opposite sides of
    the radius follow math.hypot, as the kernel does."""
    centre = sim_motor.L0 / sim_motor.det_L
    r_min = 0.1 * abs(sim_motor.L1) / sim_motor.det_L
    cases = [(centre, r_min, True),
             (centre, math.nextafter(r_min, math.inf), False)]
    cases += [(y1, y2, math.hypot(y1 - centre, y2) <= r_min)
              for y1, y2 in _hypot_splits(centre, r_min)]
    calls = _spy_blocks(monkeypatch)
    zeros = [0.0] * (2 * N + 7)
    for y1, y2, held in cases:
        est, k0 = _zero_fed(form, sim_motor, inj, N, y1, y2)
        got = _block_equals_resident(est, k0, zeros, zeros)
        assert (got[2, k0], got[3, k0]) == (y1, y2)
        assert (got[0, k0] == 0.3) == held, (y1, y2)
    assert calls == [True] * len(cases)


def test_block_run_with_a_nan_steps_on_the_kernel(inj, Ts, N, monkeypatch):
    """A NaN current mid-block makes the angle NaN from there on, which no
    branch count matches: the piece steps on the kernel from its state
    unchanged.  The angle stays NaN, so the pieces after it step on the
    kernel without building the arrays.  Rows and state equal the resident
    kernel's, NaNs equal."""
    est = _forms(SIM_MOTOR, inj, N)["proposed"]()
    ia, ib = _noisy_ripple(SIM_MOTOR, inj, Ts, 37, 1000)
    est.step(37, ia[:400], ib[:400])
    calls = _spy_blocks(monkeypatch)
    ia[700] = math.nan
    got = _block_equals_resident(est, 437, ia[400:800], ib[400:800])
    assert math.isnan(est.theta_hat) and math.isnan(got[0, 800 - 1])
    assert not np.isnan(got[0, 437:700]).any()
    _block_equals_resident(est, 837, ia[800:], ib[800:])
    assert calls == [False]


def test_list_out_rows_step_on_the_kernel(inj, Ts, N, monkeypatch):
    """`out` rows given as lists: the warm piece of a long numpy run steps
    on the kernel (`_warm_block` declines it), which writes the resident
    kernel's rows one by one."""
    calls = _spy_blocks(monkeypatch)
    make = _forms(SIM_MOTOR, inj, N)["proposed"]
    k0, n = 37, 600
    ia, ib = _noisy_ripple(SIM_MOTOR, inj, Ts, k0, n)
    resident, est = make(), make()
    want = np.zeros((5, k0 + n))
    _resident(resident, k0, ia, ib, want, 1)
    got = [[0.0] * (k0 + n) for _ in range(5)]
    est.step(k0, np.array(ia), np.array(ib), got)
    assert got == want.tolist()
    assert _state(est) == _state(resident)
    assert calls == [False]


@pytest.mark.parametrize("turn", [1.0, -1.0])
def test_block_run_across_a_quarter_turn_steps_on_the_kernel(
        turn, sim_motor, inj, N, monkeypatch):
    """A locus angle that jumps by pi/2 from one sample to the next: the
    raw angle steps from pi/4 to -pi/4 (or back), half a branch, so the
    branch count's rounding falls on a tie.  From an odd count the kernel
    rounds it to even, off the unwrapped guess: the piece steps on the
    kernel, and rows and state equal the resident kernel's.  From an even
    count the guess holds and the piece runs as arrays.

    The estimator is fed zero current with yv2 = +-1e30, so the raw angle
    is +-pi/4 exactly; a delayed input left in the regressor's ring flips
    yv2's sign at the run's second sample."""
    calls = _spy_blocks(monkeypatch)
    zeros = [0.0] * (2 * N + 7)
    for count, falls_back in ((1, True), (2, False)):
        theta0 = turn * math.pi / 4 + count * math.pi
        est, k0 = _zero_fed(ProposedEstimator, sim_motor, inj, N,
                            sim_motor.L0 / sim_motor.det_L, turn * 1e30,
                            theta0)
        # the input that sample k0 + 1 takes as its delayed one
        ub, i = est._k[4], est._s[0]
        aa, _, ab, cb = est._table[(k0 + 1) % N]
        x = ab * est._s[6]
        ub[(i + 1 - N) % len(ub)] = -(x + ab * x) / cb
        got = _block_equals_resident(est, k0, zeros, zeros)
        assert got[0, k0] == theta0 and est.yv2 * turn < -1e29
        assert calls.pop() is not falls_back


@pytest.mark.parametrize("form", ["proposed", "block_form", "conventional"])
def test_step_rejects_runs_of_unequal_length(form, inj, Ts, N):
    """An i_beta shorter or longer than i_alpha raises ValueError before
    any state changes, in the warm-up and after it."""
    make = _forms(SIM_MOTOR, inj, N)[form]
    ia, ib = _noisy_ripple(SIM_MOTOR, inj, Ts, 0, 300)
    est = make()
    k = 0
    # fresh, in the 100-sample warm-up, after it
    for k_next in (40, 200, 300):
        before = copy.deepcopy(_state(est))
        for n_a, n_b in ((60, 59), (59, 60), (1, 0), (0, 1)):
            with pytest.raises(ValueError, match="i_beta"):
                est.step(k, ia[k:k + n_a], ib[k:k + n_b])
            assert _state(est) == before
        est.step(k, ia[k:k_next], ib[k:k_next])
        k = k_next


def _resident(est, k0, ia, ib, out, dec, stop=None):
    """Drive est's kernel as sim.run drives the loop-closer's, pushing one
    sample at a time into a feed; close it after `stop` samples (all by
    default).  Returns the yields."""
    feed = []
    kernel = est.kernel(iter(feed.pop, None), out, dec)
    yields = []
    for k, a, b in list(zip(range(k0, k0 + len(ia)), ia, ib))[:stop]:
        feed.append((k, a, b))
        yields.append(next(kernel))
    kernel.close()
    return yields


@pytest.mark.parametrize("dec", [1, 3])
@pytest.mark.parametrize("form", ["proposed", "block_form", "conventional"])
def test_resident_kernel_equals_one_step(form, dec, inj, Ts, N):
    """The kernel driven one sample per next(), as the loop-closer is,
    equals one `step` over the same samples, with ==: the same rows and
    final state, and each yield is the sample's (theta_hat, omega_hat), or
    None before the first valid sample.  The run from carrier phase 37
    crosses the warm-up, and 3 divides neither the 1024-step block nor the
    run."""
    make = _forms(SIM_MOTOR, inj, N)[form]
    k0, n = 37, 1400
    ia, ib = _noisy_ripple(SIM_MOTOR, inj, Ts, k0, n)
    n_rows = (k0 + n - 1) // dec + 1
    whole = make()
    want = np.zeros((5, n_rows))
    whole.step(k0, ia, ib, want, dec)
    every = np.zeros((5, k0 + n))
    make().step(k0, ia, ib, every)
    th, om, _, _, valid = every[:, k0:].tolist()

    est = make()
    got = np.zeros((5, n_rows))
    yields = _resident(est, k0, ia, ib, got, dec)
    assert yields == [(t, w) if v else None
                      for t, w, v in zip(th, om, valid)]
    assert (None in yields) == (form != "conventional")
    assert np.array_equal(got, want)
    assert _state(est) == _state(whole)


@pytest.mark.parametrize("form", ["proposed", "block_form", "conventional"])
def test_resident_kernel_closed_mid_run_writes_its_state_back(form, inj, Ts,
                                                              N):
    """Closed after j samples, in the warm-up or after it, the kernel
    leaves the estimator as one `step` over those j samples does, and a
    `step` over the rest then ends as one `step` over the whole run.
    Closed before its first sample, it changes nothing."""
    make = _forms(SIM_MOTOR, inj, N)[form]
    k0, n, dec = 37, 1400, 3
    ia, ib = _noisy_ripple(SIM_MOTOR, inj, Ts, k0, n)
    n_rows = (k0 + n - 1) // dec + 1
    whole = make()
    want = np.zeros((5, n_rows))
    whole.step(k0, ia, ib, want, dec)
    for j in (0, 60, 1025):
        est, ref = make(), make()
        got, ref_rows = np.zeros((2, 5, n_rows))
        _resident(est, k0, ia, ib, got, dec, stop=j)
        ref.step(k0, ia[:j], ib[:j], ref_rows, dec)
        assert np.array_equal(got, ref_rows), j
        assert _state(est) == _state(ref), j
        est.step(k0 + j, ia[j:], ib[j:], got, dec)
        assert np.array_equal(got, want), j
        assert _state(est) == _state(whole), j


@pytest.mark.parametrize("form", ["proposed", "block_form", "conventional"])
def test_inline_pll_equals_pll_step(form, inj, Ts, N):
    """The PLL inside each kernel steps as `Pll.step` on the kernel's own
    angle, on every valid sample: each sample's speed and the final state
    are equal, with ==.  Without gains no PLL runs and the speed stays 0."""
    make = _forms(SIM_MOTOR, inj, N)[form]
    ia, ib = _noisy_ripple(SIM_MOTOR, inj, Ts, 11, 3000)
    est = make()
    out = np.zeros((5, 11 + len(ia)))  # rows 11, 12, ... are written
    est.step(11, ia, ib, out)
    th, om, _, _, valid = out[:, 11:]
    pll = Pll(*GAINS, SIM_MOTOR.n_p, 0.7)
    want = []
    for theta, v in zip(th, valid):
        if v:
            pll.step(float(theta), Ts)
        want.append(pll.omega_hat)
    assert np.count_nonzero(valid) > 0.9 * len(ia)
    assert om.tolist() == want
    assert (est.omega_hat, est._s[-2:]) == (pll.omega_hat,
                                            (pll.eta1, pll.eta2))

    bare = _forms(SIM_MOTOR, inj, N, gains=None)[form]()
    out = np.ones((5, 11 + len(ia)))
    bare.step(11, ia, ib, out)
    assert np.array_equal(out[0, 11:], th) and not out[1, 11:].any()
    assert bare.omega_hat == 0.0


def _calibration_trace(sim_motor, inj, omega_e, duration, **kw):
    N = 50
    Ts = sample_period(inj, N)
    n = int(round(duration / Ts))
    t = np.arange(n + 1) * Ts
    cur = synthesize_injection_current(sim_motor, inj, omega_e * t, t, **kw)
    est = ProposedEstimator(sim_motor, inj, N)
    th, om, y1, y2, valid = np.empty((5, n + 1))
    est.step(0, cur[:, 0].tolist(), cur[:, 1].tolist(), (th, om, y1, y2, valid))
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


@pytest.mark.parametrize("amp", [1e-310, 1e308, math.nan])
def test_fit_compensation_rejects_gains_that_are_not_finite(sim_motor, amp):
    """A virtual-output amplitude whose gain overflows (ell3 = inf), one
    whose range overflows (ell1 = 0) or a NaN raises ValueError naming the
    gains, with no numpy warning."""
    omega_e = 12.0
    t = np.linspace(0.0, 2.0, 2001)
    y1 = sim_motor.L0 / sim_motor.det_L + np.cos(2.0 * omega_e * t)
    y2 = amp * np.sin(2.0 * omega_e * t)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for a, b in ((y1, y2), (y2, y1)):
            with pytest.raises(ValueError, match="compensation gains"):
                fit_compensation(t, a, b, sim_motor, omega_e)

