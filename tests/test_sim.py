"""Simulation tests: integrator accuracy, profiles, traces, determinism."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hfsense import sim
from hfsense.cli import main
from hfsense.config import load_scenario
from hfsense.controller import ControllerConfig, SensorlessController
from hfsense.estimators import (
    ConventionalEstimator,
    Pll,
    ProposedEstimator,
    rmsd,
)
from hfsense.motor import SIM_MOTOR
from hfsense.signal_ops import TWO_PI, InjectionConfig
from hfsense.sim import (
    ESTIMATOR_KINDS,
    DriveProfile,
    ScenarioConfig,
    TRACE_COLUMNS,
    SimulationDiverged,
    Trace,
    averaging_residual,
    run,
)

from conftest import SCENARIO_DIR
from oracles import (
    drive_angle_integral,
    drive_omega_at,
    driven_step_bound,
    frame_rotate,
    rk4_rotor_reference,
)


def _cfg(**kw):
    base = dict(motor=SIM_MOTOR, injection=InjectionConfig(V_h=1.0, epsilon=1e-3),
                duration=0.2, decimation=5)
    base.update(kw)
    return ScenarioConfig(**base)


def test_rk4_order_on_exponential():
    """With the probe off, zero controller gains and the rotor held at
    theta = 0, the loop integrates di_alpha/dt = -(R_s/L_d) i_alpha; its
    global error against the exponential must shrink 16x per halved step."""
    m = SIM_MOTOR
    zero = ControllerConfig(speed_kp=0.0, speed_ki=0.0, current_kp=0.0,
                            current_ki=0.0, omega_ref=0.0)
    errs = []
    for n in (10, 20, 40):
        cfg = _cfg(drive=DriveProfile("constant", omega=0.0),
                   estimator="none", controller=zero, injection_enabled=False,
                   injection=InjectionConfig(V_h=1.0, epsilon=1e-2),
                   steps_per_period=n, i_alpha0=1.0, decimation=1)
        tr = run(cfg)
        assert np.all(tr.v_alpha == 0.0) and np.all(tr.i_beta == 0.0)
        exact = np.exp(-m.R_s / m.L_d * tr.t)
        errs.append(np.max(np.abs(tr.i_alpha - exact)))
    assert errs[2] < 1e-9
    for coarse, fine in zip(errs, errs[1:]):
        assert 14.0 < coarse / fine < 17.0


def test_rk4_rejects_non_finite():
    """A non-finite initial current is rejected when the scenario is built;
    past that check (set on the frozen config directly), the step loop
    still reports the non-finite state as a divergence."""
    for drive in ({}, {"drive": DriveProfile("constant", omega=2.0)}):
        kw = dict(estimator="none", sensor_mode=True, duration=0.01, **drive)
        for i0 in (math.nan, math.inf):
            with pytest.raises(ValueError, match="i_alpha0 must be finite"):
                _cfg(**kw, i_alpha0=i0)
            cfg = _cfg(**kw)
            object.__setattr__(cfg, "i_alpha0", i0)
            with pytest.raises(SimulationDiverged):
                run(cfg)


def test_divergence_inside_a_step_is_reported():
    # a vanishing inertia blows the speed up within one RK4 step, so the
    # angle reaches math.cos as a non-finite value before the state check
    cfg = _cfg(motor=replace(SIM_MOTOR, J=1e-320), duration=0.05)
    with pytest.raises(SimulationDiverged,
                       match=r"from t=\d+\.\d{6}: math domain error"):
        run(cfg)


def test_noisy_run_passes_python_floats(monkeypatch):
    """Both the estimator that closes the loop (its resident kernel, fed
    one sample per step) and the one that observes (one `step` per block,
    which runs the same kernel) get Python floats: the hook sits on the
    kernel's samples."""
    seen = {}
    for cls in (ProposedEstimator, ConventionalEstimator):
        def recording_kernel(self, samples, *rest, _kernel=cls.kernel,
                             _seen=seen.setdefault(cls.__name__, set())):
            def recorded():
                for sample in samples:
                    _seen.update(map(type, sample[1:]))
                    yield sample
            return _kernel(self, recorded(), *rest)

        monkeypatch.setattr(cls, "kernel", recording_kernel)
    run(_cfg(noise_std=1e-3, duration=0.01))
    assert seen == {"ProposedEstimator": {float},
                    "ConventionalEstimator": {float}}


@pytest.mark.parametrize("kind", ["proposed", "conventional", "both"])
def test_diverged_run_leaves_the_closer_written_back(monkeypatch, kind):
    """A run that diverges in the step after sample K still closes the
    loop-closer's kernel: the estimator then holds, with ==, what it holds
    after a run that ends at sample K.  The closer is the first of the
    kind's pipelines, the new one for "both"."""
    built = []
    build = sim._build_estimators

    def capture(cfg):
        built.append(build(cfg))
        return built[-1]

    monkeypatch.setattr(sim, "_build_estimators", capture)
    cfg = _cfg(estimator=kind, duration=0.05, theta0=0.3, theta0_est=0.3)
    K = 1500
    fresh = build(cfg)
    run(replace(cfg, duration=K * cfg.Ts))
    calls = []
    rk4_step = sim.rk4_step

    def diverging(*args):
        calls.append(None)
        if len(calls) > K:
            raise ValueError("forced")
        return rk4_step(*args)

    monkeypatch.setattr(sim, "rk4_step", diverging)
    # `info` keeps the traceback alive, and with it run's frame and the
    # open generator: only run's own close() writes the state back here
    with pytest.raises(SimulationDiverged, match="forced") as info:
        run(cfg)
    closer = cfg.pipelines[0]
    ended, diverged, start = (b[closer] for b in (built[0], built[1], fresh))
    assert diverged._s == ended._s != start._s
    for name in ("theta_hat", "omega_hat", "yv1", "yv2", "low_confidence"):
        assert getattr(diverged, name, None) == getattr(ended, name, None)


@pytest.mark.parametrize("kind", ESTIMATOR_KINDS)
@pytest.mark.parametrize("steps_per_period", [10 ** 17, 10 ** 30, 10 ** 300])
def test_unallocatable_carrier_tables_are_a_config_error(kind,
                                                         steps_per_period):
    """N = epsilon/Ts per-phase entries that no host can hold (800 PB at
    10**17; more than an index can count beyond) fail at once as
    "scenario too large", for every estimator kind; the huge decimation
    keeps the trace small, so the tables are what fails.  A size a host
    could start to allocate is not tried."""
    cfg = _cfg(estimator=kind, sensor_mode=kind == "none",
               steps_per_period=steps_per_period, decimation=10 ** 40)
    with pytest.raises(ValueError, match="scenario too large: duration = "
                       rf"0.2 s is \d+ steps of {steps_per_period} per "):
        run(cfg)


@pytest.mark.parametrize("mode", ["closed_loop", "driven"])
def test_estimator_columns_equal_a_standalone_replay(mode):
    """Each estimator's columns equal, with ==, one call of a fresh
    estimator over all of the run's measured currents: the observers' (the
    LTI chain in closed loop, both in driven mode), which advance once per
    block, and the loop-closer's, which advances one sample per call.  The
    3001 steps cross two block boundaries, and the decimation does not
    divide the block."""
    kw = dict(estimator="both", duration=0.06, noise_std=1e-3, seed=4,
              decimation=3, theta0=0.4, theta0_est=0.4)
    if mode == "driven":
        kw.update(drive=DriveProfile("constant", omega=2.0))
    cfg = _cfg(**kw)
    assert cfg.n_steps > 2 * sim._BLOCK
    tr = run(cfg)
    # the plant does not depend on the decimation: the currents of every step
    cur = run(replace(cfg, decimation=1), ["i_alpha", "i_beta"])
    noise_a, noise_b = sim._noise(cfg, cfg.n_steps)
    ia = (cur.i_alpha + np.asarray(noise_a)).tolist()
    ib = (cur.i_beta + np.asarray(noise_b)).tolist()
    for prefix, est in sim._build_estimators(cfg).items():
        out = np.zeros((5, len(tr)))
        est.step(0, ia, ib, out, cfg.decimation)
        for col, c in zip(out, sim._ESTIMATE_COLUMNS):
            assert np.array_equal(col, tr.data[f"{prefix}_{c}"]), (prefix, c)
    assert tr.prop_valid[-1] == 1.0 and np.all(tr.conv_valid == 1.0)


def test_observers_advance_once_per_block(monkeypatch):
    """An observing estimator makes one call per block of steps, and none
    when the trace records none of its columns; no Pll is stepped."""
    calls = []
    step = ConventionalEstimator.step

    def counting_step(self, *args):
        calls.append(len(args[1]))
        return step(self, *args)

    def no_pll(self, *args):
        raise AssertionError("sim.run stepped a Pll")

    monkeypatch.setattr(ConventionalEstimator, "step", counting_step)
    monkeypatch.setattr(Pll, "step", no_pll)
    cfg = _cfg(estimator="both", duration=0.06)
    run(cfg)
    n = cfg.n_steps + 1
    assert calls == [sim._BLOCK, sim._BLOCK, n - 2 * sim._BLOCK]
    calls.clear()
    run(cfg, ["t", "prop_theta_hat"])
    assert calls == []


def _assert_column_subsets_match(cfg):
    full = run(cfg)
    for cols in (["conv_omega_hat", "t"], ["prop_valid", "i_beta", "conv_yv2"],
                 [c for c in TRACE_COLUMNS if not c.startswith("conv_")],
                 # theta_wrapped without theta
                 ["theta_wrapped", "omega", "v_beta"],
                 # five state columns stored into the spare row
                 ["i_alpha", "conv_yv1"]):
        sub = run(cfg, cols)
        for c in cols:
            assert np.array_equal(sub.data[c], full.data[c]), (cols, c)


def test_column_subsets_record_the_same_values():
    """A column subset, with some of an estimator's columns only or none,
    records the values of the full trace."""
    _assert_column_subsets_match(_cfg(estimator="both", duration=0.06,
                                      noise_std=1e-3, decimation=3))


def test_driven_column_subsets_record_the_same_values():
    """The same in driven mode, where the observers write every estimator
    column."""
    _assert_column_subsets_match(_cfg(
        estimator="both", duration=0.06, noise_std=1e-3, decimation=3,
        drive=DriveProfile("constant", omega=2.0)))


@pytest.mark.parametrize("mode", ["closed_loop", "driven"])
def test_time_and_wrapped_angle_are_derived_per_row(mode):
    """t and theta_wrapped, filled after the step loop, equal row by row
    k*Ts and Python's th % TWO_PI of the recorded theta, signed zeros
    included.  The angle runs negative, the 3001 steps cross two block
    boundaries and the decimation does not divide the block."""
    kw = dict(estimator="both", duration=0.06, decimation=3, theta0=-0.05,
              theta0_est=-0.05)
    if mode == "driven":
        kw.update(drive=DriveProfile("constant", omega=-2.0))
    cfg = _cfg(**kw)
    assert cfg.n_steps > 2 * sim._BLOCK
    tr = run(cfg)
    assert min(tr.theta) < 0.0
    ks = range(0, cfg.n_steps + 1, cfg.decimation)
    assert len(tr) == len(ks)
    assert tr.t.tolist() == [k * cfg.Ts for k in ks]
    want = [th % TWO_PI for th in tr.theta.tolist()]
    assert [(w, math.copysign(1.0, w)) for w in tr.theta_wrapped.tolist()] \
        == [(w, math.copysign(1.0, w)) for w in want]


def test_run_rejects_unknown_column():
    with pytest.raises(ValueError, match="unknown trace column .i_gamma."):
        run(_cfg(duration=0.01), ["t", "i_gamma"])
    # an empty or repeated selection is rejected before any step
    for cols in ([], ["t", "t"]):
        with pytest.raises(ValueError, match="non-empty and distinct"):
            run(_cfg(duration=0.01), cols)


@pytest.mark.parametrize("load", [0.5, -0.3])
def test_load_torque_reaches_mechanics(load):
    """With the probe off and every controller gain zero, only the
    back-EMF feed-forward acts, the currents stay near zero, and the load
    alone drives J*domega/dt = -T_L - f*omega from rest."""
    m = SIM_MOTOR
    zero = ControllerConfig(speed_kp=0.0, speed_ki=0.0, current_kp=0.0,
                            current_ki=0.0, omega_ref=0.0)
    tr = run(_cfg(estimator="none", sensor_mode=True, injection_enabled=False,
                  controller=zero, load_torque=load, decimation=1),
             ["t", "omega"])
    exact = -(load / m.f) * (1.0 - np.exp(-m.f * tr.t / m.J))
    err = np.max(np.abs(tr.omega - exact)) / np.max(np.abs(exact))
    assert err < 1e-2


@given(t=st.floats(0.0, 12.0))
@settings(max_examples=50)
def test_drive_reversal_angle_is_exact_integral(t):
    d = DriveProfile("reversal", omega=2.0, omega_end=-2.0,
                     t_ramp_start=4.0, t_ramp_end=5.0)
    # independent quadrature of the speed profile
    # put the ramp breakpoints on the grid so the trapezoid rule is exact
    grid = np.unique(np.concatenate([np.linspace(0.0, t, 4001),
                                     [x for x in (4.0, 5.0) if x <= t]]))
    ref = np.trapezoid([d.omega_at(g) for g in grid], grid)
    assert d.angle_integral(t) == pytest.approx(ref, abs=1e-9)


def test_drive_validation():
    with pytest.raises(ValueError):
        DriveProfile("spline")
    # a ramp that ends before it starts, or starts before t = 0, where
    # angle_integral would take the speed to be omega on [0, t_ramp_start]
    # (from t = -1 to 1 at n_p = 3, theta = -3 rad at t = 0, not theta0)
    for t0, t1 in ((2.0, 1.0), (1.0, 1.0), (-1.0, 1.0), (-1e308, 1e308),
                   (-1e308, 0.0)):
        with pytest.raises(ValueError, match=r"reversal needs 0 <= "
                           r"t_ramp_start < t_ramp_end \(got t_ramp_start"):
            DriveProfile("reversal", omega=2.0944, omega_end=-2.0944,
                         t_ramp_start=t0, t_ramp_end=t1)
    # a ramp whose angle omega * t_ramp_start, or its angle at t_ramp_end,
    # overflows
    for t0, t1, omega_end in ((1e308, 1.5e308, -2.0944),
                              (0.0, 1e308, 4.0)):
        with pytest.raises(ValueError, match="t_ramp_start .* t_ramp_end "
                           ".* angle is not a finite number"):
            DriveProfile("reversal", omega=2.0944, omega_end=omega_end,
                         t_ramp_start=t0, t_ramp_end=t1)
    # a constant profile takes no ramp; zero is the unset value
    for key in ("omega_end", "t_ramp_start", "t_ramp_end"):
        with pytest.raises(ValueError, match=f"takes no {key}"):
            DriveProfile("constant", omega=0.5, **{key: 2.0})
        DriveProfile("constant", omega=0.5, **{key: 0.0})


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("key", ["omega", "omega_end", "t_ramp_start",
                                 "t_ramp_end"])
def test_drive_profile_rejects_non_finite(key, value):
    """A NaN or infinite speed or ramp time is rejected when the profile is
    built, naming the field, for either kind."""
    ramp = dict(omega=2.0, omega_end=-2.0, t_ramp_start=1.0, t_ramp_end=2.0)
    for kind, kw in (("reversal", ramp), ("constant", {"omega": 0.5})):
        with pytest.raises(ValueError, match=f"{key} must be finite"):
            DriveProfile(kind, **{**kw, key: value})


@pytest.mark.parametrize("drive,duration", [
    # a ramp that starts after the run ends, at a speed whose finite shaft
    # angle of 1e308 by the end of the run n_p = 6 takes beyond the floats
    (DriveProfile("reversal", omega=1e306, omega_end=-1e306,
                  t_ramp_start=150.0, t_ramp_end=200.0), 100.0),
    (DriveProfile("constant", omega=1e306), 1e3),
], ids=["far_ramp_start", "long_fast_run"])
def test_drive_electrical_angle_must_be_finite(drive, duration):
    """An electrical angle theta0 + n_p*angle that overflows used to reach
    the controller's cos as a bare "math domain error"; it is rejected
    with the scenario, naming the drive's keys."""
    with pytest.raises(ValueError, match="electrical angle .* t_ramp_end"):
        _cfg(drive=drive, duration=duration)


# unequal end speeds, so the angle after the ramp has three nonzero terms
_RAMP = DriveProfile("reversal", omega=2.0944, omega_end=-1.7,
                     t_ramp_start=4.0, t_ramp_end=5.0)


@pytest.mark.parametrize("profile", [DriveProfile("constant", omega=0.5),
                                     _RAMP], ids=["constant", "reversal"])
def test_drive_tables_equal_scalar_oracles(profile):
    """The array forms equal the scalar oracles bit for bit at the ramp
    ends, one ulp either side of each, and on the three RK4 time grids
    k*Ts, k*Ts + Ts/2 and k*Ts + Ts across the whole ramp."""
    Ts = 2e-5
    ends = (0.0, _RAMP.t_ramp_start, _RAMP.t_ramp_end)
    times = [x for e in ends for x in
             (math.nextafter(e, -math.inf), e, math.nextafter(e, math.inf))]
    ks = range(195_000, 255_001)
    grids = ([k * Ts for k in ks], [k * Ts + 0.5 * Ts for k in ks],
             [k * Ts + Ts for k in ks])
    # sim.run builds its grids the same way, with numpy
    k_arr = np.arange(ks.start, ks.stop)
    assert grids[0] == (k_arr * Ts).tolist()
    assert grids[1] == (k_arr * Ts + 0.5 * Ts).tolist()
    assert grids[2] == (k_arr * Ts + Ts).tolist()
    for ts in (times,) + grids:
        arr = np.array(ts)
        assert profile.omega_at(arr).tolist() == \
            [drive_omega_at(profile, x) for x in ts]
        assert profile.angle_integral(arr).tolist() == \
            [drive_angle_integral(profile, x) for x in ts]


def _ramp_across_block_edge_run(monkeypatch):
    """A decimation-1 driven run over three blocks, the last one short, with
    a short reversal ramp across a block edge; returns the profile, the
    config, the trace and each call's arguments of the step-map builder."""
    Ts = 2e-5
    edge = sim._BLOCK * Ts
    d = DriveProfile("reversal", omega=2.0, omega_end=-1.5,
                     t_ramp_start=edge - 4e-4, t_ramp_end=edge + 6e-4)
    n = 2 * sim._BLOCK + 700
    cfg = _cfg(drive=d, estimator="none", decimation=1,
               duration=n * Ts, theta0=0.7)
    assert cfg.Ts == Ts and cfg.n_steps == n
    handed = []
    build = sim.driven_step_tables

    def recording(motor, h, *tables):
        handed.append(tables)
        return build(motor, h, *tables)

    monkeypatch.setattr(sim, "driven_step_tables", recording)
    return d, cfg, run(cfg), handed


def test_driven_run_reads_drive_tables_bit_for_bit(monkeypatch):
    """The recorded angle and speed, and the (theta, omega) arrays at
    k*Ts, k*Ts + Ts/2 and k*Ts + Ts handed to the step-map builder, equal
    th0 + n_p*angle and omega of the scalar oracles; the probe arrays
    handed with them are the probe tables at the same times."""
    d, cfg, tr, handed = _ramp_across_block_edge_run(monkeypatch)
    Ts, n = cfg.Ts, cfg.n_steps

    def prescribed(t):
        return (0.7 + SIM_MOTOR.n_p * drive_angle_integral(d, t),
                drive_omega_at(d, t))

    assert tr.t.tolist() == [k * Ts for k in range(n + 1)]
    assert list(zip(tr.theta.tolist(), tr.omega.tolist())) == \
        [prescribed(k * Ts) for k in range(n + 1)]
    # one call per block, each covering its steps; the last step has no
    # step after it but shares its block's tables
    assert [len(x[0]) for x in handed] == [sim._BLOCK, sim._BLOCK, 701]
    tables = [np.concatenate(x).tolist() for x in zip(*handed)]
    for g, grid in enumerate((0.0, 0.5 * Ts, Ts)):
        assert list(zip(tables[2 * g], tables[2 * g + 1])) == \
            [prescribed(k * Ts + grid) for k in range(n + 1)]
    probe = sim._probe_tables(cfg)
    N = cfg.steps_per_period
    assert tables[6:] == [[p[k % N] for k in range(n + 1)] for p in probe]
    # the end table is the start table shifted by one phase
    at_step, _, at_end = probe
    assert at_end == [at_step[(j + 1) % N] for j in range(N)]
    # the ramp is resolved on the grid, on both sides of the block edge
    assert len(set(tr.omega.tolist())) > 40


def test_driven_run_steps_the_currents_as_the_oracle(monkeypatch):
    """Each step of a driven run, from its recorded currents and the
    control voltage the controller returned, agrees with four
    `rotor_derivative` calls composed as RK4 on the (d, q) state at the
    prescribed angle and speed, plus the end rotation, within the rounding
    bound of the step-map test."""
    volts = []
    lfv = SensorlessController.low_frequency_voltage

    def recording(self, *args):
        volts.append(lfv(self, *args))
        return volts[-1]

    monkeypatch.setattr(SensorlessController, "low_frequency_voltage",
                        recording)
    d, cfg, tr, handed = _ramp_across_block_edge_run(monkeypatch)
    Ts, n = cfg.Ts, cfg.n_steps
    th_t, om_t, th_m, om_m, th_e, om_e, p_t, p_m, p_e = \
        (np.concatenate(x).tolist() for x in zip(*handed))
    i = list(zip(tr.i_alpha.tolist(), tr.i_beta.tolist()))
    assert len(volts) == n + 1 and max(map(abs, tr.i_alpha)) > 0.01
    for k in range(n):
        vca, vcb = volts[k]
        assert tr.v_alpha[k] == vca + p_t[k] and tr.v_beta[k] == vcb
        u = (vca + p_t[k], vca + p_m[k], vca + p_e[k], vcb)
        want = rk4_rotor_reference(
            SIM_MOTOR, Ts, *frame_rotate(th_t[k], *i[k]), th_t[k], om_t[k],
            *u, 0.0, (th_m[k], om_m[k], th_e[k], om_e[k]))[:2]
        bound = driven_step_bound(SIM_MOTOR, Ts, i[k], want[:2], u,
                                  (om_t[k], om_m[k], om_e[k]))
        assert max(abs(a - b) for a, b in zip(i[k + 1], want)) <= bound, k


def test_closed_loop_run_steps_the_state_as_the_oracle(monkeypatch):
    """Each step of a closed-loop run, from the recorded control voltage
    and the probe tables, equals four `rotor_derivative` calls composed as
    RK4 on the (d, q) state plus the end rotation, with ==: theta, omega,
    i_alpha and i_beta row by row.  The oracle converts the configured
    initial currents to (d, q) once and carries its own (d, q) state, so
    this pins how `sim.run` converts them and carries that state and the
    cos and sin of theta between steps."""
    volts = []
    lfv = SensorlessController.low_frequency_voltage

    def recording(self, *args):
        volts.append(lfv(self, *args))
        return volts[-1]

    monkeypatch.setattr(SensorlessController, "low_frequency_voltage",
                        recording)
    cfg = _cfg(sensor_mode=True, estimator="none", decimation=1,
               duration=0.05, theta0=2.3, omega0=0.4, i_alpha0=0.7,
               i_beta0=-1.1, load_torque=0.5)
    tr = run(cfg)
    Ts, n = cfg.Ts, cfg.n_steps
    at_step, at_mid, _ = sim._probe_tables(cfg)
    N = len(at_step)
    assert len(volts) == n + 1 and max(map(abs, tr.i_alpha)) > 0.5
    th, om = cfg.theta0, cfg.omega0
    i_d, i_q = frame_rotate(th, cfg.i_alpha0, cfg.i_beta0)
    rows = [(th, om, cfg.i_alpha0, cfg.i_beta0)]
    for k in range(n):
        vca, vcb = volts[k]
        va = vca + at_step[k % N]
        assert tr.v_alpha[k] == va and tr.v_beta[k] == vcb, k
        ia, ib, i_d, i_q, th, om = rk4_rotor_reference(
            SIM_MOTOR, Ts, i_d, i_q, th, om, va, vca + at_mid[k % N],
            vca + at_step[(k + 1) % N], vcb, cfg.load_torque)
        rows.append((th, om, ia, ib))
    assert list(zip(tr.theta.tolist(), tr.omega.tolist(),
                    tr.i_alpha.tolist(), tr.i_beta.tolist())) == rows


@pytest.mark.parametrize("profile", [DriveProfile("constant", omega=2.0),
                                     DriveProfile("reversal", omega=2.0,
                                                  omega_end=-2.0,
                                                  t_ramp_start=0.01,
                                                  t_ramp_end=0.05)],
                         ids=["constant", "reversal"])
def test_drive_profile_calls_grow_with_blocks(profile, monkeypatch):
    """A driven run of n steps evaluates the profile a fixed number of times
    per block of sim._BLOCK steps, not per step."""
    calls = []
    for name in ("omega_at", "angle_integral"):
        def counted(self, t, _f=getattr(DriveProfile, name)):
            calls.append(len(t))
            return _f(self, t)
        monkeypatch.setattr(DriveProfile, name, counted)
    Ts = 2e-5
    per_block = set()
    for n in (1023, 1024, 2047, 2048, 5000):
        # built first: the scenario's own check evaluates the profile once
        cfg = _cfg(drive=profile, estimator="none", duration=n * Ts,
                   decimation=50)
        calls.clear()
        run(cfg, ["t"])
        blocks = -(-(n + 1) // sim._BLOCK)
        per_block.add(len(calls) / blocks)
        assert sum(calls) == len(calls) // blocks * (n + 1)
    assert len(per_block) == 1 and per_block.pop() <= 9


def test_scenario_validation():
    with pytest.raises(ValueError):
        _cfg(estimator="kalman")
    with pytest.raises(ValueError):
        _cfg(steps_per_period=1)
    with pytest.raises(ValueError):
        _cfg(estimator="none")  # closed loop without sensor
    with pytest.raises(ValueError):
        _cfg(duration=1e-3)  # shorter than the operator warm-up


def test_scenario_derived_quantities():
    cfg = _cfg(steps_per_period=50)
    assert cfg.Ts == pytest.approx(2e-5)
    assert cfg.warmup == pytest.approx(2e-3)
    assert cfg.n_steps == 10000


def test_trace_csv_round_trip(tmp_path):
    """`hfsense run` writes the full schema, and every value reads back
    bit-equal to an in-process run of the same scenario."""
    scenario = tmp_path / "short.scenario"
    scenario.write_text((SCENARIO_DIR / "lowspeed.scenario").read_text()
                        .replace("duration = 10.0", "duration = 0.05"))
    out = tmp_path / "out"
    assert main(["--config", str(scenario), "--out", str(out), "run"]) == 0
    path = out / "trace.csv"
    with open(path) as fh:
        assert fh.readline().strip().split(",") == TRACE_COLUMNS
    back = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    tr = run(load_scenario(scenario))
    for k, c in enumerate(TRACE_COLUMNS):
        assert np.array_equal(back[:, k], tr.data[c]), c


def test_trace_requires_all_columns():
    with pytest.raises(ValueError):
        Trace({"t": np.zeros(3)})


def test_closed_loop_runs_and_tracks(sim_motor):
    cfg = _cfg(estimator="both", duration=1.0, load_torque=0.1)
    tr = run(cfg)
    assert np.all(np.isfinite(tr.i_alpha))
    # the loop pulls the speed toward the 0.5 rad/s reference
    assert tr.omega[-1] > 0.2
    # estimates stay on the true branch
    err = rmsd(tr.t, tr.theta, tr.prop_theta_hat, 0.5, 1.0)
    assert err < 0.2


def test_sensor_mode_isolates_estimator():
    cfg = _cfg(estimator="none", sensor_mode=True, duration=0.05)
    tr = run(cfg)
    assert np.all(tr.prop_valid == 0.0)
    assert rmsd(tr.t, tr.theta, tr.theta, 0.01, 0.05) == 0.0


def test_driven_speed_follows_profile():
    cfg = _cfg(estimator="proposed", duration=0.3,
               drive=DriveProfile("constant", omega=2.0), theta0=0.7)
    tr = run(cfg)
    expect = 0.7 + SIM_MOTOR.n_p * 2.0 * tr.t
    assert np.allclose(tr.theta, expect, atol=1e-12)
    assert np.array_equal(tr.theta_wrapped, tr.theta % (2.0 * math.pi))
    assert np.all((0.0 <= tr.theta_wrapped) & (tr.theta_wrapped < 2.0 * math.pi))
    assert np.all(tr.omega == 2.0)


def test_determinism_short():
    cfg = _cfg(estimator="both", duration=0.1, noise_std=1e-3, seed=42)
    a = run(cfg)
    b = run(cfg)
    for c in a.columns:
        assert np.array_equal(a.data[c], b.data[c]), c


def test_noise_is_seeded():
    a = run(_cfg(duration=0.05, noise_std=1e-3, seed=1))
    b = run(_cfg(duration=0.05, noise_std=1e-3, seed=2))
    assert not np.array_equal(a.i_alpha, b.i_alpha) or \
        not np.array_equal(a.prop_theta_hat, b.prop_theta_hat)


def test_divergence_detection():
    with pytest.raises(SimulationDiverged):
        run(_cfg(duration=0.1, divergence_limit=1e-6))


def test_averaging_residual_requires_sensor_mode():
    # checked before the runs drop the estimator, which a closed loop
    # outside sensor mode cannot do
    with pytest.raises(ValueError, match="paired runs need sensor mode"):
        averaging_residual(_cfg(duration=0.05), 0.01, 0.05)


# inverted, past the end, and between two samples (Ts = 2e-5 s)
@pytest.mark.parametrize("t1,t2", [(0.04, 0.02), (0.01, 0.06),
                                   (0.010001, 0.010009)])
def test_averaging_residual_checks_window_before_running(t1, t2, monkeypatch):
    def no_run(cfg, columns=None):
        raise AssertionError("simulated before checking the window")

    monkeypatch.setattr(sim, "run", no_run)
    cfg = _cfg(estimator="none", sensor_mode=True, duration=0.05)
    with pytest.raises(ValueError, match="window"):
        averaging_residual(cfg, t1, t2)


def test_averaging_residual_records_only_what_it_reads(monkeypatch):
    """The probe-on run records the time, angle and currents the ripple
    model and the residual read; the probe-off run only its currents."""
    asked = []

    def recording_run(cfg, columns=None):
        asked.append((cfg.injection_enabled, list(columns)))
        return run(cfg, columns)

    monkeypatch.setattr(sim, "run", recording_run)
    cfg = _cfg(estimator="none", sensor_mode=True, duration=0.02)
    averaging_residual(cfg, 0.01, 0.02)
    assert asked == [(True, ["t", "theta", "i_alpha", "i_beta"]),
                     (False, ["i_alpha", "i_beta"])]


def test_averaging_residual_is_small():
    cfg = _cfg(estimator="none", sensor_mode=True, duration=0.3)
    t, r, norm = averaging_residual(cfg, 0.1, 0.3)
    # the remainder is O(eps^2); the probe ripple itself is O(eps)
    ripple = cfg.injection.epsilon * SIM_MOTOR.L0 / SIM_MOTOR.det_L \
        * cfg.injection.V_h / (2.0 * math.pi)
    assert norm < 0.1 * ripple
    assert r.shape == (len(t), 2)
