"""Position estimators and their supporting pieces.

Two pipelines extract the rotor angle from the injection ripple in the
measured currents:

* `ProposedEstimator` - delay minus weighted hold (a high-pass by
  construction) followed by a gradient LTV demodulator per axis.  The
  demodulator takes one sampled gradient step per sample, linear in its
  state and input, so a sample costs one inline regressor step plus one
  update x+ = a_j*x + c_j*yf per axis with (a_j, c_j) tabulated per carrier
  phase (`_phase_table`).  A gain is accepted only where the update
  contracts over a probe period (`check_contraction`, which both forms
  run on their tables when they are built).
* `ConventionalEstimator` - LTI high-pass at omega_h, demodulation by
  sin(omega_h t + phi), LTI low-pass, then rescaling.  Its one corner is
  the low pass's lambda_ell, taken as given; `sim.ScenarioConfig.corner` is
  the one place that resolves its default.  A filter whose coefficients
  fail their checks at Ts raises ValueError naming the keys that set it.

`sim.ScenarioConfig` builds the estimators of its run, so each of these
checks has one definition, here, and still rejects a scenario before it
runs.

`BlockFormEstimator` re-expresses the proposed pipeline in the conventional
HPF/demod/LPF block layout (demod phase phi_p + 3*pi/2, LPF replaced by the
scaled LTV flow); it exists to verify numerically that the two forms
coincide.  It derives only its own per-phase table and its own read-out
constant (state per unit of virtual output); its `step` and `kernel` are
`ProposedEstimator`'s, the same functions, so the new pipeline has one
kernel and one block path.

All three estimators produce the angle modulo pi from the centred saliency
locus, with the branch resolved by continuity with the previous estimate.
Magnetic-polarity disambiguation is out of scope.

Each estimator's `kernel(samples, out=None, dec=1, per_sample=True)` is
its one kernel: a generator with one loop body over (k, i_alpha, i_beta)
samples, time k*Ts.  It takes the state into locals when it starts, keeps
it there over the samples, and writes it back when the samples end or the
generator is closed.  It looks up its per-phase constants at carrier phase
k mod N, N being the samples per probe period it is built with.  Built with
`pll_gains`, it runs the type-2 PLL inline on every valid sample;
`Pll.step` is that loop's oracle.  The estimator that closes the loop runs
one kernel generator for the whole run, fed one sample per step, and it
yields each sample's estimate.  The block entry point `step(k0, i_alpha,
i_beta, out=None, dec=1)` runs a run of samples, sample j of the two
sequences being sample k0 + j, without yielding; the estimators that only
observe advance by it once per block.  An estimator reports through its
`out` rows, the loop-closer's yields and the theta_hat, omega_hat, yv1 and
yv2 that each kernel writes back; the new pipeline's `step` also returns
its run's last (theta_hat, yv1, yv2), or None while its regressor fills
its window, and the LTI chain's returns None.  A numpy run reaches a
kernel as Python floats.  The LTI chain's `step` runs its kernel.  The new
pipeline's `step` runs the warm-up samples on its kernel;
if at least m = 2N samples (the hold window) follow, the run reads as
float64 arrays and each `out` row is a float64 numpy array or memoryview,
they run as array operations with the kernel's floats, all but the
demodulator recurrences and the PLL (`ProposedEstimator._warm_block`), in
pieces that end at a rebase of the regressor's sums or after `_PIECE`
samples.  A shorter run, or one with `out` rows of another kind (lists),
steps on the kernel.  The biquad and the low passes of the LTI chain feed
back on their own output (IIR), so they have no such form.

The kernels are fused: the delay/hold regressor, filters, centre and
radius check, angle recovery and PLL run inline on float state.  Each
constructor builds its kernel's constants and initial state itself from
N: Ts = epsilon/N from `signal_ops.sample_period`, the filter coefficients,
the regressor's ring lists (delay N samples, hold window 2N), the PLL's
gains and start from `_pll_parts`, and its read-out constant, which must
be a positive finite float (`_read_out`).  The kernels keep the
arithmetic and operation order of the standalone operators, which are the
oracles the kernels are tested against bit for bit: `Pll`, which no
estimator builds, here, and `Regressor`, `HighPass2`, `LowPass1`,
`locus_angle` and `virtual_output_to_angle` in tests/oracles.py.
"""

from __future__ import annotations

import math

import numpy as np

from .motor import MotorParams, virtual_output
from .signal_ops import (
    TWO_PI,
    InjectionConfig,
    highpass_coefficients,
    keyed_coefficients,
    lowpass_coefficients,
    probe_signal,
    sample_period,
)


# x + _RINT - _RINT rounds a float x to the nearest integer, ties to even,
# as round(x) does, for |x| <= 2**51: the sum has no bits below its units
# place.  The kernels round the branch count this way, as a float, which
# saves round()'s call and int; a NaN stays NaN where round() raised.
_RINT = 1.5 * 2.0 ** 52
# `type(x) is _ndarray`: the cheapest test for a numpy run (`_run`)
_ndarray = np.ndarray


def wrap_mod_pi(err):
    """Wrap an angle difference into (-pi/2, pi/2] (mod-pi identification)."""
    return -((-np.asarray(err) + 0.5 * math.pi) % math.pi - 0.5 * math.pi)


def rmsd(t, theta_true, theta_hat, t1: float, t2: float) -> float:
    """Root-mean-square deviation of the angle estimate over [t1, t2].

    The per-sample error is wrapped modulo pi before squaring; the mean is a
    trapezoidal quadrature over the window.
    """
    t = np.asarray(t)
    m = window_mask(t, t1, t2)
    e = wrap_mod_pi(np.asarray(theta_hat)[m] - np.asarray(theta_true)[m])
    return float(math.sqrt(np.trapezoid(e * e, t[m]) / (t[m][-1] - t[m][0])))


def window_mask(t, t1: float, t2: float) -> np.ndarray:
    """Mask of the samples of t in [t1, t2]; ValueError unless t2 > t1, the
    window lies within the trace and it holds at least 2 samples."""
    t = np.asarray(t)
    if t2 <= t1:
        raise ValueError(f"window [{t1:g}, {t2:g}] needs t2 > t1")
    if t1 < t[0] - 1e-12 or t2 > t[-1] + 1e-12:
        raise ValueError("window outside the trace")
    m = (t >= t1) & (t <= t2)
    if np.count_nonzero(m) < 2:
        raise ValueError(f"window [{t1:g}, {t2:g}] holds fewer than 2 samples")
    return m


# steps between exact rebuilds (math.fsum) of the regressor's running sums,
# which bounds their floating-point drift on long runs
_REBASE_EVERY = 1 << 16
# the most samples in one array pass of a block run (`ProposedEstimator.step`)
_PIECE = 1 << 14


class ProposedEstimator:
    """Delay/hold regressor plus per-axis gradient flows (the new pipeline).

    The delay is exactly one probe period (d = epsilon) and the hold window is
    2d.  Each axis demodulates its regressor output yf with a sampled
    gradient step of the scalar LTV flow dx/dt = -gamma*S^2(t)*x +
    gamma*S(t)*yf and reads x/epsilon; under persistent excitation of S the
    state contracts exponentially toward the coefficient of S in yf.
    Per-axis adaptation gains may differ; each must make the sampled flow
    contract over a probe period (`check_contraction`, on the phase
    table), or the constructor raises ValueError naming it.
    Compensation gains (ell1, ell2, ell3) rescale the raw virtual-output
    estimate before the angle recovery; (1, 0, 1) is the identity.
    """

    def __init__(self, params: MotorParams, cfg: InjectionConfig, N: int,
                 gamma_alpha: float = 1e4, gamma_beta: float = 1e4,
                 ell: tuple[float, float, float] = (1.0, 0.0, 1.0),
                 theta0: float = 0.0,
                 pll_gains: tuple[float, float] | None = None):
        if ell[0] == 0.0 or ell[2] == 0.0:
            raise ValueError("ell1 and ell3 must be nonzero")
        self.cfg = cfg
        self.Ts = Ts = sample_period(cfg, N)
        self.N = N
        # the regressor's delay is one probe period, N samples, and its
        # hold window m = 2N
        m = 2 * N
        tables = self._phase_table(gamma_alpha), self._phase_table(gamma_beta)
        for key, gamma, table in zip(("gamma_alpha", "gamma_beta"),
                                     (gamma_alpha, gamma_beta), tables):
            check_contraction(key, gamma, table)
        # per phase j: (a, c) of the alpha flow, then (a, c) of the beta flow
        self._table = [(*ta, *tb) for ta, tb in zip(*tables)]
        # the same, as rows a_alpha, c_alpha, a_beta, c_beta over j, for
        # block runs
        self._tab = np.array(self._table).T.copy()
        unit = _read_out(lambda: self._state_per_output(params))
        # seed the demodulators at the assumed initial angle so the loop
        # does not open on a transient pointing nowhere
        y10, y20 = virtual_output(params, theta0)
        self.theta_hat = theta0
        self.yv1 = y10
        self.yv2 = y20
        self.omega_hat = 0.0
        pll_k, pll_s = _pll_parts(pll_gains, params, Ts, theta0)
        # constants of one step, unpacked at once in the kernel: the
        # regressor's ring lists of the last m inputs and increments per
        # axis (unwritten slots hold zeros: subtracting them changes no
        # sum), the locus centre (L0/(Ld Lq), 0), the radius within which a
        # point carries no angle, the phase table and the PLL's
        self._k = (N, m, _REBASE_EVERY, [0.0] * m, [0.0] * m, [0.0] * m,
                   [0.0] * m, unit, *ell, params.L0 / params.det_L,
                   0.1 * abs(params.L1) / params.det_L, params.L1,
                   self._table, *pll_k)
        # regressor state (ring index, running sums of the increments,
        # samples until the first output, steps until the sums' rebuild),
        # the demodulator state (x_alpha, x_beta), then the PLL's
        self._s = (0, 0.0, 0.0, m + 1, _REBASE_EVERY,
                   unit * y10, unit * y20, *pll_s)

    def _state_per_output(self, params: MotorParams) -> float:
        """Demodulator state per unit of virtual output: x/epsilon reads yv."""
        return self.cfg.epsilon

    def _phase_table(self, gamma: float) -> list[tuple[float, float]]:
        """(a, c) per phase j with x+ = a*x + c*yf.

        The sampled gradient step x+ = x + Ts*gamma*S_j*(yf - S_j*x), with
        S_j = S(j*Ts) the probe reference at the sample and Ts = epsilon/N.
        With Ts dividing epsilon it depends on the sample index k only
        through the carrier phase j = k mod N, so a = 1 - Ts*gamma*S_j^2
        and c = Ts*gamma*S_j are tabulated once.
        """
        cfg, Ts = self.cfg, self.Ts
        g = Ts * gamma
        S = [probe_signal(cfg, j * Ts) for j in range(self.N)]
        return [(1.0 - g * s * s, g * s) for s in S]

    def step(self, k0: int, i_alpha, i_beta, out=None, dec: int = 1):
        """Advance over a run of samples; sample j of i_alpha, i_beta is k0 + j.

        Sequences of unequal lengths raise ValueError before any state
        changes; an empty run changes nothing.  Returns what the run's last
        sample gives: (theta_hat, yv1, yv2), or None while the regressor is
        still filling its window.  `out` and `dec` as for `kernel`.

        A run shorter than m = 2N samples steps on the kernel, a numpy run
        as Python floats.  A longer one whose sequences read as float64
        arrays steps its warm-up samples on the kernel, and if at least m
        samples follow, those run as arrays (`_warm_block`, in pieces that
        end at a rebase of the regressor's sums or after `_PIECE` samples),
        all but the demodulator recurrences and the PLL, with the kernel's
        floats; a piece whose result the arrays cannot vouch for, or whose
        `out` rows are not float64 numpy arrays or memoryviews, steps on
        the kernel.
        """
        n, m = len(i_alpha), self._k[1]
        if n >= m and len(i_beta) == n:
            ia, ib = np.asarray(i_alpha), np.asarray(i_beta)
            if ia.dtype == ib.dtype == np.float64 and ia.ndim == ib.ndim == 1:
                # the kernel's samples: the warm-up, or the whole run
                cold = self._s[3]
                a = cold if n - cold >= m else n
                if a:
                    _drain(self, k0, ia[:a], ib[:a], out, dec)
                # a piece ends at the run's end, after _PIECE samples (which
                # bounds the arrays' memory) or at the regressor's next
                # rebase, whichever comes first
                while a < n:
                    b = min(n, a + _PIECE, a + self._s[4])
                    # a piece steps on the kernel, from its state unchanged,
                    # where the arrays cannot vouch for it; a NaN angle stays
                    # NaN, which no branch count matches, so once the angle
                    # is NaN no arrays are built
                    if (self.theta_hat != self.theta_hat
                            or not self._warm_block(k0 + a, ia[a:b], ib[a:b],
                                                    out, dec)):
                        _drain(self, k0 + a, ia[a:b], ib[a:b], out, dec)
                    a = b
                i_alpha = i_beta = ()  # every sample has stepped
        _drain(self, k0, i_alpha, i_beta, out, dec)
        return None if self._s[3] else (self.theta_hat, self.yv1, self.yv2)

    def _warm_block(self, k0: int, ia: np.ndarray, ib: np.ndarray, out,
                    dec: int) -> bool:
        """A warm piece of samples as array operations, all but the
        demodulator recurrences and the PLL, with the kernel's floats; or
        False, with nothing changed, where the kernel must step it.  The
        regressor's sums rebase at most at the piece's last sample, as
        `step` cuts its pieces.

        The delay/hold regressor has finite memory, so its outputs are
        array operations on the last m inputs and increments (the rings,
        in time order) and the piece's: each running sum is the kernel's
        (s - leaving) + entering, one add.accumulate, and a rebase at the
        last sample takes math.fsum of the window.  Each axis's
        demodulator is a recurrence, one Python loop.  The rest is static
        maps in the kernel's operation order, which numpy rounds as Python
        floats do, but for math.hypot near r_min and math.atan2, whose last
        bits numpy's do not match.  The branch counts are guessed by
        unwrapping, then checked against the kernel's own rounding, which
        makes the angles the kernel's.

        False where the arrays cannot vouch for the kernel's result: a
        rebase sum that raises (the kernel raises at that sample), a branch
        count off its guess (a NaN, a step on a pi/2 edge), or `out` rows
        that are not float64 arrays or memoryviews, or lie outside them.
        """
        (N, m, rebase, ua, ub, inc_a, inc_b, unit, ell1, ell2, ell3,
         centre, r_min, L1, _, pll, kp, ki, n_p, Ts) = self._k
        i, sa, sb, _, rebase_in, xa, xb, eta1, eta2 = self._s
        n = len(ia)
        # rows r0, r0 + 1, ... hold samples j0, j0 + dec, ... of the run
        j0 = -k0 % dec
        r0 = (k0 + j0) // dec
        r1 = r0 + len(range(j0, n, dec))
        rows = _row_targets(out, r0, r1)
        if rows is None:
            return False
        with np.errstate(all="ignore"):
            # inputs and increments of the last m samples, then the run's
            u = np.empty((2, m + n))
            u[0, :m] = ua[i:] + ua[:i]
            u[1, :m] = ub[i:] + ub[:i]
            u[0, m:] = ia
            u[1, m:] = ib
            inc = np.empty((2, m + n))
            inc[0, :m] = inc_a[i:] + inc_a[:i]
            inc[1, :m] = inc_b[i:] + inc_b[:i]
            inc[:, m:] = 0.5 * (u[:, m - 1:-1] + u[:, m:])
            # the sum after sample j; sample j's increment leaves the window
            # at sample j + m
            z = np.empty((2, 2 * n + 1))
            z[:, 0] = sa, sb
            # not np.negative(x, out=z[:, 1::2]): numpy 2.4.6 reads the
            # wrong element of x's second row when x is (2, 1) with its
            # rows 8 floats apart
            z[:, 1::2] = -inc[:, :n]
            z[:, 2::2] = inc[:, m:]
            s = np.add.accumulate(z, axis=1)[:, 2::2]
            if n == rebase_in:  # the last sample rebuilds the sums
                try:
                    s[:, -1] = [math.fsum(w.tolist()) for w in inc[:, n:]]
                except (ValueError, OverflowError):
                    return False
            yf = u[:, m - N:m - N + n] - s / m
            # the phase table repeated over the run from phase k0 mod N: a_j
            # of each axis as a list, c_j*yf of each as an array
            ph, reps = k0 % N, (k0 % N + n) // N + 1
            a_al, a_be = ((a * reps)[ph:ph + n]
                          for a in self._tab[::2].tolist())
            p_al, p_be = np.tile(self._tab[1::2], reps)[:, ph:ph + n] * yf
            x_al = _recurrence(xa, a_al, p_al)
            x_be = _recurrence(xb, a_be, p_be)
            y1 = ell1 * (x_al / unit) + ell2
            y2 = ell3 * (x_be / unit)
            dx = y1 - centre
            # a point within r_min of the centre holds the angle; np.hypot
            # and math.hypot may part by an ulp or two, so math.hypot
            # decides the points within 8 ulps of r_min
            h = np.hypot(dx, y2)
            low = h <= r_min
            near = np.flatnonzero(abs(h - r_min) <= 8.0 * math.ulp(r_min))
            low[near] = [math.hypot(dx[q], y2[q]) <= r_min for q in near]
            v = np.flatnonzero(~low)
            if L1 > 0.0:
                ys, xs = -y2[v], -dx[v]
            else:
                ys, xs = y2[v], dx[v]
            raw = 0.5 * np.fromiter(map(math.atan2, ys.tolist(), xs.tolist()),
                                    np.float64, len(v))
            # the branch count of each valid sample: the kernel's of the
            # first, then a guess by unwrapping; the kernel's rounding of
            # each from the previous angle must give the guess back
            pi, rint, th0 = math.pi, _RINT, self.theta_hat
            cnt = np.empty(len(v))
            cnt[:1] = (th0 - raw[:1]) / pi + rint - rint
            cnt[1:] = np.rint((raw[:-1] - raw[1:]) / pi)
            np.cumsum(cnt, out=cnt)
            th = np.concatenate(([th0], raw + pi * cnt))
            if not np.array_equal((th[:-1] - raw) / pi + rint - rint, cnt):
                return False
            # a held sample keeps the last valid sample's angle
            theta = th[np.cumsum(~low)]
            if not pll:
                om = np.full(n, self.omega_hat)
            else:
                # Pll.step inline, in its operation order
                wps = []
                keep = wps.append
                for t in theta.tolist():
                    e = t - eta1
                    wp = kp * e + ki * eta2
                    eta1 += Ts * wp
                    eta2 += Ts * e
                    keep(wp)
                om = np.array(wps) / n_p
        for o, col in zip(rows, (theta, om, y1, y2, np.ones(n))):
            o[r0:r1] = col[j0::dec]
        # the rings of the last m samples, from ring index j on
        j = (i + n) % m
        for ring, row in ((ua, u[0]), (ub, u[1]), (inc_a, inc[0]),
                          (inc_b, inc[1])):
            w = row[n:].tolist()
            ring[:] = w[m - j:] + w[:m - j]
        sa, sb = s[:, -1].tolist()
        self._s = (j, sa, sb, 0, rebase_in - n or rebase,
                   x_al[-1].item(), x_be[-1].item(), eta1, eta2)
        self.theta_hat, self.omega_hat = theta[-1].item(), om[-1].item()
        self.yv1, self.yv2 = y1[-1].item(), y2[-1].item()
        return True

    def kernel(self, samples, out=None, dec: int = 1, per_sample: bool = True):
        """The one kernel: a generator over the (k, i_alpha, i_beta) samples.

        It takes the state into locals when it starts and writes it back,
        with theta_hat, omega_hat, yv1 and yv2, when the samples end or the
        generator is closed; until then the attributes hold the state it
        started from, so one estimator runs one kernel generator at a time.
        With `per_sample` it yields each sample's (theta_hat, omega_hat),
        or None while the regressor is still filling its window; without
        it, it yields nothing.  With `out` = five writable sequences, it
        writes theta_hat, omega_hat, yv1, yv2 and the valid flag (0.0 or
        1.0) of each sample k with k % dec == 0 at row k // dec.  The PLL,
        if any, steps on every valid sample.
        """
        (N, m, rebase, ua, ub, inc_a, inc_b, unit, ell1, ell2, ell3,
         centre, r_min, L1, table, pll, kp, ki, n_p, Ts) = self._k
        i, sa, sb, cold, rebase_in, xa, xb, eta1, eta2 = self._s
        theta, y1, y2, om = self.theta_hat, self.yv1, self.yv2, self.omega_hat
        if out is not None:
            o_th, o_om, o_y1, o_y2, o_v = out
        hypot, atan2, pi, rint = math.hypot, math.atan2, math.pi, _RINT
        first = m + 1
        try:
            for k, ia, ib in samples:
                # this sample's phase constants; read first, so that a k
                # that is not an integer raises TypeError before this
                # sample changes any state
                aa, ca, ab, cb = table[k % N]
                if cold == first:  # first sample: no increment yet
                    cold = m
                    ua[0] = ia
                    ub[0] = ib
                    i = 1
                else:
                    # delay minus hold: the regressor oracle's step
                    # inline, in its operation order
                    ja = 0.5 * (ua[i - 1] + ia)  # trapezoid, Ts factored out
                    jb = 0.5 * (ub[i - 1] + ib)
                    sa = sa - inc_a[i] + ja
                    sb = sb - inc_b[i] + jb
                    inc_a[i] = ja
                    inc_b[i] = jb
                    # negative indices wrap: the input from N samples ago
                    da = ua[i - N]
                    db = ub[i - N]
                    ua[i] = ia
                    ub[i] = ib
                    i += 1
                    if i == m:
                        i = 0
                    rebase_in -= 1
                    if not rebase_in:
                        rebase_in = rebase
                        sa = math.fsum(inc_a)
                        sb = math.fsum(inc_b)
                    if cold:
                        cold -= 1
                    if not cold:
                        yfa = da - sa / m
                        yfb = db - sb / m
                        xa = aa * xa + ca * yfa
                        xb = ab * xb + cb * yfb
                        y1 = ell1 * (xa / unit) + ell2
                        y2 = ell3 * (xb / unit)
                        dx = y1 - centre
                        # a point within r_min of the centre holds the angle
                        if not hypot(dx, y2) <= r_min:
                            # the angle recovery, inline
                            if L1 > 0.0:
                                raw = 0.5 * atan2(-y2, -dx)
                            else:
                                raw = 0.5 * atan2(y2, dx)
                            theta = raw + pi * ((theta - raw) / pi
                                                + rint - rint)
                        if pll:
                            # Pll.step inline, in its operation order
                            e = theta - eta1
                            wp = kp * e + ki * eta2
                            eta1 += Ts * wp
                            eta2 += Ts * e
                            om = wp / n_p
                if out is not None and not k % dec:
                    r = k // dec
                    o_th[r] = theta
                    o_om[r] = om
                    o_y1[r] = y1
                    o_y2[r] = y2
                    o_v[r] = 0.0 if cold else 1.0
                if per_sample:
                    yield None if cold else (theta, om)
        finally:
            self._s = (i, sa, sb, cold, rebase_in, xa, xb, eta1, eta2)
            self.theta_hat, self.yv1, self.yv2 = theta, y1, y2
            self.omega_hat = om


class ConventionalEstimator:
    """LTI high-pass / demodulate / low-pass chain (the textbook pipeline).

    The high pass sits at omega_h, with the unit gain and +90 deg there that
    the read-out scale and demodulation phase assume; lambda_ell is the one
    corner.  The kernel keeps the operation order of the filter oracles'
    steps (`HighPass2`, `LowPass1` in tests/oracles.py), so its output is
    bit-identical to their composition.  Every sample is valid; the PLL, if
    any, steps on each.
    """

    def __init__(self, params: MotorParams, cfg: InjectionConfig, N: int,
                 lambda_ell: float, theta0: float = 0.0,
                 pll_gains: tuple[float, float] | None = None):
        Ts = sample_period(cfg, N)
        # demodulation carrier per phase j = k mod N
        demod = [math.sin(cfg.omega_h * j * Ts + cfg.phi) for j in range(N)]
        b0, b1, b2, a1, a2 = keyed_coefficients(
            "epsilon, steps_per_period: LTI high pass at omega_h",
            highpass_coefficients, cfg.omega_h, Ts)
        la, lb = keyed_coefficients("lambda_ell", lowpass_coefficients,
                                    lambda_ell, Ts)
        scale = _read_out(lambda: 2.0 * cfg.omega_h * params.det_L / cfg.V_h)
        pll_k, pll_s = _pll_parts(pll_gains, params, Ts, theta0)
        # constants of one step, unpacked at once in the kernel
        self._k = (N, demod, b0, b1, b2, a1, a2, la, lb, scale,
                   params.det_L, params.L0, params.L1, *pll_k)
        # biquad state (z1, z2) and low-pass state (output, previous input)
        # per axis, then the PLL's; the low passes start at the output
        # matching the assumed initial angle
        y10, y20 = virtual_output(params, theta0)
        ya = y10 * params.det_L / scale
        yb = y20 * params.det_L / scale
        self._s = (0.0, 0.0, 0.0, 0.0, ya, ya, yb, yb, *pll_s)
        self.theta_hat = theta0
        self.yv1 = y10
        self.yv2 = y20
        self.omega_hat = 0.0

    def step(self, k0: int, i_alpha, i_beta, out=None, dec: int = 1):
        """Advance over a run of samples; sample j of i_alpha, i_beta is k0 + j.

        Returns None; unequal lengths, `out` and `dec` as for
        `ProposedEstimator.step`.
        """
        _drain(self, k0, i_alpha, i_beta, out, dec)

    def kernel(self, samples, out=None, dec: int = 1, per_sample: bool = True):
        """The one kernel, as `ProposedEstimator.kernel`; every sample is
        valid, so with `per_sample` it yields (theta_hat, omega_hat) each
        time and writes a valid flag of 1.0."""
        (N, demods, b0, b1, b2, a1, a2, la, lb, scale, det_L, L0, L1, pll, kp,
         ki, n_p, Ts) = self._k
        za1, za2, zb1, zb2, ya, ua, yb, ub, eta1, eta2 = self._s
        theta, y1, y2, om = self.theta_hat, self.yv1, self.yv2, self.omega_hat
        if out is not None:
            o_th, o_om, o_y1, o_y2, o_v = out
        atan2, pi, rint = math.atan2, math.pi, _RINT
        try:
            for k, ia, ib in samples:
                # read first, so that a k that is not an integer raises
                # TypeError before this sample changes any state
                demod = demods[k % N]
                # high pass, direct form II transposed
                yha = b0 * ia + za1
                za1 = b1 * ia - a1 * yha + za2
                za2 = b2 * ia - a2 * yha
                yhb = b0 * ib + zb1
                zb1 = b1 * ib - a1 * yhb + zb2
                zb2 = b2 * ib - a2 * yhb
                # demodulate and low-pass
                da = yha * demod
                db = yhb * demod
                ya = la * ya + lb * (da + ua)
                yb = la * yb + lb * (db + ub)
                ua = da
                ub = db
                Ya = scale * ya
                Yb = scale * yb
                y1 = Ya / det_L
                y2 = Yb / det_L
                # the angle recovery, inline
                dx = Ya - L0
                if L1 > 0.0:
                    raw = 0.5 * atan2(-Yb, -dx)
                else:
                    raw = 0.5 * atan2(Yb, dx)
                theta = raw + pi * ((theta - raw) / pi + rint - rint)
                if pll:
                    # Pll.step inline, in its operation order
                    e = theta - eta1
                    wp = kp * e + ki * eta2
                    eta1 += Ts * wp
                    eta2 += Ts * e
                    om = wp / n_p
                if out is not None and not k % dec:
                    r = k // dec
                    o_th[r] = theta
                    o_om[r] = om
                    o_y1[r] = y1
                    o_y2[r] = y2
                    o_v[r] = 1.0
                if per_sample:
                    yield theta, om
        finally:
            self._s = (za1, za2, zb1, zb2, ya, ua, yb, ub, eta1, eta2)
            self.theta_hat, self.yv1, self.yv2 = theta, y1, y2
            self.omega_hat = om


class BlockFormEstimator(ProposedEstimator):
    """Proposed pipeline in conventional block layout (for the equivalence check).

    High pass = delay minus hold, demodulation phase phi_p + 3*pi/2, low
    pass = 0.5*(V_h/2pi)^2 times the LTV flow dz/dt = -gamma*S^2*z + gamma*u,
    then the conventional rescaling 2*omega_h*det_L/V_h.  Only the per-phase
    table and the read-out constant are this layout's, each from its own
    derivation (not shared with ProposedEstimator, so the equivalence check
    still compares two derivations); the regressor, the per-phase update,
    the degenerate-radius hold and the angle recovery are
    `ProposedEstimator.kernel`'s, and it is built by `ProposedEstimator`'s
    constructor.
    """

    def _state_per_output(self, params: MotorParams) -> float:
        """Low-pass state per unit of virtual output: yv = scale*(g*z)/det_L
        with the low-pass gain g and the conventional rescaling scale."""
        cfg = self.cfg
        scale = 2.0 * cfg.omega_h * params.det_L / cfg.V_h
        return params.det_L / (scale * (0.5 * (cfg.V_h / TWO_PI) ** 2))

    def _phase_table(self, gamma: float) -> list[tuple[float, float]]:
        """(a, c) per phase j with z+ = a*z + c*yf.

        z+ = z + Ts*(gamma*u - gamma*S_j^2*z), with the demodulated input
        u = yf*sin(omega_h*j*Ts + phi_p + 3*pi/2) and the flow's own decay
        both sampled at t = j*Ts.  The demodulation phase follows phi_p, as
        the operator form's reference S(t) does.
        """
        cfg, Ts = self.cfg, self.Ts
        table = []
        for j in range(self.N):
            S = probe_signal(cfg, j * Ts)
            demod = math.sin(cfg.omega_h * j * Ts + cfg.phi_p + 1.5 * math.pi)
            table.append((1.0 - Ts * gamma * S * S, Ts * gamma * demod))
        return table

    # the same function, held in this class's own dict: bench/run.py's
    # tracer wraps and restores each class's `step` by name, and counts the
    # two forms apart
    step = ProposedEstimator.step


# the oracle of the estimators' inline PLL, which builds its constants
# with `_pll_parts`; it stays in this module because bench/run.py's tracer
# wraps `Pll.step` here by name
class Pll:
    """Type-2 tracking loop turning the angle estimate into a speed estimate.

    Each estimator runs this step inline on its own angle; `step` stays the
    oracle that the inline loop must match bit for bit.
    """

    def __init__(self, K_p: float, K_i: float, n_p: int, theta0: float = 0.0):
        if not (0.0 < K_p < math.inf and 0.0 < K_i < math.inf):
            raise ValueError("PLL gains must be positive and finite")
        self.K_p = K_p
        self.K_i = K_i
        self.n_p = n_p
        self.eta1 = theta0
        self.eta2 = 0.0
        self.omega_hat = 0.0

    def step(self, theta_hat: float, Ts: float) -> float:
        e = theta_hat - self.eta1
        omega_hat_p = self.K_p * e + self.K_i * self.eta2
        self.eta1 += Ts * omega_hat_p
        self.eta2 += Ts * e
        self.omega_hat = omega_hat_p / self.n_p
        return self.omega_hat


def check_contraction(key: str, gamma: float, table) -> None:
    """ValueError unless a demodulator's sampled flow contracts at the
    adaptation gain `gamma`, named `key`.

    Over one probe period the update x+ = a_j*x + c_j*yf, (a_j, c_j) the
    rows of `table`, multiplies the state by the product of the a_j; it
    contracts if and only if that product has a magnitude below 1, taken as
    sum log|a_j| < 0, which neither underflows nor overflows.  A zero a_j
    contracts.
    """
    total = 0.0
    for a, _ in table:
        if a == 0.0:
            return
        total += math.log(abs(a))
    if not total < 0.0:
        raise ValueError(f"{key} = {gamma:g} does not contract the "
                         "demodulator's sampled flow: the sum of "
                         "log|1 - Ts*gamma*S_j^2| over a probe period is "
                         f"{total:.3g} >= 0")


def _run(k0: int, i_alpha, i_beta):
    """The (k, i_alpha, i_beta) samples of a run from sample k0; ValueError
    unless the two sequences have equal lengths, TypeError unless k0 is an
    integer.  A numpy array gives its samples as Python floats, so the
    kernel's state stays float."""
    n = len(i_alpha)
    if len(i_beta) != n:
        raise ValueError(f"a run of {n} i_alpha samples has {len(i_beta)} "
                         "i_beta samples")
    if type(i_alpha) is _ndarray:
        i_alpha = i_alpha.tolist()
    if type(i_beta) is _ndarray:
        i_beta = i_beta.tolist()
    return zip(range(k0, k0 + n), i_alpha, i_beta)


def _drain(est, k0: int, i_alpha, i_beta, out, dec: int) -> None:
    """est's kernel over a run of samples from sample k0, without
    yielding: a block run yields nothing, so one next() runs it to the
    end."""
    next(est.kernel(_run(k0, i_alpha, i_beta), out, dec, False), None)


def _recurrence(x: float, a: list, p: np.ndarray) -> np.ndarray:
    """x_j = a_j*x_(j-1) + p_j over a run, from x, one Python float step
    per sample: the kernel's demodulator update, p_j being c_j*yf_j."""
    return np.fromiter([(x := aj * x + pj) for aj, pj in zip(a, p.tolist())],
                       np.float64, len(a))


def _row_targets(out, r0: int, r1: int):
    """The five `out` sequences as arrays to take the slice [r0:r1]; None
    unless each is a writable one-dimensional float64 memoryview or array
    that holds rows r0 to r1 - 1 (the kernel then writes, or raises, row by
    row).  No `out` gives no targets."""
    if out is None:
        return ()
    rows = []
    for o in out:
        if not isinstance(o, (memoryview, np.ndarray)):
            return None
        o = np.asarray(o)
        if (o.dtype != np.float64 or o.ndim != 1 or not o.flags.writeable
                or not 0 <= r0 <= r1 <= len(o)):
            return None
        rows.append(o)
    return rows if len(rows) == 5 else None


def _read_out(derive) -> float:
    """derive(), an estimator's read-out constant; ValueError, naming
    the keys it derives from, unless it is a positive finite float (an
    overflow or a division by 0 on the way gives none)."""
    try:
        value = derive()
    except ArithmeticError:
        value = math.nan
    if not 0.0 < value < math.inf:
        raise ValueError("V_h, L_d/L_q and epsilon put an estimator's "
                         "read-out constant out of a float's range: it must "
                         "be positive and finite")
    return value


def _pll_parts(pll_gains, params: MotorParams, Ts: float, theta0: float):
    """Constants (runs, K_p, K_i, n_p, Ts) and initial state (eta1, eta2)
    of an estimator's inline PLL with gains (K_p, K_i), which must be
    positive and finite; the loop starts at the angle theta0.  Without
    gains the PLL does not run, and omega_hat stays 0."""
    if pll_gains is None:
        return (False, 0.0, 0.0, params.n_p, Ts), (0.0, 0.0)
    K_p, K_i = pll_gains
    if not (0.0 < K_p < math.inf and 0.0 < K_i < math.inf):
        raise ValueError("PLL gains must be positive and finite")
    return (True, K_p, K_i, params.n_p, Ts), (theta0, 0.0)


def fit_compensation(t, yv1, yv2, params: MotorParams, omega_e: float,
                     t_start: float = 0.0) -> tuple[float, float, float]:
    """Fit (ell1, ell2, ell3) from a constant-speed virtual-output trace.

    Matches the mean and amplitude of the measured components to the exact
    virtual output: ell1/ell3 correct the amplitudes, ell2 the mean of the
    first component (the second is zero-mean).  Needs at least two electrical
    revolutions past t_start so the extremes are observed.  ValueError
    unless both amplitudes and all three gains are finite, with ell1 and
    ell3 nonzero.
    """
    t = np.asarray(t)
    m = t >= t_start
    span = (t[m][-1] - t[m][0]) * abs(omega_e)
    if span < 2.0 * TWO_PI:
        raise ValueError("trace shorter than two electrical revolutions")
    y1 = np.asarray(yv1)[m]
    y2 = np.asarray(yv2)[m]
    amp_target = abs(params.L1) / params.det_L
    mean_target = params.L0 / params.det_L
    # an overflow or a tiny amplitude ends in the check below, not a warning
    with np.errstate(all="ignore"):
        a1 = 0.5 * (y1.max() - y1.min())
        a2 = 0.5 * (y2.max() - y2.min())
        if a1 <= 0.0 or a2 <= 0.0:
            raise ValueError("flat virtual-output trace")
        ell1 = amp_target / a1
        ell3 = amp_target / a2
        ell2 = mean_target - ell1 * 0.5 * (y1.max() + y1.min())
    if not (np.isfinite([a1, a2, ell1, ell2, ell3]).all()
            and ell1 != 0.0 and ell3 != 0.0):
        raise ValueError(f"virtual-output amplitudes {a1:.3g}, {a2:.3g} give "
                         f"compensation gains ({ell1:.3g}, {ell2:.3g}, "
                         f"{ell3:.3g}); they must be finite, with ell1 and "
                         "ell3 nonzero")
    return ell1, ell2, ell3


def synthesize_injection_current(params: MotorParams, cfg: InjectionConfig,
                                 theta, t, i_bar=(0.0, 0.0),
                                 phase_err: float = 0.0,
                                 ripple_scale: float = 1.0) -> np.ndarray:
    """Currents built directly from the averaged decomposition (no ODE).

    i(t) = i_bar + epsilon * y_v(theta(t)) * S_dist(t), with `theta` the
    electrical angle at each sample of `t` and y_v as in `virtual_output`.
    S_dist may carry an artificial phase shift or amplitude scale, mimicking
    the losses seen on hardware.  Returns an (n, 2) array.
    """
    t = np.asarray(t, dtype=float)
    theta = np.asarray(theta, dtype=float)
    if theta.shape != t.shape:
        raise ValueError(f"theta has {theta.size} angles for {t.size} samples")
    d = params.det_L
    eps = cfg.epsilon
    # an overflow gives currents that are not finite, which the replays
    # report, not a warning
    with np.errstate(all="ignore"):
        y1 = (params.L0 - params.L1 * np.cos(2.0 * theta)) / d
        y2 = (-params.L1 * np.sin(2.0 * theta)) / d
        S = ((-ripple_scale * cfg.V_h / TWO_PI)
             * np.cos(cfg.omega_h * t + phase_err))
        return np.column_stack([i_bar[0] + eps * y1 * S,
                                i_bar[1] + eps * y2 * S])
