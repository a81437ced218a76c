"""One table of `hfsense` outcome cases, and the one check of an outcome.

Every invocation ends in one of four documented outcomes, which `outcome`
checks and names:

    outcome   exit  stderr                            summary.json
    "pass"    0     empty                             "passed": true
    "fail"    1     empty (verbs with a band only)    "passed": false
    "abort"   1     one "simulation aborted:" line    "passed": false, the
                                                      line as "reason"
    "config"  2     one "config error:" line          none

A row of CASES is one invocation, run in a fresh temporary directory as its
working directory, in process through `cli.main` or, with pytest's
--installed-cli, through the `hfsense` on PATH.  Its fields:

    test       the test that runs the row; rows sharing a test and an id run
               in turn in one test, and an id of None gives a test that
               takes no parameter
    id         the row's pytest id within its test
    argv       the words after `head`, split at spaces
    scenario   scenario text written to case.scenario (`shipped` reads a
               shipped file); None writes nothing
    edits      (line, replacement) pairs, each applied by `edit`, which
               raises when no line of the scenario is the one it replaces
    head       the words before argv: --config case.scenario --out o
    env        HFSENSE_* values; every other HFSENSE_* variable is unset
    outcome    as above: it fixes the exit code and the stderr line count
    err        text stderr must contain; a text that starts with the
               outcome's prefix must start it, and a whole line with its
               newline is all of stderr
    summary    summary.json fields that must hold these values
    out        the output directory, where summary.json is looked for
    artifacts  files in the output directory that must exist: CSV tables
               of finite numbers only
    absent     paths in the working directory that must not exist
"""

from __future__ import annotations

import json
import os
import subprocess
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from hfsense.cli import EXIT_CONFIG, EXIT_FAIL, EXIT_PASS, main

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"

# the verbs whose summary may fail an acceptance band
BANDED = frozenset({"compare-rmsd", "sweep-frequency", "residual-order",
                    "equivalence"})
_PREFIX = {"config": "config error: ", "abort": "simulation aborted: "}

# values at and beyond the edges of a float and of an int
EXTREMES = ["5e-324", "1e-300", "1e300", "nan", "inf", "-inf", "0", "-1",
            "-1e-3", "1e-3", "2", "3", "50", "10.0",
            "1" + "0" * 330, "9" * 300, "-" + "9" * 200]


def outcome(argv, rc: int, err: str, out) -> str:
    """The documented outcome that an `hfsense argv` run, which exited with
    rc, wrote err and had out as its output directory, ended in; any other
    ending fails an assertion."""
    summary = Path(out) / "summary.json"
    if rc == EXIT_CONFIG:
        assert err.startswith(_PREFIX["config"]) and err.count("\n") == 1, err
        assert not summary.exists()
        return "config"
    with open(summary) as fh:
        s = json.load(fh)
    assert s["command"] in argv, s["command"]
    if rc == EXIT_PASS:
        assert err == "" and s["passed"] is True, err
        return "pass"
    assert rc == EXIT_FAIL, (rc, err)
    assert s["passed"] is False
    if err == "" and BANDED.intersection(argv):
        assert "reason" not in s
        return "fail"
    assert err.startswith(_PREFIX["abort"]) and err.count("\n") == 1, err
    assert s["reason"] == err[:-1]
    return "abort"


def run_main(argv, capsys) -> tuple[int, str]:
    """`cli.main(argv)` in process: its exit code, argparse's SystemExit
    included, and its stderr, with one more line per warning it raised (a
    subprocess prints them there)."""
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            rc = main(list(argv))
        except SystemExit as exc:
            rc = exc.code
    err = capsys.readouterr().err
    return rc, err + "".join(f"{w.category.__name__}: {w.message}\n"
                             for w in caught)


def main_outcome(argv, out, capsys) -> tuple[str, str]:
    """`run_main`, then `outcome`: the outcome's name and stderr."""
    rc, err = run_main(argv, capsys)
    return outcome(argv, rc, err, out), err


def edit(text: str, line: str, new: str) -> str:
    """text with every line equal to `line` replaced by `new`; ValueError
    when there is none."""
    lines = text.split("\n")
    if line not in lines:
        raise ValueError(f"no line {line!r} to edit")
    return "\n".join(new if x == line else x for x in lines)


def shipped(name: str) -> str:
    return (SCENARIO_DIR / f"{name}.scenario").read_text()


@dataclass(frozen=True)
class Case:
    test: str
    id: str | None
    argv: str
    scenario: str | None = None
    edits: tuple = ()
    head: str = "--config case.scenario --out o"
    env: dict = field(default_factory=dict)
    outcome: str = "config"
    err: str = ""
    summary: dict = field(default_factory=dict)
    out: str = "o"
    artifacts: tuple = ()
    absent: tuple = ()


def run_case(case: Case, call, cwd: Path):
    """Write the row's scenario into cwd, call(argv, env, cwd) -> (exit
    code, stderr), and check what the row asks of it."""
    if case.scenario is not None:
        text = case.scenario
        for line, new in case.edits:
            text = edit(text, line, new)
        (cwd / "case.scenario").write_text(text)
    argv = (case.head + " " + case.argv).split()
    rc, err = call(argv, case.env, cwd)
    assert outcome(argv, rc, err, cwd / case.out) == case.outcome, (rc, err)
    prefix = _PREFIX.get(case.outcome)
    if prefix and case.err.startswith(prefix):
        assert err.startswith(case.err), err
    else:
        assert case.err in err, err
    if case.summary:
        with open(cwd / case.out / "summary.json") as fh:
            s = json.load(fh)
        assert {k: s[k] for k in case.summary} == case.summary
    for name in case.artifacts:
        table = np.loadtxt(cwd / case.out / name, delimiter=",", skiprows=1,
                           ndmin=2)
        assert table.size and np.isfinite(table).all(), name
    for name in case.absent:
        assert not (cwd / name).exists(), name


def in_process(capsys, monkeypatch):
    """A `run_case` call through `cli.main`, with the row's environment."""
    def call(argv, env, cwd):
        monkeypatch.chdir(cwd)
        for name in [n for n in os.environ if n.startswith("HFSENSE_")]:
            monkeypatch.delenv(name)
        for name, value in env.items():
            monkeypatch.setenv(name, value)
        return run_main(argv, capsys)
    return call


def installed(exe: str):
    """A `run_case` call through the hfsense at exe, in a subprocess."""
    def call(argv, env, cwd):
        base = {n: v for n, v in os.environ.items()
                if not n.startswith("HFSENSE_")}
        done = subprocess.run([exe, *argv], cwd=cwd, env={**base, **env},
                              capture_output=True, text=True, timeout=300)
        return done.returncode, done.stderr
    return call


FAST = """\
[motor]
n_p = 6
R_s = 0.43
L_d = 5.74e-3
L_q = 8.68e-3
Phi = 0.11
J = 0.01

[simulation]
duration = 0.3
decimation = 5
"""

SENSOR = FAST + "\n[controller]\nsensor_mode = true\n"

DRIVEN = (FAST.replace("duration = 0.3", "duration = 2.0")
          + "\n[drive]\nprofile = constant\nomega = 2.0\n")

BANDS = "--band-proposed 0:1 --band-conventional 0:1"
# a scenario file that is never read: argparse rejects the flags first
_UNREAD = "--config unread.scenario --out o"
_REVERSAL = ("profile = constant", "profile = reversal")
_TRACE = ("trace.csv",)
_BODE = ("bode_gd.csv", "bode_hpf.csv", "bode_lpf.csv")


def _rows(test, rows, **common):
    """Cases of one test from (id, argv, fields) rows over common fields."""
    return [Case(test, id_, argv, **{**common, **fields})
            for id_, argv, fields in rows]


# (scenario, argv, text the config error line must contain)
_BAD_VERB_ARGUMENTS = [
    (FAST, "bode --omega-min 0"),
    (FAST, "bode --omega-min 10 --omega-max 10"),
    (FAST, "bode --omega-max inf"),
    (FAST, "bode --points 1"),
    (FAST, "equivalence --duration -1"),
    (FAST, "equivalence --duration 0.002"),
    (FAST, "sweep-frequency --frequencies 1000 --t1 0.1 --t2 0.2"),
    (FAST, "sweep-frequency --frequencies 1000,1000 --t1 0.1 --t2 0.2"),
    (FAST, "sweep-frequency --frequencies 0,1000 --t1 0.1 --t2 0.2"),
    (FAST, f"compare-rmsd --t1 0.2 --t2 0.1 {BANDS}"),
    # one trace record (every 1e-4 s) inside the window: no RMSD to take
    (FAST, f"compare-rmsd --t1 0.10005 --t2 0.10015 {BANDS}"),
    # closed loop outside sensor mode: the paired runs differ in control law
    (FAST, "residual-order --t1 0.1 --t2 0.3", "paired runs need sensor mode"),
    (SENSOR, "residual-order --t1 0.3 --t2 0.1"),
    # no drive profile to calibrate against
    (FAST, "calibrate"),
    (FAST, "--workers 0 sweep-frequency --frequencies 500,1000 --t1 0.1 "
           "--t2 0.2"),
    # a NaN or negative tolerance used to run and print FAIL
    (FAST, "equivalence --tolerance nan"),
    (FAST, "equivalence --tolerance -1"),
    # NaN ripple scale used to fail inside round(); -1 gave a nonsense fit
    (DRIVEN, "calibrate --ripple-scale nan"),
    (DRIVEN, "calibrate --ripple-scale -1"),
    (DRIVEN, "calibrate --phase-err inf"),
    # the check runs both axes at one gain; unequal gains used to be
    # replaced by gamma_alpha without a word
    (FAST + "\n[estimator]\ngamma_alpha = 1.25e4\ngamma_beta = 2.5e4\n",
     "equivalence --duration 0.01", "gamma_alpha == gamma_beta"),
    # probe off: no saliency signal to measure; with both bands given,
    # compare-rmsd used to run and exit 1
    (FAST + "\n[injection]\nenabled = false\n",
     f"compare-rmsd --t1 0.1 --t2 0.3 {BANDS}", "probe-off"),
    (DRIVEN + "\n[injection]\nenabled = false\n",
     "sweep-frequency --t1 1 --t2 2", "probe-off"),
    # windows from t = 0 measure the estimators' warm-up (2*epsilon)
    (FAST, f"compare-rmsd --t1 0 --t2 0.3 {BANDS}", "warm-up"),
    (DRIVEN, "sweep-frequency --t1 0 --t2 1", "warm-up"),
    # a locus at 2*n_p*|omega| above omega_h: calibrate used to fit it
    (DRIVEN.replace("omega = 2.0", "omega = 1e306"), "calibrate",
     "locus frequency"),
    # a ripple whose fitted gains are not finite: calibrate used to pass
    # with ell3 = inf, or print numpy warnings and then name ell1, ell3
    (DRIVEN, "calibrate --ripple-scale 1e-310", "compensation gains"),
    (DRIVEN, "calibrate --ripple-scale 1e308", "compensation gains"),
]

CASES = [
    # -- flags, environment and verb arguments ------------------------------
    *_rows("test_non_integer_env_is_config_error", [
        (name, "run", {"env": {f"HFSENSE_{name}": "abc"},
                       "err": f"config error: HFSENSE_{name}='abc' is not an "
                              f"integer\n"}) for name in ("WORKERS", "SEED")],
        scenario=FAST),
    Case("test_band_argument_rejects_inverted", None,
         "compare-rmsd --band-proposed 2:1", head=_UNREAD,
         err="--band-proposed"),
    # a NaN end used to pass the hi > lo check, so every ratio failed
    *_rows("test_band_argument_rejects_non_finite", [
        (band, f"residual-order --t1 0.1 --t2 0.2 --ratio-band {band}",
         {"err": band}) for band in ("nan:5", "1:nan", "0:inf", "1:-inf")],
        scenario=FAST),
    # a band that starts with "-" but is invalid, in both spellings
    *[Case("test_bad_negative_band_is_one_config_error",
           f"{value}-{flag}-verb{i}", f"{verb} {flag}{join}{value}",
           head=_UNREAD, err=flag)
      for value in ("-1:-2", "-nan:2", "-1", "-x:2")
      for i, (flag, verb) in enumerate([
          ("--band-proposed", "compare-rmsd"),
          ("--slope-band", "sweep-frequency --t1 1 --t2 2")])
      for join in " ="],
    Case("test_band_flag_without_value_is_config_error", None,
         "compare-rmsd --band-proposed", head=_UNREAD, err="--band-proposed"),
    # a flag has one spelling: a prefix of it is rejected, not expanded
    *_rows("test_abbreviated_flag_is_one_config_error", [
        ("slope", "sweep-frequency --t1 1 --t2 2 --slope 1:2", {}),
        ("slope-negative", "sweep-frequency --t1 1 --t2 2 --slope -1:2", {}),
        ("equivalence-dur", "equivalence --dur 0.1", {"err": "--dur"}),
    ], head=_UNREAD, err="--slope", absent=("o",)),
    Case("test_missing_config_is_config_error", None, "run", head="--out o",
         err="config error: no scenario file given (--config or "
             "HFSENSE_CONFIG)\n"),
    Case("test_unreadable_config_is_config_error", None, "run",
         head="--config nope.scenario --out o",
         err="No such file or directory: 'nope.scenario'"),
    Case("test_directory_as_config_is_config_error", None, "run",
         head="--config . --out o", err="Is a directory: '.'"),
    # a verb that writes only summary.json still maps the failed write
    *_rows("test_out_naming_a_file_is_config_error", [
        ("verb0", "equivalence --duration 0.01", {}),
        ("verb1", "calibrate", {}),
    ], scenario=DRIVEN, head="--config case.scenario --out case.scenario",
        out="case.scenario", err="File exists: 'case.scenario'"),
    *[Case("test_bad_verb_arguments_are_config_errors", f"argv{i}", argv,
           scenario=scenario, err=err)
      for i, (scenario, argv, err) in enumerate(
          (*row, "")[:3] for row in _BAD_VERB_ARGUMENTS)],
    # a window between two records holds no spread to take
    Case("test_sweep_window_below_two_samples_is_config_error", None,
         "sweep-frequency --t1 1.00001 --t2 1.00002 --metric ripple "
         "--frequencies 500,1000",
         scenario=DRIVEN, edits=[("duration = 2.0", "duration = 1.1")],
         err="config error: window [1.00001, 1.00002] holds fewer than 2 "
             "samples\n"),
    # sizes no host holds, which numpy refuses at once: 8e17 bytes of grid,
    # and 5e16 samples of the replay
    *_rows("test_unallocatable_flag_value_is_one_config_error", [
        ("argv0---points", f"bode --points {10 ** 17}",
         {"err": f"config error: bode --points {10 ** 17}: the frequency "
                 "grid cannot be allocated\n"}),
        ("argv1---duration", "equivalence --duration 1e12",
         {"err": "config error: equivalence --duration 1e+12 s: its "
                 "samples cannot be allocated\n"}),
    ], scenario=FAST, absent=("o",)),
    # the record grid of 5e16 steps, which the calibration replay and the
    # residual's window check build before any run, reported as `run`
    # reports it
    *_rows("test_unallocatable_replay_grid_is_one_config_error", [
        ("verb0", "calibrate", {}),
        ("verb1", "residual-order --t1 0.1 --t2 0.2", {}),
    ], scenario=DRIVEN, edits=[("duration = 2.0", "duration = 1e12")],
        absent=("o",),
        err="config error: scenario too large: duration = 1e+12 s is "
            "49999999999999992 steps of 50 per probe period"),
    # a run of estimator kind none carries no angle: the sweep used to fit
    # the all-zero prop_theta_hat column
    Case("test_sweep_without_estimator_is_config_error", None,
         "sweep-frequency --t1 1 --t2 2 --frequencies 500,1000",
         scenario=DRIVEN + "\n[estimator]\nkind = none\n",
         err="config error: a sweep point runs no estimator to measure\n"),
    # gamma = gamma_scale/epsilon: rejected before any point is simulated
    *_rows("test_non_finite_gamma_scale_is_config_error", [
        (value, f"sweep-frequency --t1 1 --t2 2 --gamma-scale {value}",
         {"err": f"config error: gamma_alpha must be positive and finite "
                 f"(got {value})\n"}) for value in ("nan", "inf")],
        scenario=DRIVEN),
    # an impossible band fails with exit code 1
    *_rows("test_compare_rmsd_exit_codes", [
        (None, f"compare-rmsd --t1 0.1 --t2 0.3 {BANDS}", {"outcome": "pass"}),
        (None, "compare-rmsd --t1 0.1 --t2 0.3 --band-proposed 0.9:1.0 "
               "--band-conventional 0:1", {"outcome": "fail"}),
    ], scenario=FAST),
    # -- scenarios --------------------------------------------------------
    Case("test_invalid_config_is_config_error", None, "run",
         scenario="[motor]\nn_p = 6\n", err="missing required key"),
    Case("test_invalid_scenario_value_is_one_line", None, "run",
         scenario=FAST + "\n[estimator]\nomega_star = -1\n",
         err="omega_star"),
    # the LTI high pass sits at omega_h; at N = 2 steps per probe period
    # omega_h*Ts = pi breaks its prewarp, a config error only where the LTI
    # chain is built, naming the keys that set omega_h*Ts
    *_rows("test_lti_corner_above_nyquist", [
        ("both-2", "run", {
            "scenario": SENSOR + "\n[estimator]\nkind = both\n",
            "err": "config error: case.scenario: epsilon, steps_per_period: "
                   "LTI high pass at omega_h: corner 6283.19 rad/s is not "
                   "below the Nyquist rate"}),
        ("proposed-0", "run", {
            "scenario": SENSOR + "\n[estimator]\nkind = proposed\n",
            "outcome": "pass"}),
    ], edits=[("duration = 0.3", "duration = 0.05\nsteps_per_period = 2")]),
    Case("test_divergence_inside_a_step_is_one_line", None, "run",
         scenario=FAST, edits=[("J = 0.01", "J = 1e-320"),
                               ("duration = 0.3", "duration = 0.05")],
         outcome="abort", err="t="),
    # a drive whose step maps overflow aborts, with no numpy warning
    # before the line; a ramp whose angle is not a finite number is
    # rejected with the scenario, naming the ramp's keys
    *_rows("test_drive_overflow_is_one_line", [
        ("fast_drive", "run", {"edits": [("omega = 2.0", "omega = 1e306")],
                               "outcome": "abort",
                               "err": "simulation aborted: "}),
        ("long_ramp", "run", {
            "edits": [_REVERSAL, ("omega = 2.0", "omega = 2.0\nomega_end = "
                                  "4.0\nt_ramp_start = 0\nt_ramp_end = 1e308")],
            "err": "t_ramp_start = 0 to t_ramp_end = 1e+308"}),
        ("far_ramp_start", "run", {
            "edits": [_REVERSAL, ("omega = 2.0", "omega = 2.0\nomega_end = "
                                  "-2.0\nt_ramp_start = 1e308\n"
                                  "t_ramp_end = 1.5e308")],
            "err": "t_ramp_start = 1e+308 to t_ramp_end = 1.5e+308"}),
    ], scenario=DRIVEN.replace("duration = 2.0", "duration = 0.05")),
    # -- faults that fuzzing the verbs' flags found ------------------------
    # G_d at a d*omega that underflows was a 0/0: numpy warnings and a NaN
    # row; G_d and the high pass are -inf dB there, the low pass finite
    Case("test_flag_fuzz_case", "bode-omega-min-5e-324",
         "bode --omega-min 5e-324 --points 5", scenario=FAST, outcome="pass",
         artifacts=("bode_lpf.csv",)),
    # an unstable gradient flow (gamma 1e4 at a 0.05 s probe, N = 4) whose
    # replayed estimates overflow: inf - inf, warnings and a NaN deviation
    Case("test_flag_fuzz_case", "equivalence-overflow",
         "equivalence --duration 50",
         scenario=FAST + "\n[injection]\nepsilon = 0.05\n",
         edits=[("decimation = 5", "decimation = 5\nsteps_per_period = 4")],
         outcome="abort",
         err="simulation aborted: replayed estimate not finite at "
             "t=22.975000\n"),
    # -- the shipped scenarios, each run briefly where it runs -----------
    *[Case("test_shipped_scenario_case", f"bode-{name}", "bode",
           scenario=shipped(name), outcome="pass", artifacts=_BODE)
      for name in ("lowspeed", "driven_lowspeed", "reversal", "standstill")],
    *_rows("test_shipped_scenario_case", [
        ("equivalence", "equivalence --duration 0.05", {"outcome": "pass"}),
        # 100001 samples, past the regressor's 65536-sample rebase, through
        # the new pipeline's block runs: the two forms must agree
        ("equivalence-2s", "equivalence --duration 2", {"outcome": "pass"}),
        # the default bands, then the window
        ("reversed-window", "compare-rmsd --t1 2 --t2 1",
         {"err": "config error: window [2, 1] needs t2 > t1\n"}),
        *[(f"divergence-limit-{value}", "run", {
            "edits": [("load_torque = 0.5",
                       f"load_torque = 0.5\ndivergence_limit = {value}")],
            "err": f"config error: case.scenario: divergence_limit must be "
                   f"positive (got {value})\n"}) for value in ("-1", "0")],
        # a low-pass corner below 1 rad/s
        ("lambda_ell", "run", {
            "edits": [("[estimator]", "[estimator]\nlambda_ell = 0.5")],
            "err": "config error: case.scenario: lambda_ell must be >= 1 "
                   "and finite (got 0.5)\n"}),
        # a probe period whose sample period Ts underflows to 0
        ("Ts-underflow", "run", {
            "edits": [("epsilon = 1e-3", "epsilon = 5e-324")],
            "err": "config error: case.scenario: Ts = epsilon/"
                   "steps_per_period underflows to 0"}),
        # per-phase tables too large to allocate
        ("carrier-tables", "run", {
            "edits": [("steps_per_period = 50",
                       f"steps_per_period = {10 ** 30}")],
            "err": f"steps of {10 ** 30} per probe period, which cannot be "
                   "allocated"}),
        # each pipeline closing the loop through its resident kernel: the
        # LTI chain, then the new pipeline with the LTI chain observing
        ("conventional", "run", {"edits": [
            ("kind = both", "kind = conventional"),
            ("duration = 10.0", "duration = 0.05")],
            "outcome": "pass", "artifacts": _TRACE}),
        ("both", "run", {"edits": [
            ("kind = both", "kind = both"),  # only checks the line is there
            ("duration = 10.0", "duration = 0.05")],
            "outcome": "pass", "artifacts": _TRACE}),
        # a mode key, which a [drive] section would contradict
        ("mode", "run", {
            "edits": [("[simulation]", "[simulation]\nmode = driven")],
            "err": "config error: case.scenario:31: unknown key 'mode' in "
                   "section [simulation]\n"}),
        # the LTI chain's high pass sits at omega_h, the one corner at which
        # its read-out scale and demodulation phase hold: lambda_h is no key
        ("lambda_h", "run", {
            "edits": [("[estimator]", "[estimator]\nlambda_h = 3000")],
            "err": "config error: case.scenario:18: unknown key 'lambda_h' "
                   "in section [estimator]\n"}),
        # a pole-pair count that a float does not hold
        ("n_p", "run", {"edits": [("n_p = 6", "n_p = 1" + "0" * 330)],
                        "err": "config error: case.scenario: [motor] n_p "
                               "must be an integer that a float holds "
                               "exactly"}),
        # the high pass's response stays finite far above omega_h
        ("bode-omega-max-1e300", "bode --omega-max 1e300 --points 5",
         {"outcome": "pass", "artifacts": _BODE}),
    ], scenario=shipped("lowspeed")),
    *_rows("test_shipped_scenario_case", [
        # a ramp key on a constant drive profile
        ("ramp-key", "run", {
            "edits": [("omega = 0.5", "omega = 0.5\nt_ramp_end = 1.0")],
            "err": "config error: case.scenario: [drive] a constant profile "
                   "takes no t_ramp_end (got 1)\n"}),
        # the averaging residual's paired runs at two probe periods
        ("residual-order", "residual-order --t1 0.1 --t2 0.2", {
            "edits": [("duration = 10.0", "duration = 0.2")],
            "outcome": "pass"}),
        # a [drive] section alone makes the run driven, at the drive's speed
        ("drive-section", "run", {
            "edits": [("duration = 10.0", "duration = 0.05")],
            "outcome": "pass", "summary": {"omega_end": 0.5},
            "artifacts": _TRACE}),
        # the compensation fit, through the new pipeline's constructor
        ("calibrate", "calibrate", {"outcome": "pass"}),
    ], scenario=shipped("driven_lowspeed")),
    *_rows("test_shipped_scenario_case", [
        # a driven speed ramp
        ("reversal", "run", {"edits": [("duration = 9.0", "duration = 0.05")],
                             "outcome": "pass", "artifacts": _TRACE}),
        # a ramp that starts before t = 0
        ("early-ramp", "run", {
            "edits": [("t_ramp_start = 4.0", "t_ramp_start = -1")],
            "err": "t_ramp_start = -1"}),
    ], scenario=shipped("reversal")),
    *_rows("test_shipped_scenario_case", [
        # the closed loop at rest
        ("standstill", "run", {"outcome": "pass", "artifacts": _TRACE}),
        # an empty HFSENSE_OUT counts as unset: the default ./out
        ("empty-out-env", "run", {
            "head": "--config case.scenario", "env": {"HFSENSE_OUT": ""},
            "outcome": "pass", "out": "out", "artifacts": _TRACE,
            "absent": ("summary.json",)}),
    ], scenario=shipped("standstill"),
        edits=[("duration = 12.0", "duration = 0.05")]),
]
