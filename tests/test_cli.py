"""Command-line front-end tests: parsing, exit codes, artifacts.

The outcome cases are rows of `cli_cases.CASES`: each runs through
`cli.main` in process, or, with --installed-cli, through the `hfsense` on
PATH in a subprocess.
"""

import json
import shutil

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cli_cases import (CASES, DRIVEN, EXTREMES, FAST, SENSOR, in_process,
                       installed, main_outcome, run_case)
from hfsense import cli as hfsense_cli
from hfsense.cli import EXIT_CONFIG, EXIT_FAIL, EXIT_PASS, build_parser, main
from hfsense.sim import TRACE_COLUMNS


@pytest.fixture
def cli(request, capsys, monkeypatch):
    """How a table row calls hfsense: `cli.main` in process, or with
    --installed-cli the `hfsense` on PATH, which must then be there."""
    if not request.config.getoption("--installed-cli"):
        return in_process(capsys, monkeypatch)
    exe = shutil.which("hfsense")
    if exe is None:
        pytest.fail("--installed-cli: no hfsense on PATH")
    return installed(exe)


def _table_test(rows):
    """The test that runs the table rows of one test name: one parameter
    per row id, the rows that share it in turn, each in its own working
    directory; no parameter where the rows have no id."""
    by_id = {}
    for case in rows:
        by_id.setdefault(case.id, []).append(case)

    def test(cli, tmp_path, cases):
        for i, case in enumerate(cases):
            (tmp_path / str(i)).mkdir()
            run_case(case, cli, tmp_path / str(i))

    if list(by_id) == [None]:
        return lambda cli, tmp_path: test(cli, tmp_path, by_id[None])
    return pytest.mark.parametrize("cases", list(by_id.values()),
                                   ids=list(by_id))(test)


# one test per name of CASES, which keeps the name and ids under which its
# cases ran before there was a table
_TESTS = {}
for _case in CASES:
    _TESTS.setdefault(_case.test, []).append(_case)
globals().update({name: _table_test(rows) for name, rows in _TESTS.items()})


@pytest.fixture
def fast_scenario(tmp_path):
    p = tmp_path / "fast.scenario"
    p.write_text(FAST)
    return p


@pytest.fixture
def driven_scenario(tmp_path):
    p = tmp_path / "driven.scenario"
    p.write_text(DRIVEN)
    return p


def _summary(outdir):
    with open(outdir / "summary.json") as fh:
        return json.load(fh)


def _trace(outdir):
    return np.loadtxt(outdir / "trace.csv", delimiter=",", skiprows=1,
                      ndmin=2)


def test_parser_defaults(monkeypatch):
    monkeypatch.delenv("HFSENSE_CONFIG", raising=False)
    args = build_parser().parse_args(["run"])
    assert args.out == "out"
    assert args.workers == 1
    assert args.seed is None


def test_parser_env_overrides(monkeypatch):
    monkeypatch.setenv("HFSENSE_OUT", "/tmp/elsewhere")
    monkeypatch.setenv("HFSENSE_WORKERS", "4")
    monkeypatch.setenv("HFSENSE_SEED", "7")
    args = build_parser().parse_args(["run"])
    assert args.out == "/tmp/elsewhere"
    assert args.workers == 4
    assert args.seed == 7


def test_empty_env_counts_as_unset(monkeypatch, fast_scenario, tmp_path):
    """An empty HFSENSE_OUT, like an empty HFSENSE_CONFIG, HFSENSE_WORKERS
    or HFSENSE_SEED, leaves the flag's default: outputs go to ./out, not
    into the working directory itself."""
    for name in ("CONFIG", "OUT", "WORKERS", "SEED"):
        monkeypatch.setenv(f"HFSENSE_{name}", "")
    args = build_parser().parse_args(["run"])
    assert (args.config, args.out, args.workers, args.seed) == (
        None, "out", 1, None)
    monkeypatch.chdir(tmp_path)
    assert main(["--config", str(fast_scenario), "bode", "--points",
                 "8"]) == EXIT_PASS
    assert (tmp_path / "out" / "summary.json").exists()
    assert not (tmp_path / "summary.json").exists()


@pytest.mark.parametrize("flag,verb", [
    ("--band-proposed", ["compare-rmsd"]),
    ("--band-conventional", ["compare-rmsd"]),
    ("--slope-band", ["sweep-frequency", "--t1", "1", "--t2", "2"]),
    ("--ratio-band", ["residual-order", "--t1", "1", "--t2", "2"]),
])
@pytest.mark.parametrize("joined", [False, True], ids=["separate", "equals"])
def test_band_with_negative_lower_end_parses(flag, verb, joined):
    """A band whose lower end is negative looks like a flag to argparse;
    "--flag -1:2" and "--flag=-1:2" must give the same band."""
    words = [f"{flag}=-1:2"] if joined else [flag, "-1:2"]
    args = build_parser().parse_args(verb + words)
    assert getattr(args, flag[2:].replace("-", "_")) == (-1.0, 2.0)


def test_diverged_run_leaves_failed_summary(tmp_path, capsys):
    """A diverged run replaces the passing summary of an earlier run in the
    same --out with passed: false and the reason."""
    out = tmp_path / "o"
    good = tmp_path / "good.scenario"
    good.write_text(FAST.replace("duration = 0.3", "duration = 0.05"))
    assert main(["--config", str(good), "--out", str(out), "run"]) == EXIT_PASS
    assert _summary(out)["passed"]
    bad = tmp_path / "tiny_inertia.scenario"
    bad.write_text(good.read_text().replace("J = 0.01", "J = 1e-320"))
    capsys.readouterr()
    assert main(["--config", str(bad), "--out", str(out), "run"]) == EXIT_FAIL
    assert capsys.readouterr().err.count("\n") == 1
    s = _summary(out)
    assert s["command"] == "run" and s["passed"] is False
    assert "t=" in s["reason"]


def test_run_writes_trace_and_summary(fast_scenario, tmp_path):
    out = tmp_path / "out"
    rc = main(["--config", str(fast_scenario), "--out", str(out), "run"])
    assert rc == EXIT_PASS
    with open(out / "trace.csv") as fh:
        assert fh.readline().strip() == ",".join(TRACE_COLUMNS)
    assert _trace(out).shape[0] > 0
    s = _summary(out)
    assert s["command"] == "run" and s["passed"]
    assert s["t_end"] == pytest.approx(0.3)


def test_drive_section_alone_makes_the_run_driven(tmp_path):
    """A [drive] section is all that makes a run driven: the shaft turns at
    the profile's speed from the first record on."""
    p = tmp_path / "driven.scenario"
    p.write_text(DRIVEN.replace("duration = 2.0", "duration = 0.05"))
    out = tmp_path / "out"
    assert main(["--config", str(p), "--out", str(out), "run"]) == EXIT_PASS
    omega = _trace(out)[:, TRACE_COLUMNS.index("omega")]
    assert len(omega) > 1 and np.all(omega == 2.0)
    assert _summary(out)["omega_end"] == 2.0


def test_compare_rmsd_default_bands(fast_scenario, driven_scenario, tmp_path):
    out = tmp_path / "out"
    main(["--config", str(fast_scenario), "--out", str(out), "compare-rmsd",
          "--t1", "0.1", "--t2", "0.3", "--band-conventional", "0:1"])
    s = _summary(out)
    lo, hi = s["band_proposed"]
    assert lo > 0.0 and hi == pytest.approx(2.0 * lo)
    assert s["band_conventional"] == [0.0, 1.0]
    # no steady lag limit for a driven shaft: the default band is a config error
    assert main(["--config", str(driven_scenario), "--out", str(out),
                 "compare-rmsd"]) == EXIT_CONFIG


def test_sweep_frequency_artifacts(driven_scenario, tmp_path):
    out = tmp_path / "out"
    rc = main(["--config", str(driven_scenario), "--out", str(out),
               "sweep-frequency", "--frequencies", "500,1000",
               "--t1", "1.0", "--t2", "2.0", "--slope-band=-5:5"])
    assert rc == EXIT_PASS
    arr = np.loadtxt(out / "sweep.csv", delimiter=",", skiprows=1)
    assert arr.shape == (2, 3)
    assert "slope" in _summary(out)


def test_residual_order_fast(fast_scenario, tmp_path):
    out = tmp_path / "out"
    p = tmp_path / "sensor.scenario"
    p.write_text(SENSOR)
    rc = main(["--config", str(p), "--out", str(out), "residual-order",
               "--t1", "0.1", "--t2", "0.3", "--ratio-band", "2:8"])
    assert rc == EXIT_PASS
    s = _summary(out)
    assert s["norm_eps"] > s["norm_eps_half"] > 0.0


def test_bode_exports(fast_scenario, tmp_path):
    out = tmp_path / "out"
    rc = main(["--config", str(fast_scenario), "--out", str(out), "bode",
               "--points", "32"])
    assert rc == EXIT_PASS
    for name in ("gd", "hpf", "lpf"):
        tab = np.loadtxt(out / f"bode_{name}.csv", delimiter=",", skiprows=1)
        assert tab.shape == (32, 3)


def test_equivalence_command(fast_scenario, tmp_path):
    out = tmp_path / "out"
    rc = main(["--config", str(fast_scenario), "--out", str(out),
               "equivalence", "--duration", "0.3"])
    assert rc == EXIT_PASS
    assert _summary(out)["max_rel_yv_deviation"] < 1e-9


def test_calibrate_command(driven_scenario, tmp_path):
    out = tmp_path / "out"
    rc = main(["--config", str(driven_scenario), "--out", str(out),
               "calibrate"])
    assert rc == EXIT_PASS
    s = _summary(out)
    assert s["ell1"] == pytest.approx(1.0, abs=0.05)


@pytest.mark.parametrize("scale", ["1e300", "1e-300"])
def test_calibrate_prints_extreme_gains_readably(scale, driven_scenario,
                                                 tmp_path, capsys):
    """Gains near 1e-300 or 1e300 print in six significant digits: not as
    0.00000, nor as hundreds of digits."""
    out = tmp_path / "out"
    rc = main(["--config", str(driven_scenario), "--out", str(out),
               "calibrate", "--ripple-scale", scale])
    assert rc == EXIT_PASS
    line = capsys.readouterr().out.splitlines()[0]
    gains = dict(item.split("=") for item in line.split())
    assert list(gains) == ["ell1", "ell2", "ell3"]
    s = _summary(out)
    for name, text in gains.items():
        assert len(text) <= 12, line
        assert float(text) == pytest.approx(s[name], rel=1e-5, abs=0.0)
    # the case is extreme: :.5f printed one gain as 0.00000 or in hundreds
    # of digits
    assert any(f"{s[name]:.5f}" == "0.00000" or len(f"{s[name]:.5f}") > 100
               for name in gains)


def test_seed_override(fast_scenario, tmp_path):
    p = tmp_path / "noisy.scenario"
    p.write_text(FAST + "noise_std = 1e-3\n")
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(["--config", str(p), "--out", str(out_a), "--seed", "5",
                 "run"]) == EXIT_PASS
    assert main(["--config", str(p), "--out", str(out_b), "--seed", "9",
                 "run"]) == EXIT_PASS
    i_alpha = TRACE_COLUMNS.index("i_alpha")
    assert not np.array_equal(_trace(out_a)[:, i_alpha],
                              _trace(out_b)[:, i_alpha])


# each verb's flags that take numbers, with how a value joins them: a
# band lo:hi, or a comma-separated list; and the flags that are required
_JOIN = {float: None, int: None, hfsense_cli._band: ":",
         hfsense_cli._floats_arg: ","}
_VERBS = next(a for a in build_parser()._actions
              if a.dest == "command").choices
_VERB_FLAGS = {verb: {a.option_strings[0]: _JOIN[a.type]
                      for a in sub._actions if a.type in _JOIN}
               for verb, sub in _VERBS.items()}
_REQUIRED = {a.option_strings[0] for sub in _VERBS.values()
             for a in sub._actions if a.required}
# no more than 2 sweep workers, whatever cap the sweep puts on its pool
_WORKERS = ["1", "2", *(v for v in EXTREMES if not float(v) > 2)]
# the flags and variables every verb reads, one of which (or none) an
# example sets, so that a rejected one does not hide the verb's own
_GLOBALS = {"--workers": _WORKERS, "--seed": EXTREMES,
            "HFSENSE_WORKERS": _WORKERS, "HFSENSE_SEED": EXTREMES}
# 160 steps of the closed loop in sensor mode, or of a drive, with noise,
# so that the seed is read; equivalence replays at a 0.05 s probe, so that
# --duration 50 is 4000 samples; gamma*epsilon = 10, as shipped
_FUZZ_SCENARIO = (FAST.replace("duration = 0.3", "duration = {duration}\n"
                               "steps_per_period = 4\nnoise_std = 1e-3")
                  + "\n[injection]\nepsilon = {epsilon}\n\n[estimator]\n"
                  "gamma_alpha = {gamma}\ngamma_beta = {gamma}\n")
_FUZZ_TIMES = {"equivalence": {"duration": 0.5, "epsilon": 0.05,
                               "gamma": 200}}
_FUZZ_MODES = ["[controller]\nsensor_mode = true\n",
               "[drive]\nprofile = constant\nomega = 1000\n"]
# values that fit the 4 ms fuzz scenario, so that the windowed verbs get
# past their window and band checks: window ends after its 0.2 ms warm-up,
# probe frequencies whose warm-up (2/f) ends by the earliest t1, and bands
_FITTING = {"--t1": ["0.001", "0.002"], "--t2": ["0.003", "0.004"],
            "--frequencies": ["2000", "5000", "10000"],
            "--band-proposed": ["0", "3"], "--band-conventional": ["0", "3"],
            "--slope-band": ["-9", "9"], "--ratio-band": ["0", "9"]}


def _flag_words(draw, flags, required):
    """Each of the flags, or not where it is not required, as
    --flag=value with values drawn from EXTREMES; in half the examples,
    each flag of _FITTING instead, with its values: a band in order, and
    at least the two frequencies an order fit needs."""
    fit = draw(st.booleans())
    words = []
    for flag, join in flags.items():
        n = {None: 1, ":": 2, ",": draw(st.integers(1, 3))}[join]
        if fit and flag in _FITTING:
            n = max(n, 2) if join == "," else n
            values = draw(st.lists(st.sampled_from(_FITTING[flag]),
                                   min_size=n, max_size=n, unique=True))
            if join == ":":
                values.sort(key=float)
        else:
            values = st.lists(st.sampled_from(EXTREMES), min_size=n,
                              max_size=n)
            values = draw(values if flag in required
                          else st.none() | values)
        if values is not None:
            words.append(f"{flag}={(join or '').join(values)}")
    return words


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
@pytest.mark.parametrize("verb", sorted(_VERB_FLAGS))
def test_verb_flags_end_in_a_documented_outcome(verb, tmp_path, capsys,
                                                monkeypatch, data):
    """Each verb on a short scenario, closed loop in sensor mode or driven,
    with its numeric and band flags at the edges of a float and of an int,
    and at most one of --workers, --seed, HFSENSE_WORKERS and HFSENSE_SEED,
    ends in a documented outcome."""
    text = (_FUZZ_SCENARIO.format(**_FUZZ_TIMES.get(
        verb, {"duration": 0.004, "epsilon": 1e-4, "gamma": 1e5}))
            + data.draw(st.sampled_from(_FUZZ_MODES)))
    path = tmp_path / "fuzz.scenario"
    path.write_text(text)
    out = tmp_path / "o"
    shutil.rmtree(out, ignore_errors=True)
    words = []
    for name in _GLOBALS:
        monkeypatch.delenv(name, raising=False)
    name = data.draw(st.none() | st.sampled_from(sorted(_GLOBALS)))
    if name is not None:
        value = data.draw(st.sampled_from(_GLOBALS[name]))
        if name.startswith("--"):
            words = [f"{name}={value}"]
        else:
            monkeypatch.setenv(name, value)
    argv = ["--config", str(path), "--out", str(out), *words, verb,
            *_flag_words(data.draw, _VERB_FLAGS[verb], _REQUIRED)]
    main_outcome(argv, out, capsys)
