"""Command-line front end.

Verbs: run, compare-rmsd (a one-point `experiments.sweep`), sweep-frequency,
residual-order, bode, calibrate, equivalence.  Every verb reads a scenario
file (--config) and may write CSV artifacts into --out.  `main` alone turns
a verb's outcome into output:

* the verb finishes: summary.json holds {"command", "passed", ...} and the
  exit code is 0 on pass, 1 on a failed acceptance band;
* the simulation, or the estimator replay of `equivalence`, diverges: one
  stderr line, summary.json with "passed": false and the "reason", exit 1;
* the input is rejected (scenario, flag, environment variable, sweep point
  or an unwritable --out): one "config error:" line, no summary.json, exit 2.

Environment variables HFSENSE_CONFIG / HFSENSE_OUT / HFSENSE_WORKERS /
HFSENSE_SEED provide defaults for the matching flags; an empty one counts as
unset.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import experiments
from .config import ConfigError, load_scenario
from .signal_ops import (
    bode_table,
    gd_frequency_response,
    hpf_frequency_response,
    lpf_frequency_response,
)
from .sim import SimulationDiverged, run

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2

# compare-rmsd's output names (keys, --band-* flags), by trace prefix
_PIPELINE_NAMES = {"prop": "proposed", "conv": "conventional"}


# flags whose value is a band lo:hi, which starts with "-" when lo < 0
_BAND_FLAGS = frozenset({"--band-proposed", "--band-conventional",
                         "--slope-band", "--ratio-band"})


class _Parser(argparse.ArgumentParser):
    """argparse with a rejected flag reported as one config error line.

    It still exits with SystemExit, as argparse does, now with code 2.
    argparse reads a value such as "-1:2" as a flag, so a band flag and the
    word after it are joined into "--flag=value": both spellings parse.
    Abbreviated flags are rejected (here and in every subparser, which
    argparse builds from this class), so each flag has one spelling.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        self.exit(EXIT_CONFIG, f"config error: {self.prog}: {message}\n")

    def parse_known_args(self, args=None, namespace=None):
        words = iter(sys.argv[1:] if args is None else args)
        joined = []
        for w in words:
            value = next(words, None) if w in _BAND_FLAGS else None
            joined.append(w if value is None else f"{w}={value}")
        return super().parse_known_args(joined, namespace)


def _band(spec: str) -> tuple[float, float]:
    lo, hi = (float(x) for x in spec.split(":"))
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise argparse.ArgumentTypeError(f"band {spec!r} has a non-finite end")
    if hi <= lo:
        raise argparse.ArgumentTypeError("band must be lo:hi with hi > lo")
    return lo, hi


def _floats_arg(spec: str) -> list[float]:
    return [float(x) for x in spec.split(",")]


def _env_default(name: str, fallback=None):
    """HFSENSE_<name>, or fallback when it is unset or empty."""
    return os.environ.get(f"HFSENSE_{name}") or fallback


def _env_int(name: str, fallback: int | None = None) -> int | None:
    raw = _env_default(name)
    if not raw:
        return fallback
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"HFSENSE_{name}={raw!r} is not an integer") from None


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="hfsense",
        description="Sensorless IPMSM position-estimation experiments")
    ap.add_argument("--config", default=_env_default("CONFIG"),
                    help="scenario file (or HFSENSE_CONFIG)")
    ap.add_argument("--out", default=_env_default("OUT", "out"),
                    help="output directory (or HFSENSE_OUT)")
    ap.add_argument("--workers", type=int, default=_env_int("WORKERS", 1),
                    help="parallel sweep workers (or HFSENSE_WORKERS)")
    ap.add_argument("--seed", type=int, default=_env_int("SEED"),
                    help="override the scenario RNG seed (or HFSENSE_SEED)")
    sub = ap.add_subparsers(dest="command", required=True)

    sub.add_parser("run", help="simulate one scenario and dump the trace")

    p = sub.add_parser("compare-rmsd",
                       help="both estimators on one trace, RMSD table")
    p.add_argument("--t1", type=float, default=5.0)
    p.add_argument("--t2", type=float, default=10.0)
    p.add_argument("--band-proposed", type=_band, default=None,
                   help="lo:hi; default [L, 2L] from the steady lag limit L")
    p.add_argument("--band-conventional", type=_band, default=None,
                   help="lo:hi; default [L, 2L] from the steady lag limit L")

    p = sub.add_parser("sweep-frequency",
                       help="steady error vs probe frequency, order fit")
    p.add_argument("--frequencies", type=_floats_arg,
                   default=[500.0, 1000.0, 2000.0], help="Hz, comma separated")
    p.add_argument("--t1", type=float, required=True)
    p.add_argument("--t2", type=float, required=True)
    p.add_argument("--gamma-scale", type=float, default=None,
                   help="if set, gamma = gamma_scale/epsilon per point")
    p.add_argument("--slope-band", type=_band, default=(0.7, 1.3))
    p.add_argument("--metric", choices=("rms", "ripple"), default="rms",
                   help="rms: total steady error; ripple: oscillating part "
                        "only (use at standstill, where the error mean "
                        "converges faster than the carrier-leakage bound)")

    p = sub.add_parser("residual-order",
                       help="averaging-remainder norm at epsilon and epsilon/2")
    p.add_argument("--t1", type=float, required=True)
    p.add_argument("--t2", type=float, required=True)
    p.add_argument("--ratio-band", type=_band, default=(3.0, 5.0))

    p = sub.add_parser("bode", help="export frequency-response tables")
    p.add_argument("--omega-min", type=float, default=1.0)
    p.add_argument("--omega-max", type=float, default=1e5)
    p.add_argument("--points", type=int, default=400)

    p = sub.add_parser("calibrate",
                       help="fit compensation gains from a synthetic trace")
    p.add_argument("--phase-err", type=float, default=0.0)
    p.add_argument("--ripple-scale", type=float, default=1.0)

    p = sub.add_parser("equivalence",
                       help="operator form vs block form of the new pipeline")
    p.add_argument("--duration", type=float, default=10.0)
    p.add_argument("--tolerance", type=float, default=1e-9)

    return ap


def _write_summary(outdir: Path, payload: dict):
    outdir.mkdir(parents=True, exist_ok=True)
    with open(outdir / "summary.json", "w") as fh:
        json.dump(payload, fh, indent=2)


def _write_csv(path: Path, header, table):
    """One artifact table: named-column header, commas, %.17g (round-trips
    doubles exactly)."""
    path.parent.mkdir(parents=True, exist_ok=True)
    np.savetxt(path, table, delimiter=",", header=",".join(header),
               comments="", fmt="%.17g")


def _load(args):
    if not args.config:
        raise ConfigError("no scenario file given (--config or HFSENSE_CONFIG)")
    cfg = load_scenario(args.config)
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    return cfg


def _in_band(x, band) -> bool:
    return band[0] <= x <= band[1]


def cmd_run(cfg, args, outdir: Path):
    trace = run(cfg)
    _write_csv(outdir / "trace.csv", trace.columns,
               np.column_stack([trace.data[c] for c in trace.columns]))
    final = {
        "t_end": float(trace.t[-1]),
        "omega_end": float(trace.omega[-1]),
        "theta_end": float(trace.theta[-1]),
    }
    print(f"trace written to {outdir / 'trace.csv'} ({len(trace)} records)")
    print(f"final speed {final['omega_end']:.4f} rad/s at t={final['t_end']:.3f} s")
    return True, final


def _rmsd_bands(args, cfg) -> dict:
    """Bands from the flags, else [L, 2L] around each steady lag limit L."""
    bands = {"proposed": args.band_proposed,
             "conventional": args.band_conventional}
    if None in bands.values():
        try:
            limits = {_PIPELINE_NAMES[p]: lim for p, lim in
                      experiments.steady_lag_limits(cfg).items()}
        except ValueError as exc:
            raise ConfigError(f"no default RMSD band: {exc}; pass "
                              "--band-proposed and --band-conventional")
        for name, lim in limits.items():
            if bands[name] is None:
                if lim <= 0.0:
                    raise ConfigError("no default RMSD band at zero reference "
                                      "speed; pass --band-proposed and "
                                      "--band-conventional")
                bands[name] = (lim, 2.0 * lim)
    return bands


def cmd_compare_rmsd(cfg, args, outdir: Path):
    bands = _rmsd_bands(args, cfg)
    [by_prefix] = experiments.sweep([replace(cfg, estimator="both")], "rms",
                                    args.t1, args.t2)
    res = {_PIPELINE_NAMES[p]: r for p, r in by_prefix.items()}
    payload = {"t1": args.t1, "t2": args.t2, **res,
               **{f"band_{k}": list(v) for k, v in bands.items()}}
    ok = {k: _in_band(res[k], band) for k, band in bands.items()}
    ok_order = res["proposed"] < res["conventional"]
    print(f"{'estimator':<14}{'rmsd [rad]':>12}{'band':>20}{'ok':>7}")
    for k, band in bands.items():
        band_s = f"[{band[0]:.4f}, {band[1]:.4f}]"
        print(f"{k:<14}{res[k]:>12.4f}{band_s:>20}{str(ok[k]):>7}")
    print(f"ordering proposed < conventional: {ok_order}")
    return all(ok.values()) and ok_order, payload


def cmd_sweep_frequency(cfg, args, outdir: Path):
    res = experiments.frequency_sweep(
        cfg, args.frequencies, args.t1, args.t2,
        gamma_scale=args.gamma_scale, workers=args.workers, metric=args.metric)
    _write_csv(outdir / "sweep.csv", ("freq_hz", "epsilon", "rms_error_rad"),
               np.column_stack([res["freqs_hz"], res["epsilons"], res["errors"]]))
    for f, e in zip(res["freqs_hz"], res["errors"]):
        print(f"f={f:8.1f} Hz   steady error {e:.6f} rad")
    passed = _in_band(res["slope"], args.slope_band)
    print(f"fitted order {res['slope']:.3f}, band {args.slope_band}: "
          f"{'pass' if passed else 'FAIL'}")
    return passed, {"slope_band": list(args.slope_band), **res}


def cmd_residual_order(cfg, args, outdir: Path):
    res = experiments.residual_order(cfg, args.t1, args.t2)
    print(f"|r|_inf at eps={res['epsilon']:.2e}:   {res['norm_eps']:.3e} A")
    print(f"|r|_inf at eps/2:          {res['norm_eps_half']:.3e} A")
    passed = _in_band(res["ratio"], args.ratio_band)
    print(f"ratio {res['ratio']:.2f}, band {args.ratio_band}: "
          f"{'pass' if passed else 'FAIL'}")
    return passed, {"ratio_band": list(args.ratio_band), **res}


def cmd_bode(cfg, args, outdir: Path):
    if not 0.0 < args.omega_min < args.omega_max < math.inf:
        raise ConfigError("bode needs 0 < --omega-min < --omega-max")
    if args.points < 2:
        raise ConfigError("bode needs --points >= 2")
    lam_h, lam_l = cfg.injection.omega_h, cfg.corner
    try:
        omega = np.logspace(math.log10(args.omega_min),
                            math.log10(args.omega_max), args.points)
        tables = {name: bode_table(resp, omega) for name, resp in [
            ("gd", gd_frequency_response(cfg.injection.epsilon, omega)),
            ("hpf", hpf_frequency_response(lam_h, omega)),
            ("lpf", lpf_frequency_response(lam_l, omega)),
        ]}
    except MemoryError:
        raise ConfigError(f"bode --points {args.points}: the frequency grid "
                          "cannot be allocated") from None
    for name, table in tables.items():
        path = outdir / f"bode_{name}.csv"
        _write_csv(path, ("omega_rad_s", "mag_db", "phase_deg_unwrapped"),
                   table)
        print(f"wrote {path}")
    return True, {"lambda_h": lam_h, "lambda_ell": lam_l}


def cmd_calibrate(cfg, args, outdir: Path):
    res = experiments.calibrate(cfg, phase_err=args.phase_err,
                                ripple_scale=args.ripple_scale)
    print(f"ell1={res['ell1']:.6g}  ell2={res['ell2']:.6g}  "
          f"ell3={res['ell3']:.6g}")
    print(f"angle RMS before {res['rmsd_raw']:.5f} rad, "
          f"after {res['rmsd_compensated']:.5f} rad")
    return True, res


def cmd_equivalence(cfg, args, outdir: Path):
    if not 0.0 <= args.tolerance < math.inf:
        raise ConfigError(f"equivalence needs a finite --tolerance >= 0, "
                          f"got {args.tolerance}")
    # equivalence_deviation runs both axes at one gain
    if cfg.gamma_alpha != cfg.gamma_beta:
        raise ConfigError(f"equivalence needs gamma_alpha == gamma_beta, got "
                          f"{cfg.gamma_alpha:g} and {cfg.gamma_beta:g}")
    try:
        res = experiments.equivalence_deviation(
            cfg.motor, cfg.injection, cfg.steps_per_period, args.duration,
            gamma=cfg.gamma_alpha)
    except MemoryError:
        raise ConfigError(f"equivalence --duration {args.duration:g} s: its "
                          "samples cannot be allocated") from None
    passed = bool(res["max_rel_yv_deviation"] <= args.tolerance)
    print(f"max relative deviation {res['max_rel_yv_deviation']:.3e} "
          f"(tolerance {args.tolerance:.1e}): {'pass' if passed else 'FAIL'}")
    return passed, {"tolerance": args.tolerance, **res}


_COMMANDS = {
    "run": cmd_run,
    "compare-rmsd": cmd_compare_rmsd,
    "sweep-frequency": cmd_sweep_frequency,
    "residual-order": cmd_residual_order,
    "bode": cmd_bode,
    "calibrate": cmd_calibrate,
    "equivalence": cmd_equivalence,
}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        outdir = Path(args.out)
        cfg = _load(args)
        try:
            passed, payload = _COMMANDS[args.command](cfg, args, outdir)
        except SimulationDiverged as exc:
            reason = f"simulation aborted: {exc}"
            print(reason, file=sys.stderr)
            passed, payload = False, {"reason": reason}
        _write_summary(outdir, {"command": args.command, "passed": passed,
                                **payload})
        return EXIT_PASS if passed else EXIT_FAIL
    except (ValueError, OSError) as exc:
        # The library raises ValueError only to reject a value (ConfigError
        # is one); sim.run turns a numeric failure inside a step into
        # SimulationDiverged.  So a ValueError here is always rejected input.
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
