"""Plain-text scenario files: `[section]` headers and `key = value` lines.

Deliberately dependency-free and strict: unknown sections or keys are
rejected (with the offending line number), as are invariant violations, so a
typo in a scenario file cannot silently fall back to a default.  A `[drive]`
section, and nothing else, makes the run driven.
"""

from __future__ import annotations

import math

from .controller import ControllerConfig
from .motor import MotorParams
from .signal_ops import InjectionConfig
from .sim import DriveProfile, ScenarioConfig


class ConfigError(ValueError):
    pass


def _float(v: str) -> float:
    x = float(v)
    if not math.isfinite(x):
        raise ValueError(f"not a finite number: {v!r}")
    return x


def _bool(v: str) -> bool:
    s = v.lower()
    if s in ("true", "yes", "on", "1"):
        return True
    if s in ("false", "no", "off", "0"):
        return False
    raise ValueError(f"not a boolean: {v!r}")


# section -> key -> converter; a key left out of a file keeps the default of
# the dataclass field it feeds
_F = _float
_SCHEMA = {
    "motor": {"n_p": int, "R_s": _F, "L_d": _F, "L_q": _F, "Phi": _F, "J": _F,
              "f": _F},
    "injection": {"V_h": _F, "epsilon": _F, "phi": _F, "phi_p": _F,
                  "enabled": _bool},
    "estimator": {"kind": str, "gamma_alpha": _F, "gamma_beta": _F,
                  "ell1": _F, "ell2": _F, "ell3": _F, "lambda_ell": _F,
                  "pll_kp": _F, "pll_ki": _F, "theta0_est": _F},
    "controller": {"speed_kp": _F, "speed_ki": _F, "current_kp": _F,
                   "current_ki": _F, "omega_ref": _F, "i_d_ref": _F,
                   "i_q_limit": _F, "v_limit": _F, "meas_lpf_cutoff": _F,
                   "sensor_mode": _bool},
    "simulation": {"steps_per_period": int, "duration": _F,
                   "decimation": int, "noise_std": _F, "seed": int,
                   "theta0": _F, "omega0": _F, "i_alpha0": _F, "i_beta0": _F,
                   "divergence_limit": _F, "load_torque": _F},
    "drive": {"profile": str, "omega": _F, "omega_end": _F,
              "t_ramp_start": _F, "t_ramp_end": _F},
}

_REQUIRED_MOTOR = ("n_p", "R_s", "L_d", "L_q", "Phi", "J")


def parse_kv_file(path) -> dict[str, dict[str, tuple[str, int]]]:
    """Raw sections -> {key: (value string, line number)}."""
    out: dict[str, dict[str, tuple[str, int]]] = {}
    section = None
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if line.startswith("[") and line.endswith("]"):
                section = line[1:-1].strip()
                if section not in _SCHEMA:
                    raise ConfigError(f"{path}:{lineno}: unknown section [{section}]")
                out.setdefault(section, {})
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            if section is None:
                raise ConfigError(f"{path}:{lineno}: key outside any section")
            key, val = (p.strip() for p in line.split("=", 1))
            if key not in _SCHEMA[section]:
                raise ConfigError(
                    f"{path}:{lineno}: unknown key {key!r} in section [{section}]")
            if key in out[section]:
                raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
            out[section][key] = (val, lineno)
    return out


def _section(raw: dict, name: str, path: str) -> dict:
    """Converted values of the keys given in [name], by key."""
    out = {}
    for key, (val, lineno) in raw.get(name, {}).items():
        try:
            out[key] = _SCHEMA[name][key](val)
        except (ValueError, TypeError) as exc:
            raise ConfigError(
                f"{path}:{lineno}: bad value for {key!r}: {exc}") from None
    return out


def _build(path: str, section: str, cls, **kw):
    """cls(**kw), with its invariant violations reported as ConfigError."""
    try:
        return cls(**kw)
    except ValueError as exc:
        raise ConfigError(f"{path}: {section}{exc}") from None


def load_scenario(path) -> ScenarioConfig:
    """Parse and validate a scenario file into a ScenarioConfig."""
    raw = parse_kv_file(path)
    p = str(path)
    motor, inj, est, ctl, sim, drive = (
        _section(raw, name, p) for name in
        ("motor", "injection", "estimator", "controller", "simulation",
         "drive"))

    for k in _REQUIRED_MOTOR:
        if k not in motor:
            raise ConfigError(f"{p}: [motor] missing required key {k!r}")
    top = {"motor": _build(p, "[motor] ", MotorParams, **motor)}
    top["injection_enabled"] = inj.pop("enabled", True)
    top["injection"] = _build(p, "[injection] ", InjectionConfig, **inj)
    top["sensor_mode"] = ctl.pop("sensor_mode", False)
    top["controller"] = _build(p, "[controller] ", ControllerConfig, **ctl)
    if "drive" in raw:
        if "profile" in drive:
            drive["kind"] = drive.pop("profile")
        top["drive"] = _build(p, "[drive] ", DriveProfile, **drive)

    if "kind" in est:
        est["estimator"] = est.pop("kind")
    ell = [est.pop(k, d) for k, d in zip(("ell1", "ell2", "ell3"),
                                         ScenarioConfig.ell)]
    return _build(p, "", ScenarioConfig, ell=tuple(ell), **top, **est, **sim)
