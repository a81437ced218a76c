"""Plain-text scenario files: `[section]` headers and `key = value` lines.

Deliberately dependency-free and strict: unknown sections or keys are
rejected (with the offending line number), as are invariant violations, so a
typo in a scenario file cannot silently fall back to a default.
"""

from __future__ import annotations

from .controller import ControllerConfig
from .motor import MotorParams
from .signal_ops import InjectionConfig
from .sim import DriveProfile, LoadProfile, ScenarioConfig


class ConfigError(ValueError):
    pass


_SCHEMA = {
    "motor": {"n_p", "R_s", "L_d", "L_q", "Phi", "J", "f"},
    "injection": {"V_h", "epsilon", "phi", "phi_p", "enabled"},
    "estimator": {"kind", "gamma_alpha", "gamma_beta", "ell1", "ell2", "ell3",
                  "lambda_h", "lambda_ell", "omega_star", "pll_kp", "pll_ki",
                  "theta0_est"},
    "controller": {"speed_kp", "speed_ki", "current_kp", "current_ki",
                   "omega_ref", "i_d_ref", "i_q_limit", "v_limit",
                   "meas_lpf_cutoff", "sensor_mode"},
    "simulation": {"mode", "Ts", "steps_per_period", "duration", "decimation",
                   "noise_std", "seed", "theta0", "omega0", "i_alpha0",
                   "i_beta0", "divergence_limit"},
    "load": {"kind", "value", "amplitude", "frequency", "times", "values"},
    "drive": {"profile", "omega", "omega_end", "t_ramp_start", "t_ramp_end"},
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


def _get(sec: dict, key: str, conv, default=None, path="", required=False):
    if key not in sec:
        if required:
            raise ConfigError(f"{path}: missing required key {key!r}")
        return default
    val, lineno = sec[key]
    try:
        return conv(val)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"{path}:{lineno}: bad value for {key!r}: {exc}") from None


def _bool(v: str) -> bool:
    s = v.lower()
    if s in ("true", "yes", "on", "1"):
        return True
    if s in ("false", "no", "off", "0"):
        return False
    raise ValueError(f"not a boolean: {v!r}")


def _floats(v: str) -> tuple[float, ...]:
    return tuple(float(x) for x in v.split(",") if x.strip())


def load_scenario(path) -> ScenarioConfig:
    """Parse and validate a scenario file into a ScenarioConfig."""
    raw = parse_kv_file(path)
    p = str(path)

    msec = raw.get("motor", {})
    for k in _REQUIRED_MOTOR:
        if k not in msec:
            raise ConfigError(f"{p}: [motor] missing required key {k!r}")
    try:
        motor = MotorParams(
            n_p=_get(msec, "n_p", int, path=p, required=True),
            R_s=_get(msec, "R_s", float, path=p, required=True),
            L_d=_get(msec, "L_d", float, path=p, required=True),
            L_q=_get(msec, "L_q", float, path=p, required=True),
            Phi=_get(msec, "Phi", float, path=p, required=True),
            J=_get(msec, "J", float, path=p, required=True),
            f=_get(msec, "f", float, default=1e-3, path=p),
        )
    except ValueError as exc:
        raise ConfigError(f"{p}: [motor] {exc}") from None

    isec = raw.get("injection", {})
    try:
        injection = InjectionConfig(
            V_h=_get(isec, "V_h", float, default=1.0, path=p),
            epsilon=_get(isec, "epsilon", float, default=1e-3, path=p),
            phi=_get(isec, "phi", float, default=0.0, path=p),
            phi_p=_get(isec, "phi_p", float, default=0.0, path=p),
        )
    except ValueError as exc:
        raise ConfigError(f"{p}: [injection] {exc}") from None
    injection_enabled = _get(isec, "enabled", _bool, default=True, path=p)

    csec = raw.get("controller", {})
    try:
        controller = ControllerConfig(
            speed_kp=_get(csec, "speed_kp", float, default=1.0, path=p),
            speed_ki=_get(csec, "speed_ki", float, default=5.0, path=p),
            current_kp=_get(csec, "current_kp", float, default=5.0, path=p),
            current_ki=_get(csec, "current_ki", float, default=5.0, path=p),
            omega_ref=_get(csec, "omega_ref", float, default=0.5, path=p),
            i_d_ref=_get(csec, "i_d_ref", float, default=0.0, path=p),
            i_q_limit=_get(csec, "i_q_limit", float, default=20.0, path=p),
            v_limit=_get(csec, "v_limit", float, default=400.0, path=p),
            meas_lpf_cutoff=_get(csec, "meas_lpf_cutoff", float, path=p),
        )
    except ValueError as exc:
        raise ConfigError(f"{p}: [controller] {exc}") from None
    sensor_mode = _get(csec, "sensor_mode", _bool, default=False, path=p)

    lsec = raw.get("load", {})
    try:
        load = LoadProfile(
            kind=_get(lsec, "kind", str, default="constant", path=p),
            value=_get(lsec, "value", float, default=0.0, path=p),
            amplitude=_get(lsec, "amplitude", float, default=0.0, path=p),
            frequency=_get(lsec, "frequency", float, default=0.0, path=p),
            times=_get(lsec, "times", _floats, default=(), path=p),
            values=_get(lsec, "values", _floats, default=(), path=p),
        )
    except ValueError as exc:
        raise ConfigError(f"{p}: [load] {exc}") from None

    drive = None
    if "drive" in raw:
        dsec = raw["drive"]
        try:
            drive = DriveProfile(
                kind=_get(dsec, "profile", str, default="constant", path=p),
                omega=_get(dsec, "omega", float, default=0.0, path=p),
                omega_end=_get(dsec, "omega_end", float, default=0.0, path=p),
                t_ramp_start=_get(dsec, "t_ramp_start", float, default=0.0, path=p),
                t_ramp_end=_get(dsec, "t_ramp_end", float, default=0.0, path=p),
            )
        except ValueError as exc:
            raise ConfigError(f"{p}: [drive] {exc}") from None

    esec = raw.get("estimator", {})
    ssec = raw.get("simulation", {})
    steps_per_period = _get(ssec, "steps_per_period", int, default=50, path=p)
    Ts = _get(ssec, "Ts", float, path=p)
    if Ts is not None:
        ratio = injection.epsilon / Ts
        n = round(ratio)
        if n < 2 or abs(n - ratio) > 1e-9 * ratio:
            raise ConfigError(
                f"{p}: Ts={Ts} does not divide the probe period "
                f"epsilon={injection.epsilon}")
        steps_per_period = n
    try:
        cfg = ScenarioConfig(
            motor=motor,
            injection=injection,
            controller=controller,
            load=load,
            drive=drive,
            mode=_get(ssec, "mode", str, default="closed_loop", path=p),
            estimator=_get(esec, "kind", str, default="both", path=p),
            gamma_alpha=_get(esec, "gamma_alpha", float, default=1e4, path=p),
            gamma_beta=_get(esec, "gamma_beta", float, default=1e4, path=p),
            ell=(
                _get(esec, "ell1", float, default=1.0, path=p),
                _get(esec, "ell2", float, default=0.0, path=p),
                _get(esec, "ell3", float, default=1.0, path=p),
            ),
            lambda_h=_get(esec, "lambda_h", float, path=p),
            lambda_ell=_get(esec, "lambda_ell", float, path=p),
            omega_star=_get(esec, "omega_star", float, default=0.5, path=p),
            pll_kp=_get(esec, "pll_kp", float, default=5.0, path=p),
            pll_ki=_get(esec, "pll_ki", float, default=0.01, path=p),
            theta0_est=_get(esec, "theta0_est", float, default=0.0, path=p),
            steps_per_period=steps_per_period,
            duration=_get(ssec, "duration", float, default=10.0, path=p),
            decimation=_get(ssec, "decimation", int, default=10, path=p),
            noise_std=_get(ssec, "noise_std", float, default=0.0, path=p),
            seed=_get(ssec, "seed", int, default=0, path=p),
            theta0=_get(ssec, "theta0", float, default=0.0, path=p),
            omega0=_get(ssec, "omega0", float, default=0.0, path=p),
            i_alpha0=_get(ssec, "i_alpha0", float, default=0.0, path=p),
            i_beta0=_get(ssec, "i_beta0", float, default=0.0, path=p),
            sensor_mode=sensor_mode,
            injection_enabled=injection_enabled,
            divergence_limit=_get(ssec, "divergence_limit", float,
                                  default=500.0, path=p),
        )
    except ValueError as exc:
        raise ConfigError(f"{p}: {exc}") from None
    return cfg
