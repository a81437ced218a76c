"""Simulation laboratory for sensorless IPMSM rotor-position estimation
via high-frequency voltage injection.

Two estimation pipelines run on the same simulated machine: the classical
LTI filter chain (high-pass, synchronous demodulation, low-pass) and a
delay/hold regressor followed by a gradient demodulator.  The package
provides the motor model, the signal operators, both estimators, a
sensorless field-oriented controller, a fixed-step simulation engine,
scenario files and a CLI for the standard experiments.
"""

from .controller import ControllerConfig, SensorlessController
from .estimators import (
    ConventionalEstimator,
    BlockFormEstimator,
    ProposedEstimator,
    fit_compensation,
    rmsd,
    synthesize_injection_current,
    wrap_mod_pi,
)
from .motor import MotorParams, virtual_output
from .signal_ops import (
    InjectionConfig,
    bode_table,
    gd_frequency_response,
    hpf_frequency_response,
    lpf_frequency_response,
    probe_signal,
)
from .sim import (
    DriveProfile,
    ScenarioConfig,
    SimulationDiverged,
    Trace,
    averaging_residual,
    run,
)
from .config import ConfigError, load_scenario

__version__ = "0.1.0"

__all__ = [
    "ConfigError", "ControllerConfig", "ConventionalEstimator",
    "DriveProfile", "BlockFormEstimator",
    "InjectionConfig", "MotorParams",
    "ProposedEstimator", "ScenarioConfig", "SensorlessController",
    "SimulationDiverged", "Trace", "averaging_residual", "bode_table",
    "fit_compensation", "gd_frequency_response",
    "hpf_frequency_response", "load_scenario",
    "lpf_frequency_response", "probe_signal", "rmsd", "run",
    "synthesize_injection_current", "virtual_output", "wrap_mod_pi",
]
