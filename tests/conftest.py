"""Shared fixtures: reference motor/injection parameter sets and scenario paths."""

import math
from pathlib import Path

import pytest

from hfsense.motor import SIM_MOTOR, BENCH_MOTOR
from hfsense.signal_ops import InjectionConfig, sample_period

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


@pytest.fixture(scope="session")
def sim_motor():
    return SIM_MOTOR


@pytest.fixture(scope="session")
def bench_motor():
    return BENCH_MOTOR


@pytest.fixture(scope="session")
def inj():
    """Default probe: 1 V, 1 kHz (epsilon = 1e-3 s)."""
    return InjectionConfig(V_h=1.0, epsilon=1e-3)


@pytest.fixture(scope="session")
def scenario_dir():
    return SCENARIO_DIR


@pytest.fixture
def N():
    """Samples per probe period of the default sampling."""
    return 50


@pytest.fixture
def Ts(inj, N):
    return sample_period(inj, N)


def approx_mod_pi(a: float, b: float, tol: float) -> bool:
    """True when a == b modulo pi within tol."""
    d = (a - b + 0.5 * math.pi) % math.pi - 0.5 * math.pi
    return abs(d) <= tol


def pytest_addoption(parser):
    parser.addoption("--installed-cli", action="store_true",
                     help="run the CLI outcome table (tests/cli_cases.py) "
                          "through the hfsense on PATH, in a subprocess")
