"""The package's export list: what the CLI, `experiments` and scenario
users need, each name once, and no test oracle."""

import hfsense


def test_every_exported_name_resolves_once():
    names = hfsense.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert getattr(hfsense, name, None) is not None, name


def test_signal_operator_oracles_are_not_exported():
    for name in ("Regressor", "HighPass2", "LowPass1"):
        assert name not in hfsense.__all__
        assert not hasattr(hfsense, name)


def test_pll_oracle_and_machines_are_not_exported():
    """`Pll` is the oracle of the estimators' inline loop, which builds
    its constants without it; the machines are the shipped scenarios'."""
    for name in ("Pll", "SIM_MOTOR", "BENCH_MOTOR"):
        assert name not in hfsense.__all__
        assert not hasattr(hfsense, name)
