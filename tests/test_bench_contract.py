"""What bench/run.py needs of the package, checked without changing it.

The benchmark's tracer wraps public entry points by (owner, attribute) and
restores them afterwards; its set-up probe times each workload up to the
first call of a wrapped estimator or controller step and fails when the
operation returns without one.  A rename or a restructuring that breaks
either shows here, not first in a benchmark run.
"""

import importlib.util
from pathlib import Path

import pytest

import hfsense
import hfsense.config  # noqa: F401  (binds the submodules bench/run.py reads)
import hfsense.experiments  # noqa: F401
from hfsense.estimators import BlockFormEstimator

BENCH_RUN = Path(__file__).resolve().parent.parent / "bench" / "run.py"


@pytest.fixture(scope="module")
def bench():
    spec = importlib.util.spec_from_file_location("bench_run", BENCH_RUN)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_entry_point_resolves(bench):
    for layer, owner, attr in bench.entry_points(hfsense):
        assert callable(getattr(owner, attr, None)), (layer, attr)


def test_block_form_has_its_own_step():
    """`wrapped` restores by setattr on the owner: only an attribute of the
    class's own dict comes back as it was."""
    assert "step" in BlockFormEstimator.__dict__


def test_wrapped_restores_every_attribute(bench):
    points = bench.entry_points(hfsense)
    before = [(owner, attr, getattr(owner, attr),
               dict(vars(owner)).get(attr)) for _, owner, attr in points]
    with bench.wrapped(points, lambda layer, fn: lambda *a, **kw: fn(*a, **kw)):
        assert all(getattr(owner, attr) is not fn
                   for owner, attr, fn, _ in before)
    for owner, attr, fn, own in before:
        assert getattr(owner, attr) is fn, attr
        assert dict(vars(owner)).get(attr) is own, attr


@pytest.mark.parametrize("workload", ["closed_loop", "estimator_replay",
                                      "driven_residual"])
def test_each_workload_reaches_a_wrapped_step(bench, workload):
    """The set-up probe's condition, on the benchmark's own (tiny)
    workloads: the operation calls a wrapped step before it returns."""
    op = bench.WORKLOADS[workload](hfsense, 1, True).op
    steppers = [p for p in bench.entry_points(hfsense)
                if p[0] in bench.TIMED_LAYERS]

    def stop(layer, fn):
        def first_step(*args, **kwargs):
            raise bench.FirstStep(layer)
        return first_step

    with bench.wrapped(steppers, stop):
        with pytest.raises(bench.FirstStep):
            op()
