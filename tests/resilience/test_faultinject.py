"""Tests for the deterministic solver fault-injection harness."""

import numpy as np
import pytest

from repro.ctmc import build_ctmc, steady_state
from repro.ctmc.steady import SOLVERS
from repro.exceptions import SolverError
from repro.resilience import FaultInjector, FaultSpec, inject_fault


@pytest.fixture
def chain():
    return build_ctmc(2, [(0, "d", 1.0, 1), (1, "u", 3.0, 0)])


class TestFaultSpec:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultSpec(kind="gremlins")

    def test_first_n_targets_leading_calls(self):
        spec = FaultSpec.first_n("converge", 3)
        assert spec.applies_to(1) and spec.applies_to(3)
        assert not spec.applies_to(4)

    def test_default_targets_first_call_only(self):
        spec = FaultSpec(kind="nan")
        assert spec.applies_to(1)
        assert not spec.applies_to(2)


class TestFaultInjector:
    def test_registry_restored_after_block(self, chain):
        original = SOLVERS["direct"]
        with inject_fault("direct", FaultSpec(kind="converge")):
            assert SOLVERS["direct"] is not original
        assert SOLVERS["direct"] is original

    def test_registry_restored_even_on_error(self, chain):
        original = SOLVERS["direct"]
        with pytest.raises(SolverError):
            with inject_fault("direct", FaultSpec(kind="converge")):
                steady_state(chain, "direct")
        assert SOLVERS["direct"] is original

    def test_unknown_method_rejected(self):
        with pytest.raises(SolverError, match="unknown method"):
            FaultInjector("quantum", FaultSpec(kind="converge"))

    def test_nth_call_targeting_and_log(self, chain):
        with inject_fault("direct", FaultSpec(kind="converge", calls=(2,))) as inj:
            first = steady_state(chain, "direct")
            with pytest.raises(SolverError, match="injected"):
                steady_state(chain, "direct")
            third = steady_state(chain, "direct")
        assert inj.calls == 3
        assert inj.log == [(1, "pass"), (2, "fault"), (3, "pass")]
        assert np.allclose(first, third)

    def test_zero_fault_rejected_by_normalisation(self, chain):
        with inject_fault("direct", FaultSpec(kind="zero")):
            with pytest.raises(SolverError, match="zero vector"):
                steady_state(chain, "direct")

    def test_nan_fault_rejected_by_normalisation(self, chain):
        with inject_fault("direct", FaultSpec(kind="nan")):
            with pytest.raises(SolverError, match="non-finite"):
                steady_state(chain, "direct")

    def test_custom_exception_class(self, chain):
        class Flaky(ConnectionError):
            pass

        with inject_fault("direct", FaultSpec(kind="exception", exception=Flaky)):
            with pytest.raises(SolverError, match="Flaky") as info:
                steady_state(chain, "direct")
        [attempt] = info.value.diagnostics.attempts
        assert attempt.outcome == "error"

    def test_slow_fault_still_returns_correct_answer(self, chain):
        with inject_fault("direct", FaultSpec(kind="slow", delay=0.01)):
            pi = steady_state(chain, "direct")
        assert np.allclose(pi, [0.75, 0.25], atol=1e-9)

    def test_private_registry_untouched_by_default_registry(self, chain):
        private = dict(SOLVERS)
        with inject_fault("direct", FaultSpec(kind="converge"), solvers=private):
            # the live registry still works; only the private copy faults
            assert np.allclose(steady_state(chain, "direct"), [0.75, 0.25])
            with pytest.raises(SolverError, match="injected"):
                private["direct"](chain, 1e-12, 1000)
