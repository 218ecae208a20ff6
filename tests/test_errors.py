"""Unified error taxonomy: hierarchy, legacy bases, stable exit codes."""

import pytest

from repro import errors
from repro.analysis.diff import DiffError
from repro.checkpoint import CheckpointError, SimulationStalled
from repro.errors import (
    EXIT_BUDGET,
    EXIT_CHAOS,
    EXIT_DOCTOR,
    EXIT_FAILURE,
    EXIT_INTERRUPT,
    EXIT_OK,
    EXIT_SIMULATION,
    EXIT_USAGE,
    CampaignError,
    ChaosError,
    BudgetExceededError,
    ConfigError,
    DataError,
    DiskFullError,
    DoctorError,
    ReproError,
    SimulationError,
    exit_code_for,
)
from repro.experiments.runner import PointFailedError
from repro.sim.config import small_config
from repro.validate import InvariantViolation


class TestHierarchy:
    def test_every_family_is_repro_error(self):
        for family in (ConfigError, DataError, SimulationError,
                       CampaignError, ChaosError, DoctorError,
                       BudgetExceededError):
            assert issubclass(family, ReproError)

    def test_legacy_value_error_bases(self):
        """Pre-taxonomy ``except ValueError`` call sites keep working."""
        for cls in (ConfigError, DiffError):
            assert issubclass(cls, ValueError)

    def test_legacy_runtime_error_bases(self):
        """Pre-taxonomy ``except RuntimeError`` call sites keep working."""
        for cls in (CheckpointError, SimulationStalled, InvariantViolation,
                    PointFailedError):
            assert issubclass(cls, RuntimeError)

    def test_raised_subclasses_map_into_families(self):
        assert issubclass(CheckpointError, SimulationError)
        assert issubclass(SimulationStalled, SimulationError)
        assert issubclass(InvariantViolation, SimulationError)
        assert issubclass(DiffError, DataError)
        assert issubclass(PointFailedError, CampaignError)


class TestExitCodes:
    def test_family_codes_are_stable(self):
        assert ConfigError.exit_code == EXIT_USAGE == 2
        assert DataError.exit_code == EXIT_USAGE == 2
        assert SimulationError.exit_code == EXIT_SIMULATION == 3
        assert CampaignError.exit_code == EXIT_FAILURE == 1
        assert ChaosError.exit_code == EXIT_CHAOS == 4
        assert DoctorError.exit_code == EXIT_DOCTOR == 5
        assert BudgetExceededError.exit_code == EXIT_BUDGET == 7
        assert DiskFullError.exit_code == EXIT_BUDGET
        assert EXIT_OK == 0

    def test_taxonomy_is_exactly_the_documented_codes(self):
        codes = {
            value for name, value in vars(errors).items()
            if name.startswith("EXIT_")
        }
        assert codes == {0, 1, 2, 3, 4, 5, 7, 130}

    def test_subclasses_inherit_their_family_code(self):
        assert exit_code_for(CheckpointError("x")) == EXIT_SIMULATION
        assert exit_code_for(DiffError("x")) == EXIT_USAGE
        assert exit_code_for(PointFailedError("x")) == EXIT_FAILURE

    def test_interrupt_maps_to_130(self):
        assert exit_code_for(KeyboardInterrupt()) == EXIT_INTERRUPT == 130

    def test_unknown_exception_is_generic_failure(self):
        assert exit_code_for(RuntimeError("boom")) == EXIT_FAILURE


class TestConfigErrorsInPractice:
    def test_small_config_raises_config_error(self):
        with pytest.raises(ConfigError):
            small_config(contexts_per_core=0)

    def test_still_catchable_as_value_error(self):
        with pytest.raises(ValueError):
            small_config(contexts_per_core=0)
