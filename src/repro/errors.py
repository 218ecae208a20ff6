"""Unified error taxonomy with a stable exit-code mapping.

Every failure the toolkit can report deliberately belongs to one family
rooted at :class:`ReproError`, and every family maps to one *stable*
process exit code — the contract CI jobs, campaign drivers and the
``repro chaos`` end-state assertions test against.  The taxonomy exists
so that

* blanket ``except Exception`` handlers can be narrowed to "failures we
  understand" (:class:`ReproError`) while unexpected exception types are
  logged with full tracebacks instead of being silently swallowed;
* a fault injected by :mod:`repro.faults` surfaces through exactly the
  same classes — and therefore exit codes — a real failure would, which
  is what makes chaos campaigns assertable (``pool.worker.error`` raises
  a plain :class:`SimulationError`).

Exit-code table (see ``docs/chaos.md``):

=====  =====================================================
code   meaning
=====  =====================================================
0      success
1      generic failure / gate failure (strict PARTIAL report
       or diff regression)
2      usage, configuration or input-data error
3      simulation integrity error (invariant violation, stall,
       checkpoint corruption)
4      ``repro chaos`` end-state assertion failed
5      ``repro doctor`` found problems it did not (or could
       not) fix
7      a resource budget was exceeded (deadline, RSS ceiling,
       disk quota) or the disk filled up; state was
       checkpointed and the run is resumable
130    interrupted (SIGINT)
=====  =====================================================

Subclasses raised elsewhere in the tree keep their historical bases
(``RuntimeError`` / ``ValueError``) through multiple inheritance, so
pre-taxonomy callers that catch those continue to work unchanged.
"""

from __future__ import annotations

#: The stable exit codes, by name (tabulated in ``docs/chaos.md``).
EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2
EXIT_SIMULATION = 3
EXIT_CHAOS = 4
EXIT_DOCTOR = 5
EXIT_BUDGET = 7
EXIT_INTERRUPT = 130


class ReproError(Exception):
    """Base of every failure the toolkit understands and maps.

    ``exit_code`` is a class attribute so each family carries its own
    stable mapping; ``category`` is a short machine-readable label used
    by telemetry and the campaign failure records.
    """

    exit_code = EXIT_FAILURE
    category = "generic"


class ConfigError(ReproError, ValueError):
    """A configuration or argument is invalid (fails before simulating).

    Subclasses ``ValueError`` so historical ``pytest.raises(ValueError)``
    and ``except ValueError`` call sites keep working.
    """

    exit_code = EXIT_USAGE
    category = "config"


class DataError(ReproError):
    """An on-disk input (result file, store, baseline) is unreadable."""

    exit_code = EXIT_USAGE
    category = "data"


class SimulationError(ReproError):
    """The simulation's own integrity machinery flagged a failure."""

    exit_code = EXIT_SIMULATION
    category = "simulation"


class CampaignError(ReproError):
    """A campaign-level failure (a poisoned point, an exhausted retry)."""

    exit_code = EXIT_FAILURE
    category = "campaign"


class ChaosError(ReproError):
    """A ``repro chaos`` end-state assertion did not hold."""

    exit_code = EXIT_CHAOS
    category = "chaos"


class DoctorError(ReproError):
    """``repro doctor`` found problems that remain unresolved."""

    exit_code = EXIT_DOCTOR
    category = "doctor"


class BudgetExceededError(ReproError):
    """A resource budget's limit was reached.

    Raised by the :mod:`repro.budget` machinery after the run has been
    checkpointed (when checkpointing is configured) and in-flight work
    has drained — the state on disk is resumable exactly like a SIGINT
    drain.  ``dimension`` names the breached budget (``deadline``,
    ``rss``, ``disk``); ``snapshot_path`` points at the
    checkpoint written on the way out, when there is one.
    """

    exit_code = EXIT_BUDGET
    category = "budget"

    def __init__(
        self,
        message: str,
        *,
        dimension: str = "unknown",
        snapshot_path=None,
    ):
        super().__init__(message)
        self.dimension = dimension
        self.snapshot_path = snapshot_path


class DiskFullError(BudgetExceededError):
    """The filesystem itself ran out of space or quota (ENOSPC/EDQUOT).

    The host-imposed equivalent of a disk-budget breach, so it shares the
    budget family's exit code (7): either way the cure is the same —
    free space (or raise the quota) and resume; completed points are
    already persisted.
    """

    category = "disk"

    def __init__(self, message: str, *, snapshot_path=None):
        super().__init__(
            message, dimension="disk", snapshot_path=snapshot_path
        )


def exit_code_for(exc: BaseException) -> int:
    """The stable exit code for an exception.

    :class:`ReproError` families carry their own code; interrupts map to
    130; anything else is a generic failure.
    """
    if isinstance(exc, ReproError):
        return exc.exit_code
    if isinstance(exc, KeyboardInterrupt):
        return EXIT_INTERRUPT
    return EXIT_FAILURE
