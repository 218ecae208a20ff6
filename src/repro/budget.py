"""Resource-budgeted execution: deadlines, memory ceilings, disk quotas.

The paper's evaluation runs 10B-instruction campaigns across dozens of
points; a reproduction of that scale must operate under explicit
resource budgets instead of assuming infinite time, memory and disk.
This module is the governance layer the engine, the campaign pool, the
result store and the checkpoint writer all consult:

* a :class:`Budget` — the declarative limits: wall-clock
  ``deadline_seconds``, ``max_rss_bytes`` (peak resident-set ceiling)
  and ``disk_quota_bytes`` (store + checkpoints + exported outputs);
* a :class:`BudgetMonitor` — a plain object that the loops enforcing a
  budget sample on their own thread (the engine every 1,024 accesses,
  the campaign pool before each inline point and on every
  parallel-loop iteration); it latches the first dimension whose usage
  reaches its limit.

A breach triggers *checkpoint-then-stop*: the engine snapshots via its
:class:`~repro.checkpoint.CheckpointWriter`, the campaign drains exactly
like a SIGINT, and :class:`~repro.errors.BudgetExceededError` surfaces
with the stable exit code 7 — the run is resumable, and a resumed run
without budgets converges to the never-budgeted result byte-for-byte
(the CI ``recovery-smoke`` job enforces this).

Enforcement is cooperative: the loop that acts on a breach is the one
that samples, so the monitor needs no thread and no lock, and an
unbudgeted run constructs none.  The RSS dimension reads the process's
*peak* resident set, so a spike between two samples still shows at the
next one.  Disk accounting is a ledger: directories registered with
:meth:`BudgetMonitor.track_directory` are scanned once at arming and
rescanned at most every :data:`DISK_RESCAN_SECONDS` by :meth:`sample`;
the store and checkpoint writers charge bytes incrementally between
scans via the process-wide :data:`ACTIVE` monitor (forked campaign
workers inherit a copy, so worker-side quota prechecks are a
best-effort guard while the parent's monitor is the authority).

See ``docs/budgets.md`` for the budget model.
"""

from __future__ import annotations

import os
import re
import time
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Dict, List, Optional

from repro.errors import BudgetExceededError, ConfigError, DiskFullError

try:
    import resource
except ImportError:  # pragma: no cover - not a POSIX host
    resource = None

#: How often :meth:`BudgetMonitor.sample` rescans tracked directories to
#: reconcile the disk ledger with writers it cannot see (other
#: processes, prunes).
DISK_RESCAN_SECONDS = 1.0

#: Budget dimensions, in reporting order.
DIMENSIONS = ("deadline", "rss", "disk")

_SIZE_SUFFIXES = {
    "": 1,
    "b": 1,
    "k": 1 << 10, "kb": 1 << 10, "kib": 1 << 10,
    "m": 1 << 20, "mb": 1 << 20, "mib": 1 << 20,
    "g": 1 << 30, "gb": 1 << 30, "gib": 1 << 30,
    "t": 1 << 40, "tb": 1 << 40, "tib": 1 << 40,
}

_DURATION_SUFFIXES = {
    "": 1.0,
    "s": 1.0,
    "m": 60.0, "min": 60.0,
    "h": 3600.0,
    "d": 86400.0,
}


def parse_size(text: str) -> int:
    """``"512M"``/``"2GiB"``/``"1048576"`` -> bytes (case-insensitive)."""
    match = re.fullmatch(
        r"\s*([0-9]+(?:\.[0-9]+)?)\s*([a-zA-Z]*)\s*", str(text)
    )
    if not match:
        raise ConfigError(f"cannot parse size {text!r} (try '512M', '2G')")
    value, suffix = match.groups()
    multiplier = _SIZE_SUFFIXES.get(suffix.lower())
    if multiplier is None:
        raise ConfigError(
            f"unknown size suffix {suffix!r} in {text!r} "
            f"(known: {', '.join(sorted(s for s in _SIZE_SUFFIXES if s))})"
        )
    return int(float(value) * multiplier)


def parse_duration(text: str) -> float:
    """``"90"``/``"90s"``/``"5m"``/``"2h"`` -> seconds."""
    match = re.fullmatch(
        r"\s*([0-9]+(?:\.[0-9]+)?)\s*([a-zA-Z]*)\s*", str(text)
    )
    if not match:
        raise ConfigError(
            f"cannot parse duration {text!r} (try '90s', '5m', '2h')"
        )
    value, suffix = match.groups()
    multiplier = _DURATION_SUFFIXES.get(suffix.lower())
    if multiplier is None:
        raise ConfigError(
            f"unknown duration suffix {suffix!r} in {text!r} "
            f"(known: s, m, h, d)"
        )
    return float(value) * multiplier


def rss_bytes() -> Optional[int]:
    """Peak resident-set size of this process, or ``None`` unknown.

    The peak, not the current size: a breach latches anyway, and the
    peak still shows a spike that fell between two samples.  One
    ``getrusage`` call, with no file to open and parse.
    """
    if resource is None:
        return None
    # Linux reports KiB, macOS bytes; both are upper bounds in their own
    # unit and Linux is the deployment target.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


def directory_bytes(path: os.PathLike) -> int:
    """Recursive size of ``path`` in bytes (0 if it does not exist)."""
    root = Path(path)
    if root.is_file():
        try:
            return root.stat().st_size
        except OSError:
            return 0
    total = 0
    if not root.is_dir():
        return 0
    for entry in root.rglob("*"):
        try:
            if entry.is_file():
                total += entry.stat().st_size
        except OSError:  # racing a prune/replace is not an error
            continue
    return total


def is_disk_full_error(exc: OSError) -> bool:
    """``True`` for the errnos that mean "the disk/quota is exhausted"."""
    import errno

    return getattr(exc, "errno", None) in (errno.ENOSPC, errno.EDQUOT)


def translate_disk_error(exc: OSError, what: str) -> DiskFullError:
    """Wrap an ENOSPC/EDQUOT ``OSError`` in the taxonomy with a cure."""
    return DiskFullError(
        f"no space left while {what}: {exc}. Completed work is already "
        "persisted; free disk space (or raise the quota) and re-run with "
        "--resume to continue from where this run stopped."
    )


# ----------------------------------------------------------------------
# Declarative limits
# ----------------------------------------------------------------------
@dataclass
class Budget:
    """Explicit resource limits for one run or campaign.

    Every field is optional; an all-``None`` budget is inert (and
    :attr:`enabled` is ``False``).
    """

    deadline_seconds: Optional[float] = None
    max_rss_bytes: Optional[int] = None
    disk_quota_bytes: Optional[int] = None

    def __post_init__(self) -> None:
        for limit in fields(self):
            value = getattr(self, limit.name)
            if value is not None and value <= 0:
                raise ConfigError(
                    f"{limit.name} must be positive, got {value}"
                )

    @property
    def enabled(self) -> bool:
        return any(value is not None for value in self.to_dict().values())

    def limit_for(self, dimension: str) -> Optional[float]:
        return {
            "deadline": self.deadline_seconds,
            "rss": self.max_rss_bytes,
            "disk": self.disk_quota_bytes,
        }[dimension]

    def to_dict(self) -> Dict[str, object]:
        return asdict(self)


@dataclass
class BudgetStatus:
    """One dimension's usage at one sample; a breach once ``used >= limit``."""

    dimension: str
    used: float
    limit: float

    @property
    def fraction(self) -> float:
        return self.used / self.limit if self.limit else 0.0

    def describe(self) -> str:
        if self.dimension == "deadline":
            return (
                f"deadline: {self.used:.1f}s of {self.limit:.1f}s "
                f"({self.fraction:.0%})"
            )
        if self.dimension == "rss":
            return (
                f"rss: {self.used / (1 << 20):.0f} MiB of "
                f"{self.limit / (1 << 20):.0f} MiB ({self.fraction:.0%})"
            )
        return (
            f"disk: {self.used / (1 << 20):.1f} MiB of "
            f"{self.limit / (1 << 20):.1f} MiB quota "
            f"({self.fraction:.0%})"
        )

    def to_dict(self) -> Dict[str, object]:
        return {
            "dimension": self.dimension,
            "used": self.used,
            "limit": self.limit,
            "fraction": self.fraction,
        }


# ----------------------------------------------------------------------
# The monitor
# ----------------------------------------------------------------------
class BudgetMonitor:
    """Samples resource usage against a :class:`Budget`; latches a breach.

    A plain object, no thread: the engine loop and the campaign pool call
    :meth:`sample` on their own thread at their own cadence and act on
    the breach it returns.  Each sample records the caller's heartbeat
    (accesses or points done), which breach reports embed so "where did
    the budget die" is answerable.
    """

    def __init__(self, budget: Budget, telemetry=None):
        self.budget = budget
        self.telemetry = telemetry
        self.started_monotonic = time.monotonic()
        self.hard_breach: Optional[BudgetStatus] = None
        self.heartbeat: object = None
        self._tracked: List[Path] = []
        self._disk_scanned = 0
        self._disk_charged = 0
        self._next_disk_scan = 0.0

    # ------------------------------------------------------------------
    # Disk ledger
    # ------------------------------------------------------------------
    def track_directory(self, path: os.PathLike) -> None:
        """Count ``path`` (recursively) against the disk quota.

        Existing contents are charged immediately, so resuming into a
        half-full store starts from honest usage, not zero.
        """
        root = Path(path)
        if any(root == tracked for tracked in self._tracked):
            return
        self._tracked.append(root)
        self._disk_scanned += directory_bytes(root)

    def charge_disk(self, nbytes: int) -> None:
        """Adjust the ledger (negative for pruned/deleted files)."""
        self._disk_charged += int(nbytes)

    @property
    def disk_used(self) -> int:
        return max(0, self._disk_scanned + self._disk_charged)

    def check_disk(self, nbytes: int, what: str) -> None:
        """Refuse a write that would push usage past the disk quota.

        Raises :class:`~repro.errors.BudgetExceededError` — the budget
        equivalent of the kernel's ENOSPC, but *before* the bytes land,
        so the store/checkpoint directory never overshoots its quota.
        """
        quota = self.budget.disk_quota_bytes
        if quota is None:
            return
        projected = self.disk_used + max(0, int(nbytes))
        if projected > quota:
            raise BudgetExceededError(
                f"disk quota exceeded: {what} needs {nbytes:,} bytes but "
                f"only {max(0, quota - self.disk_used):,} of the "
                f"{quota:,}-byte quota remain. Completed work is already "
                "persisted; raise --store-quota (or free space) and re-run "
                "with --resume.",
                dimension="disk",
            )

    def _rescan_disk(self) -> None:
        """Reconcile the ledger with reality (other processes write too)."""
        self._disk_scanned = sum(
            directory_bytes(root) for root in self._tracked
        )
        self._disk_charged = 0

    # ------------------------------------------------------------------
    # Sampling
    # ------------------------------------------------------------------
    def elapsed_seconds(self) -> float:
        return time.monotonic() - self.started_monotonic

    def deadline_remaining(self) -> Optional[float]:
        """Seconds until the hard deadline, or ``None`` when unbounded."""
        if self.budget.deadline_seconds is None:
            return None
        return self.budget.deadline_seconds - self.elapsed_seconds()

    def _usage(self, dimension: str) -> Optional[float]:
        if dimension == "deadline":
            return self.elapsed_seconds()
        if dimension == "rss":
            return rss_bytes()
        if dimension == "disk":
            return float(self.disk_used)
        raise ValueError(f"unknown budget dimension {dimension!r}")

    def statuses(self) -> List[BudgetStatus]:
        """Usage vs limit for every *configured* dimension."""
        out: List[BudgetStatus] = []
        for dimension in DIMENSIONS:
            limit = self.budget.limit_for(dimension)
            if limit is None:
                continue
            used = self._usage(dimension)
            if used is None:
                continue  # unmeasurable on this host (e.g. no RSS source)
            out.append(BudgetStatus(dimension, float(used), float(limit)))
        return out

    def sample(self, heartbeat: object = None) -> Optional[BudgetStatus]:
        """Take one sample; returns the hard breach, or ``None``.

        ``heartbeat``, when given, is the caller's progress value, kept
        for breach reports.  The breach is the first dimension whose
        usage reaches its limit.  It latches: once set it never clears,
        so the budget cannot "recover" between a loop's samples.
        """
        if heartbeat is not None:
            self.heartbeat = heartbeat
        now = time.monotonic()
        if self._tracked and now >= self._next_disk_scan:
            self._next_disk_scan = now + DISK_RESCAN_SECONDS
            self._rescan_disk()
        if self.hard_breach is None:
            for status in self.statuses():
                if status.used >= status.limit:
                    self.hard_breach = status
                    self._note_hard(status)
                    break
        return self.hard_breach

    def build_error(self, context: str) -> BudgetExceededError:
        """The canonical error for the current hard breach."""
        breach = self.hard_breach
        detail = breach.describe() if breach is not None else "budget"
        return BudgetExceededError(
            f"{context}: {detail}. State was persisted on the way out; "
            "re-run with --resume (and a larger budget, or none) to "
            "continue — the resumed result is identical to an "
            "unbudgeted run.",
            dimension=breach.dimension if breach is not None else "unknown",
        )

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def _note_hard(self, status: BudgetStatus) -> None:
        if getattr(self.telemetry, "tracer", None) is not None:
            self.telemetry.emit(
                "budget.exceeded", 0.0, dimension=status.dimension,
                used=status.used, limit=status.limit,
                heartbeat=_jsonable(self.heartbeat),
            )

    def to_dict(self) -> Dict[str, object]:
        """Budget state for stall snapshots and ``result.extra``."""
        return {
            "budget": self.budget.to_dict(),
            "statuses": [status.to_dict() for status in self.statuses()],
            "hard_breach": (
                None if self.hard_breach is None
                else self.hard_breach.to_dict()
            ),
            "heartbeat": _jsonable(self.heartbeat),
        }


def _jsonable(value: object) -> object:
    return (
        value if isinstance(value, (int, float, str, bool, type(None)))
        else repr(value)
    )


# ----------------------------------------------------------------------
# Process-wide arming (hook sites read ``budget.ACTIVE`` — one load)
# ----------------------------------------------------------------------
ACTIVE: Optional[BudgetMonitor] = None


def arm(monitor: BudgetMonitor) -> BudgetMonitor:
    """Make ``monitor`` the process-wide quota authority.

    The store and checkpoint writers consult :data:`ACTIVE` for quota
    prechecks and ledger charges.  Forked campaign workers inherit a
    copy of the armed monitor, which is exactly the desired behavior:
    workers get best-effort quota guards, the parent keeps the
    authoritative ledger.
    """
    global ACTIVE
    ACTIVE = monitor
    return monitor


def disarm() -> Optional[BudgetMonitor]:
    global ACTIVE
    previous, ACTIVE = ACTIVE, None
    return previous


__all__ = [
    "ACTIVE",
    "Budget",
    "BudgetMonitor",
    "BudgetStatus",
    "DIMENSIONS",
    "arm",
    "directory_bytes",
    "disarm",
    "is_disk_full_error",
    "parse_duration",
    "parse_size",
    "rss_bytes",
    "translate_disk_error",
]
