"""Deterministic fault injection for ``repro chaos``.

The survival machinery — crash-safe result store, retrying worker pool
— only runs when the host actually misbehaves.  This module makes
failure a reproducible input: a declarative :class:`FaultPlan` names
*fault points* in the campaign path and says when each should fire;
``repro chaos`` then runs a campaign under the plan and asserts the end
state (see :mod:`repro.experiments.chaos` and ``docs/chaos.md``).

Only failures a campaign cannot be made to suffer any other way get a
fault point.  Recovery paths a test can reach directly (a damaged file,
an ``OSError`` from a monkeypatched ``os.replace``, ``ENOSPC``) are
tested that way instead.

Design rules:

* **zero overhead unarmed** — every hook site guards with one
  ``faults.ACTIVE is not None`` check (the same idiom as telemetry), so
  production runs pay nothing;
* **honest failures** — fault points produce the *real* artifact the
  failure would (a hard ``os._exit``, a flipped byte on disk), so the
  recovery path exercised is exactly the production one;
* **accounted** — every injected fault is recorded in the injector and
  in a durable append-only JSONL *fault log* that survives worker
  crashes (children fork the armed injector and append to the same
  file).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.errors import ConfigError

#: Every fault point a plan may reference, with a one-line contract.
FAULT_POINTS: Dict[str, str] = {
    "store.save.corrupt_byte": (
        "flip one byte of a result entry before it lands (bit rot)"
    ),
    "pool.worker.crash": (
        "hard-exit the worker process (os._exit(17)) before it simulates "
        "— an OOM-kill stand-in; the pool must retry"
    ),
    "pool.worker.error": (
        "raise SimulationError inside the worker — a deterministic "
        "simulation failure; the pool must fail the point, not retry"
    ),
}


@dataclass
class FaultSpec:
    """One arming of one fault point.

    ``when`` filters on the context keys the hook site passes to
    :meth:`FaultInjector.fire` (e.g. ``{"attempt": 1}`` fires only on a
    point's first attempt — the deterministic way to express "crash
    once, then recover" across worker processes whose trigger counters
    do not survive the crash).  ``max_triggers`` bounds firings
    (``None`` = unbounded).
    """

    point: str
    max_triggers: Optional[int] = 1
    when: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.point not in FAULT_POINTS:
            known = ", ".join(sorted(FAULT_POINTS))
            raise ConfigError(
                f"unknown fault point {self.point!r}; known points: {known}"
            )
        if self.max_triggers is not None and (
            isinstance(self.max_triggers, bool)
            or not isinstance(self.max_triggers, int)
            or self.max_triggers < 1
        ):
            raise ConfigError(
                f"{self.point}: max_triggers must be an integer >= 1 or "
                f"null, got {self.max_triggers!r}"
            )
        if not isinstance(self.when, dict):
            raise ConfigError(
                f"{self.point}: when must be an object, got {self.when!r}"
            )

    @classmethod
    def from_dict(cls, record: Dict[str, object]) -> "FaultSpec":
        if not isinstance(record, dict):
            raise ConfigError(f"fault spec must be an object, got {record!r}")
        unknown = set(record) - {"point", "max_triggers", "when"}
        if unknown:
            raise ConfigError(
                f"fault spec has unknown field(s): {sorted(unknown)}"
            )
        if "point" not in record:
            raise ConfigError(f"fault spec is missing 'point': {record!r}")
        return cls(
            point=str(record["point"]),
            max_triggers=record.get("max_triggers", 1),
            when=record.get("when", {}),
        )


@dataclass
class FaultPlan:
    """A declarative, JSON-able set of armed fault specs."""

    faults: List[FaultSpec] = field(default_factory=list)
    name: str = "unnamed"

    @classmethod
    def from_dict(cls, record: Dict[str, object]) -> "FaultPlan":
        if not isinstance(record, dict):
            raise ConfigError(f"fault plan must be an object, got {record!r}")
        unknown = set(record) - {"name", "faults"}
        if unknown:
            raise ConfigError(
                f"fault plan has unknown field(s): {sorted(unknown)}"
            )
        faults = record.get("faults", [])
        if not isinstance(faults, list):
            raise ConfigError("fault plan 'faults' must be a list")
        return cls(
            faults=[FaultSpec.from_dict(spec) for spec in faults],
            name=str(record.get("name", "unnamed")),
        )

    @classmethod
    def from_file(cls, path) -> "FaultPlan":
        try:
            with open(path) as handle:
                record = json.load(handle)
        except OSError as exc:
            raise ConfigError(f"cannot read fault plan {path}: {exc}") from exc
        except ValueError as exc:
            raise ConfigError(
                f"fault plan {path} is not valid JSON: {exc}"
            ) from exc
        plan = cls.from_dict(record)
        if plan.name == "unnamed":
            plan.name = os.path.basename(str(path))
        return plan


class FaultInjector:
    """Evaluates a :class:`FaultPlan` at every reached fault point.

    ``log_path`` (optional) appends one JSON line per injection —
    opened, written and closed per event so the record survives a
    worker that ``os._exit``\\ s immediately afterwards, and forked
    children append to the same file.
    """

    def __init__(self, plan: FaultPlan, log_path: Optional[str] = None):
        self.plan = plan
        self.log_path = str(log_path) if log_path is not None else None
        self.records: List[Dict[str, object]] = []
        self._triggers = [0] * len(plan.faults)  # per spec, in plan order

    # ------------------------------------------------------------------
    def fire(self, point: str, **context: object) -> bool:
        """Decide whether ``point`` faults now; record it if so.

        The first spec for ``point`` whose ``when`` matches ``context``
        and whose ``max_triggers`` is not used up fires.
        """
        for index, spec in enumerate(self.plan.faults):
            if spec.point != point or any(
                context.get(key) != value for key, value in spec.when.items()
            ):
                continue
            triggers = self._triggers[index]
            if spec.max_triggers is not None and triggers >= spec.max_triggers:
                continue
            self._triggers[index] = triggers + 1
            self._record(point, triggers + 1, context)
            return True
        return False

    @property
    def injected(self) -> int:
        """Faults injected *in this process* (children count separately;
        the shared fault log is the cross-process ledger)."""
        return len(self.records)

    # ------------------------------------------------------------------
    def _record(
        self, point: str, trigger: int, context: Dict[str, object]
    ) -> None:
        record = {
            "point": point,
            "plan": self.plan.name,
            "trigger": trigger,
            "pid": os.getpid(),
            "context": _jsonable(context),
        }
        self.records.append(record)
        if self.log_path is not None:
            try:
                with open(self.log_path, "a") as handle:
                    handle.write(
                        json.dumps(record, sort_keys=True) + "\n"
                    )
                    handle.flush()
            except OSError:
                pass  # the log is evidence, never a new failure mode


def _jsonable(context: Dict[str, object]) -> Dict[str, object]:
    return {
        key: (
            value if isinstance(value, (int, float, str, bool, type(None)))
            else repr(value)
        )
        for key, value in context.items()
    }


def flip_byte(data: bytes) -> bytes:
    """``data`` with its middle byte XOR-flipped."""
    if not data:
        return data
    mutated = bytearray(data)
    mutated[len(data) // 2] ^= 0xFF
    return bytes(mutated)


# ----------------------------------------------------------------------
# Global arming (hook sites read ``faults.ACTIVE`` — one attribute load)
# ----------------------------------------------------------------------
ACTIVE: Optional[FaultInjector] = None


def arm(plan: FaultPlan, log_path: Optional[str] = None) -> FaultInjector:
    """Arm ``plan`` process-wide and return the live injector.

    Forked worker processes (the campaign pool prefers the fork start
    method) inherit the armed injector, so worker-side fault points fire
    under the same plan.
    """
    global ACTIVE
    ACTIVE = FaultInjector(plan, log_path=log_path)
    return ACTIVE


def disarm() -> Optional[FaultInjector]:
    """Disarm fault injection; returns the injector that was active."""
    global ACTIVE
    previous, ACTIVE = ACTIVE, None
    return previous
