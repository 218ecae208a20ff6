"""Persistent, content-addressed store for experiment results.

Every evaluation point is identified by its full run signature (the same
fields the in-memory cache keys on: mix, scheme, contexts, replacement,
total accesses, seed, ...).  The store maps the SHA-256 of the canonical
JSON encoding of that signature to one file holding the signature plus
the :meth:`~repro.sim.stats.SimulationResult.to_dict` snapshot.

Durability properties:

* **atomic writes** — results land via temp file + ``os.replace``, so a
  crash mid-write never leaves a truncated entry behind.  The temp file
  is ``<entry>.json.<random>.tmp``, which the ``*.json`` entry glob never
  matches, so an orphan a kill leaves is not counted as an entry (``repro
  doctor`` sweeps it);
* **deterministic payloads** — host-dependent fields (``host_seconds``
  and anything else ``host_``-prefixed) are stripped before persisting,
  so two runs of the same point store byte-identical files;
* **self-describing entries** — each file embeds its signature, so a
  (vanishingly unlikely) digest collision or a hand-edited file is
  detected on load and treated as a miss.

A campaign that crashes hours in therefore loses at most the in-flight
points; rerunning with the same store replays only what is missing.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import warnings
from pathlib import Path
from typing import Dict, Iterator, Mapping, Optional

from repro.sim.stats import SimulationResult

#: On-disk schema version; bump on incompatible layout changes.
SCHEMA_VERSION = 1

#: ``extra`` keys that depend on the host machine, not the simulation.
_HOST_DEPENDENT_PREFIX = "host_"


def signature_key(signature: Mapping[str, object]) -> str:
    """SHA-256 of the canonical (sorted-key) JSON encoding."""
    canonical = json.dumps(dict(signature), sort_keys=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def strip_host_fields(result_dict: Dict[str, object]) -> Dict[str, object]:
    """Drop host-dependent ``extra`` fields so stored payloads are
    deterministic and comparable across machines and reruns."""
    cleaned = dict(result_dict)
    extra = cleaned.get("extra")
    if isinstance(extra, dict):
        cleaned["extra"] = {
            key: value
            for key, value in extra.items()
            if not key.startswith(_HOST_DEPENDENT_PREFIX)
        }
    return cleaned


class ResultStore:
    """Directory of ``<sha256>.json`` result files, one per run signature."""

    def __init__(self, root: os.PathLike) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    # ------------------------------------------------------------------
    def path_for(self, signature: Mapping[str, object]) -> Path:
        return self.root / f"{signature_key(signature)}.json"

    def contains(self, signature: Mapping[str, object]) -> bool:
        return self.path_for(signature).is_file()

    def save(
        self, signature: Mapping[str, object], result: SimulationResult
    ) -> Path:
        """Atomically persist ``result`` under its signature digest.

        Quota-aware: when a :class:`~repro.budget.BudgetMonitor` is armed
        process-wide, the write is pre-checked against the disk quota
        (refused with :class:`~repro.errors.BudgetExceededError` before
        any bytes land) and charged to the monitor's ledger afterwards.
        A real ``ENOSPC``/``EDQUOT`` from the filesystem surfaces as
        :class:`~repro.errors.DiskFullError` with a resume hint instead
        of a raw ``OSError`` traceback.
        """
        from repro import budget as _budget

        document = {
            "schema_version": SCHEMA_VERSION,
            "signature": dict(signature),
            "result": strip_host_fields(result.to_dict()),
        }
        path = self.path_for(signature)
        data = json.dumps(document, sort_keys=True).encode("utf-8")
        monitor = _budget.ACTIVE
        previous_size = 0
        if monitor is not None:
            try:
                previous_size = path.stat().st_size
            except OSError:
                previous_size = 0
            monitor.check_disk(
                len(data) - previous_size, f"result entry {path.name}"
            )
        try:
            handle = tempfile.NamedTemporaryFile(
                mode="wb", dir=self.root, prefix=path.name + ".",
                suffix=".tmp", delete=False,
            )
            try:
                with handle:
                    handle.write(data)
                    handle.flush()
                    os.fsync(handle.fileno())
                os.replace(handle.name, path)
            finally:
                # After a successful replace the temp name no longer
                # exists and the unlink is a no-op; on *any* failure
                # (including an interrupt between write and replace) it
                # sweeps the orphan.
                try:
                    os.unlink(handle.name)
                except OSError:
                    pass
        except OSError as exc:
            if _budget.is_disk_full_error(exc):
                raise _budget.translate_disk_error(
                    exc, f"persisting result {path.name}"
                ) from exc
            raise
        if monitor is not None:
            monitor.charge_disk(len(data) - previous_size)
        return path

    def load(
        self, signature: Mapping[str, object]
    ) -> Optional[SimulationResult]:
        """Return the stored result for ``signature``, or ``None``.

        Corrupt, truncated, or mismatched entries are warnings + misses,
        never errors: a damaged store degrades to extra simulation, not
        a failed campaign.
        """
        path = self.path_for(signature)
        try:
            with open(path) as handle:
                document = json.load(handle)
        except FileNotFoundError:
            return None
        except (OSError, ValueError) as exc:
            self._skip(path, "unreadable", exc)
            return None
        try:
            if document.get("schema_version") != SCHEMA_VERSION:
                raise ValueError(
                    f"schema_version {document.get('schema_version')!r} != "
                    f"{SCHEMA_VERSION}"
                )
            if document.get("signature") != dict(signature):
                raise ValueError("stored signature does not match request")
            return SimulationResult.from_dict(document["result"])
        except (KeyError, TypeError, ValueError) as exc:
            self._skip(path, "malformed", exc)
            return None

    def _skip(self, path: Path, reason: str, exc: Exception) -> None:
        """Warn about one corruption-tolerant miss."""
        warnings.warn(
            f"ignoring {reason} store entry {path.name}: {exc}",
            RuntimeWarning,
            stacklevel=3,
        )

    # ------------------------------------------------------------------
    def signatures(self) -> Iterator[Dict[str, object]]:
        """Yield the signature of every well-formed entry."""
        for path in sorted(self.root.glob("*.json")):
            try:
                with open(path) as handle:
                    document = json.load(handle)
                yield dict(document["signature"])
            except (OSError, KeyError, TypeError, ValueError):
                continue

    def __len__(self) -> int:
        return sum(1 for _ in self.root.glob("*.json"))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ResultStore({str(self.root)!r}, entries={len(self)})"
