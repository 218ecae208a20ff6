"""``repro doctor``: preflight self-check for the experiment machinery.

Before (or after) a long campaign, the doctor verifies that the pieces a
crash-safe run depends on actually work *on this machine and this data*:

* **store integrity** — every ``<sha256>.json`` entry parses, carries the
  current schema version, embeds a signature whose digest matches its
  filename, and round-trips through
  :meth:`~repro.sim.stats.SimulationResult.from_dict`;
* **orphaned temp files** — ``*.tmp`` files that killed store and
  checkpoint writers left behind, anywhere under the store (per-point
  snapshots live in ``<store>/checkpoints/**``) or a checkpoint
  directory;
* **checkpoint round-trip** — a probe document is written and read back
  through the real :func:`~repro.checkpoint.write_checkpoint` /
  :func:`~repro.checkpoint.read_checkpoint` pair, and every existing
  snapshot in the scanned directories must still verify;
* **configuration** — the quarter-scale preset builds for every scheme.

With ``fix=True`` the doctor deletes what it safely can: orphaned temp
files and corrupt store entries (a deleted entry just re-simulates).
Anything else is reported for a human.  The CLI maps an unhealthy report
to :data:`~repro.errors.EXIT_DOCTOR`.
"""

from __future__ import annotations

import json
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro.checkpoint import (
    CheckpointError,
    read_checkpoint,
    write_checkpoint,
)
from repro.core.schemes import Scheme
from repro.errors import ConfigError
from repro.experiments.store import SCHEMA_VERSION, signature_key
from repro.sim.config import small_config
from repro.sim.stats import SimulationResult

#: Glob for temp files the store and checkpoint writers create
#: (``<target>.<random>.tmp``).  An old-style store temp
#: (``.tmp-<random>.json``) matches the entry glob instead, and the
#: integrity check reports (and ``fix`` deletes) it as a bad entry.
_TMP_GLOB = "*.tmp"

#: Glob for checkpoint snapshots (regular and stall post-mortems).
_SNAPSHOT_GLOB = "*.ckpt"

#: Default free-space floor for the disk-headroom check (256 MiB):
#: below this, the next campaign is likely to die on ENOSPC.
DEFAULT_MIN_FREE_BYTES = 256 << 20

#: Share of ``--store-quota`` already used at which the disk-headroom
#: check reports a problem: past it, a campaign has little room to run
#: before the quota stops it.
_QUOTA_HEADROOM_FRACTION = 0.85


@dataclass
class CheckResult:
    """One named check: its problems and what ``--fix`` resolved."""

    name: str
    problems: List[str] = field(default_factory=list)
    fixed: List[str] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "ok": self.ok,
            "problems": list(self.problems),
            "fixed": list(self.fixed),
            "notes": list(self.notes),
        }


@dataclass
class DoctorReport:
    """Every check the doctor ran, plus the overall verdict."""

    checks: List[CheckResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(check.ok for check in self.checks)

    @property
    def problems(self) -> List[str]:
        return [
            f"{check.name}: {problem}"
            for check in self.checks
            for problem in check.problems
        ]

    def to_dict(self) -> Dict[str, object]:
        return {
            "ok": self.ok,
            "checks": [check.to_dict() for check in self.checks],
        }

    def format(self) -> str:
        lines: List[str] = []
        for check in self.checks:
            status = "ok" if check.ok else "PROBLEM"
            lines.append(f"[{status:>7}] {check.name}")
            for note in check.notes:
                lines.append(f"          {note}")
            for fixed in check.fixed:
                lines.append(f"          fixed: {fixed}")
            for problem in check.problems:
                lines.append(f"          problem: {problem}")
        verdict = "healthy" if self.ok else "UNHEALTHY"
        lines.append(f"doctor: {verdict}")
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Individual checks
# ----------------------------------------------------------------------
def check_store_integrity(store_dir: Path, fix: bool = False) -> CheckResult:
    """Validate every entry of a result store; ``fix`` deletes bad ones."""
    check = CheckResult("store integrity")
    if not store_dir.is_dir():
        check.notes.append(f"{store_dir}: no store directory (nothing to do)")
        return check
    entries = sorted(store_dir.glob("*.json"))
    good = 0
    for path in entries:
        problem = _entry_problem(path)
        if problem is None:
            good += 1
            continue
        if fix:
            try:
                path.unlink()
                check.fixed.append(
                    f"deleted corrupt entry {path.name} ({problem}); "
                    "the point will re-simulate"
                )
                continue
            except OSError as exc:
                problem = f"{problem}; delete failed: {exc}"
        check.problems.append(f"{path.name}: {problem}")
    check.notes.append(f"{good}/{len(entries)} entries verified")
    return check


def _entry_problem(path: Path) -> Optional[str]:
    """Why this store entry is unusable, or ``None`` if it is healthy."""
    try:
        with open(path) as handle:
            document = json.load(handle)
    except (OSError, ValueError) as exc:
        return f"unreadable ({type(exc).__name__}: {exc})"
    if not isinstance(document, dict):
        return "not a JSON object"
    if document.get("schema_version") != SCHEMA_VERSION:
        return (
            f"schema_version {document.get('schema_version')!r} != "
            f"{SCHEMA_VERSION}"
        )
    signature = document.get("signature")
    if not isinstance(signature, dict):
        return "missing signature"
    if signature_key(signature) != path.stem:
        return "signature digest does not match filename"
    try:
        SimulationResult.from_dict(document["result"])
    except (KeyError, TypeError, ValueError) as exc:
        return f"result does not parse ({type(exc).__name__}: {exc})"
    return None


def check_orphaned_temp_files(
    store_dir: Optional[Path],
    checkpoint_dirs: Sequence[Path],
    fix: bool = False,
) -> CheckResult:
    """Find (and with ``fix`` delete) temp files interrupted writers left."""
    check = CheckResult("orphaned temp files")
    directories = list(checkpoint_dirs)
    if store_dir is not None:
        directories.append(store_dir)
    # A set: a checkpoint directory inside the store is scanned twice.
    orphans = sorted({
        path
        for directory in directories
        if directory.is_dir()
        for path in directory.rglob(_TMP_GLOB)
    })
    if not orphans:
        check.notes.append("no orphaned temp files")
        return check
    for orphan in orphans:
        if fix:
            try:
                orphan.unlink()
                check.fixed.append(f"deleted {orphan}")
                continue
            except OSError as exc:
                check.problems.append(f"{orphan}: delete failed: {exc}")
                continue
        check.problems.append(f"{orphan}: orphaned temp file (use --fix)")
    return check


def check_checkpoint_round_trip(
    checkpoint_dirs: Sequence[Path] = (),
) -> CheckResult:
    """Probe write+read through the real checkpoint code path, then
    verify every existing snapshot in the scanned directories."""
    check = CheckResult("checkpoint round-trip")
    probe = {"doctor": "probe", "values": list(range(16))}
    try:
        with tempfile.TemporaryDirectory(prefix="repro-doctor-") as scratch:
            path = write_checkpoint(
                Path(scratch) / "probe.ckpt", probe, meta={"executed": 0}
            )
            document, _header = read_checkpoint(path)
        if document != probe:
            check.problems.append("probe document did not round-trip")
        else:
            check.notes.append("probe write/read ok")
    except (OSError, CheckpointError) as exc:
        check.problems.append(f"probe failed: {type(exc).__name__}: {exc}")
    scanned = 0
    for directory in checkpoint_dirs:
        if not directory.is_dir():
            continue
        for snapshot in sorted(directory.rglob(_SNAPSHOT_GLOB)):
            scanned += 1
            try:
                read_checkpoint(snapshot)
            except CheckpointError as exc:
                check.problems.append(f"{snapshot}: {exc}")
    if scanned:
        check.notes.append(f"{scanned} existing snapshot(s) scanned")
    return check


def check_disk_headroom(
    store_dir: Optional[Path],
    checkpoint_dirs: Sequence[Path] = (),
    quota_bytes: Optional[int] = None,
    min_free_bytes: int = DEFAULT_MIN_FREE_BYTES,
) -> CheckResult:
    """Report store size, filesystem headroom and quota utilisation.

    A campaign that fills the disk dies with the least useful error in
    the taxonomy's catalogue, so the doctor warns *before*: free bytes on
    the store's filesystem below ``min_free_bytes`` is a problem, and so
    is a configured disk quota that is already ≥ 85% full.  Without a
    store directory the check reports the current working directory's
    filesystem.
    """
    import shutil

    from repro.budget import directory_bytes

    check = CheckResult("disk headroom")
    probe = store_dir if store_dir is not None else Path(".")
    used = 0
    if store_dir is not None:
        if store_dir.is_dir():
            used = directory_bytes(store_dir)
            check.notes.append(
                f"store {store_dir}: {used / (1 << 20):.1f} MiB "
                "(entries + checkpoints)"
            )
        else:
            check.notes.append(f"{store_dir}: no store directory yet")
            probe = store_dir.parent if store_dir.parent.is_dir() else Path(".")
    for directory in checkpoint_dirs:
        if directory.is_dir() and (
            store_dir is None or store_dir not in directory.parents
        ):
            extra = directory_bytes(directory)
            used += extra
            check.notes.append(
                f"checkpoints {directory}: {extra / (1 << 20):.1f} MiB"
            )
    try:
        usage = shutil.disk_usage(probe)
    except OSError as exc:
        check.problems.append(f"cannot stat filesystem of {probe}: {exc}")
        return check
    check.notes.append(
        f"filesystem: {usage.free / (1 << 30):.2f} GiB free of "
        f"{usage.total / (1 << 30):.2f} GiB"
    )
    if usage.free < min_free_bytes:
        check.problems.append(
            f"only {usage.free / (1 << 20):.0f} MiB free on the store "
            f"filesystem (headroom floor: {min_free_bytes / (1 << 20):.0f} "
            "MiB); free space or the next campaign will hit ENOSPC"
        )
    if quota_bytes is not None:
        fraction = used / quota_bytes if quota_bytes else 1.0
        check.notes.append(
            f"quota: {used / (1 << 20):.1f} of "
            f"{quota_bytes / (1 << 20):.1f} MiB used ({fraction:.0%})"
        )
        if used >= quota_bytes:
            check.problems.append(
                f"store already exceeds the {quota_bytes:,}-byte quota; "
                "a budgeted campaign will stop immediately (exit 7)"
            )
        elif fraction >= _QUOTA_HEADROOM_FRACTION:
            check.problems.append(
                f"quota {fraction:.0%} full (headroom threshold "
                f"{_QUOTA_HEADROOM_FRACTION:.0%}): the next budgeted "
                "campaign has little room before the quota stops it; "
                "prune the store or raise --store-quota"
            )
    return check


def check_configuration() -> CheckResult:
    """The quarter-scale preset must build for every scheme."""
    check = CheckResult("configuration")
    for scheme in Scheme:
        try:
            small_config(scheme=scheme)
        except ConfigError as exc:
            check.problems.append(f"small_config({scheme.value}): {exc}")
    if not check.problems:
        check.notes.append(
            f"small_config builds for all {len(list(Scheme))} schemes"
        )
    return check


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def run_doctor(
    store_dir: Optional[str] = None,
    checkpoint_dirs: Sequence[str] = (),
    fix: bool = False,
    store_quota_bytes: Optional[int] = None,
    min_free_bytes: int = DEFAULT_MIN_FREE_BYTES,
) -> DoctorReport:
    """Run every check; returns the report (never raises on findings)."""
    store_path = Path(store_dir) if store_dir is not None else None
    checkpoint_paths = [Path(directory) for directory in checkpoint_dirs]
    report = DoctorReport()
    if store_path is not None:
        report.checks.append(check_store_integrity(store_path, fix=fix))
    report.checks.append(
        check_orphaned_temp_files(store_path, checkpoint_paths, fix=fix)
    )
    report.checks.append(check_checkpoint_round_trip(checkpoint_paths))
    report.checks.append(
        check_disk_headroom(
            store_path, checkpoint_paths,
            quota_bytes=store_quota_bytes, min_free_bytes=min_free_bytes,
        )
    )
    report.checks.append(check_configuration())
    return report


__all__ = [
    "CheckResult",
    "DEFAULT_MIN_FREE_BYTES",
    "DoctorReport",
    "check_checkpoint_round_trip",
    "check_configuration",
    "check_disk_headroom",
    "check_orphaned_temp_files",
    "check_store_integrity",
    "run_doctor",
]
