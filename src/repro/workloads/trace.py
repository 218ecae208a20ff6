"""Trace recording and replay.

The paper drives its simulator from timed Pin traces collected on real
hardware (Section 4.2).  This module provides the equivalent
infrastructure for this simulator:

* :func:`record_trace` — capture any workload's per-thread access streams
  into a compact ``.npz`` file (addresses + write flags);
* :class:`TraceWorkload` — a :class:`~repro.workloads.base.Workload` that
  replays such a file, looping when the trace is shorter than the run;
* :func:`load_trace` / :func:`trace_info` — inspection helpers.

Replaying a trace is deterministic and independent of the generator's
random state, which makes cross-machine comparisons and regression runs
reproducible bit-for-bit.  Real Pin/DynamoRIO traces can be imported by
writing the same npz layout (`thread<N>_addresses`, `thread<N>_writes`).
"""

from __future__ import annotations

import itertools
import pathlib
from dataclasses import dataclass
from typing import Dict, Union

import numpy as np

from repro.errors import DataError
from repro.workloads.base import AccessStream, Workload

PathLike = Union[str, pathlib.Path]

_FORMAT_VERSION = 1


class TraceFormatError(DataError, ValueError):
    """A trace file is structurally invalid (version, keys, lengths).

    A :class:`~repro.errors.DataError` (exit code 2); still a
    ``ValueError`` for pre-taxonomy callers.
    """


def record_trace(
    workload: Workload,
    path: PathLike,
    accesses_per_thread: int = 100_000,
    num_threads: int = 8,
    seed: int = 0,
) -> None:
    """Capture ``workload``'s streams to a compressed ``.npz`` trace."""
    if accesses_per_thread < 1:
        raise ValueError("need at least one access per thread")
    arrays: Dict[str, np.ndarray] = {
        "version": np.array([_FORMAT_VERSION]),
        "num_threads": np.array([num_threads]),
        "huge_va_limit": np.array([workload.huge_va_limit], dtype=np.uint64),
    }
    for thread in range(num_threads):
        stream = workload.thread_stream(thread, num_threads, seed)
        pairs = list(itertools.islice(stream, accesses_per_thread))
        arrays[f"thread{thread}_addresses"] = np.array(
            [address for address, _ in pairs], dtype=np.uint64
        )
        arrays[f"thread{thread}_writes"] = np.packbits(
            np.array([flag for _, flag in pairs], dtype=bool)
        )
        arrays[f"thread{thread}_length"] = np.array([len(pairs)])
    np.savez_compressed(str(path), **arrays)


@dataclass
class TraceInfo:
    """Summary of a stored trace."""

    num_threads: int
    accesses_per_thread: int
    huge_va_limit: int
    distinct_pages: int


def load_trace(path: PathLike) -> Dict[str, np.ndarray]:
    """Load and validate a trace file's raw arrays.

    Raises :class:`TraceFormatError` on a wrong version, missing arrays,
    or a per-thread length field that disagrees with the stored data —
    the failure modes of a torn or hand-mangled trace file.
    """
    data = dict(np.load(str(path)))
    version = int(data.get("version", [0])[0])
    if version != _FORMAT_VERSION:
        raise TraceFormatError(
            f"{path}: unsupported trace version {version} "
            f"(expected {_FORMAT_VERSION})"
        )
    for key in ("num_threads", "huge_va_limit"):
        if key not in data:
            raise TraceFormatError(f"{path}: missing required array {key!r}")
    num_threads = int(data["num_threads"][0])
    for thread in range(num_threads):
        missing = [
            key
            for key in (
                f"thread{thread}_addresses",
                f"thread{thread}_writes",
                f"thread{thread}_length",
            )
            if key not in data
        ]
        if missing:
            raise TraceFormatError(
                f"{path}: missing arrays for thread {thread}: "
                f"{', '.join(missing)}"
            )
        length = int(data[f"thread{thread}_length"][0])
        stored = len(data[f"thread{thread}_addresses"])
        if stored != length:
            raise TraceFormatError(
                f"{path}: thread {thread} stores {stored} addresses but "
                f"declares length {length} (truncated trace?)"
            )
    return data


def trace_info(path: PathLike) -> TraceInfo:
    """Inspect a trace without building a workload."""
    data = load_trace(path)
    num_threads = int(data["num_threads"][0])
    lengths = [int(data[f"thread{t}_length"][0]) for t in range(num_threads)]
    pages = set()
    for thread in range(num_threads):
        pages.update(
            np.unique(data[f"thread{thread}_addresses"] >> 12).tolist()
        )
    return TraceInfo(
        num_threads=num_threads,
        accesses_per_thread=min(lengths),
        huge_va_limit=int(data["huge_va_limit"][0]),
        distinct_pages=len(pages),
    )


class TraceWorkload(Workload):
    """Replay a recorded trace as a workload (looping past the end)."""

    name = "trace"

    def __init__(self, path: PathLike, name: str | None = None):
        data = load_trace(path)
        self.path = pathlib.Path(path)
        self.name = name or self.path.stem
        self.num_threads = int(data["num_threads"][0])
        self.huge_va_limit = int(data["huge_va_limit"][0])
        self._addresses = {}
        self._writes = {}
        for thread in range(self.num_threads):
            length = int(data[f"thread{thread}_length"][0])
            self._addresses[thread] = data[f"thread{thread}_addresses"]
            self._writes[thread] = np.unpackbits(
                data[f"thread{thread}_writes"]
            )[:length].astype(bool)

    def thread_stream(
        self, thread_id: int, num_threads: int = 8, seed: int = 0
    ) -> AccessStream:
        """Replay thread ``thread_id``'s recording (modulo thread count).

        ``seed`` rotates the starting offset so co-scheduled replicas of
        one trace are not phase-locked.
        """
        source = thread_id % self.num_threads
        addresses = self._addresses[source]
        writes = self._writes[source]
        length = len(addresses)
        offset = (seed * 9973) % length
        while True:
            for index in range(offset, length):
                yield int(addresses[index]), bool(writes[index])
            offset = 0

    def __repr__(self) -> str:
        return f"TraceWorkload({self.path.name}, threads={self.num_threads})"
