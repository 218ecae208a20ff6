"""Live progress reports from the engine (``repro run --progress``)."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class ProgressUpdate:
    """One live progress report from the engine."""

    executed: int
    total: int
    elapsed_seconds: float

    @property
    def fraction(self) -> float:
        return self.executed / self.total if self.total else 0.0

    @property
    def accesses_per_second(self) -> float:
        if self.elapsed_seconds <= 0:
            return 0.0
        return self.executed / self.elapsed_seconds

    @property
    def eta_seconds(self) -> float:
        rate = self.accesses_per_second
        if rate <= 0:
            return 0.0
        return (self.total - self.executed) / rate

    def format(self) -> str:
        return (
            f"{self.executed}/{self.total} ({self.fraction:.0%}) "
            f"{self.accesses_per_second:,.0f} acc/s "
            f"eta {self.eta_seconds:.1f}s"
        )
