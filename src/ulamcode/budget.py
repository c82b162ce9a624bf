"""Node/time budgets shared by the exact solvers."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class SearchBudget:
    """Limits for a branch-and-bound run; None means unlimited."""

    max_nodes: Optional[int] = None
    max_seconds: Optional[float] = None

    def __post_init__(self):
        if self.max_nodes is not None and self.max_nodes < 1:
            raise ValueError(f"max_nodes must be >= 1, got {self.max_nodes}")
        # No time limit is max_seconds=None; an infinite one is refused,
        # because JSON (RFC 8259) has no way to write it.
        if self.max_seconds is not None and not 0 < self.max_seconds < math.inf:
            raise ValueError(f"max_seconds must be > 0 and finite, got {self.max_seconds}")

    def start(self) -> "BudgetClock":
        return BudgetClock(self, time.monotonic())


@dataclass(frozen=True)
class BudgetClock:
    """A budget started at monotonic time t0; its time cap counts from t0."""

    budget: SearchBudget
    t0: float

    def exhausted(self, nodes: int) -> bool:
        b = self.budget
        if b.max_nodes is not None and nodes >= b.max_nodes:
            return True
        if b.max_seconds is not None and time.monotonic() - self.t0 >= b.max_seconds:
            return True
        return False

    def seconds_left(self) -> Optional[float]:
        """Seconds of the time cap still unspent (<= 0 once past); None without one."""
        if self.budget.max_seconds is None:
            return None
        return self.budget.max_seconds - (time.monotonic() - self.t0)
