"""Node/time budgets shared by the exact solvers.

A SearchBudget (node cap, time cap) starts once into the BudgetClock
that every engine runs on and stops by, one exhausted() rule per cap; an
engine may get a copy with a field replaced, but none restarts a budget.
"""

from __future__ import annotations

import math
import operator
import time
from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class SearchBudget:
    """Limits for a branch-and-bound run; None means unlimited."""

    max_nodes: Optional[int] = None
    max_seconds: Optional[float] = None

    def __post_init__(self):
        if self.max_nodes is not None:
            try:
                operator.index(self.max_nodes)
            except TypeError:
                raise ValueError(f"max_nodes must be an integer, got {self.max_nodes!r}") from None
            if self.max_nodes < 1:
                raise ValueError(f"max_nodes must be >= 1, got {self.max_nodes}")
        # No time limit is max_seconds=None; an infinite one is refused,
        # because JSON (RFC 8259) has no way to write it.
        if self.max_seconds is not None and not 0 < self.max_seconds < math.inf:
            raise ValueError(f"max_seconds must be > 0 and finite, got {self.max_seconds}")

    def start(self) -> "BudgetClock":
        deadline = None if self.max_seconds is None else time.monotonic() + self.max_seconds
        return BudgetClock(self.max_nodes, deadline)


@dataclass(frozen=True)
class BudgetClock:
    """A started budget: a node cap and a time.monotonic() deadline; None is unlimited."""

    max_nodes: Optional[int] = None
    deadline: Optional[float] = None

    def start(self) -> "BudgetClock":
        return self

    def exhausted(self, nodes: Optional[int] = None) -> bool:
        """Whether the deadline has passed, or ``nodes``, if given, meet the node cap."""
        return (nodes is not None and self.max_nodes is not None and nodes >= self.max_nodes
                or self.deadline is not None and time.monotonic() >= self.deadline)
