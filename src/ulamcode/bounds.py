"""Closed-form and asymptotic bounds on maximum Ulam-code sizes.

The Singleton and Gilbert-Varshamov bounds are exact integers.  The
asymptotic lines that ``bounds --show-asymptotics`` prints (the constant-c
lower bound, Kim's rate, the LIS large-deviation rate) work on a log scale
in floating point.  ``BoundReport`` aggregates everything known about one
(n, d) pair.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Optional


@dataclass(frozen=True)
class CodeParams:
    """Code length n and minimum Ulam distance d, with 1 <= d <= n - 1."""

    n: int
    d: int

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"n must be >= 2, got {self.n}")
        if not 1 <= self.d <= self.n - 1:
            raise ValueError(
                f"d must satisfy 1 <= d <= n - 1 = {self.n - 1}, got {self.d}"
            )

    @property
    def delta(self) -> int:
        """d - 1, the ball radius that must stay codeword-free."""
        return self.d - 1


def singleton_upper(params: CodeParams) -> int:
    """Singleton-type upper bound (n - d + 1)!, exact."""
    return math.factorial(params.n - params.d + 1)


def gv_lower(params: CodeParams) -> int:
    """Gilbert-Varshamov-type lower bound: ceil((n-d+1)! / C(n, d-1)), exact.

    This is the raw formula value; aggregation with other known lower bounds
    (e.g. the trivial two-word code) happens in BoundReport assembly.
    """
    num = math.factorial(params.n - params.d + 1)
    den = math.comb(params.n, params.d - 1)
    return -(-num // den)


def asymptotic_lower_log(c: float, n: int) -> float:
    """Log of the constant-c asymptotic lower bound: 2 sqrt(n) c (ln c - 1).

    Intended for the regime d - 1 = n - c sqrt(n) with c constant.
    """
    if c <= 0:
        raise ValueError(f"c must be positive, got {c}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return 2.0 * math.sqrt(n) * c * (math.log(c) - 1.0)


def rate_function(c: float) -> float:
    """Large-deviation rate I(c) for the LIS exceeding c sqrt(n), c >= 2.

    I(c) = 2c ln(c/2 + sqrt(c^2/4 - 1)) - 2 sqrt(c^2 - 4); I(2) = 0 and I is
    continuous at 2.
    """
    if c < 2.0:
        raise ValueError(f"rate function needs c >= 2, got {c}")
    return 2.0 * c * math.log(c / 2.0 + math.sqrt(c * c / 4.0 - 1.0)) - 2.0 * math.sqrt(
        c * c - 4.0
    )


def kim_rate_log(c: float, n: int) -> float:
    """APPROXIMATE log-scale lower-bound rate (c-2)^(3/2) (38-c)/27 sqrt(n).

    Only meaningful for c slightly above 2 (c <= 2 + 1/20); derived from
    Kim's tail estimate with constants dropped, so it is a report line, not
    a certified bound.
    """
    if not 2.0 < c <= 2.0 + 1.0 / 20.0:
        raise ValueError(f"c must lie in (2, 2.05], got {c}")
    return (c - 2.0) ** 1.5 * ((38.0 - c) / 27.0) * math.sqrt(n)


@dataclass
class BoundReport:
    """Everything known about A(n, d) for one parameter pair.

    best_lower folds in the trivial two-word code {identity, reversal}
    (valid whenever d <= n - 1) and, at d = 2, the known construction of
    size (n-1)! (no field); best_upper is the min of the populated upper bounds.
    """

    params: CodeParams
    singleton_upper: int
    gv_lower: int
    ip_upper: Optional[int]
    sphere_lower: Optional[int]
    sphere_upper: Optional[int]
    best_lower: int
    best_upper: int
    notes: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return asdict(self)

    def to_text(self) -> str:
        values = self.to_dict()
        notes = values.pop("notes")
        rows = [*values.pop("params").items(), *values.items()]
        width = max(len(name) for name, _ in rows)
        lines = [f"{name:<{width}}  {'-' if v is None else v}" for name, v in rows]
        lines += [f"note: {note}" for note in notes]
        return "\n".join(lines)


def bound_report(
    params: CodeParams,
    sphere: Optional[tuple[int, int]] = None,
    ip_upper: Optional[int] = None,
) -> BoundReport:
    """The closed-form bounds folded with whatever else is known.

    ``sphere`` is the pair of ``ball.sphere_packing_bounds(table, d)`` and
    ``ip_upper`` the value of ``ilp.solve_ilp``, each already computed.
    At d = 2 best_lower is the known construction's (n-1)!, with no field.
    """
    singleton, gv = singleton_upper(params), gv_lower(params)
    sphere_lower, sphere_upper = sphere if sphere is not None else (None, None)
    # {e, reversal} has distance n - 1 >= d; at d = 2 a known construction
    # meets the Singleton bound (n-1)!.
    known = (gv, 2, sphere_lower, singleton if params.d == 2 else None)
    best_lower = max(b for b in known if b is not None)
    best_upper = min(b for b in (singleton, ip_upper, sphere_upper) if b is not None)
    if best_lower > best_upper:
        raise AssertionError(f"bound inversion at {params}: {best_lower} > {best_upper}")
    notes = []
    if sphere is not None and params.delta % 2 == 1:
        notes.append("sphere upper bound uses radius floor((d-1)/2) because d-1 is odd")
    return BoundReport(params, singleton, gv, ip_upper, sphere_lower, sphere_upper,
                       best_lower, best_upper, notes)
