"""Free-infinite-divisibility utilities.

A compound free Poisson law has cumulants equal to the moments of its
driving measure; and a freely infinitely divisible law has a shifted
cumulant sequence that is a moment sequence, so its truncated Hankel
matrices [kappa_{i+j+2}] must be positive semidefinite.  Only that necessary
direction is decided here, and it is decided exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .cumulants import CumulantSequence, MomentSequence, format_rational
from .errors import TruncationError

_ZERO = Fraction(0)


@dataclass(frozen=True)
class FidVerdict:
    """Outcome of one truncated Hankel positivity check.

    ``psd`` is true iff the truncation is positive semidefinite; a failure
    records the 0-based pivot index at which positivity broke.  A pass is
    only "consistent with free infinite divisibility at this order" — a
    truncation can never certify the full property.
    """

    order_checked: int
    pivots: tuple[Fraction, ...]
    psd: bool
    failure_index: Optional[int] = None

    def to_json(self) -> dict:
        return {
            "order": self.order_checked,
            "psd": self.psd,
            "failure_index": self.failure_index,
            "pivots": [format_rational(p) for p in self.pivots],
        }


def compound_poisson_from_rho(rho: MomentSequence, order: int) -> CumulantSequence:
    """Cumulants of the compound free Poisson law driven by rho:
    kappa_n = m_n(rho)."""
    if order > rho.max_order:
        raise TruncationError(
            f"need driving moments to order {order}, have {rho.max_order}"
        )
    return CumulantSequence([rho.moment(n) for n in range(1, order + 1)])


def hankel_fid_check(seq: CumulantSequence, size: int) -> FidVerdict:
    """Exact positive-semidefiniteness of [kappa_{i+j+2}] for 0 <= i,j < size.

    Symmetric rational elimination with diagonal pivoting: PSD iff every
    pivot is nonnegative and every zero pivot sits on an entirely zero
    residual row.
    """
    order_needed = 2 * size
    if seq.max_order < order_needed:
        raise TruncationError(
            f"Hankel check of size {size} needs cumulants to order {order_needed},"
            f" have {seq.max_order}"
        )
    a = [[seq.kappa(i + j + 2) for j in range(size)] for i in range(size)]
    pivots: list[Fraction] = []
    for i in range(size):
        p = a[i][i]
        pivots.append(p)
        if p < 0:
            return FidVerdict(order_needed, tuple(pivots), psd=False, failure_index=i)
        if p == 0:
            if any(a[i][j] != 0 for j in range(i + 1, size)):
                return FidVerdict(order_needed, tuple(pivots), psd=False, failure_index=i)
            continue
        for r in range(i + 1, size):
            f = a[r][i] / p
            if f == 0:
                continue
            for c in range(i, size):
                a[r][c] -= f * a[i][c]
    return FidVerdict(order_needed, tuple(pivots), psd=True)
