"""Exact computer algebra for the quantum general linear supergroup.

Subpackages cover: the coefficient field Q(q), whose one element type is
`RatFunc` (`coeff`), Z2-graded linear algebra with Koszul sign
bookkeeping (`graded`), the quantised enveloping superalgebra with its
Hopf structure and star operations (`uq`), tensor representations and
decomposition (`reps`), R-matrices and RTT relations (`rmatrix`), the
coordinate superalgebra of the quantum supergroup (`coords`), quantum
projective superspace (`superspace`), parabolically induced modules
(`induction`), and a JSON-emitting command line (`cli`).
"""

from __future__ import annotations

__version__ = "0.1.0"

from .coeff import RatFunc, ZERO, ONE, Q, QINV, q_int
from .graded import GradingContext

__all__ = [
    "RatFunc",
    "ZERO",
    "ONE",
    "Q",
    "QINV",
    "q_int",
    "GradingContext",
]
