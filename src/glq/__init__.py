"""Exact computer algebra for the quantum general linear supergroup.

Subpackages cover: the coefficient field Q(q), whose one element type is
`RatFunc` (`coeff`), Z2-graded linear algebra with Koszul sign
bookkeeping (`graded`), the quantised enveloping superalgebra with its
Hopf structure and star operations (`uq`), tensor representations and
decomposition (`reps`), R-matrices and RTT relations (`rmatrix`), the
coordinate superalgebra of the quantum supergroup (`coords`), quantum
projective superspace (`superspace`), parabolically induced modules
(`induction`), and a JSON-emitting command line (`cli`) with one report
module per subcommand (`reports`).
"""

from importlib import import_module

__version__ = "0.1.0"

__all__ = [
    "RatFunc",
    "ZERO",
    "ONE",
    "Q",
    "QINV",
    "q_int",
    "GradingContext",
]


def __getattr__(name):
    """Import an export's layer on first use (PEP 562), so that importing
    glq loads no layer: ``glq --help`` runs on ``glq.cli`` alone."""
    if name not in __all__:
        raise AttributeError("module %r has no attribute %r"
                             % (__name__, name))
    layer = ".graded" if name == "GradingContext" else ".coeff"
    return getattr(import_module(layer, __name__), name)
