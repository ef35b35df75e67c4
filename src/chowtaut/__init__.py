"""chowtaut: exact tautological-ring engine for Picard-rank-1 Fano threefolds."""

__version__ = "0.1.0"

from .ring import CycleClass, Monomial, RingParams, TautRing  # noqa: F401
from .oracle import CohomologyModel, SubalgebraSpan, adjudicate_signs  # noqa: F401
from .correspond import (  # noqa: F401
    Correspondence,
    ProjectorSet,
    ck_projectors,
    involution_check,
    verify_ck,
    verify_mck,
)
from .catalog import FanoRecord, catalog_get, load_catalog  # noqa: F401
from .exprparse import parse_expr  # noqa: F401
