"""High-precision asymptotics of Touchard polynomials near saddle coalescence.

Exact reference values come from a certified row-free sum (stirling module);
the asymptotic side provides the coalescence series (theorem1_eval), the
uniform Airy-type approximation (theorem2_eval), and the non-uniform
leading-order forms (poincare.leading_order), all over a small
arbitrary-precision kernel (numkernel) with deterministic, context-pinned
rounding.
"""
from .airy import ABS_Z_LIMIT, AiryMethod, AiryValue, airy
from .coalescence import DEFAULT_ORDER, MAX_ORDER, default_bm, theorem1_eval
from .contours import ContourPolyline, ContourSet, contour_set
from .errors import (BranchError, CapacityError, DomainError,
                     InternalConsistencyError, InvalidPrecisionError,
                     OrderError, PrecisionExhaustedError, RegimeError,
                     SeriesConsistencyError, SolverError, StepError,
                     TouchardError)
from .numkernel import (DEFAULT_DIGITS, MAX_DIGITS, MIN_DIGITS, BigReal,
                        PrecisionContext, mk_context, read_int, real_from,
                        working_digits, wrap_real)
from .poincare import PoincareRegime, PoincareResult, leading_order
from .saddle import SaddleKind, SaddlePair, mu_from_xi, solve_saddles
from .stirling import (N_MAX_LIMIT, ExactValue, StirlingTriangle,
                       build_triangle, scaled_touchard)
from .uniform import UniformIngredients, theorem2_eval, uniform_ingredients

__version__ = "0.1.0"

__all__ = [
    "ABS_Z_LIMIT", "AiryMethod", "AiryValue", "airy",
    "DEFAULT_ORDER", "MAX_ORDER", "default_bm", "theorem1_eval",
    "ContourPolyline", "ContourSet", "contour_set",
    "BranchError", "CapacityError", "DomainError", "InternalConsistencyError",
    "InvalidPrecisionError", "OrderError", "PrecisionExhaustedError",
    "RegimeError", "SeriesConsistencyError", "SolverError", "StepError",
    "TouchardError",
    "DEFAULT_DIGITS", "MAX_DIGITS", "MIN_DIGITS", "BigReal", "PrecisionContext",
    "mk_context", "read_int", "real_from", "working_digits", "wrap_real",
    "PoincareRegime", "PoincareResult", "leading_order",
    "SaddleKind", "SaddlePair", "mu_from_xi", "solve_saddles",
    "N_MAX_LIMIT", "ExactValue", "StirlingTriangle", "build_triangle",
    "scaled_touchard",
    "UniformIngredients", "theorem2_eval", "uniform_ingredients",
    "__version__",
]
