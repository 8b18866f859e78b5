"""wright2csp: a Wright architecture compiler targeting FDR-checkable CSP,
with an embedded failures-divergences refinement engine."""

from .alphabets import annotate
from .analyzer import analyze
from .codegen import Assertion, AssertionKind, EmitPlan, emit
from .engine import RefinementVerdict, check_refinement_fd, compile_to_lts, discharge_assertions, normalize_fd
from .model import Diagnostic
from .parser import ParseError, parse_source, to_wright

__version__ = "0.1.0"

__all__ = [
    "analyze",
    "annotate",
    "Assertion",
    "AssertionKind",
    "check_refinement_fd",
    "compile_to_lts",
    "Diagnostic",
    "discharge_assertions",
    "emit",
    "EmitPlan",
    "normalize_fd",
    "ParseError",
    "parse_source",
    "RefinementVerdict",
    "to_wright",
]
