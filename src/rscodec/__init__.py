"""Reed-Solomon errors-and-erasures codec over GF(2^m).

Encoding is nonsystematic: codeword symbol i is the message polynomial
evaluated at alpha^i.  Three erasure-capable decoding pipelines plus a
plain errors-only decoder all reduce to one partial extended Euclidean
solve, polynomial.solve (exported as solve_key_equation), and recover the
message whenever 2t + l < d.  The workbench
subpackage adds channel simulation, operation counting, and a CLI.
"""

from .codec import (DECODERS, CodeParams, DecodeResult, FailureCause,
                    ReceivedWord, decode_errors_only, decode_gao,
                    decode_suggested, decode_truong, encode, erasure_locator)
from .galois import DEFAULT_PRIMITIVE_POLYS, Field
from .polynomial import (MINUS_INF, KeyEquationProblem, KeyEquationSolution,
                         Poly, xn_minus_one)
from .polynomial import solve as solve_key_equation
from .spectral import (cyclotomic_quotient, evaluate_all, interpolate_all,
                       interpolate_subset)

__version__ = "0.1.0"

__all__ = [
    "CodeParams",
    "DECODERS",
    "DEFAULT_PRIMITIVE_POLYS",
    "DecodeResult",
    "FailureCause",
    "Field",
    "KeyEquationProblem",
    "KeyEquationSolution",
    "MINUS_INF",
    "Poly",
    "ReceivedWord",
    "cyclotomic_quotient",
    "decode_errors_only",
    "decode_gao",
    "decode_suggested",
    "decode_truong",
    "encode",
    "erasure_locator",
    "evaluate_all",
    "interpolate_all",
    "interpolate_subset",
    "solve_key_equation",
    "xn_minus_one",
]
