"""Reed-Solomon errors-and-erasures codec over GF(2^m).

Codewords are full evaluation vectors: symbol i of the codeword for a
message polynomial M is M(alpha^i), with block length n = 2^m - 1 and
minimum distance d = n - k + 1.  Encoding is nonsystematic.

Four decoders are provided.  All of them recover the message whenever
2t + l < d for t symbol errors and l erasures, and all reduce the work to
one key-equation solve; they differ in how the known polynomial and the
modulus are prepared:

  decode_errors_only   no erasures; solve against x^n - 1 directly
  decode_gao           interpolate the non-erased positions only, then
                       solve against (x^n - 1) / locator
  decode_truong        interpolate everything, multiply by the erasure
                       locator, then solve against x^n - 1
  decode_suggested     interpolate everything, reduce modulo
                       (x^n - 1) / locator, then solve against that
                       same smaller modulus

The gao and suggested pipelines compute identical reduced polynomials by
two different routes, and the truong pipeline carries the same data scaled
by the erasure locator; on any input all of them stand or fall together.

Decode failures are values, not exceptions: out-of-range inputs raise
ValueError, but an undecodable word returns DecodeResult.failure with a
cause.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass
from enum import Enum

from .galois import Field
from .key_equation import KeyEquationProblem, solve
from .polynomial import Poly, root_product, xn_minus_one
from .spectral import (cyclotomic_quotient, evaluate_all, interpolate_all,
                       interpolate_subset)


class FailureCause(Enum):
    DIVISION_INEXACT = "division_inexact"
    DEGREE_OVERFLOW = "degree_overflow"
    LOCATOR_MISMATCH = "locator_mismatch"
    TIE = "tie"  # used by the workbench oracle only


@dataclass(frozen=True)
class DecodeResult:
    """Either a recovered message or a failure cause, never both."""

    message: tuple[int, ...] | None
    cause: FailureCause | None

    @classmethod
    def of_message(cls, message: tuple[int, ...]) -> DecodeResult:
        return cls(message=message, cause=None)

    @classmethod
    def failure(cls, cause: FailureCause) -> DecodeResult:
        return cls(message=None, cause=cause)

    @property
    def ok(self) -> bool:
        return self.message is not None


@dataclass(frozen=True)
class CodeParams:
    """An RS(n, k) code; n is fixed at 2^m - 1 by the field."""

    field: Field
    k: int

    def __post_init__(self) -> None:
        if not 1 <= self.k < self.field.n:
            raise ValueError(
                f"k must be in [1, {self.field.n}), got {self.k}")

    @property
    def n(self) -> int:
        return self.field.n

    @property
    def d(self) -> int:
        """Minimum distance n - k + 1."""
        return self.field.n - self.k + 1


@dataclass(frozen=True)
class ReceivedWord:
    """A hard-decision word with declared erasure positions.

    Erased positions are forced to the zero filler so that the
    full-vector decoders see one agreed value there.
    """

    symbols: tuple[int, ...]
    erasures: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        n = len(self.symbols)
        positions = tuple(sorted(self.erasures))
        if len(set(positions)) != len(positions):
            raise ValueError(f"duplicate erasure positions in {positions}")
        for pos in positions:
            if not 0 <= pos < n:
                raise ValueError(f"erasure position {pos} is outside [0, {n})")
        filled = list(self.symbols)
        for pos in positions:
            filled[pos] = 0
        object.__setattr__(self, "symbols", tuple(filled))
        object.__setattr__(self, "erasures", positions)


def encode(params: CodeParams, message) -> tuple[int, ...]:
    """Codeword of a k-symbol message: evaluations of its polynomial."""
    msg = tuple(message)
    if len(msg) != params.k:
        raise ValueError(f"message must have {params.k} symbols, got {len(msg)}")
    # Poly() validates every symbol as a field element
    return evaluate_all(Poly(params.field, msg), params.n)


def erasure_locator(params: CodeParams, positions) -> Poly:
    """Monic product of (x - alpha^pos) over the erased positions."""
    field = params.field
    pos_list = list(positions)
    if len(set(pos_list)) != len(pos_list):
        raise ValueError(f"duplicate erasure positions in {pos_list}")
    for pos in pos_list:
        if not 0 <= pos < params.n:
            raise ValueError(f"position {pos} is outside [0, {params.n})")
    if type(field) is Field:
        return root_product(field, pos_list)
    locator = Poly.one(field)
    for pos in pos_list:
        locator = locator * Poly._make(field, [field.alpha_pow(pos), 1])
    return locator


def _phase(counter, label: str):
    return counter.step(label) if counter is not None else nullcontext()


def _ceil_half(value: int) -> int:
    return (value + 1) // 2


def _check_symbols(params: CodeParams, symbols) -> tuple[int, ...]:
    syms = tuple(symbols)
    if len(syms) != params.n:
        raise ValueError(f"expected {params.n} symbols, got {len(syms)}")
    for value in syms:
        params.field.check_element(value)
    return syms


def _wrap_mod_xn_1(poly: Poly, n: int) -> Poly:
    # x^n = 1 on the evaluation domain, so folding is pure addition
    coeffs = list(poly.coeffs)
    for i in range(n, len(coeffs)):
        coeffs[i - n] ^= coeffs[i]
    return Poly._make(poly.field, coeffs[:n])


def _finish(params: CodeParams, locator: Poly, combination: Poly,
            divisor: Poly, symbols: tuple[int, ...],
            erasures: tuple[int, ...], max_locator_degree: int,
            self_check: bool, counter) -> DecodeResult:
    """Shared tail: divide out the locator and police the degree caps."""
    if locator.degree > max_locator_degree:
        return DecodeResult.failure(FailureCause.DEGREE_OVERFLOW)
    msg_poly, rem = divmod(combination, divisor)
    if not rem.is_zero:
        return DecodeResult.failure(FailureCause.DIVISION_INEXACT)
    if msg_poly.degree >= params.k:
        return DecodeResult.failure(FailureCause.DEGREE_OVERFLOW)
    message = tuple(msg_poly.coeffs) + (0,) * (params.k - len(msg_poly.coeffs))

    if self_check:
        with _phase(counter, "self-check"):
            field = params.field
            reencoded = evaluate_all(msg_poly, params.n)
            erased = set(erasures)
            for pos in range(params.n):
                if pos in erased or reencoded[pos] == symbols[pos]:
                    continue
                if locator.evaluate(field.alpha_pow(pos)) != 0:
                    return DecodeResult.failure(FailureCause.LOCATOR_MISMATCH)
    return DecodeResult.of_message(message)


def decode_errors_only(params: CodeParams, symbols, *,
                       self_check: bool = False, counter=None) -> DecodeResult:
    """Decode a full received vector assuming errors only, no erasures.

    Corrects up to (d - 1) / 2 symbol errors.
    """
    field, n, k = params.field, params.n, params.k
    syms = _check_symbols(params, symbols)

    with _phase(counter, "1"):
        received_poly = interpolate_all(field, syms)
    with _phase(counter, "2a"):
        modulus = xn_minus_one(field, n)
    with _phase(counter, "2b"):
        solution = solve(KeyEquationProblem(
            modulus=modulus, known=received_poly,
            stop_degree=_ceil_half(n + k)))
        if counter is not None:
            counter.add_iterations(solution.iterations)
    with _phase(counter, "3"):
        return _finish(params, solution.locator, solution.combination,
                       solution.locator, syms, (),
                       (params.d - 1) // 2, self_check, counter)


def _erasure_setup(params: CodeParams, received: ReceivedWord):
    syms = _check_symbols(params, received.symbols)
    l = len(received.erasures)
    if l >= params.d:
        return None
    return syms, received.erasures, l


def decode_gao(params: CodeParams, received: ReceivedWord, *,
               self_check: bool = False, counter=None) -> DecodeResult:
    """Errors-and-erasures decoding from the non-erased positions only.

    Interpolates the n - l surviving positions, then solves the key
    equation against the reduced modulus (x^n - 1) / locator.
    """
    setup = _erasure_setup(params, received)
    if setup is None:
        return DecodeResult.failure(FailureCause.DEGREE_OVERFLOW)
    syms, erasures, l = setup
    field, n, k = params.field, params.n, params.k

    with _phase(counter, "0"):
        locator = erasure_locator(params, erasures)
    with _phase(counter, "1"):
        erased = set(erasures)
        points = [(pos, syms[pos]) for pos in range(n) if pos not in erased]
        survivors_poly = interpolate_subset(field, points)
    with _phase(counter, "2a"):
        modulus = cyclotomic_quotient(locator, n)
    with _phase(counter, "2b"):
        solution = solve(KeyEquationProblem(
            modulus=modulus, known=survivors_poly,
            stop_degree=_ceil_half(n - l + k)))
        if counter is not None:
            counter.add_iterations(solution.iterations)
    with _phase(counter, "3"):
        return _finish(params, solution.locator, solution.combination,
                       solution.locator, syms, erasures,
                       (params.d - 1 - l) // 2, self_check, counter)


def decode_truong(params: CodeParams, received: ReceivedWord, *,
                  self_check: bool = False, counter=None) -> DecodeResult:
    """Errors-and-erasures decoding with the locator-product key equation.

    Interpolates the full zero-filled vector, multiplies by the erasure
    locator, and solves against x^n - 1; the message is the combination
    divided by locator times erasure locator.
    """
    setup = _erasure_setup(params, received)
    if setup is None:
        return DecodeResult.failure(FailureCause.DEGREE_OVERFLOW)
    syms, erasures, l = setup
    field, n, k = params.field, params.n, params.k

    with _phase(counter, "0"):
        locator = erasure_locator(params, erasures)
    with _phase(counter, "1"):
        received_poly = interpolate_all(field, syms)
    with _phase(counter, "2a"):
        known = _wrap_mod_xn_1(received_poly * locator, n)
    with _phase(counter, "2b"):
        solution = solve(KeyEquationProblem(
            modulus=xn_minus_one(field, n), known=known,
            stop_degree=_ceil_half(n + k + l)))
        if counter is not None:
            counter.add_iterations(solution.iterations)
    with _phase(counter, "3"):
        divisor = solution.locator * locator
        return _finish(params, solution.locator, solution.combination,
                       divisor, syms, erasures,
                       (params.d - 1 - l) // 2, self_check, counter)


def decode_suggested(params: CodeParams, received: ReceivedWord, *,
                     self_check: bool = False, counter=None) -> DecodeResult:
    """Errors-and-erasures decoding against the reduced modulus.

    Interpolates the full zero-filled vector like decode_truong, but then
    reduces it modulo (x^n - 1) / locator and solves against that smaller
    modulus like decode_gao, skipping both the locator product and the
    larger Euclidean operands.
    """
    setup = _erasure_setup(params, received)
    if setup is None:
        return DecodeResult.failure(FailureCause.DEGREE_OVERFLOW)
    syms, erasures, l = setup
    field, n, k = params.field, params.n, params.k

    with _phase(counter, "0"):
        locator = erasure_locator(params, erasures)
    with _phase(counter, "1"):
        received_poly = interpolate_all(field, syms)
    with _phase(counter, "2a"):
        modulus = cyclotomic_quotient(locator, n)
    with _phase(counter, "2b"):
        reduced = received_poly % modulus
        solution = solve(KeyEquationProblem(
            modulus=modulus, known=reduced,
            stop_degree=_ceil_half(n - l + k)))
        if counter is not None:
            counter.add_iterations(solution.iterations)
    with _phase(counter, "3"):
        return _finish(params, solution.locator, solution.combination,
                       solution.locator, syms, erasures,
                       (params.d - 1 - l) // 2, self_check, counter)
