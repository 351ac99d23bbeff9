"""Reed-Solomon errors-and-erasures codec over GF(2^m).

Codewords are full evaluation vectors: symbol i of the codeword for a
message polynomial M is M(alpha^i), with block length n = 2^m - 1 and
minimum distance d = n - k + 1.  Encoding is nonsystematic.

Four decoders recover the message whenever 2t + l < d for t symbol
errors and l erasures.  Each is a thin entry over one pipeline, _decode,
whose steps carry the labels a counter= argument sees: 0 builds the
erasure locator L (1 when nothing is erased); 1 interpolates; 2a prepares
the modulus, the known polynomial reduced below it and an optional
divisor factor; 2b is one call solve(modulus, known, stop), polynomial's
partial extended Euclidean solve, which checks its arguments and returns
W and P with W * known = P (mod modulus) and the iteration count; 3
divides P by W, times the factor if any.  The solve's stop
degree already bounds deg W by (d - 1 - l) / 2, so step 3 needs no
separate radius check.  Steps 1 and 2a are each algorithm's own:

  decode_gao           interpolate_subset: the n - l non-erased positions
                       only, from the word and its erasures; modulus
                       (x^n - 1) / L
  decode_truong        interpolate the full zero-filled vector R; known
                       R * L folded mod x^n - 1, modulus x^n - 1, factor L
  decode_suggested     interpolate R; known R mod (x^n - 1) / L, the
                       modulus
  decode_errors_only   decode_suggested with no erasures, so the modulus
                       is x^n - 1 itself

The gao and suggested pipelines compute identical reduced polynomials by
two different routes, and the truong pipeline carries the same data scaled
by the erasure locator; on any input all of them stand or fall together.
Exactly: with Q = (x^n - 1) / L, x^n - 1 = L * Q gives
R * L mod (x^n - 1) = L * (R mod Q), truong's stop degree
floor((n + k + l + 1) / 2) is suggested's floor((n - l + k + 1) / 2) plus
l, and L is monic.  So the two solves make the same quotients, in as many
iterations, to the same W, and each of truong's remainders is L times
suggested's.  suggested never takes more iterations than truong, and
their multiplications differ only by suggested's step 2a against the l
longer rows of truong's steps 2b and 3.
DECODERS maps the names gao, truong and suggested to the three erasure
pipelines, which share the signature (params, received, *, counter=None).

The counter= argument is a probe: any object with a method step(label)
that returns a context manager, entered around each step with the labels
0, 1, 2a, 2b and 3, and a method add_iterations(n), called once inside
step 2b with the number of Euclidean iterations.  The workbench's
OpCounter counts field operations this way, and perfbench's TimingProbe
times the steps.  With counter=None the steps run bare: each enters the
same module-level nullcontext, which holds no state, so a step that
returns early leaves nothing behind for the next decode.

Decode failures are values, not exceptions: out-of-range inputs raise
ValueError, but an undecodable word returns DecodeResult.failure with a
cause.  DecodeResult, CodeParams and ReceivedWord are immutable records
on one slotted base, Record.
"""

from __future__ import annotations

from contextlib import nullcontext
from enum import Enum

from .galois import Field
from .polynomial import Poly, root_product, solve, xn_minus_one
from .spectral import (check_positions, cyclotomic_quotient, evaluate_all,
                       interpolate_all, interpolate_subset)


class FailureCause(Enum):
    DIVISION_INEXACT = "division_inexact"
    DEGREE_OVERFLOW = "degree_overflow"


class Record:
    """Base of the codec's immutable records.

    A subclass names its fields in __slots__, in constructor order, and its
    __init__ stores each one with object.__setattr__.  From __slots__ this
    class derives what a frozen dataclass would give: == between records
    of one class, a hash of the field values, the Name(field=value, ...)
    repr, copies, and AttributeError on assigning or deleting a field.
    Frozen dataclasses would make every process that imports the package,
    a CLI run included, import dataclasses and inspect too.
    """

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values()


class DecodeResult(Record):
    """Either a recovered message or a failure cause, never both."""

    __slots__ = ("message", "cause")

    def __init__(self, message: tuple[int, ...] | None,
                 cause: FailureCause | None):
        object.__setattr__(self, "message", message)
        object.__setattr__(self, "cause", cause)

    @classmethod
    def of_message(cls, message: tuple[int, ...]) -> DecodeResult:
        return cls(message=message, cause=None)

    @classmethod
    def failure(cls, cause: FailureCause) -> DecodeResult:
        return cls(message=None, cause=cause)

    @property
    def ok(self) -> bool:
        return self.message is not None


class CodeParams(Record):
    """An RS(n, k) code; n is fixed at 2^m - 1 by the field."""

    __slots__ = ("field", "k")

    def __init__(self, field: Field, k: int):
        if type(k) is not int or not 1 <= k < field.n:
            raise ValueError(
                f"k must be an int in [1, {field.n}), got {k!r}")
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "k", k)

    @property
    def n(self) -> int:
        return self.field.n

    @property
    def d(self) -> int:
        """Minimum distance n - k + 1."""
        return self.field.n - self.k + 1


class ReceivedWord(Record):
    """A hard-decision word with declared erasure positions.

    Erased positions are forced to the zero filler so that the
    full-vector decoders see one agreed value there.
    """

    __slots__ = ("symbols", "erasures")

    def __init__(self, symbols: tuple[int, ...],
                 erasures: tuple[int, ...] = ()):
        positions = tuple(sorted(check_positions(erasures, len(symbols))))
        filled = list(symbols)
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
    """Monic product of (x - alpha^pos) over the erased positions.

    l positions cost l row products of O(l) symbols each.  In GF(2^12) on
    CPython 3.11 with numpy that is about 5 ms at l = 1000 and 43 ms at
    l = 4000, and 15 us at l = 8.
    """
    return root_product(params.field, check_positions(positions, params.n))


# nullcontext keeps no state, so every bare step enters the same one
_BARE_STEP = nullcontext()


def _phase(counter, label: str):
    return counter.step(label) if counter is not None else _BARE_STEP


def _decode(params: CodeParams, symbols, erasures: tuple[int, ...], counter,
            interpolate, prepare) -> DecodeResult:
    """The pipeline every decoder runs; see the module docstring.

    interpolate(field, symbols, erasures) is step 1.  prepare(received,
    locator) is step 2a and returns (known, modulus, factor), where known
    is already below the modulus in degree, as solve checks, and factor
    is None or a polynomial that step 3 divides out besides W.
    ReceivedWord checks and sorts the erasures.  Step 1 range-checks every
    symbol, erased ones included, so only the early return, which skips
    step 1, checks them here; interpolate_subset, being public, checks the
    l erasures once more.
    """
    syms = tuple(symbols)
    if len(syms) != params.n:
        raise ValueError(f"expected {params.n} symbols, got {len(syms)}")
    if len(erasures) >= params.d:
        params.field.check_elements(syms)
        return DecodeResult.failure(FailureCause.DEGREE_OVERFLOW)

    with _phase(counter, "0"):
        locator = root_product(params.field, erasures)
    with _phase(counter, "1"):
        received = interpolate(params.field, syms, erasures)
    with _phase(counter, "2a"):
        known, modulus, factor = prepare(received, locator)
    with _phase(counter, "2b"):
        factor_degree = 0 if factor is None else factor.degree
        stop = (modulus.degree + params.k + factor_degree + 1) // 2
        error_locator, combination, iterations = solve(modulus, known, stop)
        if counter is not None:
            counter.add_iterations(iterations)
    with _phase(counter, "3"):
        divisor = error_locator if factor is None else error_locator * factor
        msg_poly, rem = divmod(combination, divisor)
        if not rem.is_zero:
            return DecodeResult.failure(FailureCause.DIVISION_INEXACT)
        if msg_poly.degree >= params.k:
            return DecodeResult.failure(FailureCause.DEGREE_OVERFLOW)
        padding = (0,) * (params.k - len(msg_poly.coeffs))
        return DecodeResult.of_message(tuple(msg_poly.coeffs) + padding)


# Steps 1 and 2a look the spectral functions up in this module's globals
# at call time, decode_gao's interpolate_subset included, so a wrapper
# installed on rscodec.codec sees every call.

def _interpolate_all(field: Field, symbols, erasures) -> Poly:
    return interpolate_all(field, symbols)


def _reduced_modulus(received: Poly, locator: Poly):
    modulus = cyclotomic_quotient(locator)
    return received % modulus, modulus, None


def _locator_product(received: Poly, locator: Poly):
    field, n = received.field, received.field.n
    # x^n = 1 on the evaluation domain, so folding is pure addition
    coeffs = list((received * locator).coeffs)
    for i in range(n, len(coeffs)):
        coeffs[i - n] ^= coeffs[i]
    return Poly._make(field, coeffs[:n]), xn_minus_one(field), locator


def decode_errors_only(params: CodeParams, symbols, *,
                       counter=None) -> DecodeResult:
    """Decode a full received vector assuming errors only, no erasures.

    Corrects up to (d - 1) / 2 symbol errors.  This is decode_suggested
    with no erasures: the reduced modulus is x^n - 1 itself.
    """
    return _decode(params, symbols, (), counter, _interpolate_all,
                   _reduced_modulus)


def decode_gao(params: CodeParams, received: ReceivedWord, *,
               counter=None) -> DecodeResult:
    """Errors-and-erasures decoding from the non-erased positions only.

    Interpolates the n - l surviving positions, then solves the key
    equation against the reduced modulus (x^n - 1) / locator.
    """
    return _decode(params, received.symbols, received.erasures, counter,
                   interpolate_subset, _reduced_modulus)


def decode_truong(params: CodeParams, received: ReceivedWord, *,
                  counter=None) -> DecodeResult:
    """Errors-and-erasures decoding with the locator-product key equation.

    Interpolates the full zero-filled vector, multiplies by the erasure
    locator, and solves against x^n - 1; the message is the combination
    divided by locator times erasure locator.
    """
    return _decode(params, received.symbols, received.erasures, counter,
                   _interpolate_all, _locator_product)


def decode_suggested(params: CodeParams, received: ReceivedWord, *,
                     counter=None) -> DecodeResult:
    """Errors-and-erasures decoding against the reduced modulus.

    Interpolates the full zero-filled vector like decode_truong, but then
    reduces it modulo (x^n - 1) / locator and solves against that smaller
    modulus like decode_gao, skipping both the locator product and the
    larger Euclidean operands.
    """
    return _decode(params, received.symbols, received.erasures, counter,
                   _interpolate_all, _reduced_modulus)


DECODERS = {"gao": decode_gao, "truong": decode_truong,
            "suggested": decode_suggested}
