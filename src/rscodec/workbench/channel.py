"""Deterministic corruption of codewords for trials and benchmarks."""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..codec import CodeParams, ReceivedWord
from ..spectral import check_positions


@dataclass(frozen=True)
class ChannelSpec:
    """How to corrupt one codeword.

    t positions get a uniformly random nonzero additive error and l
    positions are erased; the two sets never overlap.  Positions and
    error values are drawn from random.Random(seed), so equal specs
    corrupt equal codewords identically.  Explicit position lists, when
    given, must match t and l in length.
    """

    t: int = 0
    l: int = 0
    seed: int = 0
    error_positions: tuple[int, ...] | None = None
    erasure_positions: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        # bool is a subclass of int, so the counts are checked by type
        if any(type(count) is not int or count < 0
               for count in (self.t, self.l)):
            raise ValueError(f"t and l must be nonnegative ints, got "
                             f"{self.t!r}, {self.l!r}")
        # Random(None) seeds from the clock: equal specs would differ
        if type(self.seed) is not int:
            raise ValueError(f"seed must be an int, got {self.seed!r}")
        for name, fixed, count in (("error", self.error_positions, self.t),
                                   ("erasure", self.erasure_positions, self.l)):
            if fixed is None:
                continue
            if len(fixed) != count:
                raise ValueError(
                    f"{len(fixed)} explicit {name} positions for count {count}")
            if len(set(fixed)) != len(fixed):
                raise ValueError(f"duplicate {name} positions in {fixed}")
        if self.error_positions is not None and self.erasure_positions is not None:
            overlap = set(self.error_positions) & set(self.erasure_positions)
            if overlap:
                raise ValueError(f"positions {sorted(overlap)} are both "
                                 f"errors and erasures")

    def check(self, n: int) -> None:
        """Refuse a spec that cannot apply to a codeword of n symbols:
        t + l above n, or an explicit position outside [0, n)."""
        if self.t + self.l > n:
            raise ValueError(f"t + l = {self.t + self.l} exceeds n = {n}")
        check_positions((*(self.erasure_positions or ()),
                         *(self.error_positions or ())), n)


def corrupt(params: CodeParams, codeword, spec: ChannelSpec) -> ReceivedWord:
    """Apply a ChannelSpec to a codeword.

    The output differs from the input in exactly the error positions and
    is zero-filled at the erasure positions.  Every codeword symbol must
    be a field element, erased ones included.
    """
    n = params.n
    symbols = params.field.check_elements(codeword)
    if len(symbols) != n:
        raise ValueError(f"expected {n} symbols, got {len(symbols)}")
    spec.check(n)
    rng = random.Random(spec.seed)

    if spec.erasure_positions is not None:
        erasures = list(spec.erasure_positions)
    else:
        forbidden = set(spec.error_positions or ())
        erasures = rng.sample(sorted(set(range(n)) - forbidden), spec.l)
    if spec.error_positions is not None:
        errors = list(spec.error_positions)
    else:
        errors = rng.sample(sorted(set(range(n)) - set(erasures)), spec.t)

    for pos in errors:
        symbols[pos] ^= rng.randrange(1, params.field.order)
    return ReceivedWord(symbols=tuple(symbols), erasures=tuple(erasures))
