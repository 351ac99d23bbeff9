"""Instrumented field arithmetic for comparing decoder pipelines.

A CountingField computes exactly as its base Field does, through the same
table-driven kernels and transforms.  Each site that does field work adds,
through its OpCounter's add, the multiplications and inversions that the
schoolbook algorithm makes on operands of that shape: len(a) * len(b) for
a product, one per coefficient for a Horner evaluation, n per coefficient
for a transform, and so on (see polynomial and spectral).
Additions are single XORs and go uncounted.  The counts depend on the
operands' lengths and leads only, so two runs over the same input always
produce the same counts.
"""

from __future__ import annotations

from contextlib import contextmanager

from ..galois import Field

OTHER_STEP = "other"


class OpCounter:
    """Tallies of field operations, keyed by pipeline step label."""

    __slots__ = ("mults", "invs", "iterations", "_step")

    def __init__(self):
        self.mults: dict[str, int] = {}
        self.invs: dict[str, int] = {}
        self.iterations: dict[str, int] = {}
        self._step = OTHER_STEP

    @contextmanager
    def step(self, label: str):
        """Attribute counts to the given step for the duration."""
        prev = self._step
        self._step = label
        try:
            yield self
        finally:
            self._step = prev

    def add(self, mults: int, invs: int = 0) -> None:
        """Record multiplications and inversions; a zero records nothing,
        so a step appears in the tallies only once it has a count."""
        step = self._step
        if mults:
            self.mults[step] = self.mults.get(step, 0) + mults
        if invs:
            self.invs[step] = self.invs.get(step, 0) + invs

    def add_iterations(self, count: int) -> None:
        """Record Euclidean iterations reported by a key-equation solve."""
        self.iterations[self._step] = self.iterations.get(self._step, 0) + count

    @property
    def total_mults(self) -> int:
        return sum(self.mults.values())

    @property
    def total_invs(self) -> int:
        return sum(self.invs.values())

    @property
    def total_iterations(self) -> int:
        return sum(self.iterations.values())

    def __repr__(self) -> str:
        return (f"OpCounter(mults={self.total_mults}, "
                f"invs={self.total_invs}, iterations={self.total_iterations})")


class CountingField(Field):
    """The base field, sharing its tables, with a counter for its work.

    It compares and hashes equal to the base, so polynomials built on it
    mix freely with plain ones and every per-field table cache serves it
    from the base's entry.  base is the plain field, for work that a site
    has already counted as a whole.
    """

    __slots__ = ("counter", "base")

    def __init__(self, base: Field, counter: OpCounter):
        for name in Field.__slots__:
            setattr(self, name, getattr(base, name))
        self.base = base
        self.counter = counter

    def __repr__(self) -> str:
        return f"CountingField({Field.__repr__(self)})"
