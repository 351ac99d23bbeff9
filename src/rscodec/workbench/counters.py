"""Instrumented field arithmetic for comparing decoder pipelines.

CountingField is a Field that tallies every multiplication and
inversion in an OpCounter; additions are single XORs and go uncounted.
The table-driven kernels run on a plain Field only, so a CountingField
takes the scalar loops of the row kernels and transforms, which do a fixed
amount of work per operand degree: two runs over the same input always
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

    def add_mul(self) -> None:
        self.mults[self._step] = self.mults.get(self._step, 0) + 1

    def add_inv(self) -> None:
        self.invs[self._step] = self.invs.get(self._step, 0) + 1

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
    """The base field, sharing its tables, with mul and inv counted.

    It compares and hashes equal to the base, so polynomials built on it
    mix freely with plain ones.
    """

    __slots__ = ("counter",)

    _field_mul = Field.mul
    _field_inv = Field.inv

    def __init__(self, base: Field, counter: OpCounter):
        for name in Field.__slots__:
            setattr(self, name, getattr(base, name))
        self.counter = counter

    def mul(self, a: int, b: int) -> int:
        self.counter.add_mul()
        return self._field_mul(a, b)

    def inv(self, a: int) -> int:
        self.counter.add_inv()
        return self._field_inv(a)

    def __repr__(self) -> str:
        return f"CountingField({Field.__repr__(self)})"
