"""Instrumented field arithmetic for comparing decoder pipelines.

Only multiplications and inversions are tallied; additions are single
XORs and are dominated by everything else.  The polynomial kernels do a
fixed amount of work per operand degree, so two runs over the same input
always produce the same counts.
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


class CountingField:
    """Duck-typed Field wrapper that reports mul and inv to a counter.

    Shares the wrapped field's tables; everything else delegates.  Poly
    and the decoders only compare field contexts by (m, prim_poly), so
    polynomials built on the wrapper mix freely with plain ones.
    """

    __slots__ = ("base", "counter", "m", "prim_poly", "order", "n", "alpha")

    def __init__(self, base: Field, counter: OpCounter):
        self.base = base
        self.counter = counter
        self.m = base.m
        self.prim_poly = base.prim_poly
        self.order = base.order
        self.n = base.n
        self.alpha = base.alpha

    def mul(self, a: int, b: int) -> int:
        self.counter.add_mul()
        return self.base.mul(a, b)

    def inv(self, a: int) -> int:
        self.counter.add_inv()
        return self.base.inv(a)

    def alpha_pow(self, j: int) -> int:
        return self.base.alpha_pow(j)

    def log(self, a: int) -> int:
        return self.base.log(a)

    def check_element(self, a: int) -> int:
        return self.base.check_element(a)

    @property
    def antilog_table(self) -> tuple[int, ...]:
        return self.base.antilog_table

    @property
    def log_table(self) -> tuple[int, ...]:
        return self.base.log_table

    def __repr__(self) -> str:
        return f"CountingField({self.base!r})"
