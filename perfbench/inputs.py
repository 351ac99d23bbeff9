"""Seeded inputs and an independent reference for checking outputs.

Nothing here calls the codec: messages, channel positions, error values
and block files are made by the benchmark itself, so a change to the
program cannot change what it is fed.  The reference field arithmetic is
a second, deliberately plain implementation used only to check results.
"""

from __future__ import annotations

import random
from collections.abc import Iterator
from dataclasses import dataclass

from spec import Workload


def rng_for(workload: Workload, seed: int, stream: str) -> random.Random:
    """Independent deterministic stream per (workload, seed, purpose)."""
    return random.Random(f"{workload.name}/{seed}/{stream}")


@dataclass(frozen=True)
class Draw:
    """One block's inputs: the message and what the channel does to it."""

    index: int
    message: tuple[int, ...]
    erasures: tuple[int, ...]            # sorted
    errors: tuple[tuple[int, int], ...]  # (position, nonzero xor value)
    within_radius: bool

    @property
    def l(self) -> int:
        return len(self.erasures)

    def received(self, codeword) -> tuple[int, ...]:
        """The channel output, zero-filled at the erased positions."""
        symbols = list(codeword)
        for pos, value in self.errors:
            symbols[pos] ^= value
        for pos in self.erasures:
            symbols[pos] = 0
        return tuple(symbols)


def draws(workload: Workload, seed: int) -> Iterator[Draw]:
    """The workload's endless block sequence; a prefix depends only on seed."""
    rng = rng_for(workload, seed, "blocks")
    order, n, k = 1 << workload.m, workload.n, workload.k
    cycle = workload.erasure_cycle
    index = 0
    while True:
        l = cycle[index % len(cycle)]
        t = workload.radius(l)
        every = workload.past_radius_every
        past = every > 0 and index % every == every - 1
        if past:
            t += 1
        message = tuple(rng.randrange(order) for _ in range(k))
        positions = rng.sample(range(n), l + t)
        errors = tuple((pos, rng.randrange(1, order)) for pos in positions[l:])
        yield Draw(index, message, tuple(sorted(positions[:l])), errors,
                   not past)
        index += 1


class RefField:
    """GF(2^m) by log/antilog tables, kept apart from the program's Field."""

    def __init__(self, m: int, prim_poly: int):
        self.n = (1 << m) - 1
        self.exp = [0] * (2 * self.n)
        self.log = [0] * (self.n + 1)
        x = 1
        for i in range(self.n):
            self.exp[i] = self.exp[i + self.n] = x
            self.log[x] = i
            x <<= 1
            if x >> m:
                x ^= prim_poly

    def evaluate_at_alpha_pow(self, coeffs, i: int) -> int:
        """sum_j coeffs[j] * alpha^(i*j), by Horner's rule."""
        exp, log, n = self.exp, self.log, self.n
        step = i % n
        acc = 0
        for c in reversed(coeffs):
            acc = (exp[log[acc] + step] if acc else 0) ^ c
        return acc

    def distance_to_codeword(self, message, received, erasures) -> int:
        """Hamming distance from the message's codeword, erasures skipped."""
        erased = set(erasures)
        return sum(1 for i, value in enumerate(received)
                   if i not in erased
                   and self.evaluate_at_alpha_pow(message, i) != value)


def header_line(workload: Workload, prim_poly: int) -> str:
    return f"rs {workload.n} {workload.k} {workload.m} 0x{prim_poly:x}\n"


def message_line(message) -> str:
    return " ".join(map(str, message)) + "\n"


def block_line(symbols, erasures=()) -> str:
    erased = set(erasures)
    return " ".join("?" if i in erased else str(s)
                    for i, s in enumerate(symbols)) + "\n"
