"""Instrumented field arithmetic, and the operation-count benchmark across
the decoder pipelines that runs on it.

A CountingField computes exactly as its base Field does, through the same
table-driven kernels and transforms.  Each site that does field work adds,
through its OpCounter's add, the multiplications and inversions that the
schoolbook algorithm makes on operands of that shape: len(a) * len(b) for
a product, one per coefficient for a Horner evaluation, n per coefficient
for a transform, and so on (see polynomial and spectral).
Additions are single XORs and go uncounted.  The counts depend on the
operands' lengths and leads only, so two runs over the same input always
produce the same counts.

bench corrupts one random codeword per trial and hands the identical
received word to each decoder on a CountingField.  The point of the
exercise is the standing claim that the reduced-modulus pipeline
(suggested) never spends more multiplications than the locator-product
pipeline (truong) and never needs more Euclidean iterations; bench checks
that claim on every trial with l >= 1 and by default raises if a trial
breaks it.
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from dataclasses import dataclass, field as dataclass_field

from ..codec import DECODERS, CodeParams, encode
from ..galois import Field
from .channel import ChannelSpec, corrupt

OTHER_STEP = "other"
STEP_ORDER = ("0", "1", "2a", "2b", "3", OTHER_STEP)


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


class ComplexityClaimError(RuntimeError):
    """Raised when a trial shows suggested costing more than truong."""


@dataclass(frozen=True)
class StepCounts:
    mults: float = 0.0
    invs: float = 0.0
    iterations: float = 0.0


@dataclass(frozen=True)
class OpCountReport:
    """Aggregated counts plus the per-trial data behind the claim check."""

    n: int
    k: int
    l: int
    trials: int
    mean_steps: dict[str, dict[str, StepCounts]] = dataclass_field(
        default_factory=dict)
    trial_mults: dict[str, tuple[int, ...]] = dataclass_field(
        default_factory=dict)
    trial_iterations: dict[str, tuple[int, ...]] = dataclass_field(
        default_factory=dict)
    trial_t: tuple[int, ...] = ()
    agreements: tuple[bool, ...] = ()
    mult_violations: tuple[int, ...] = ()
    iteration_violations: tuple[int, ...] = ()

    @property
    def claim_holds(self) -> bool:
        return not self.mult_violations and not self.iteration_violations

    @property
    def algorithms(self) -> tuple[str, ...]:
        return tuple(self.mean_steps)


def _profile(decoder, params: CodeParams, received) -> tuple[OpCounter, object]:
    counter = OpCounter()
    counted = CodeParams(CountingField(params.field, counter), params.k)
    result = decoder(counted, received, counter=counter)
    return counter, result


def bench(params: CodeParams, trials: int, *, l: int = 0,
          t: int | None = None, seed: int = 0,
          strict: bool = True) -> OpCountReport:
    """Run the DECODERS pipelines side by side on seeded random trials.

    trials, l, t and seed are ints; bool and float are refused.  l is
    fixed for the whole run.  t is either fixed or, when None, sampled per
    trial uniformly from the decodable range 2t + l < d.
    strict raises ComplexityClaimError as soon as the report would record
    a violation; pass strict=False to collect the report regardless.
    """
    # bool is a subclass of int, so the counts are checked by type
    if type(trials) is not int or trials < 0:
        raise ValueError(f"trials must be a nonnegative int, got {trials!r}")
    if type(l) is not int or not 0 <= l < params.d:
        raise ValueError(f"l must be an int in [0, {params.d}), got {l!r}")
    if type(seed) is not int:
        raise ValueError(f"seed must be an int, got {seed!r}")
    t_max = (params.d - 1 - l) // 2
    if t is not None and (type(t) is not int or not 0 <= t <= t_max):
        raise ValueError(
            f"t must be an int in [0, {t_max}] for l = {l}, got {t!r}")

    rng = random.Random(seed)
    counters: dict[str, list[OpCounter]] = {name: [] for name in DECODERS}
    results_equal: list[bool] = []
    trial_ts: list[int] = []
    mult_violations: list[int] = []
    iteration_violations: list[int] = []

    for trial in range(trials):
        message = tuple(rng.randrange(params.field.order)
                        for _ in range(params.k))
        trial_t = t if t is not None else rng.randint(0, t_max)
        spec = ChannelSpec(t=trial_t, l=l, seed=rng.getrandbits(32))
        received = corrupt(params, encode(params, message), spec)
        trial_ts.append(trial_t)

        outcomes = []
        for name, decoder in DECODERS.items():
            counter, result = _profile(decoder, params, received)
            counters[name].append(counter)
            outcomes.append(result)
        results_equal.append(all(r == outcomes[0] for r in outcomes[1:]))

        if l >= 1:
            sug = counters["suggested"][-1]
            tru = counters["truong"][-1]
            if sug.total_mults > tru.total_mults:
                mult_violations.append(trial)
                if strict:
                    raise ComplexityClaimError(
                        f"trial {trial}: suggested used {sug.total_mults} "
                        f"multiplications, truong {tru.total_mults}")
            if sug.total_iterations > tru.total_iterations:
                iteration_violations.append(trial)
                if strict:
                    raise ComplexityClaimError(
                        f"trial {trial}: suggested took "
                        f"{sug.total_iterations} iterations, truong "
                        f"{tru.total_iterations}")

    mean_steps: dict[str, dict[str, StepCounts]] = {}
    trial_mults: dict[str, tuple[int, ...]] = {}
    trial_iterations: dict[str, tuple[int, ...]] = {}
    for name, rows in counters.items():
        labels = sorted({label for c in rows
                         for label in (*c.mults, *c.invs, *c.iterations)},
                        key=STEP_ORDER.index)
        per_step = {}
        for label in labels:
            count = max(len(rows), 1)
            per_step[label] = StepCounts(
                mults=sum(c.mults.get(label, 0) for c in rows) / count,
                invs=sum(c.invs.get(label, 0) for c in rows) / count,
                iterations=sum(c.iterations.get(label, 0) for c in rows) / count)
        mean_steps[name] = per_step
        trial_mults[name] = tuple(c.total_mults for c in rows)
        trial_iterations[name] = tuple(c.total_iterations for c in rows)

    return OpCountReport(
        n=params.n, k=params.k, l=l, trials=trials,
        mean_steps=mean_steps, trial_mults=trial_mults,
        trial_iterations=trial_iterations, trial_t=tuple(trial_ts),
        agreements=tuple(results_equal),
        mult_violations=tuple(mult_violations),
        iteration_violations=tuple(iteration_violations))


def format_report(report: OpCountReport) -> str:
    """Plain-text table of mean per-step counts."""
    lines = [f"RS({report.n}, {report.k})  l = {report.l}  "
             f"trials = {report.trials}"]
    if not report.trials:
        lines.append("(no trials)")
        return "\n".join(lines)
    header = f"{'algorithm':<12} {'step':<11} {'mults':>10} {'invs':>8} {'iters':>7}"
    lines.append(header)
    lines.append("-" * len(header))
    for name, steps in report.mean_steps.items():
        for label, counts in steps.items():
            lines.append(f"{name:<12} {label:<11} {counts.mults:>10.1f} "
                         f"{counts.invs:>8.1f} {counts.iterations:>7.1f}")
        total_m = sum(report.trial_mults[name]) / report.trials
        total_i = sum(report.trial_iterations[name]) / report.trials
        lines.append(f"{name:<12} {'total':<11} {total_m:>10.1f} "
                     f"{'':>8} {total_i:>7.1f}")
    agree = sum(report.agreements)
    lines.append(f"pipelines agreed on {agree}/{report.trials} trials")
    if report.l >= 1:
        verdict = "held" if report.claim_holds else "VIOLATED"
        lines.append(f"suggested <= truong (mults and iterations): {verdict}")
    return "\n".join(lines)


def write_csv(report: OpCountReport, path: str) -> None:
    """Mean per-step counts as CSV: algorithm, step, mults, invs, iterations."""
    import csv

    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["algorithm", "step", "mults", "invs", "iterations"])
        for name, steps in report.mean_steps.items():
            for label, counts in steps.items():
                writer.writerow([name, label, counts.mults, counts.invs,
                                 counts.iterations])
