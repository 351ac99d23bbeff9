"""Span recording for the traced run.

Spans come from the benchmark's own code only, in two ways: a timing
probe passed through the decoders' public ``counter=`` parameter (the
``step(label)`` / ``add_iterations(n)`` protocol the pipelines already
drive), and timing wrappers installed around public functions for the
duration of the traced phase.  ``codec`` binds the spectral and
key-equation names at import, so those wrappers go into ``rscodec.codec``
where the pipelines look them up.  ``Field.mul`` is not wrapped: it runs
millions of times per run, so the galois layer is measured by a
microbenchmark instead.

Spans live in flat in-memory arrays and are written out once, at exit.
"""

from __future__ import annotations

import gzip
from array import array
from contextlib import contextmanager
from time import perf_counter_ns

import rscodec.codec as codec_module
from rscodec.polynomial import Poly

# (owner, attribute, span name); codec looks these names up in its globals.
WRAPPED = (
    (codec_module, "evaluate_all", "spectral.evaluate_all"),
    (codec_module, "interpolate_all", "spectral.interpolate_all"),
    (codec_module, "interpolate_subset", "spectral.interpolate_subset"),
    (codec_module, "cyclotomic_quotient", "spectral.cyclotomic_quotient"),
    (codec_module, "solve", "key_equation.solve"),
    (Poly, "__mul__", "polynomial.mul"),
    (Poly, "__divmod__", "polynomial.divmod"),
    (Poly, "evaluate", "polynomial.evaluate"),
)


class SpanRecorder:
    """Spans with name, start, end, parent span and block id.

    Child time is accumulated on the parent as each child closes, so a
    span's self time is its duration minus that, with no second pass.
    """

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.block = array("q")
        self.child = array("q")
        self._open: list[int] = []
        self.block_id = -1

    def open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._open[-1] if self._open else -1)
        self.block.append(self.block_id)
        self.end.append(0)
        self.child.append(0)
        self._open.append(idx)
        self.start.append(perf_counter_ns())
        return idx

    def close(self, idx: int) -> None:
        now = perf_counter_ns()
        self.end[idx] = now
        self._open.pop()
        parent = self.parent[idx]
        if parent >= 0:
            self.child[parent] += now - self.start[idx]

    def durations(self) -> dict[str, tuple[list[int], list[int]]]:
        """Per span name: (inclusive durations, self times) in ns."""
        out: dict[str, tuple[list[int], list[int]]] = {
            name: ([], []) for name in self.names}
        for nid, start, end, child in zip(self.name, self.start, self.end,
                                          self.child):
            total, own = out[self.names[nid]]
            total.append(end - start)
            own.append(end - start - child)
        return out

    def write(self, path) -> None:
        """Write every span as a CSV row, gzip-compressed."""
        names = self.names
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("span,name,block,parent,start_ns,end_ns\n")
            for idx, (nid, block, parent, start, end) in enumerate(zip(
                    self.name, self.block, self.parent, self.start,
                    self.end)):
                out.write(f"{idx},{names[nid]},{block},{parent},"
                          f"{start},{end}\n")


class TimingProbe:
    """The decoders' counter protocol, recording each step as a span."""

    __slots__ = ("recorder", "prefix", "iterations")

    def __init__(self, recorder: SpanRecorder, alg: str):
        self.recorder = recorder
        self.prefix = f"codec.{alg}.step"
        self.iterations = 0

    @contextmanager
    def step(self, label: str):
        idx = self.recorder.open(self.prefix + label)
        try:
            yield self
        finally:
            self.recorder.close(idx)

    def add_iterations(self, count: int) -> None:
        self.iterations += count


def _wrapper(recorder: SpanRecorder, name: str, fn):
    def wrapped(*args, **kwargs):
        idx = recorder.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            recorder.close(idx)
    return wrapped


@contextmanager
def wrappers_installed(recorder: SpanRecorder):
    """Wrap the public layer functions for the duration of the block."""
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in WRAPPED]
    try:
        for owner, attr, name in WRAPPED:
            setattr(owner, attr, _wrapper(recorder, name,
                                          getattr(owner, attr)))
        yield
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)
