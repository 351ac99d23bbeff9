"""The names that perfbench's traced run wraps are the ones the pipelines
call.

perfbench/tracing.py replaces functions in rscodec.codec's globals and
methods on Poly for the traced phase, and its layer metrics read one span
per wrapped name.  A pipeline that stops calling one of them through that
name would leave its span empty, so this runs each pipeline under the
wrappers and asks for every span.  It also imports perfbench's measure,
which imports the rest of the benchmark and every rscodec name the
untraced run uses, so removing one of those names fails here too.
"""

import importlib
import json
import sys
from pathlib import Path

import pytest

from rscodec import (DECODERS, CodeParams, Field, decode_errors_only,
                     encode)
from rscodec.workbench import ChannelSpec, corrupt

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def perfbench_module(name):
    sys.path.insert(0, str(PERFBENCH))
    try:
        return importlib.import_module(name)
    finally:
        sys.path.remove(str(PERFBENCH))


@pytest.fixture(scope="module")
def tracing():
    return perfbench_module("tracing")


def test_the_benchmark_imports():
    measure = perfbench_module("measure")
    declared = json.loads((PERFBENCH.parent / "BENCHMARK.json").read_text())
    assert ({w["name"] for w in declared["workloads"]}
            <= set(measure.spec.WORKLOADS))


@pytest.mark.parametrize("m, k", [(4, 7), (8, 223)],
                         ids=["RS(15,7)", "RS(255,223)"])
def test_every_wrapped_name_records_a_span(tracing, m, k):
    params = CodeParams(Field(m), k)
    codeword = encode(params, range(1, k + 1))
    received = corrupt(params, codeword, ChannelSpec(t=1, l=2, seed=m))
    noisy = corrupt(params, codeword, ChannelSpec(t=1, seed=m)).symbols
    recorder = tracing.SpanRecorder()
    with tracing.wrappers_installed(recorder):
        encode(params, range(k))
        for decoder in DECODERS.values():
            assert decoder(params, received).message == tuple(range(1, k + 1))
        assert decode_errors_only(params, noisy).ok
    missing = {name for _, _, name in tracing.WRAPPED} - set(recorder.names)
    assert not missing
