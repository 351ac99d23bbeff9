"""Whole-decoder differential and contract gate.

Random words in and up to three errors past the radius, over GF(2^3) to
GF(2^10), go through all four decoders.  On every word:

  - the plain Field result equals the CountingField result in message,
    cause and Euclidean iterations (read through counter=);
  - with 2t + l < d the sent message comes back;
  - every ok result re-encodes within (d - 1 - l) / 2 of the non-erased
    symbols;
  - gao, truong and suggested return the same result;
  - decode_errors_only(p, s) equals decode_suggested(p, ReceivedWord(s)),
    and on a CountingField it spends the same multiplications,
    inversions and iterations in every step;
  - at RS(15, k <= 3), every ok result is the brute-force oracle's unique
    nearest codeword, and every word within (d - 1 - l) / 2 of that
    codeword decodes to it.

Separately, a sha256 over every decoder's answers and iteration counts on
seeded RS(15,7), RS(255,223) and RS(255,127) blocks is pinned.

A CountingField computes by the same kernels as a plain Field and adds
the schoolbook counts by operand shape, so the comparison costs one more
decode per word.  m = 8 already takes the dense transform, the row kernels
and the closed-form quotient that m = 9 and 10 take, so the larger fields,
whose transforms and rows run in numpy, get a few words.
"""

import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle import nearest_message
from rscodec import (CodeParams, Field, ReceivedWord, decode_errors_only,
                     decode_gao, decode_suggested, decode_truong, encode)
from rscodec.workbench import CountingField, OpCounter

ERASURE_DECODERS = (decode_gao, decode_truong, decode_suggested)
FIELDS = {m: Field(m) for m in range(3, 11)}


@st.composite
def words(draw, fields):
    """(params, message, received word, t): t errors, up to 3 past radius."""
    field = FIELDS[draw(st.sampled_from(fields))]
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    params = CodeParams(field, rng.randrange(1, field.n))
    return (params, *corrupted(params, rng))


def corrupted(params, rng):
    """(message, received word, t): t errors, up to 3 past radius."""
    n, order = params.n, params.field.order
    l = rng.randrange(params.d)
    radius = (params.d - 1 - l) // 2
    t = rng.randint(0, min(radius + 3, n - l))
    message = tuple(rng.randrange(order) for _ in range(params.k))
    symbols = list(encode(params, message))
    positions = rng.sample(range(n), t + l)
    for pos in positions[:t]:
        symbols[pos] ^= rng.randrange(1, order)
    return message, ReceivedWord(tuple(symbols), tuple(positions[t:])), t


def decode_all(params, word):
    """(result, iterations) per decoder, errors-only on the raw symbols."""
    out = []
    for decoder in ERASURE_DECODERS:
        counter = OpCounter()
        out.append((decoder(params, word, counter=counter),
                    counter.total_iterations))
    counter = OpCounter()
    out.append((decode_errors_only(params, word.symbols, counter=counter),
                counter.total_iterations))
    return out


def check_contract(params, message, word, t):
    plain = decode_all(params, word)
    gao, truong, suggested, errors_only = (result for result, _ in plain)
    assert gao == truong == suggested
    assert errors_only == decode_suggested(params, ReceivedWord(word.symbols))

    if 2 * t + len(word.erasures) < params.d:
        assert suggested.message == message
    # errors-only reads the zero-filled erased positions as received symbols
    for result, erased in ((suggested, set(word.erasures)), (errors_only, ())):
        if result.ok:
            codeword = encode(params, result.message)
            distance = sum(1 for i in range(params.n)
                           if codeword[i] != word.symbols[i] and i not in erased)
            assert distance <= (params.d - 1 - len(erased)) // 2
    return plain


@settings(max_examples=60, deadline=None, derandomize=True)
@given(words(range(3, 9)))
def test_plain_and_counted_decoders_meet_the_contract(case):
    check_plain_and_counted(*case)


@settings(max_examples=4, deadline=None, derandomize=True)
@given(words((9, 10)))
def test_large_field_decoders_meet_the_contract(case):
    check_plain_and_counted(*case)


def check_plain_and_counted(params, message, word, t):
    plain = check_contract(params, message, word, t)
    counted_params = CodeParams(CountingField(params.field, OpCounter()),
                                params.k)
    counted = decode_all(counted_params, word)
    assert [(r.message, r.cause, i) for r, i in plain] == \
        [(r.message, r.cause, i) for r, i in counted]


def counted_steps(decoder, params, received):
    """The result and the per-step counts of one counted decode."""
    counter = OpCounter()
    counted = CodeParams(CountingField(params.field, counter), params.k)
    result = decoder(counted, received, counter=counter)
    return result, counter.mults, counter.invs, counter.iterations


@settings(max_examples=30, deadline=None, derandomize=True)
@given(words(range(3, 9)))
def test_errors_only_costs_what_suggested_costs(case):
    params, _, word, _ = case
    assert (counted_steps(decode_errors_only, params, word.symbols)
            == counted_steps(decode_suggested, params,
                             ReceivedWord(word.symbols)))


@pytest.mark.parametrize("k", [1, 2, 3])
def test_decoders_return_the_nearest_codeword(k):
    # RS(15, k) has at most 16^3 codewords, few enough to search them all
    params = CodeParams(FIELDS[4], k)
    rng = random.Random(k)
    past_radius = near_another = 0
    for _ in range(1000):
        message, word, t = corrupted(params, rng)
        plain = check_contract(params, message, word, t)
        nearest = nearest_message(params, word)
        l = len(word.erasures)
        if 2 * t + l < params.d:
            assert nearest == message
        else:
            past_radius += 1
        for result, _ in plain[:3]:
            assert not result.ok or result.message == nearest
        # complete: past the sent codeword's radius, a word that lies
        # within (d - 1 - l) / 2 of the nearest codeword decodes to it
        if nearest is not None and 2 * t + l >= params.d:
            codeword = encode(params, nearest)
            distance = sum(1 for i in range(params.n) if i not in
                           word.erasures and codeword[i] != word.symbols[i])
            if 2 * distance + l < params.d:
                near_another += 1
                for result, _ in plain[:3]:
                    assert result.ok and result.message == nearest
        # errors-only reads every symbol, the zero-filled erasures included
        errors_only = plain[3][0]
        sent = encode(params, message)
        errors = sum(1 for a, b in zip(sent, word.symbols) if a != b)
        nearest = nearest_message(params, ReceivedWord(word.symbols))
        if 2 * errors < params.d:
            assert nearest == errors_only.message == message
        assert not errors_only.ok or errors_only.message == nearest
    assert past_radius >= 200
    assert near_another >= 40


# sha256 of every decoder's (name, message, cause, iterations) on the
# blocks of answer_records; it changes only if some decoder's answer or
# Euclidean iteration count does.
ANSWERS_SHA256 = (
    "56fd302a34be217a5ccc7783d0573ceb8ba652e2541f756fbe4571455e916725")
# (m, k, erasure cycle): the shapes of RS(15,7), RS(255,223), RS(255,127)
ANSWER_SHAPES = ((4, 7, (0, 2, 4)), (8, 223, (0, 8, 16)),
                 (8, 127, (0, 32, 64)))
ANSWER_BLOCKS = 4
# decode_all's order
ANSWER_DECODERS = ("gao", "truong", "suggested", "errors_only")


def answer_records():
    """(m, k, l, t, decoder, message, cause, iterations) per decode of
    seeded blocks at the radius and one error past it."""
    records = []
    for m, k, cycle in ANSWER_SHAPES:
        params = CodeParams(FIELDS[m], k)
        n, order = params.n, params.field.order
        rng = random.Random(f"answers/{m}/{k}")
        for l in cycle:
            radius = (params.d - 1 - l) // 2
            for t in (radius, radius + 1):
                for _ in range(ANSWER_BLOCKS):
                    message = tuple(rng.randrange(order) for _ in range(k))
                    symbols = list(encode(params, message))
                    positions = rng.sample(range(n), t + l)
                    for pos in positions[:t]:
                        symbols[pos] ^= rng.randrange(1, order)
                    word = ReceivedWord(tuple(symbols), tuple(positions[t:]))
                    decoded = zip(ANSWER_DECODERS, decode_all(params, word))
                    for name, (result, iterations) in decoded:
                        # errors-only reads erased positions as symbols
                        if name != "errors_only" or l == 0:
                            records.append((
                                m, k, l, t, name, result.message,
                                result.cause and result.cause.value,
                                iterations))
    return records


def test_decoder_answers_are_pinned():
    records = answer_records()
    at_radius = [r for r in records if 2 * r[3] + r[2] < (1 << r[0]) - r[1]]
    assert all(r[5] is not None for r in at_radius)
    assert len(at_radius) < len(records)
    digest = hashlib.sha256("\n".join(map(repr, records)).encode())
    assert digest.hexdigest() == ANSWERS_SHA256
