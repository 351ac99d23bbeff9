"""Encoder and the four decoding pipelines."""

import functools
import itertools
import operator
import random
from contextlib import contextmanager
from enum import IntEnum

import pytest

from rscodec import (
    CodeParams,
    FailureCause,
    Field,
    Poly,
    ReceivedWord,
    decode_errors_only,
    decode_gao,
    decode_suggested,
    decode_truong,
    encode,
    erasure_locator,
    evaluate_all,
)
from rscodec.workbench import CountingField, OpCounter


class Symbol(IntEnum):
    """An int subclass: Symbol.ONE == 1, but it is no field element."""

    ONE = 1


ERASURE_DECODERS = (decode_gao, decode_truong, decode_suggested)


def corrupt_word(rng, params, codeword, t, l):
    n = len(codeword)
    positions = rng.sample(range(n), t + l)
    symbols = list(codeword)
    for pos in positions[:t]:
        symbols[pos] ^= rng.randrange(1, params.field.order)
    return ReceivedWord(tuple(symbols), tuple(positions[t:]))


def test_code_params(gf8):
    params = CodeParams(gf8, 3)
    assert params.n == 7
    assert params.d == 5
    with pytest.raises(ValueError, match="k must be"):
        CodeParams(gf8, 0)
    with pytest.raises(ValueError, match="k must be"):
        CodeParams(gf8, 7)


@pytest.mark.parametrize("k", [3.0, True, "3"])
def test_code_params_rejects_non_int_k(gf8, k):
    # 3.0 used to build a code whose decoders then raised TypeError, and
    # True a k = 1 code
    with pytest.raises(ValueError, match="k must be an int"):
        CodeParams(gf8, k)


def test_encode_worked_example(rs73):
    # message polynomial x evaluates to the alpha powers in order
    assert encode(rs73, (0, 1, 0)) == (1, 2, 4, 3, 6, 7, 5)
    assert encode(rs73, (5, 0, 0)) == (5,) * 7
    assert encode(rs73, (0, 0, 0)) == (0,) * 7


def test_encode_validation(rs73):
    with pytest.raises(ValueError, match="must have 3 symbols"):
        encode(rs73, (1, 2))
    for bad in (8, 255, -1, True, 1.0, "1", None, Symbol.ONE):
        with pytest.raises(ValueError, match="outside GF"):
            encode(rs73, (1, 2, bad))


def test_encode_is_linear(rs73):
    rng = random.Random(0)
    for _ in range(50):
        a = tuple(rng.randrange(8) for _ in range(3))
        b = tuple(rng.randrange(8) for _ in range(3))
        summed = encode(rs73, tuple(x ^ y for x, y in zip(a, b)))
        assert summed == tuple(
            x ^ y for x, y in zip(encode(rs73, a), encode(rs73, b)))


def test_erasure_locator(rs73, gf8):
    assert erasure_locator(rs73, []) == Poly(gf8, [1])
    assert erasure_locator(rs73, [0, 1]) == Poly(gf8, [2, 3, 1])
    assert erasure_locator(rs73, [1, 0]) == Poly(gf8, [2, 3, 1])
    locator = erasure_locator(rs73, [3])
    assert locator.evaluate(gf8.alpha_pow(3)) == 0
    with pytest.raises(ValueError, match="duplicate"):
        erasure_locator(rs73, [2, 2])
    with pytest.raises(ValueError, match="outside"):
        erasure_locator(rs73, [7])


def test_received_word_normalization():
    word = ReceivedWord((1, 2, 3, 4, 5, 6, 7), (4, 1))
    assert word.erasures == (1, 4)
    assert word.symbols == (1, 0, 3, 4, 0, 6, 7)
    with pytest.raises(ValueError, match="duplicate"):
        ReceivedWord((1, 2, 3), (0, 0))
    with pytest.raises(ValueError, match="outside"):
        ReceivedWord((1, 2, 3), (3,))


@pytest.mark.parametrize("bad", ["0", None, 1.0, True], ids=repr)
def test_erasure_positions_must_be_ints(rs73, bad):
    codeword = encode(rs73, (1, 2, 3))
    with pytest.raises(ValueError, match="must be an int"):
        ReceivedWord(codeword, (bad,))
    with pytest.raises(ValueError, match="must be an int"):
        erasure_locator(rs73, [bad])


def test_decode_validation(rs73):
    with pytest.raises(ValueError, match="expected 7 symbols"):
        decode_errors_only(rs73, (1, 2, 3))
    with pytest.raises(ValueError):
        decode_errors_only(rs73, (8,) * 7)
    with pytest.raises(ValueError, match="expected 7 symbols"):
        decode_gao(rs73, ReceivedWord((1, 2, 3)))


# out of range, negative, bool, float and an int subclass: none is an
# element of GF(8)
BAD_SYMBOLS = (8, -1, True, 1.0, Symbol.ONE)


@pytest.mark.parametrize("counted", [False, True], ids=["plain", "counted"])
def test_every_decoder_rejects_a_bad_symbol(gf8, counted):
    # each decoder checks the symbols once, in step 1 or, with l >= d
    # erasures, before its early failure; an erased position is
    # zero-filled by ReceivedWord, so a bad value there is never seen
    field = CountingField(gf8, OpCounter()) if counted else gf8
    params = CodeParams(field, 3)
    message = (3, 1, 4)
    codeword = encode(params, message)
    for bad in BAD_SYMBOLS:
        symbols = list(codeword)
        symbols[3] = bad
        with pytest.raises(ValueError):
            decode_errors_only(params, symbols)
        for erasures in ((1, 4), (0, 1, 2, 4, 6)):  # l < d and l >= d = 5
            word = ReceivedWord(symbols, erasures)
            for decoder in ERASURE_DECODERS:
                with pytest.raises(ValueError):
                    decoder(params, word)
        erased = list(codeword)
        erased[1] = bad
        for decoder in ERASURE_DECODERS:
            assert decoder(params, ReceivedWord(erased, (1, 4))).message == message
            assert decoder(params, ReceivedWord(erased, (0, 1, 2, 4, 6))).cause \
                is FailureCause.DEGREE_OVERFLOW


def test_clean_word_decodes(rs73):
    message = (3, 1, 4)
    word = ReceivedWord(encode(rs73, message))
    assert decode_errors_only(rs73, word.symbols).message == message
    for decoder in ERASURE_DECODERS:
        assert decoder(rs73, word).message == message


def test_errors_only_radius(rs73):
    rng = random.Random(42)
    for _ in range(150):
        message = tuple(rng.randrange(8) for _ in range(3))
        t = rng.randrange(3)  # (d - 1) / 2 = 2
        word = corrupt_word(rng, rs73, encode(rs73, message), t, 0)
        result = decode_errors_only(rs73, word.symbols)
        assert result.message == message


@pytest.mark.parametrize("decoder", ERASURE_DECODERS,
                         ids=lambda d: d.__name__)
def test_erasure_decoders_cover_the_radius(rs73, decoder):
    rng = random.Random(100 + ERASURE_DECODERS.index(decoder))
    cases = [(t, l) for t in range(3) for l in range(5) if 2 * t + l < 5]
    for _ in range(40):
        for t, l in cases:
            message = tuple(rng.randrange(8) for _ in range(3))
            word = corrupt_word(rng, rs73, encode(rs73, message), t, l)
            result = decoder(rs73, word)
            assert result.message == message, (t, l, word)


def test_radius_on_larger_code(rs157):
    rng = random.Random(9)
    for _ in range(60):
        message = tuple(rng.randrange(16) for _ in range(7))
        t = rng.randrange(5)
        l = rng.randrange(9 - 2 * t)  # keep 2t + l < 9
        word = corrupt_word(rng, rs157, encode(rs157, message), t, l)
        for decoder in ERASURE_DECODERS:
            assert decoder(rs157, word).message == message


def test_pipelines_agree_beyond_the_radius(rs73):
    # past the guarantee the three pipelines still return the same thing,
    # whether that is some codeword's message or the same failure cause
    rng = random.Random(77)
    agree_failures = 0
    for _ in range(300):
        symbols = tuple(rng.randrange(8) for _ in range(7))
        l = rng.randrange(5)
        erasures = tuple(rng.sample(range(7), l))
        word = ReceivedWord(symbols, erasures)
        results = [decoder(rs73, word) for decoder in ERASURE_DECODERS]
        first = results[0]
        for other in results[1:]:
            assert other.message == first.message
            assert other.cause == first.cause
        if not first.ok:
            agree_failures += 1
    assert agree_failures > 0  # random words do exercise the failure paths


def test_no_erasures_matches_errors_only(rs73):
    rng = random.Random(4)
    for _ in range(120):
        symbols = tuple(rng.randrange(8) for _ in range(7))
        plain = decode_errors_only(rs73, symbols)
        for decoder in ERASURE_DECODERS:
            result = decoder(rs73, ReceivedWord(symbols))
            assert result.message == plain.message
            assert result.cause == plain.cause


def test_degenerate_erasure_counts(rs73):
    message = (2, 7, 1)
    codeword = encode(rs73, message)
    # l = d - 1 = 4 erased symbols, no errors: still decodable
    word = ReceivedWord(codeword, (0, 2, 3, 6))
    for decoder in ERASURE_DECODERS:
        assert decoder(rs73, word).message == message
    # l = d wipes out the erasure-adjusted distance entirely
    word = ReceivedWord(codeword, (0, 2, 3, 5, 6))
    for decoder in ERASURE_DECODERS:
        result = decoder(rs73, word)
        assert not result.ok
        assert result.cause is FailureCause.DEGREE_OVERFLOW


def test_all_positions_erased(rs73):
    word = ReceivedWord((0,) * 7, tuple(range(7)))
    for decoder in ERASURE_DECODERS:
        assert decoder(rs73, word).cause is FailureCause.DEGREE_OVERFLOW


def test_failure_is_a_value_not_an_exception(rs73):
    # weight-5 words sit past every decoding sphere at d = 5 so the
    # decoder must report rather than invent a correction
    codeword = encode(rs73, (1, 0, 0))  # all-ones codeword
    flipped = list(codeword)
    for pos in range(5):
        flipped[pos] ^= 3
    result = decode_errors_only(rs73, tuple(flipped))
    if not result.ok:
        assert result.cause in (FailureCause.DIVISION_INEXACT,
                                FailureCause.DEGREE_OVERFLOW)


def test_exhaustive_single_symbol_damage(rs73):
    # every message, every single-position error or erasure
    for message in itertools.product(range(8), repeat=3):
        codeword = encode(rs73, message)
        damaged = list(codeword)
        damaged[4] ^= 6
        assert decode_errors_only(rs73, tuple(damaged)).message == message
        word = ReceivedWord(codeword, (4,))
        for decoder in ERASURE_DECODERS:
            assert decoder(rs73, word).message == message


def test_message_padding(rs73):
    # low-degree message polynomials pad back to k symbols
    message = (5, 0, 0)
    word = ReceivedWord(encode(rs73, message), (1,))
    for decoder in ERASURE_DECODERS:
        result = decoder(rs73, word)
        assert result.message == message
        assert len(result.message) == 3


def test_large_field_round_trips():
    # every m takes the prime-factor transform, so each of these takes
    # well under a second; an O(n^2) transform would take seconds at
    # m = 12 and hours at m = 16
    rng = random.Random(12)
    params = CodeParams(Field(12), 4000)
    message = tuple(rng.randrange(params.field.order) for _ in range(params.k))
    word = corrupt_word(rng, params, encode(params, message), t=8, l=16)
    for decoder in ERASURE_DECODERS:
        assert decoder(params, word).message == message

    params = CodeParams(Field(16), Field(16).n - 33)
    message = tuple(rng.randrange(params.field.order) for _ in range(params.k))
    word = corrupt_word(rng, params, encode(params, message), t=16, l=0)
    assert decode_errors_only(params, word.symbols).message == message

    params = CodeParams(Field(13), 16)
    codeword = encode(params, range(1, 17))
    assert len(codeword) == params.n
    assert codeword[0] == functools.reduce(operator.xor, range(1, 17))


class RecordingProbe:
    """A probe that records each step's entry and exit, and the step
    that reports the iterations; it fails if steps do not nest."""

    def __init__(self):
        self.events = []
        self.open = []

    @contextmanager
    def step(self, label):
        self.events.append(("enter", label))
        self.open.append(label)
        yield self
        assert self.open.pop() == label
        self.events.append(("exit", label))

    def add_iterations(self, count):
        self.events.append(("iterations", self.open[-1]))


PROBED_DECODE = [event for label in ("0", "1", "2a", "2b", "3")
                 for event in (("enter", label),
                               *((("iterations", label),) if label == "2b"
                                 else ()),
                               ("exit", label))]


@pytest.mark.parametrize("m, k, l", [(4, 7, 2), (8, 223, 8)],
                         ids=["RS(15,7)", "RS(255,223)"])
def test_bare_and_probed_decodes_agree(m, k, l):
    # every bare step enters one shared null context, and step 3 returns
    # from inside it on either failure; words at the radius, one error past
    # it, and of a degree-k polynomial (no iteration, W = 1, so the
    # quotient's degree overflows) are decoded in turn, bare and probed
    params = CodeParams(Field(m), k)
    rng = random.Random(m)
    probe = RecordingProbe()
    causes = set()
    for trial in range(18):
        message = tuple(rng.randrange(params.field.order) for _ in range(k))
        kind = trial % 3
        if kind < 2:
            codeword = encode(params, message)
            word = corrupt_word(rng, params, codeword,
                                (params.d - 1 - l) // 2 + kind, l)
            errors_only = corrupt_word(rng, params, codeword,
                                       (params.d - 1) // 2 + kind, 0).symbols
        else:
            errors_only = evaluate_all(Poly(params.field, message + (1,)),
                                       params.n)
            word = ReceivedWord(errors_only, tuple(rng.sample(range(params.n),
                                                              l)))
        for decoder, received in ((decode_gao, word), (decode_truong, word),
                                  (decode_suggested, word),
                                  (decode_errors_only, errors_only)):
            bare = decoder(params, received)
            start = len(probe.events)
            assert decoder(params, received, counter=probe) == bare
            assert probe.events[start:] == PROBED_DECODE
            assert not probe.open
            if kind == 0:
                assert bare.message == message
            causes.add(bare.cause)
    assert causes == {None, *FailureCause}
