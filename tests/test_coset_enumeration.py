"""Every received word of RS(7, 6) and RS(7, 5) against the
bounded-distance contract, one word per coset of the code.

Every step of the pipeline is linear in the received word except the
Euclid quotients, and those depend only on the word's error part, so a
decode of y + c returns decode(y) plus msg(c), or the same failure;
test_decoding_commutes_with_adding_a_codeword checks this on sampled
words.  The code is MDS, so positions 0..k-1 form an information set:
each coset of the code holds one word that is zero there.  The decoders
ignore the values at erased positions, so for every erasure set E with
l < d the 8^(n-k) words that are zero on 0..k-1 stand for every
received word.

The oracle searches no codewords.  A word within r = (d - 1 - l) / 2 of
some codeword on the non-erased positions is e + c for an error pattern
e of weight at most r off E and any values on E.  Its coset's
representative is e + c(e), with c(e) the codeword equal to e on
0..k-1, and it must decode to msg(c(e)); every other representative
must fail.  c(e) and its message are sums of k basis codewords built by
bruteforce's Lagrange formula.

Run as a script, `python tests/test_coset_enumeration.py K ...` makes the
same checks for each RS(7, K) and prints the number of decodes; RS(7, 4)
takes 98,304 and RS(7, 3) 1,216,512.

The codewords are evaluations at all n powers of alpha, so a cyclic
shift of the positions, the Frobenius map (square every symbol and move
position j to 2j mod n) and a nonzero scalar each map the code onto
itself.  Enumerating one erasure set per orbit of the shift and
Frobenius maps, and one coset tail per scalar class, would cover every
word of codes too large to enumerate whole, such as RS(15, 11).  That
reduction rests on test_decoding_commutes_with_the_code_automorphisms,
which checks on sampled words that every decoder's message, cause and
iteration count move with each map.
"""

import random
import sys
from itertools import combinations, product

import pytest

from bruteforce import slow_eval, slow_lagrange, slow_mul, slow_pow
from rscodec import (CodeParams, Field, ReceivedWord, decode_errors_only,
                     decode_gao, decode_suggested, decode_truong, encode)
from rscodec.workbench import CountingField, OpCounter

ERASURE_DECODERS = (decode_gao, decode_truong, decode_suggested)
GF8 = Field(3)
# one counted decode per this many words
COUNTED_STRIDE = 7


def coset_oracle(params, erasures, basis, mul):
    """{zero-filled representative: message} for the cosets within the
    radius of the code with these erasures."""
    n, k, order = params.n, params.k, params.field.order
    radius = (params.d - 1 - len(erasures)) // 2
    kept = [pos for pos in range(n) if pos not in erasures]
    # any values on the erased positions, which below k choose c(e)
    free = [pos for pos in erasures if pos < k]
    oracle = {}
    for weight, filler in product(range(radius + 1),
                                  product(range(order), repeat=len(free))):
        for support in combinations(kept, weight):
            for values in product(range(1, order), repeat=weight):
                error = [0] * n
                for pos, value in zip((*support, *free), values + filler):
                    error[pos] = value
                word, message = list(error), [0] * k
                for i in range(k):
                    codeword, msg = basis[i]
                    for pos in range(n):
                        word[pos] ^= mul[error[i]][codeword[pos]]
                    for j in range(k):
                        message[j] ^= mul[error[i]][msg[j]]
                key = ReceivedWord(tuple(word), erasures).symbols
                # 2r + l < d: no two patterns share a coset
                assert key not in oracle
                oracle[key] = tuple(message)
    return oracle


def information_basis(params):
    """(codeword, message) per position i < k: the codeword that is 1 at
    i and 0 at the other positions below k."""
    field, n, k = params.field, params.n, params.k
    m, prim = field.m, field.prim_poly
    points = [slow_pow(m, prim, 2, pos) for pos in range(n)]
    basis = []
    for i in range(k):
        coeffs = slow_lagrange(m, prim, [(points[j], int(i == j))
                                         for j in range(k)])
        message = tuple(coeffs) + (0,) * (k - len(coeffs))
        codeword = tuple(slow_eval(m, prim, coeffs, x) for x in points)
        assert codeword == encode(params, message)
        basis.append((codeword, message))
    return basis


def check_every_coset(k):
    """Decode one word per coset of RS(7, k) for every erasure set with
    l < d, as the module docstring says; returns the number of erasure
    decodes."""
    params = CodeParams(GF8, k)
    counted = CodeParams(CountingField(GF8, OpCounter()), k)
    n, order = params.n, params.field.order
    m, prim = GF8.m, GF8.prim_poly
    mul = [[slow_mul(m, prim, a, b) for b in range(order)]
           for a in range(order)]
    basis = information_basis(params)
    words = 0
    for l in range(params.d):
        for erasures in combinations(range(n), l):
            oracle = coset_oracle(params, erasures, basis, mul)
            for tail in product(range(order), repeat=n - k):
                word = ReceivedWord((0,) * k + tail, erasures)
                expected = oracle.get(word.symbols)
                results = [decoder(params, word)
                           for decoder in ERASURE_DECODERS]
                words += 1
                for result in results:
                    assert result.message == expected, (erasures, tail)
                # the three pipelines stand or fall together
                assert results[0] == results[1] == results[2]
                if l == 0:
                    assert decode_errors_only(params, word.symbols) \
                        == results[2]
                if words % COUNTED_STRIDE == 0:
                    assert [decoder(counted, word)
                            for decoder in ERASURE_DECODERS] == results
    return words * len(ERASURE_DECODERS)


@pytest.mark.parametrize("k, decodes", [(6, 192), (5, 5_568)])
def test_every_coset_decodes_within_the_radius_and_fails_past_it(k, decodes):
    assert check_every_coset(k) == decodes


def decode_every_way(params, symbols, erasures):
    """(message, cause, iterations) of each erasure decoder on the word,
    and of errors-only on the raw symbols."""
    word = ReceivedWord(symbols, erasures)
    out = []
    for decoder, received in [(d, word) for d in ERASURE_DECODERS] + [
            (decode_errors_only, symbols)]:
        counter = OpCounter()
        result = decoder(params, received, counter=counter)
        out.append((result.message, result.cause, counter.total_iterations))
    return out


@pytest.mark.parametrize("m, words", [(3, 200), (4, 200), (8, 12)])
def test_decoding_commutes_with_adding_a_codeword(m, words):
    # decode(y + c) = decode(y) + msg(c), or the same failure in as many
    # Euclidean iterations, on words up to two errors past the radius
    field = Field(m)
    rng = random.Random(f"cosets/{m}")
    n, order = field.n, field.order
    for _ in range(words):
        params = CodeParams(field, rng.randrange(1, n))
        l = rng.randrange(params.d)
        t = min(n - l, (params.d - 1 - l) // 2 + rng.randrange(3))
        sent = encode(params, [rng.randrange(order)
                               for _ in range(params.k)])
        positions = rng.sample(range(n), t + l)
        symbols = list(sent)
        for pos in positions[:t]:
            symbols[pos] ^= rng.randrange(1, order)
        erasures = positions[t:]
        shift = [rng.randrange(order) for _ in range(params.k)]
        shifted = [a ^ b for a, b in zip(symbols, encode(params, shift))]
        for (message, cause, iterations), moved in zip(
                decode_every_way(params, symbols, erasures),
                decode_every_way(params, shifted, erasures)):
            if message is not None:
                message = tuple(a ^ b for a, b in zip(message, shift))
            assert moved == (message, cause, iterations)


@pytest.mark.parametrize("m, words", [(3, 150), (4, 150), (8, 30)])
def test_decoding_commutes_with_the_code_automorphisms(m, words):
    # the codewords are evaluations at every power of alpha, so a cyclic
    # shift, the Frobenius map and a nonzero scalar each map the code onto
    # itself; the decode of a mapped word is the mapped decode, or the
    # same failure in as many Euclidean iterations
    field = Field(m)
    rng = random.Random(f"automorphisms/{m}")
    n, order, mul = field.n, field.order, field.mul
    for _ in range(words):
        params = CodeParams(field, rng.randrange(1, n))
        l = rng.randrange(params.d)
        t = min(n - l, (params.d - 1 - l) // 2 + rng.randrange(3))
        sent = encode(params, [rng.randrange(order)
                               for _ in range(params.k)])
        positions = rng.sample(range(n), t + l)
        symbols = list(sent)
        for pos in positions[:t]:
            symbols[pos] ^= rng.randrange(1, order)
        erasures = positions[t:]
        s, c = rng.randrange(1, n), rng.randrange(2, order)
        squared = [0] * n
        for j, a in enumerate(symbols):
            squared[2 * j % n] = mul(a, a)
        maps = (
            # y'_i = y_(i+s) is the codeword of M(alpha^s x)
            ([symbols[(i + s) % n] for i in range(n)],
             [(e - s) % n for e in erasures],
             lambda msg: [mul(a, field.alpha_pow(s * j))
                          for j, a in enumerate(msg)]),
            # y'_(2j) = y_j^2 is the codeword of M with squared coefficients
            (squared, [2 * e % n for e in erasures],
             lambda msg: [mul(a, a) for a in msg]),
            # c y is the codeword of c M
            ([mul(c, a) for a in symbols], erasures,
             lambda msg: [mul(c, a) for a in msg]),
        )
        decoded = decode_every_way(params, symbols, erasures)
        for mapped, mapped_erasures, move in maps:
            for (message, cause, iterations), got in zip(
                    decoded, decode_every_way(params, mapped,
                                              mapped_erasures)):
                if message is not None:
                    message = tuple(move(message))
                assert got == (message, cause, iterations)


if __name__ == "__main__":
    for k in map(int, sys.argv[1:]):
        print(f"RS(7, {k}): {check_every_coset(k)} decodes, "
              f"every coset within the contract")
