"""Acceptance gate for the codec and workbench.

Seven checks, each printing one "acceptance N (<name>): PASS|FAIL" line;
run with pytest -s to watch them stream.  Every check holds exactly, with
zero tolerance: these are algebraic identities and counting comparisons,
not approximations.
"""

import itertools
import random

import pytest

from bruteforce import slow_inv, slow_mul
from oracle import nearest_message
from reference import Reference
from rscodec import (
    CodeParams,
    FailureCause,
    Field,
    Poly,
    ReceivedWord,
    cyclotomic_quotient,
    decode_errors_only,
    decode_gao,
    decode_suggested,
    decode_truong,
    encode,
    evaluate_all,
    interpolate_all,
    interpolate_subset,
    xn_minus_one,
)
from rscodec.workbench import (
    ChannelSpec,
    ComplexityClaimError,
    bench,
    corrupt,
)

DECODERS = (
    ("gao", decode_gao),
    ("truong", decode_truong),
    ("suggested", decode_suggested),
)

SMALL_CODE = ("RS(7,3)", 3, 3)
LARGE_CODE = ("RS(15,7)", 4, 7)


def _verdict(index, name, failures):
    ok = not failures
    print(f"acceptance {index} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok, (f"{name}: {len(failures)} violation(s), "
                f"first: {failures[0]}")


def _radius_pairs(d):
    return [(t, l) for t in range((d + 1) // 2) for l in range(d - 2 * t)]


def _locator_for(field, positions):
    out = Poly(field, [1])
    for pos in positions:
        out = out * Poly(field, [field.alpha_pow(pos), 1])
    return out


def _scalar_lagrange(field, values, erasures):
    # interpolate_subset computes this same reduction, so the identity is
    # also checked against the Lagrange loop of tests/reference.py
    return Poly(field, Reference(field).interpolate_subset(values, erasures))


@pytest.fixture(scope="module")
def radius_trials():
    """1000 seeded within-radius trials per code, decoded three ways."""
    trials = {}
    for label, m, k in (SMALL_CODE, LARGE_CODE):
        params = CodeParams(Field(m), k)
        pairs = _radius_pairs(params.d)
        rng = random.Random(0xC0DE + m)
        rows = []
        for _ in range(1000):
            message = tuple(rng.randrange(params.field.order)
                            for _ in range(k))
            t, l = pairs[rng.randrange(len(pairs))]
            spec = ChannelSpec(t=t, l=l, seed=rng.getrandbits(32))
            word = corrupt(params, encode(params, message), spec)
            results = {name: dec(params, word) for name, dec in DECODERS}
            rows.append((t, l, message, results))
        trials[label] = rows
    return trials


def test_1_radius_guarantee(radius_trials):
    failures = []
    for label, rows in radius_trials.items():
        for t, l, message, results in rows:
            for name, result in results.items():
                if result.message != message:
                    failures.append(
                        f"{label} t={t} l={l}: {name} returned "
                        f"{result.message or result.cause}, wanted {message}")
    _verdict(1, "radius guarantee", failures)


def test_2_oracle_equivalence(rs73):
    failures = []

    def compare(word, include_plain):
        expect = nearest_message(rs73, word)
        if include_plain:
            got = decode_errors_only(rs73, word.symbols).message
            if got != expect:
                failures.append(f"errors_only vs oracle on {word.symbols}: "
                                f"{got} != {expect}")
        for name, dec in DECODERS:
            got = dec(rs73, word).message
            if got != expect:
                failures.append(f"{name} vs oracle on {word.symbols} "
                                f"erasures {word.erasures}: {got} != {expect}")

    # every message crossed with every single-position error value
    for message in itertools.product(range(8), repeat=3):
        codeword = encode(rs73, message)
        for pos in range(7):
            symbols = list(codeword)
            for err in range(1, 8):
                symbols[pos] = codeword[pos] ^ err
                compare(ReceivedWord(tuple(symbols)), include_plain=True)
            symbols[pos] = codeword[pos]

    # sampled mixes at the edge of the radius, cycling three shapes
    shapes = ((2, 0), (1, 2), (0, 4))
    rng = random.Random(0x0AC1E)
    for index in range(5000):
        t, l = shapes[index % 3]
        message = tuple(rng.randrange(8) for _ in range(3))
        spec = ChannelSpec(t=t, l=l, seed=rng.getrandbits(32))
        word = corrupt(rs73, encode(rs73, message), spec)
        compare(word, include_plain=(l == 0))

    _verdict(2, "oracle equivalence", failures)


def test_3_reduction_identity(gf8, gf16):
    # reducing the all-positions interpolation modulo the cyclotomic
    # quotient must equal direct interpolation of the surviving positions,
    # on the plain field and through the scalar Lagrange loop
    failures = []
    rng = random.Random(0x1DE7)
    for field in (gf8, gf16):
        n = field.n
        for trial in range(1000):
            values = [rng.randrange(field.order) for _ in range(n)]
            l = rng.randrange(n)
            erased = sorted(rng.sample(range(n), l))

            modulus = cyclotomic_quotient(_locator_for(field, erased))
            reduced = interpolate_all(field, values) % modulus
            direct = interpolate_subset(field, values, erased)
            if reduced != direct:
                failures.append(f"GF(2^{field.m}) trial {trial} "
                                f"erased={erased}: {reduced} != {direct}")
            lagrange = _scalar_lagrange(field, values, erased)
            if reduced != lagrange:
                failures.append(f"GF(2^{field.m}) trial {trial} "
                                f"erased={erased}: {reduced} != {lagrange} "
                                f"(scalar Lagrange)")
    _verdict(3, "reduction identity", failures)


def test_4_cross_pipeline_agreement(radius_trials):
    failures = []
    for label, rows in radius_trials.items():
        for t, l, message, results in rows:
            baseline = results["gao"]
            for name in ("truong", "suggested"):
                if results[name] != baseline:
                    failures.append(f"{label} t={t} l={l}: {name} returned "
                                    f"{results[name]}, gao {baseline}")
    _verdict(4, "cross-pipeline agreement", failures)


def test_5_operation_count_claim():
    failures = []
    info = []
    for m, k, trials in ((4, 7, 100), (8, 223, 5)):
        params = CodeParams(Field(m), k)
        for l in (1, 2, 4):
            try:
                report = bench(params, trials, l=l, seed=m * 100 + l)
            except ComplexityClaimError as exc:
                failures.append(f"RS({params.n},{k}) l={l}: {exc}")
                continue
            for trial in report.mult_violations:
                failures.append(
                    f"RS({params.n},{k}) l={l} trial {trial}: suggested "
                    f"{report.trial_mults['suggested'][trial]} mults vs "
                    f"truong {report.trial_mults['truong'][trial]}")
            for trial in report.iteration_violations:
                failures.append(
                    f"RS({params.n},{k}) l={l} trial {trial}: suggested "
                    f"{report.trial_iterations['suggested'][trial]} "
                    f"iterations vs truong "
                    f"{report.trial_iterations['truong'][trial]}")
            if not all(report.agreements):
                failures.append(f"RS({params.n},{k}) l={l}: pipelines "
                                f"disagreed on some trial")
            means = {name: sum(report.trial_mults[name]) / trials
                     for name, _ in DECODERS}
            info.append(f"  RS({params.n},{k}) l={l} trials={trials}: "
                        f"mean mults gao={means['gao']:.1f} "
                        f"truong={means['truong']:.1f} "
                        f"suggested={means['suggested']:.1f}")
    for line in info:
        print(line)
    _verdict(5, "operation count claim", failures)


def test_6_degenerate_erasure_handling():
    failures = []
    for label, m, k in (SMALL_CODE, LARGE_CODE):
        params = CodeParams(Field(m), k)
        n, d, order = params.n, params.d, params.field.order
        rng = random.Random(0xDE6E + m)

        # no erasures: byte-for-byte the errors-only decoder, successes
        # and failures alike
        for _ in range(300):
            symbols = tuple(rng.randrange(order) for _ in range(n))
            plain = decode_errors_only(params, symbols)
            for name, dec in DECODERS:
                got = dec(params, ReceivedWord(symbols))
                if got != plain:
                    failures.append(f"{label} l=0: {name} returned {got}, "
                                    f"errors_only {plain}")

        for _ in range(20):
            message = tuple(rng.randrange(order) for _ in range(k))
            codeword = encode(params, message)
            # d - 1 erasures and no errors still decode
            word = ReceivedWord(codeword, tuple(rng.sample(range(n), d - 1)))
            for name, dec in DECODERS:
                got = dec(params, word)
                if got.message != message:
                    failures.append(f"{label} l=d-1: {name} returned "
                                    f"{got.message or got.cause}")
            # d erasures exceed the distance and must fail cleanly
            word = ReceivedWord(codeword, tuple(rng.sample(range(n), d)))
            for name, dec in DECODERS:
                got = dec(params, word)
                if got.cause is not FailureCause.DEGREE_OVERFLOW:
                    failures.append(f"{label} l=d: {name} returned {got}")
    _verdict(6, "degenerate erasure handling", failures)


# ------------------------------------------------------- module invariants

def _field_invariants_exhaustive(failures):
    field = Field(3)
    for a in range(8):
        for b in range(8):
            if field.mul(a, b) != slow_mul(3, field.prim_poly, a, b):
                failures.append(f"GF(8) mul({a}, {b}) table mismatch")
    for a in range(1, 8):
        if field.mul(a, field.inv(a)) != 1:
            failures.append(f"GF(8) inv({a}) is not inverse")
        if field.inv(a) != slow_inv(3, field.prim_poly, a):
            failures.append(f"GF(8) inv({a}) mismatch")
        if field.alpha_pow(field.log(a)) != a:
            failures.append(f"GF(8) log round trip broke at {a}")
    for a in range(8):
        for b in range(8):
            for c in range(8):
                if field.mul(field.mul(a, b), c) != field.mul(a, field.mul(b, c)):
                    failures.append(f"GF(8) mul associativity ({a},{b},{c})")
                if field.mul(a, b ^ c) != field.mul(a, b) ^ field.mul(a, c):
                    failures.append(f"GF(8) distributivity ({a},{b},{c})")


def _field_invariants_sampled(m, cases, failures):
    field = Field(m)
    order = field.order
    rng = random.Random(0xF1E1D + m)
    for _ in range(cases):
        a, b, c = (rng.randrange(order) for _ in range(3))
        if field.mul(a, b) != field.mul(b, a):
            failures.append(f"GF(2^{m}) mul commutativity ({a},{b})")
        if field.mul(field.mul(a, b), c) != field.mul(a, field.mul(b, c)):
            failures.append(f"GF(2^{m}) mul associativity ({a},{b},{c})")
        if field.mul(a, b ^ c) != field.mul(a, b) ^ field.mul(a, c):
            failures.append(f"GF(2^{m}) distributivity ({a},{b},{c})")
        if field.mul(a, b) != slow_mul(m, field.prim_poly, a, b):
            failures.append(f"GF(2^{m}) mul({a},{b}) table mismatch")
        if a:
            if field.mul(a, field.inv(a)) != 1:
                failures.append(f"GF(2^{m}) inv({a}) is not inverse")
            if field.alpha_pow(field.log(a)) != a:
                failures.append(f"GF(2^{m}) log round trip broke at {a}")


def _poly_invariants_exhaustive(failures):
    field = Field(3)
    polys = [Poly(field, [c0, c1]) for c0 in range(8) for c1 in range(8)]
    for a in polys:
        for b in polys:
            ab = a * b
            if ab != b * a:
                failures.append(f"poly mul commutativity {a!r} {b!r}")
            if a and b:
                if ab.degree != a.degree + b.degree:
                    failures.append(f"poly degree law {a!r} {b!r}")
            if b:
                quot, rem = divmod(a, b)
                if quot * b + rem != a or not rem.degree < b.degree:
                    failures.append(f"poly divmod reconstruction {a!r} {b!r}")
            for z in range(8):
                if ab.evaluate(z) != field.mul(a.evaluate(z), b.evaluate(z)):
                    failures.append(f"poly eval homomorphism {a!r} {b!r} {z}")
    # associativity and distributivity over every linear-or-lower triple
    for a in polys:
        for b in polys:
            ab = a * b
            apb = a + b
            for c in polys:
                if ab * c != a * (b * c):
                    failures.append(f"poly mul associativity {a!r} {b!r} {c!r}")
                    return
                if apb * c != a * c + b * c:
                    failures.append(f"poly distributivity {a!r} {b!r} {c!r}")
                    return


def _poly_invariants_sampled(m, cases, failures):
    field = Field(m)
    order = field.order
    rng = random.Random(0x501D + m)

    def rand_poly(max_len):
        return Poly(field, [rng.randrange(order)
                            for _ in range(rng.randrange(max_len + 1))])

    for _ in range(cases):
        a, b, c = rand_poly(6), rand_poly(6), rand_poly(3)
        if a * b != b * a:
            failures.append(f"GF(2^{m}) poly commutativity")
        if (a * b) * c != a * (b * c):
            failures.append(f"GF(2^{m}) poly associativity")
        if (a + b) * c != a * c + b * c:
            failures.append(f"GF(2^{m}) poly distributivity")
        if (a + b) + b != a:
            failures.append(f"GF(2^{m}) poly addition not involutive")
        if b:
            quot, rem = divmod(a, b)
            if quot * b + rem != a or not rem.degree < b.degree:
                failures.append(f"GF(2^{m}) poly divmod reconstruction")
        z = rng.randrange(order)
        if (a * b).evaluate(z) != field.mul(a.evaluate(z), b.evaluate(z)):
            failures.append(f"GF(2^{m}) poly eval homomorphism")


def _spectral_invariants_small(failures):
    # the transforms are linear, so the scaled basis vectors cover the
    # whole space exactly; additivity is then checked on random pairs
    field = Field(3)
    n = field.n
    for j in range(n):
        for c in range(8):
            p = Poly(field, [0] * j + [c])
            if interpolate_all(field, evaluate_all(p, n)) != p:
                failures.append(f"GF(8) round trip broke on {p!r}")
    for pos in range(n):
        for v in range(8):
            values = [0] * n
            values[pos] = v
            p = interpolate_all(field, values)
            if evaluate_all(p, n) != tuple(values):
                failures.append(f"GF(8) inverse round trip at {pos}/{v}")
    rng = random.Random(0x5BA5E)
    for _ in range(500):
        u = [rng.randrange(8) for _ in range(n)]
        v = [rng.randrange(8) for _ in range(n)]
        s = [x ^ y for x, y in zip(u, v)]
        if (interpolate_all(field, s)
                != interpolate_all(field, u) + interpolate_all(field, v)):
            failures.append("GF(8) interpolation is not additive")

    # every erasure pattern: locator times quotient rebuilds x^n - 1
    target = xn_minus_one(field)
    for size in range(n + 1):
        for subset in itertools.combinations(range(n), size):
            locator = _locator_for(field, subset)
            if cyclotomic_quotient(locator) * locator != target:
                failures.append(f"GF(8) cyclotomic product broke on {subset}")


def _spectral_invariants_m4(cases, failures):
    field = Field(4)
    n = field.n
    rng = random.Random(0x5BEC4)
    for index in range(cases):
        if index % 2:
            coeffs = [rng.randrange(16) for _ in range(n)]
            p = Poly(field, coeffs)
            if interpolate_all(field, evaluate_all(p, n)) != p:
                failures.append(f"GF(16) round trip case {index}")
        else:
            values = [rng.randrange(16) for _ in range(n)]
            p = interpolate_all(field, values)
            if p.degree >= n or evaluate_all(p, n) != tuple(values):
                failures.append(f"GF(16) inverse round trip case {index}")
    target = xn_minus_one(field)
    for index in range(1000):
        subset = rng.sample(range(n), rng.randrange(n + 1))
        locator = _locator_for(field, subset)
        if cyclotomic_quotient(locator) * locator != target:
            failures.append(f"GF(16) cyclotomic product case {index}")


def _spectral_invariants_m8(cases, failures):
    # full transforms at n = 255 are costly, so the sampled cases check
    # the defining property pointwise across fresh random vectors, plus
    # smaller batches of the product and reduction identities
    field = Field(8)
    n = field.n
    rng = random.Random(0x5BEC8)
    point_cases = cases - 400
    vectors = 40
    per_vector = point_cases // vectors
    for _ in range(vectors):
        values = [rng.randrange(256) for _ in range(n)]
        p = interpolate_all(field, values)
        if p.degree >= n:
            failures.append("GF(256) interpolation degree overflow")
        for _ in range(per_vector):
            pos = rng.randrange(n)
            if p.evaluate(field.alpha_pow(pos)) != values[pos]:
                failures.append(f"GF(256) point mismatch at {pos}")
    target = xn_minus_one(field)
    for index in range(340):
        subset = rng.sample(range(n), rng.randrange(n + 1))
        locator = _locator_for(field, subset)
        if cyclotomic_quotient(locator) * locator != target:
            failures.append(f"GF(256) cyclotomic product case {index}")
    for index in range(60):
        values = [rng.randrange(256) for _ in range(n)]
        l = rng.randrange(1, n)
        erased = sorted(rng.sample(range(n), l))
        modulus = cyclotomic_quotient(_locator_for(field, erased))
        reduced = interpolate_all(field, values) % modulus
        direct = interpolate_subset(field, values, erased)
        if reduced != direct:
            failures.append(f"GF(256) reduction identity case {index}")
        if reduced != _scalar_lagrange(field, values, erased):
            failures.append(f"GF(256) reduction identity case {index} "
                            f"(scalar Lagrange)")


def test_7_module_invariants():
    failures = []
    _field_invariants_exhaustive(failures)
    _poly_invariants_exhaustive(failures)
    _spectral_invariants_small(failures)
    for m in (4, 8):
        _field_invariants_sampled(m, 10_000, failures)
        _poly_invariants_sampled(m, 10_000, failures)
    _spectral_invariants_m4(10_000, failures)
    _spectral_invariants_m8(10_000, failures)
    _verdict(7, "module invariants", failures)
