"""Channel simulation, the brute-force test oracle, counters, and the
benchmark."""

import csv
import random

import pytest

from oracle import nearest_message
from rscodec import (
    DECODERS,
    CodeParams,
    Field,
    Poly,
    ReceivedWord,
    decode_suggested,
    decode_truong,
    encode,
    solve_key_equation,
)
from rscodec.workbench import (
    ChannelSpec,
    ComplexityClaimError,
    CountingField,
    OpCounter,
    bench,
    corrupt,
    format_report,
    write_csv,
)


# ---------------------------------------------------------------- channel

def test_corrupt_touches_exactly_the_chosen_positions(rs73):
    rng = random.Random(2)
    for trial in range(60):
        message = tuple(rng.randrange(8) for _ in range(3))
        codeword = encode(rs73, message)
        spec = ChannelSpec(t=2, l=2, seed=trial)
        word = corrupt(rs73, codeword, spec)
        assert len(word.erasures) == 2
        diffs = {pos for pos in range(7)
                 if word.symbols[pos] != codeword[pos]}
        erased = set(word.erasures)
        for pos in erased:
            assert word.symbols[pos] == 0
        # exactly t error positions differ outside the erased set
        assert len(diffs - erased) == 2


def test_corrupt_is_deterministic(rs73):
    codeword = encode(rs73, (1, 2, 3))
    spec = ChannelSpec(t=1, l=2, seed=99)
    assert corrupt(rs73, codeword, spec) == corrupt(rs73, codeword, spec)
    # equal specs are hashable dataclasses, so they compare equal too
    assert spec == ChannelSpec(t=1, l=2, seed=99)


def test_corrupt_with_explicit_positions(rs73):
    codeword = encode(rs73, (4, 0, 2))
    spec = ChannelSpec(t=1, l=2, seed=0,
                       error_positions=(3,), erasure_positions=(0, 5))
    word = corrupt(rs73, codeword, spec)
    assert word.erasures == (0, 5)
    assert word.symbols[3] != codeword[3]
    for pos in (1, 2, 4, 6):
        assert word.symbols[pos] == codeword[pos]


def test_channel_spec_validation():
    with pytest.raises(ValueError, match="nonnegative"):
        ChannelSpec(t=-1)
    with pytest.raises(ValueError, match="explicit error positions"):
        ChannelSpec(t=2, error_positions=(1,))
    with pytest.raises(ValueError, match="duplicate"):
        ChannelSpec(t=2, error_positions=(1, 1))
    with pytest.raises(ValueError, match="both"):
        ChannelSpec(t=1, l=1, error_positions=(2,), erasure_positions=(2,))


@pytest.mark.parametrize("count", ["t", "l"])
@pytest.mark.parametrize("bad", [1.0, True])
def test_channel_spec_refuses_non_int_counts(rs73, count, bad):
    # l=True would otherwise erase one position, t=1.0 fail in corrupt
    with pytest.raises(ValueError, match="nonnegative ints"):
        corrupt(rs73, encode(rs73, (1, 1, 1)), ChannelSpec(**{count: bad}))


@pytest.mark.parametrize("seed", [None, 1.5, True], ids=repr)
def test_channel_and_bench_refuse_a_non_int_seed(rs73, seed):
    # Random(None) seeds from the clock: two equal specs corrupted
    # differently
    with pytest.raises(ValueError, match="seed must be an int"):
        ChannelSpec(t=1, l=1, seed=seed)
    with pytest.raises(ValueError, match="seed must be an int"):
        bench(rs73, 1, l=1, seed=seed)


def test_corrupt_validation(rs73):
    codeword = encode(rs73, (1, 1, 1))
    with pytest.raises(ValueError, match="exceeds n"):
        corrupt(rs73, codeword, ChannelSpec(t=4, l=4))
    with pytest.raises(ValueError, match="expected 7 symbols"):
        corrupt(rs73, codeword[:5], ChannelSpec(t=1))
    with pytest.raises(ValueError, match="outside"):
        corrupt(rs73, codeword,
                ChannelSpec(t=0, l=1, erasure_positions=(9,)))
    with pytest.raises(ValueError, match="must be an int"):
        corrupt(rs73, codeword,
                ChannelSpec(t=1, l=0, error_positions=(True,)))


def test_corrupt_refuses_non_elements(rs73):
    # every symbol is an exact int element, erased ones included
    with pytest.raises(ValueError, match="field element"):
        corrupt(rs73, (99, True, 2, 3, 4, 5, 6), ChannelSpec(l=1, seed=1))
    with pytest.raises(ValueError, match="field element"):
        corrupt(rs73, (1.0,) * 7, ChannelSpec(t=7))


# ----------------------------------------------------------------- oracle

def test_oracle_recovers_within_radius(rs73):
    rng = random.Random(6)
    for trial in range(50):
        message = tuple(rng.randrange(8) for _ in range(3))
        t = rng.randrange(3)
        l = rng.randrange(5 - 2 * t)
        spec = ChannelSpec(t=t, l=l, seed=trial)
        word = corrupt(rs73, encode(rs73, message), spec)
        assert nearest_message(rs73, word) == message


def test_oracle_reports_ties(rs73):
    # erasing three positions leaves a punctured distance of two, so a
    # word one step from the zero codeword and one step from a punctured
    # weight-two codeword has no unique nearest neighbour
    word = ReceivedWord((0, 0, 3, 0, 0, 0, 0), (4, 5, 6))
    kept = (0, 1, 2, 3)

    # confirm by direct enumeration that the minimum is shared
    best, best_count = None, 0
    for index in range(512):
        message = (index % 8, index // 8 % 8, index // 64)
        codeword = encode(rs73, message)
        dist = sum(1 for pos in kept if codeword[pos] != word.symbols[pos])
        if best is None or dist < best:
            best, best_count = dist, 1
        elif dist == best:
            best_count += 1
    assert best == 1 and best_count > 1, "construction should be ambiguous"

    assert nearest_message(rs73, word) is None


def test_oracle_refuses_large_codebooks(rs157):
    word = ReceivedWord(encode(rs157, (0,) * 7))
    with pytest.raises(ValueError, match="beyond brute force"):
        nearest_message(rs157, word)


def test_oracle_matches_decoder_on_random_words(rs73):
    # on arbitrary words the algebraic decoder may fail where the oracle
    # finds a unique nearest codeword, but what it decodes is that codeword
    rng = random.Random(14)
    for _ in range(60):
        symbols = tuple(rng.randrange(8) for _ in range(7))
        l = rng.randrange(3)
        word = ReceivedWord(symbols, tuple(rng.sample(range(7), l)))
        algebraic = decode_suggested(rs73, word)
        if algebraic.ok:
            assert nearest_message(rs73, word) == algebraic.message


# --------------------------------------------------------------- counters

def test_op_counter_step_attribution():
    counter = OpCounter()
    counter.add(1)
    with counter.step("1"):
        counter.add(2, 1)
        counter.add(0)  # a zero leaves the step out of the tallies
        with counter.step("2b"):
            counter.add(1)
            counter.add_iterations(3)
        with counter.step("3"):
            counter.add(0, 0)
    counter.add(1)
    assert counter.mults == {"other": 2, "1": 2, "2b": 1}
    assert counter.invs == {"1": 1}
    assert counter.iterations == {"2b": 3}
    assert counter.total_mults == 5
    assert counter.total_invs == 1
    assert counter.total_iterations == 3


def test_counting_field_element_operations_are_uncounted(gf8):
    # counts come from the sites that do polynomial work, by operand
    # shape; the element operations, inherited from Field, count nothing
    counter = OpCounter()
    counted = CountingField(gf8, counter)
    assert counted.base is gf8
    assert "mul" not in vars(CountingField)
    assert "inv" not in vars(CountingField)
    assert counted.mul(3, 3) == 5
    assert counted.inv(2) == 5
    assert counted.alpha_pow(3) == 3
    assert counted.log(4) == 2
    assert counted.check_element(7) == 7
    assert ([counted.alpha_pow(j) for j in range(7)]
            == [gf8.alpha_pow(j) for j in range(7)])
    assert counter.mults == counter.invs == {}


def test_counting_field_is_a_field_equal_to_its_base(gf8):
    counted = CountingField(gf8, OpCounter())
    assert isinstance(counted, Field)
    assert counted == gf8 and gf8 == counted
    assert hash(counted) == hash(gf8)
    assert counted != Field(3, 0xD)
    assert repr(counted) == f"CountingField({gf8!r})"


def test_counting_field_drives_polynomials(gf8):
    counter = OpCounter()
    counted = CountingField(gf8, counter)
    a = Poly(counted, [1, 2, 3])
    b = Poly(counted, [4, 5])
    _ = a * b
    assert counter.total_mults == 6  # 3 x 2 schoolbook products
    before = counter.total_mults
    _ = a + b
    assert counter.total_mults == before  # addition is free


def test_counted_kernels_count_exactly(gf8):
    # the counts of the scalar loops that bench's totals are made of
    def counts(fn, *coeff_lists):
        counter = OpCounter()
        field = CountingField(gf8, counter)
        result = fn(*(Poly(field, c) for c in coeff_lists))
        return counter.total_mults, counter.total_invs, result

    rng = random.Random(20)
    for _ in range(20):
        dd = rng.randrange(1, 8)
        dn = rng.randrange(dd, 16)
        num = [rng.randrange(8) for _ in range(dn)] + [rng.randrange(1, 8)]
        body = [rng.randrange(8) for _ in range(dd)]
        monic, not_monic = body + [1], body + [rng.randrange(2, 8)]
        steps = dn - dd + 1
        assert counts(divmod, num, not_monic)[:2] == (steps * (dd + 1), 1)
        assert counts(divmod, num, monic)[:2] == (steps * dd, 0)
        assert counts(lambda p: p * Poly(p.field, [3]), num)[:2] == (
            dn + 1, 0)

    def one_step(modulus, known):
        return solve_key_equation(modulus, known, 1)

    # x^2 = (x + 3)(x + 3) + 5: the divisor and the last cofactor are
    # monic, so nothing is inverted
    mults, invs, (locator, _, iterations) = counts(one_step, [0, 0, 1], [3, 1])
    assert (mults, invs, iterations) == (4, 0, 1)
    assert locator.coeffs == (3, 1)
    # with known = 2x + 3 the division and the final scaling each invert
    _, invs, (locator, _, _) = counts(one_step, [0, 0, 1], [3, 2])
    assert invs == 2 and locator.lead == 1


def test_counting_polys_mix_with_plain_ones(gf8):
    counted = CountingField(gf8, OpCounter())
    assert Poly(counted, [1, 2]) == Poly(gf8, [1, 2])
    assert (Poly(counted, [1, 2]) + Poly(gf8, [0, 2])) == Poly(gf8, [1])


# ------------------------------------------------------------------ bench

def test_bench_empty_run(rs73):
    report = bench(rs73, 0, l=1)
    assert report.trials == 0
    assert report.claim_holds
    assert "(no trials)" in format_report(report)


def test_bench_is_deterministic(rs73):
    first = bench(rs73, 8, l=2, seed=5)
    second = bench(rs73, 8, l=2, seed=5)
    assert first.trial_mults == second.trial_mults
    assert first.trial_iterations == second.trial_iterations
    assert first.trial_t == second.trial_t


def test_bench_validation(rs73):
    with pytest.raises(ValueError, match="trials"):
        bench(rs73, -1)
    with pytest.raises(ValueError, match="l must be"):
        bench(rs73, 1, l=5)
    with pytest.raises(ValueError, match="t must be"):
        bench(rs73, 1, l=2, t=2)


@pytest.mark.parametrize("count", ["trials", "l", "t"])
@pytest.mark.parametrize("bad", [1.0, True])
def test_bench_refuses_non_int_counts(rs73, count, bad):
    # True would otherwise run as 1, and 1.0 fail deep inside
    counts = {"trials": 1, "l": 1, "t": 1, count: bad}
    with pytest.raises(ValueError, match=f"{count} must be"):
        bench(rs73, counts.pop("trials"), **counts)


def test_bench_all_pipelines_agree(rs73):
    report = bench(rs73, 30, l=1, seed=1)
    assert all(report.agreements)
    assert report.mult_violations == ()
    assert report.iteration_violations == ()
    assert report.claim_holds


# Totals over bench(..., trials=4, seed=0): (mults, invs, iterations) per
# decoder.  These are the paper's counts as the counted pipelines measure
# them; a change to any pipeline that moves one must say why.
PINNED_COUNTS = [
    ((8, 223, 16, 8), {"gao": (955_752, 992, 32),
                       "truong": (317_701, 36, 32),
                       "suggested": (315_045, 36, 32)}),
    ((8, 223, 0, 16), {"gao": (1_090_502, 1_087, 64),
                       "truong": (309_250, 67, 64),
                       "suggested": (308_162, 67, 64)}),
    ((4, 7, 4, 2), {"gao": (2_590, 55, 8), "truong": (1_811, 11, 8),
                    "suggested": (1_627, 11, 8)}),
    ((8, 127, 64, 32), {"gao": (716_993, 893, 127),
                        "truong": (466_175, 129, 127),
                        "suggested": (440_255, 129, 127)}),
]


@pytest.mark.parametrize("shape, counts", PINNED_COUNTS,
                         ids=["rs255-l16-t8", "rs255-l0-t16", "rs15-l4-t2",
                              "rs255-l64-t32"])
def test_bench_pins_the_paper_counts(shape, counts):
    m, k, l, t = shape
    report = bench(CodeParams(Field(m), k), 4, l=l, t=t, seed=0,
                   strict=False)
    # mean_steps holds per-trial means of each step's integer counts
    assert {name: (sum(report.trial_mults[name]),
                   round(report.trials * sum(
                       step.invs for step in report.mean_steps[name].values())),
                   sum(report.trial_iterations[name]))
            for name in report.algorithms} == counts
    assert report.claim_holds


# Steps 2a and 2b of bench(CodeParams(Field(m), k), trials, l=l, t=t,
# seed=seed): per decoder and step, (mults, invs, iterations) summed over
# the trials.  Step 2b is the key-equation solve, so these pin its counts
# apart from the rest of the decode; they are what divide_rows and
# multiply_rows count per division, which the packed m <= 8 pass matches.
PINNED_STEP_COUNTS = [
    ((4, 7, 2, None, 100, 0),
     {"gao": {"2a": (2_800, 0, 0), "2b": (4_691, 192, 138)},
      "truong": {"2a": (4_467, 0, 0), "2b": (5_385, 192, 138)},
      "suggested": {"2a": (5_257, 0, 0), "2b": (4_691, 192, 138)}}),
    ((8, 127, 32, None, 1, 88),
     {"gao": {"2a": (7_168, 0, 0), "2b": (4_628, 11, 10)},
      "truong": {"2a": (8_415, 0, 0), "2b": (5_300, 11, 10)},
      "suggested": {"2a": (14_304, 0, 0), "2b": (4_628, 11, 10)}}),
    ((8, 127, 64, 32, 2, 0),
     {"gao": {"2a": (24_576, 0, 0), "2b": (24_765, 65, 63)},
      "truong": {"2a": (33_150, 0, 0), "2b": (33_021, 65, 63)},
      "suggested": {"2a": (49_024, 0, 0), "2b": (24_765, 65, 63)}}),
]


@pytest.mark.parametrize("shape, counts", PINNED_STEP_COUNTS,
                         ids=["rs15-l2-100-trials", "rs255-k127-l32-seed88",
                              "rs255-k127-l64-t32"])
def test_bench_pins_the_key_equation_steps(shape, counts):
    m, k, l, t, trials, seed = shape
    report = bench(CodeParams(Field(m), k), trials, l=l, t=t, seed=seed,
                   strict=False)
    assert {name: {label: tuple(round(trials * getattr(step, what))
                                for what in ("mults", "invs", "iterations"))
                   for label, step in steps.items() if label in ("2a", "2b")}
            for name, steps in report.mean_steps.items()} == counts


def test_bench_fixed_t(rs73):
    report = bench(rs73, 6, l=2, t=1, seed=3)
    assert report.trial_t == (1,) * 6


def test_bench_step_labels(rs73):
    report = bench(rs73, 4, l=1, t=1, seed=7)
    for name in ("gao", "truong", "suggested"):
        labels = set(report.mean_steps[name])
        assert {"1", "2a", "2b", "3"} <= labels
        assert "other" not in labels


def test_bench_claim_on_small_code(rs73):
    # strict mode raises on any per-trial violation, so surviving the
    # run is itself the assertion
    for l in (1, 2, 3):
        report = bench(rs73, 40, l=l, seed=l)
        assert report.claim_holds
        sug = report.trial_mults["suggested"]
        tru = report.trial_mults["truong"]
        assert all(s <= t for s, t in zip(sug, tru))


def test_bench_claim_fails_with_few_errors_at_large_l():
    # The claim holds at the radius on the pinned cases and the perfbench
    # workloads, but not always.  At RS(255,127) with l = 32 and t = 10,
    # suggested pays two counted 223 x 32 divisions, (x^n - 1) / L and
    # known % modulus, both in step 2a, and so spends more
    # multiplications than truong in as many iterations.
    params = CodeParams(Field(8), 127)
    report = bench(params, 1, l=32, seed=88, strict=False)
    assert report.trial_t == (10,)
    assert report.trial_mults["suggested"] == (86_283,)
    assert report.trial_mults["truong"] == (85_493,)
    assert report.trial_iterations["suggested"] == (10,)
    assert report.trial_iterations["truong"] == (10,)
    assert report.mult_violations == (0,)
    assert report.iteration_violations == ()
    assert not report.claim_holds
    with pytest.raises(ComplexityClaimError, match="86283 multiplications"):
        bench(params, 1, l=32, seed=88)


def test_format_report_layout(rs73):
    report = bench(rs73, 5, l=1, seed=0)
    text = format_report(report)
    assert "RS(7, 3)" in text
    assert "suggested" in text and "truong" in text and "gao" in text
    assert "total" in text
    assert "pipelines agreed on 5/5 trials" in text
    assert "suggested <= truong" in text


def test_write_csv(tmp_path, rs73):
    report = bench(rs73, 5, l=1, seed=0)
    out = tmp_path / "counts.csv"
    write_csv(report, str(out))
    with open(out, newline="") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["algorithm", "step", "mults", "invs", "iterations"]
    algorithms = {row[0] for row in rows[1:]}
    assert algorithms == {"gao", "truong", "suggested"}
    for row in rows[1:]:
        float(row[2]), float(row[3]), float(row[4])


def test_bench_records_and_raises_claim_violations(rs73, monkeypatch):
    # a suggested that always costs one multiplication and one iteration
    # more than truong breaks the claim on every trial
    def wasteful(params, received, *, counter=None):
        result = decode_truong(params, received, counter=counter)
        counter.add(1)
        counter.add_iterations(1)
        return result

    monkeypatch.setitem(DECODERS, "suggested", wasteful)
    report = bench(rs73, 3, l=1, seed=0, strict=False)
    assert report.mult_violations == (0, 1, 2)
    assert report.iteration_violations == (0, 1, 2)
    assert not report.claim_holds
    with pytest.raises(ComplexityClaimError, match="trial 0: suggested used"):
        bench(rs73, 3, l=1, seed=0)
    # the claim is checked only with erasures
    assert bench(rs73, 3, l=0, seed=0).claim_holds


def test_complexity_claim_error_is_runtime_error():
    assert issubclass(ComplexityClaimError, RuntimeError)
