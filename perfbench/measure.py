"""Measured phases of one workload run and the checks on their outputs.

Every workload is a closed loop with one caller: one block at a time, in
one process, with no threads.  An untraced run has five phases; after
setup, ``Pass.schedule`` interleaves the other four unit by unit:

  setup   fresh interpreters import the codec and the CLI and warm up
  encode  encode every message
  decode  decode every received word with suggested, truong and gao, and
          the l = 0 words with decode_errors_only
  cli     ``rscodec encode`` and ``rscodec decode`` as subprocesses on
          block files the benchmark wrote
  bench   bench() trials with the counting field at the largest l

The traced run (``traced_run``) repeats encode and decode with spans and
adds the per-layer measurements.

A failed operation is a decode that raises; a within-radius word that
does not decode to the message sent; a past-radius ``ok`` result that
does not re-encode within (d-1-l)/2 of the non-erased symbols; a pipeline
that disagrees with ``suggested`` on message or cause; a CLI output line
that differs from the library result for its block; an encode that
differs from the reference at the spot-checked positions; and a bench
trial that breaks suggested <= truong or where the pipelines disagree.
"""

from __future__ import annotations

import io
import os
import re
import resource
import shutil
import statistics
from statistics import median
import subprocess
import sys
import tempfile
from array import array
from dataclasses import dataclass, field as dataclass_field
from pathlib import Path
from time import perf_counter_ns

from rscodec import (CodeParams, Field, Poly, ReceivedWord,
                     decode_errors_only, decode_gao, decode_suggested,
                     decode_truong, encode, evaluate_all, interpolate_all)
from rscodec.workbench import (ChannelSpec, CountingField, OpCounter, bench,
                               corrupt)
from rscodec.workbench import blockio

import spec
from inputs import (Draw, RefField, block_line, draws, header_line,
                    message_line, rng_for)
from tracing import SpanRecorder, TimingProbe, wrappers_installed

DECODERS = {"suggested": decode_suggested, "truong": decode_truong,
            "gao": decode_gao}

# What the ``rscodec`` console script runs (pyproject: rscodec.workbench.cli:run).
CLI_ENTRY = "import sys; from rscodec.workbench.cli import run; sys.exit(run())"
CLI_TIMEOUT_S = 120
SPOT_CHECKS = 8
OVERRUN_NS = 90 * 10**9   # a run ends within 180 s or fails loudly
P50_SLICES = 10           # with MIN_DECODED, at least 10 blocks per slice
CLI_FAILURE = re.compile(r"block (\d+): decode failed \((\w+)\)")


class Tally:
    """Operations attempted and failed, with the first few failures named."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def record(self, ok: bool, what) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 20:
                self.notes.append(what() if callable(what) else what)


@dataclass
class Block:
    draw: Draw
    codeword: tuple[int, ...]
    received: tuple[int, ...]


@dataclass
class Decoded:
    """Per-decoder call times (ns) in block order, the l of each block, and
    the suggested results of the CLI blocks."""

    times: dict[str, array] = dataclass_field(
        default_factory=lambda: {alg: array("q") for alg in spec.ALGS})
    iterations: dict[str, list[int]] = dataclass_field(
        default_factory=lambda: {alg: [] for alg in spec.ALGS})
    ls: list[int] = dataclass_field(default_factory=list)
    suggested: list = dataclass_field(default_factory=list)

    @property
    def count(self) -> int:
        return len(self.ls)


class Run:
    """One workload at one seed: its code, reference, checks and files."""

    def __init__(self, workload: spec.Workload, seed: int, root: Path):
        self.workload = workload
        self.seed = seed
        self.root = root
        self.params = CodeParams(Field(workload.m), workload.k)
        self.ref = RefField(workload.m, self.params.field.prim_poly)
        self.tally = Tally()
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(root / "src"), os.environ.get("PYTHONPATH")) if p)
        scratch = root / "perfbench" / "_work"
        scratch.mkdir(parents=True, exist_ok=True)
        self.workdir = Path(tempfile.mkdtemp(dir=scratch))

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)

    def setup_phase(self) -> list[float]:
        """Wall seconds of each fresh set-up interpreter."""
        probe = self.root / "perfbench" / "setup_probe.py"
        argv = [sys.executable, str(probe), str(self.workload.m),
                str(self.workload.k)]
        walls = []
        for _ in range(spec.SETUP_SPAWNS):
            start = perf_counter_ns()
            proc = subprocess.run(argv, env=self.env, cwd=self.root,
                                  stdin=subprocess.DEVNULL,
                                  capture_output=True, timeout=CLI_TIMEOUT_S)
            walls.append((perf_counter_ns() - start) / 1e9)
            if proc.returncode != 0:
                raise RuntimeError(f"set-up probe failed: "
                                   f"{proc.stderr.decode(errors='replace')}")
        return walls

    def cli(self, *args: str):
        """Run the console entry point; wall seconds and the process."""
        argv = [sys.executable, "-c", CLI_ENTRY, *args]
        start = perf_counter_ns()
        proc = subprocess.run(argv, env=self.env, cwd=self.root,
                              stdin=subprocess.DEVNULL, capture_output=True,
                              text=True, timeout=CLI_TIMEOUT_S)
        return (perf_counter_ns() - start) / 1e9, proc


class Pass:
    """One closed-loop pass over the workload's seeded block sequence.

    Each phase advances one unit at a time (a block, a CLI rep, a bench
    trial); ``schedule`` interleaves the units.  With a recorder, encode
    and decode record spans and pass a timing probe to the decoders.
    """

    def __init__(self, run: Run, recorder: SpanRecorder | None = None):
        wl = run.workload
        self.run = run
        self.recorder = recorder
        self.stream = draws(wl, run.seed)
        self.spot = rng_for(wl, run.seed, "spot")
        self.bench_rng = rng_for(wl, run.seed, "bench")
        self.blocks: list[Block | None] = []
        self.encode_ns = array("q")
        self.encode_ls: list[int] = []
        self.decoded = Decoded()
        self.cli_encode_s: list[float] = []
        self.cli_decode_s: list[float] = []
        self.bench_ns: list[int] = []

    def count(self, phase: str) -> int:
        return {"encode": len(self.encode_ns), "decode": self.decoded.count,
                "cli": len(self.cli_decode_s), "bench": len(self.bench_ns)}[phase]

    def schedule(self, shares: dict[str, float], seconds: float,
                 minimum: dict[str, int]) -> None:
        """Run the phases interleaved, each kept near its share of the time.

        The next unit goes to the phase furthest below its share.  Encode
        runs at most cli_blocks blocks ahead of decode, so the blocks held
        in memory do not grow with the speed of the machine.  After seconds,
        only phases short of their minimum (or, for encode and decode, of a
        whole period of the l pattern) keep running.
        """
        units = {"encode": self.encode_one, "decode": self.decode_one,
                 "cli": self.cli_one, "bench": self.bench_one}
        period, cli_blocks = self.run.workload.period, self.run.workload.cli_blocks
        spent = dict.fromkeys(shares, 0)
        start = perf_counter_ns()
        limit = int(seconds * 1e9)
        while True:
            elapsed = perf_counter_ns() - start
            if elapsed > limit + OVERRUN_NS:
                raise RuntimeError("phases did not reach their minimum "
                                   f"samples: {minimum}")
            over = elapsed >= limit
            wanted = [p for p in shares if not over
                      or self.count(p) < minimum.get(p, 0)
                      or (p in ("encode", "decode") and self.count(p) % period)]
            if not wanted:
                return
            lead = len(self.blocks) - self.decoded.count
            ready = [p for p in wanted
                     if (p != "cli" or self.decoded.count >= cli_blocks)
                     and (p != "encode" or lead < cli_blocks)]
            phase = min(ready or ["decode"], key=lambda p: spent[p] / shares[p])
            if phase == "decode" and self.decoded.count >= len(self.blocks):
                phase = "encode"
            begin = perf_counter_ns()
            units[phase]()
            spent[phase] += perf_counter_ns() - begin

    # -- encode -------------------------------------------------------------

    def encode_one(self) -> None:
        """Encode the next seeded message and spot-check the codeword."""
        run, recorder = self.run, self.recorder
        wl = run.workload
        draw = next(self.stream)
        span = None
        if recorder is not None:
            recorder.block_id = draw.index
            span = recorder.open("codec.encode")
        start = perf_counter_ns()
        try:
            codeword = encode(run.params, draw.message)
        except Exception as exc:  # a raising encode is a failed operation
            codeword = exc
        finally:
            if span is not None:
                recorder.close(span)
        elapsed = perf_counter_ns() - start
        positions = self.spot.sample(range(wl.n), SPOT_CHECKS)
        ok = (isinstance(codeword, tuple) and len(codeword) == wl.n
              and all(codeword[i] == run.ref.evaluate_at_alpha_pow(
                  draw.message, i) for i in positions))
        run.tally.record(ok, lambda: f"encode block {draw.index}: "
                                     f"{codeword!r:.80}")
        if ok:
            self.encode_ns.append(elapsed)
            self.encode_ls.append(draw.l)
            self.blocks.append(Block(draw, codeword, draw.received(codeword)))

    # -- decode -------------------------------------------------------------

    def _check(self, block: Block, alg: str, result, reference) -> bool:
        """One decoder's result against the bounded-distance contract."""
        draw = block.draw
        if isinstance(result, Exception):
            return False
        if draw.within_radius:
            if result.message != draw.message:
                return False
        elif result.ok:
            distance = self.run.ref.distance_to_codeword(
                result.message, block.received, draw.erasures)
            if distance > self.run.workload.radius(draw.l):
                return False
        return alg == "suggested" or result == reference

    def decode_one(self) -> None:
        """Decode the next received word with every applicable decoder."""
        run, recorder, out = self.run, self.recorder, self.decoded
        block = self.blocks[out.count]
        draw = block.draw
        if recorder is not None:
            recorder.block_id = draw.index
        runs = [(alg, decoder, True) for alg, decoder in DECODERS.items()]
        if draw.l == 0:
            runs.append(("errors_only", decode_errors_only, False))
        reference = None
        for alg, decoder, erasure_aware in runs:
            probe = span = None
            if recorder is not None:
                probe = TimingProbe(recorder, alg)
                span = recorder.open(f"codec.decode_{alg}")
            start = perf_counter_ns()
            try:
                if erasure_aware:
                    result = decoder(
                        run.params, ReceivedWord(block.received, draw.erasures),
                        counter=probe)
                else:
                    result = decoder(run.params, block.received, counter=probe)
            except Exception as exc:  # counted below as a failed decode
                result = exc
            finally:
                if span is not None:
                    recorder.close(span)
            out.times[alg].append(perf_counter_ns() - start)
            if probe is not None:
                out.iterations[alg].append(probe.iterations)
            if alg == "suggested":
                reference = result
            ok = self._check(block, alg, result, reference)
            run.tally.record(ok, lambda: f"{alg} block {draw.index}: "
                                         f"{result!r:.120}")
        # Only the CLI blocks are kept, so memory does not grow with the
        # number of blocks a run gets through.
        if out.count < run.workload.cli_blocks:
            out.suggested.append(reference)
        else:
            self.blocks[out.count] = None
        out.ls.append(draw.l)

    # -- CLI ----------------------------------------------------------------

    def cli_one(self) -> None:
        """One rep: ``rscodec encode`` and ``rscodec decode`` on files of
        the first cli_blocks blocks, whose library results are known."""
        self.cli_encode_s.append(self.cli_encode())
        self.cli_decode_s.append(self.cli_decode())

    def cli_encode(self) -> float:
        """Time one ``rscodec encode``; check it against library encode."""
        run, blocks = self.run, self.blocks
        wl = run.workload
        window = range(wl.cli_blocks)
        src, dst = run.workdir / "messages.txt", run.workdir / "encoded.txt"
        src.write_text("".join(message_line(blocks[j].draw.message)
                               for j in window))
        wall, proc = run.cli("encode", "--m", str(wl.m), "--k", str(wl.k),
                             "--in", str(src), "--out", str(dst))
        lines = dst.read_text().splitlines(keepends=True) if dst.exists() else []
        whole = (proc.returncode == 0 and len(lines) == len(window) + 1
                 and lines[0] == header_line(wl, run.params.field.prim_poly))
        for row, j in enumerate(window, start=1):
            ok = whole and lines[row] == block_line(blocks[j].codeword)
            run.tally.record(ok, lambda: f"cli encode block {j}: exit "
                                         f"{proc.returncode} {proc.stderr:.120}")
        return wall

    def cli_decode(self) -> float:
        """Time one ``rscodec decode``; map its output back to blocks."""
        run, blocks = self.run, self.blocks
        wl = run.workload
        window = range(wl.cli_blocks)
        src, dst = run.workdir / "received.txt", run.workdir / "decoded.txt"
        src.write_text(header_line(wl, run.params.field.prim_poly) + "".join(
            block_line(blocks[j].received, blocks[j].draw.erasures)
            for j in window))
        wall, proc = run.cli("decode", "--in", str(src), "--out", str(dst))
        lines = iter(dst.read_text().splitlines(keepends=True)
                     if dst.exists() else ())
        failures = {}
        for line in proc.stderr.splitlines():
            match = CLI_FAILURE.fullmatch(line)
            if match:
                failures[int(match[1])] = match[2]
        expected = self.decoded.suggested
        status_ok = proc.returncode == (
            0 if all(r.ok for r in expected) else 1)
        for row, result in enumerate(expected):
            if result.ok:
                ok = (row not in failures
                      and next(lines, None) == message_line(result.message))
            else:
                ok = failures.get(row) == result.cause.value
            run.tally.record(status_ok and ok, lambda: (
                f"cli decode row {row}: exit {proc.returncode} "
                f"{proc.stderr:.120}"))
        run.tally.record(next(lines, None) is None, "cli decode: extra output")
        return wall

    # -- bench --------------------------------------------------------------

    def bench_one(self) -> None:
        """One single-trial bench() call at the largest l, t at the radius."""
        run = self.run
        wl = run.workload
        l = wl.bench_l
        trial_seed = self.bench_rng.getrandbits(32)
        start = perf_counter_ns()
        try:
            report = bench(run.params, 1, l=l, t=wl.radius(l),
                           seed=trial_seed, strict=False)
        except Exception as exc:  # counted as a failed trial
            report = exc
        self.bench_ns.append(perf_counter_ns() - start)
        ok = (not isinstance(report, Exception) and report.claim_holds
              and all(report.agreements))
        run.tally.record(ok, lambda: f"bench seed {trial_seed}: "
                                     f"{report!r:.120}")


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def rate(count: int, total_ns) -> float:
    return count * 1e9 / total_ns


def sliced_median(times_ns: list[int], slices: int = P50_SLICES) -> float:
    """Mean over equal consecutive slices of the run of each slice's median.

    The shared host's speed changes in spells of seconds, so a pooled
    median jumps between the fast and the slow spell depending on which
    covers more than half of a run; the mean of slice medians moves
    smoothly with the share of each, like a throughput does.
    """
    size = len(times_ns) // slices
    return statistics.fmean(median(times_ns[i * size:(i + 1) * size])
                            for i in range(slices))


def untraced_run(run: Run, seconds: float):
    """End-to-end metrics (value, sample count) and the per-l table."""
    wl = run.workload
    setup = run.setup_phase()
    loop = Pass(run)
    loop.schedule(spec.PHASE_SHARES, seconds, {
        "encode": spec.MIN_DECODED, "decode": spec.MIN_DECODED,
        "cli": spec.MIN_CLI_REPS, "bench": spec.MIN_BENCH_TRIALS})
    decoded = loop.decoded
    sug = decoded.times["suggested"]
    cli_blocks = wl.cli_blocks * len(loop.cli_decode_s)
    metrics = {
        "setup_s": (median(setup), len(setup)),
        "encode_blocks_per_s": (rate(len(loop.encode_ns), sum(loop.encode_ns)),
                                len(loop.encode_ns)),
        **{f"decode_{alg}_blocks_per_s": (
            rate(len(decoded.times[alg]), sum(decoded.times[alg])),
            len(decoded.times[alg])) for alg in spec.ALGS},
        "decode_suggested_p50_ms": (sliced_median(sug) / 1e6, len(sug)),
        "decode_suggested_p90_ms": (
            statistics.quantiles(sug, n=10)[8] / 1e6, len(sug)),
        "cli_encode_blocks_per_s": (cli_blocks / sum(loop.cli_encode_s),
                                    len(loop.cli_encode_s)),
        "cli_decode_blocks_per_s": (cli_blocks / sum(loop.cli_decode_s),
                                    len(loop.cli_decode_s)),
        "bench_trials_per_s": (rate(len(loop.bench_ns), sum(loop.bench_ns)),
                               len(loop.bench_ns)),
        "peak_rss_mb": (peak_rss_mb(), 1),
    }
    return metrics, latency_table(wl, loop)


def latency_table(wl: spec.Workload, loop: Pass):
    """Median ms per block for each l: encode and each decoder."""
    decoded = loop.decoded
    rows = []
    for l in wl.erasure_cycle:
        enc = [t for bl, t in zip(loop.encode_ls, loop.encode_ns) if bl == l]
        row = {"l": l, "t": wl.radius(l), "encode": median(enc) / 1e6}
        for alg in spec.ERASURE_ALGS:
            row[alg] = median([t for bl, t in zip(decoded.ls, decoded.times[alg])
                               if bl == l]) / 1e6
        row["errors_only"] = (median(decoded.times["errors_only"]) / 1e6
                              if l == 0 else None)
        rows.append(row)
    return rows


# -- traced run -------------------------------------------------------------

def _per_call(fn, min_sample_ns: int = 20_000_000, samples: int = 7) -> float:
    """Median ns per call of fn over samples of at least min_sample_ns."""
    calls = 1
    while True:
        start = perf_counter_ns()
        for _ in range(calls):
            fn()
        elapsed = perf_counter_ns() - start
        if elapsed >= min_sample_ns:
            break
        calls *= 2
    per_call = [elapsed / calls]
    for _ in range(samples - 1):
        start = perf_counter_ns()
        for _ in range(calls):
            fn()
        per_call.append((perf_counter_ns() - start) / calls)
    return median(per_call)


def kernel_metrics(run: Run) -> dict[str, float]:
    """Microbenchmarks on fixed seeded operands at the workload's m."""
    wl, field = run.workload, run.params.field
    rng = rng_for(wl, run.seed, "kernels")
    order, n, k = field.order, wl.n, wl.k
    pairs = [(rng.randrange(1, order), rng.randrange(1, order))
             for _ in range(4096)]
    mul = field.mul

    def mul_loop():
        for a, b in pairs:
            mul(a, b)

    def coeffs(count):
        return [rng.randrange(order) for _ in range(count - 1)] + [
            rng.randrange(1, order)]

    full = Poly(field, coeffs(n))            # degree n - 1, like a spectrum
    divisor = Poly(field, coeffs(n - k + 1))  # degree d - 1, like a modulus
    message = Poly(field, coeffs(k))
    values = tuple(rng.randrange(order) for _ in range(n))
    point = field.alpha_pow(rng.randrange(n))
    return {
        "galois.mul_ns": _per_call(mul_loop) / len(pairs),
        "galois.field_build_ms": _per_call(lambda: Field(wl.m)) / 1e6,
        "kernel.poly_evaluate_us": _per_call(lambda: full.evaluate(point)) / 1e3,
        "kernel.divmod_us": _per_call(lambda: divmod(full, divisor)) / 1e3,
        "kernel.evaluate_all_us": _per_call(
            lambda: evaluate_all(message, n)) / 1e3,
        "kernel.interpolate_all_us": _per_call(
            lambda: interpolate_all(field, values)) / 1e3,
    }


def count_record(run: Run) -> dict[str, float]:
    """bench() op counts per trial on fixed trials, so they repeat exactly."""
    wl = run.workload
    l = wl.bench_l
    report = bench(run.params, spec.COUNT_RECORD_TRIALS, l=l, t=wl.radius(l),
                   seed=spec.COUNT_RECORD_SEED, strict=False)
    trials = report.trials
    metrics = {}
    for alg in spec.ERASURE_ALGS:
        steps = report.mean_steps[alg].values()
        metrics[f"bench.{alg}.mults_per_trial"] = (
            sum(report.trial_mults[alg]) / trials)
        metrics[f"bench.{alg}.invs_per_trial"] = sum(s.invs for s in steps)
        metrics[f"bench.{alg}.iterations_per_trial"] = (
            sum(report.trial_iterations[alg]) / trials)
    violations = len(report.mult_violations) + len(report.iteration_violations)
    metrics["bench.claim_violations"] = violations
    run.tally.record(violations == 0 and all(report.agreements),
                     "count record: claim violated or pipelines disagree")
    return metrics


def io_metrics(run: Run, sample: list[Block]) -> dict[str, float]:
    """channel.corrupt and blockio per block, on the sample blocks."""
    wl, params = run.workload, run.params
    rng = rng_for(wl, run.seed, "channel")
    specs = [ChannelSpec(t=len(b.draw.errors), l=b.draw.l,
                         seed=rng.getrandbits(32)) for b in sample]
    words = [ReceivedWord(b.received, b.draw.erasures) for b in sample]
    text = header_line(wl, params.field.prim_poly) + "".join(
        block_line(w.symbols, w.erasures) for w in words)

    def corrupt_all():
        for b, s in zip(sample, specs):
            corrupt(params, b.codeword, s)

    def write_all():
        out = io.StringIO()
        for w in words:
            blockio.write_block(out, w.symbols, w.erasures)

    parsed = blockio.read_blocks(io.StringIO(text))[1]
    run.tally.record(parsed == words, "blockio.read_blocks: parse mismatch")
    per = len(sample)
    return {
        "channel.corrupt_us": _per_call(corrupt_all) / per / 1e3,
        "blockio.write_block_us": _per_call(write_all) / per / 1e3,
        "blockio.read_blocks_us": _per_call(
            lambda: blockio.read_blocks(io.StringIO(text))) / per / 1e3,
    }


def traced_run(run: Run, seconds: float, spans_path: Path):
    """Per-layer metrics and the step accounting; spans go to spans_path.

    The first cli_blocks blocks give the ratios: each is decoded plain,
    with the counting field and traced, back to back.
    """
    wl, params = run.workload, run.params
    start = perf_counter_ns()
    metrics = kernel_metrics(run)
    metrics.update(count_record(run))

    size = wl.cli_blocks
    recorder = SpanRecorder()
    sample, traced = Pass(run), Pass(run, recorder)
    counted = []
    # Back to back, so the ratios compare the same words in the same spell
    # of the shared host.
    for _ in range(size):
        sample.encode_one()
        if sample.decoded.count == len(sample.blocks):
            continue  # encode failed its check; already counted
        sample.decode_one()
        block = sample.blocks[-1]
        counter = OpCounter()
        cparams = CodeParams(CountingField(params.field, counter), params.k)
        t0 = perf_counter_ns()
        decode_suggested(cparams, ReceivedWord(block.received,
                                               block.draw.erasures),
                         counter=counter)
        counted.append(perf_counter_ns() - t0)
        with wrappers_installed(recorder):
            traced.encode_one()
            traced.decode_one()
    plain = sample.decoded
    plain_sug = sum(plain.times["suggested"])
    metrics["counters.overhead_x"] = sum(counted) / plain_sug
    metrics.update(io_metrics(run, sample.blocks))

    cli_walls = [sample.cli_decode() for _ in range(3)]
    metrics["cli.overhead_us"] = (
        median(cli_walls) * 1e9 - plain_sug) / size / 1e3

    # The rest of the run, but no longer than TRACE_MAX_BLOCKS blocks take,
    # so that the spans held and written stay bounded on short blocks.
    block_ns = (sum(traced.encode_ns) + sum(
        map(sum, traced.decoded.times.values()))) / traced.decoded.count
    remaining = max(0, min(seconds - (perf_counter_ns() - start) / 1e9,
                           spec.TRACE_MAX_BLOCKS * block_ns / 1e9))
    with wrappers_installed(recorder):
        traced.schedule(spec.TRACE_SHARES, remaining, {})
    recorder.write(spans_path)

    metrics.update(layer_metrics(recorder, traced.decoded))
    metrics["trace.overhead_ratio"] = sum(
        traced.decoded.times["suggested"][:size]) / plain_sug
    return metrics, step_accounting(recorder, plain, traced.decoded, size)


def layer_metrics(recorder: SpanRecorder, traced: Decoded) -> dict[str, float]:
    spans = recorder.durations()
    metrics = {}
    for alg in spec.ALGS:
        for step in ("0", "1", "2a", "2b", "3"):
            name = f"codec.{alg}.step{step}"
            if name in spans:
                metrics[name + "_us"] = median(spans[name][0]) / 1e3
        metrics[f"codec.{alg}.iterations"] = statistics.fmean(
            traced.iterations[alg])
    for name in ("spectral.interpolate_all", "spectral.evaluate_all",
                 "spectral.interpolate_subset", "spectral.cyclotomic_quotient",
                 "key_equation.solve"):
        metrics[name + "_us"] = median(spans[name][0]) / 1e3
    for name in ("polynomial.divmod", "polynomial.mul", "polynomial.evaluate"):
        metrics[name + "_us"] = statistics.fmean(spans[name][1]) / 1e3
    metrics["key_equation.iterations_per_solve"] = sum(
        sum(v) for v in traced.iterations.values()) / len(
            spans["key_equation.solve"][0])
    return metrics


def step_accounting(recorder: SpanRecorder, plain: Decoded, traced: Decoded,
                    size: int) -> dict[str, tuple[float, float, float]]:
    """Per decoder, over the sample blocks decoded both ways: untraced ms
    per block, traced ms per block, and step-span ms per block."""
    step_ns = dict.fromkeys(spec.ALGS, 0)
    for nid, block, begin, end in zip(recorder.name, recorder.block,
                                      recorder.start, recorder.end):
        alg, _, step = recorder.names[nid].removeprefix("codec.").partition(
            ".step")
        if step and block < size:
            step_ns[alg] += end - begin
    out = {}
    for alg in spec.ALGS:
        calls = len(plain.times[alg])
        out[alg] = (sum(plain.times[alg]) / calls / 1e6,
                    sum(traced.times[alg][:calls]) / calls / 1e6,
                    step_ns[alg] / calls / 1e6)
    return out
