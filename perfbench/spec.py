"""What the benchmark runs and reports: workloads, metrics and BENCHMARK.json.

This module is the single source of truth for BENCHMARK.json at the root
of the repository; ``python3 perfbench/run.py --write-benchmark-json``
regenerates it from the definitions below.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

RUN_SECONDS = 35

# Share of the run each phase gets.  Phases are interleaved unit by unit
# (see measure.Schedule), so every metric samples the whole run and a slow
# spell of the shared host is spread over all of them.  A phase also runs
# until it has its minimum sample count, so a slow machine stretches the
# run rather than thinning the statistics.
PHASE_SHARES = {"encode": 0.10, "decode": 0.50, "cli": 0.25, "bench": 0.15}
TRACE_SHARES = {"encode": 0.15, "decode": 0.85}
TRACE_MAX_BLOCKS = 1000

SETUP_SPAWNS = 9        # fresh interpreters timed for setup_s
MIN_DECODED = 100       # p90 needs at least 100 decoded blocks per run
MIN_CLI_REPS = 5
MIN_BENCH_TRIALS = 5
COUNT_RECORD_SEED = 0   # fixed: the op-count record must repeat exactly
COUNT_RECORD_TRIALS = 4


@dataclass(frozen=True)
class Workload:
    """One code, one erasure/error mix, one closed loop with a single client.

    Block i carries l = erasure_cycle[i % len(erasure_cycle)] erasures and
    t = (d - 1 - l) // 2 errors, the decoding radius.  When past_radius_every
    is nonzero, every block whose index is past_radius_every - 1 modulo it
    gets one error more than the radius.
    """

    name: str
    m: int
    k: int
    erasure_cycle: tuple[int, ...]
    past_radius_every: int
    cli_blocks: int   # blocks per CLI block file, a multiple of period
    why: str

    @property
    def n(self) -> int:
        return (1 << self.m) - 1

    @property
    def d(self) -> int:
        return self.n - self.k + 1

    def radius(self, l: int) -> int:
        return (self.d - 1 - l) // 2

    @property
    def period(self) -> int:
        """Blocks after which the l and past-radius pattern repeats."""
        return math.lcm(len(self.erasure_cycle), self.past_radius_every or 1)

    @property
    def bench_l(self) -> int:
        return max(self.erasure_cycle)


WORKLOADS = {w.name: w for w in (
    Workload(
        name="rs255-hi", m=8, k=223, erasure_cycle=(0, 8, 16),
        past_radius_every=0, cli_blocks=30,
        why="RS(255,223) GF(2^8), l cycles 0/8/16 with t at the radius; "
            "closed loop, 1 client. Deployed size: interpolation dominates "
            "decode, so transform kernels show here."),
    Workload(
        name="rs255-lo", m=8, k=127, erasure_cycle=(0, 32, 64),
        past_radius_every=0, cli_blocks=30,
        why="RS(255,127), l cycles 0/32/64 with t at the radius; closed "
            "loop, 1 client. About 64 Euclid iterations: key-equation and "
            "divmod gains show apart from transform gains."),
    Workload(
        name="rs15-small", m=4, k=7, erasure_cycle=(0, 2, 4),
        past_radius_every=10, cli_blocks=600,
        why="RS(15,7) GF(2^4), thousands of blocks, l cycles 0/2/4 at the "
            "radius, 1 in 10 one error past it; closed loop, 1 client. "
            "Fixed per-call and CLI costs dominate."),
)}

ERASURE_ALGS = ("suggested", "truong", "gao")
ALGS = ERASURE_ALGS + ("errors_only",)


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    bound: float | None = None   # end-to-end metrics only


END_TO_END = (
    Metric("setup_s", "s", "lower", 0.25),
    Metric("encode_blocks_per_s", "1/s", "higher", 0.25),
    *(Metric(f"decode_{alg}_blocks_per_s", "1/s", "higher", 0.25)
      for alg in ALGS),
    Metric("decode_suggested_p50_ms", "ms", "lower", 0.25),
    Metric("decode_suggested_p90_ms", "ms", "lower", 0.25),
    Metric("cli_encode_blocks_per_s", "1/s", "higher", 0.25),
    Metric("cli_decode_blocks_per_s", "1/s", "higher", 0.25),
    Metric("bench_trials_per_s", "1/s", "higher", 0.25),
    Metric("peak_rss_mb", "MB", "lower", 0.1),
)

_STEPS = ("0", "1", "2a", "2b", "3")

PER_LAYER = (
    *(Metric(f"codec.{alg}.step{step}_us", "us", "lower")
      for alg in ALGS for step in _STEPS
      if not (alg == "errors_only" and step == "0")),
    *(Metric(f"codec.{alg}.iterations", "count", "lower") for alg in ALGS),
    Metric("spectral.interpolate_all_us", "us", "lower"),
    Metric("spectral.evaluate_all_us", "us", "lower"),
    Metric("spectral.interpolate_subset_us", "us", "lower"),
    Metric("spectral.cyclotomic_quotient_us", "us", "lower"),
    Metric("key_equation.solve_us", "us", "lower"),
    Metric("key_equation.iterations_per_solve", "count", "lower"),
    Metric("polynomial.divmod_us", "us", "lower"),
    Metric("polynomial.mul_us", "us", "lower"),
    Metric("polynomial.evaluate_us", "us", "lower"),
    Metric("galois.mul_ns", "ns", "lower"),
    Metric("galois.field_build_ms", "ms", "lower"),
    Metric("kernel.poly_evaluate_us", "us", "lower"),
    Metric("kernel.divmod_us", "us", "lower"),
    Metric("kernel.evaluate_all_us", "us", "lower"),
    Metric("kernel.interpolate_all_us", "us", "lower"),
    *(Metric(f"bench.{alg}.{count}_per_trial", "count", "lower")
      for alg in ERASURE_ALGS for count in ("mults", "invs", "iterations")),
    Metric("bench.claim_violations", "count", "lower"),
    Metric("counters.overhead_x", "ratio", "lower"),
    Metric("blockio.read_blocks_us", "us", "lower"),
    Metric("blockio.write_block_us", "us", "lower"),
    Metric("cli.overhead_us", "us", "lower"),
    Metric("channel.corrupt_us", "us", "lower"),
    Metric("trace.overhead_ratio", "ratio", "lower"),
)


def benchmark_json() -> str:
    """The text of BENCHMARK.json."""
    doc = {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why}
                      for w in WORKLOADS.values()],
        "end_to_end": [{"name": m.name, "unit": m.unit, "better": m.better,
                        "bound": m.bound} for m in END_TO_END],
        "per_layer": [{"name": m.name, "unit": m.unit, "better": m.better}
                      for m in PER_LAYER],
    }
    return json.dumps(doc, indent=2) + "\n"
