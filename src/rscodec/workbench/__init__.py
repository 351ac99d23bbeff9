"""Workbench around the codec: channel simulation, instrumented operation
counting, benchmarks, and the CLI."""

from .bench import (ComplexityClaimError, OpCountReport, StepCounts, bench,
                    format_report, write_csv)
from .channel import ChannelSpec, corrupt
from .counters import CountingField, OpCounter

__all__ = [
    "ChannelSpec",
    "ComplexityClaimError",
    "CountingField",
    "OpCounter",
    "OpCountReport",
    "StepCounts",
    "bench",
    "corrupt",
    "format_report",
    "write_csv",
]
