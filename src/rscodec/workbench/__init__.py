"""Workbench around the codec: channel simulation, instrumented operation
counting, benchmarks, and the CLI.

The exported names load their submodule on first access (PEP 562), so
the CLI's encode and decode never import channel or counters.  No
submodule shares a name with an export, so importing bench from this
package gives the function whichever import ran first.
"""

import importlib

# the submodule that defines each exported name
_HOMES = {
    "ChannelSpec": "channel",
    "ComplexityClaimError": "counters",
    "CountingField": "counters",
    "OpCounter": "counters",
    "OpCountReport": "counters",
    "StepCounts": "counters",
    "bench": "counters",
    "corrupt": "channel",
    "format_report": "counters",
    "write_csv": "counters",
}

__all__ = list(_HOMES)


def __getattr__(name: str):
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{home}"), name)
    globals()[name] = value
    return value
