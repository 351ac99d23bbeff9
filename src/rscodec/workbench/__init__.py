"""Workbench around the codec: channel simulation, instrumented operation
counting, benchmarks, and the CLI.

The exported names load their submodule on first access (PEP 562), so
the CLI's encode and decode never import bench, channel or counters.
"""

import importlib
import sys
from types import ModuleType

# the submodule that defines each exported name
_HOMES = {
    "ChannelSpec": "channel",
    "ComplexityClaimError": "bench",
    "CountingField": "counters",
    "OpCounter": "counters",
    "OpCountReport": "bench",
    "StepCounts": "bench",
    "bench": "bench",
    "corrupt": "channel",
    "format_report": "bench",
    "write_csv": "bench",
}

__all__ = list(_HOMES)


def __getattr__(name: str):
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{home}"), name)
    globals()[name] = value
    return value


class _Package(ModuleType):
    """This package's module type.

    Loading a submodule binds it to its package as an attribute, after
    the submodule ran.  The bench submodule would then hide the bench
    function under the same name, whichever import loaded it first.
    """

    def __setattr__(self, name: str, value: object) -> None:
        if name == "bench" and isinstance(value, ModuleType):
            value = value.bench
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
