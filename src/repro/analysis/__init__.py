"""Compile-time analyses: interval (bounds) inference for predicated
rules, plus lattice-parametric dataflow over linearized machine programs
(:mod:`repro.analysis.dataflow`: liveness, reaching definitions,
def-use chains, register pressure)."""

from .._lazy import lazy_exports
from .intervals import BoundsAnalyzer, BoundsContext, Interval

#: the dataflow names load :mod:`.dataflow` on first access: the
#: selector queries only intervals
_DATAFLOW = (
    "DataflowAnalysis",
    "MachineProgram",
    "PressureReport",
    "def_use_chains",
    "liveness",
    "reaching_definitions",
    "register_pressure",
    "solve",
)
__getattr__, __dir__ = lazy_exports(globals(), {
    "dataflow": ".dataflow",
    **{name: ".dataflow" for name in _DATAFLOW},
})

__all__ = ["BoundsAnalyzer", "BoundsContext", "Interval", *_DATAFLOW]
