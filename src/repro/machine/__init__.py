"""Machine layer: lowering, simulation, baselines."""

from .._lazy import lazy_exports
from .lowerer import Lowerer, LoweringError
from .program import AsmLine, format_assembly, linearize
from .simulator import (
    CostBreakdown,
    cost_cycles,
    instruction_count,
    simulate,
)

#: the LLVM baseline loads on first access: a PITCHFORK compile never
#: runs it
__getattr__, __dir__ = lazy_exports(globals(), {
    "llvm_baseline": ".llvm_baseline",
    "LLVMBaseline": ".llvm_baseline",
    "LLVMCompileError": ".llvm_baseline",
})

__all__ = [
    "AsmLine",
    "CostBreakdown",
    "LLVMBaseline",
    "LLVMCompileError",
    "Lowerer",
    "LoweringError",
    "cost_cycles",
    "format_assembly",
    "instruction_count",
    "linearize",
    "simulate",
]
