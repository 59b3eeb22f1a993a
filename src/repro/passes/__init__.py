"""Composable, instrumented compile-pipeline passes.

The :class:`PassManager` runs an ordered list of :class:`Pass` stages and
records per-pass wall time, rewrite counts and node counts into a
:class:`CompileStats`.  The concrete pipeline stages live next to the
machinery they wrap:

* :class:`repro.lifting.canonicalize.CanonicalizePass`
* :class:`repro.lifting.lifter.LiftPass`
* :class:`repro.machine.lowerer.LowerPass`

and :mod:`repro.pipeline` composes them into PITCHFORK's online path.
"""

from .manager import (
    CompileStats,
    Pass,
    PassContext,
    PassManager,
    PassStats,
    PassVerificationError,
)

__all__ = [
    "Pass",
    "PassContext",
    "PassManager",
    "PassStats",
    "CompileStats",
    "PassVerificationError",
]
