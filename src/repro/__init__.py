"""repro — a from-scratch reproduction of PITCHFORK (ASPLOS 2023).

PITCHFORK is a two-phase instruction selector for fixed-point digital
signal processing: portable integer expressions are *lifted* into a
fixed-point IR (FPIR) by a target-agnostic term-rewriting system, then
*lowered* into target-specific instructions (x86 AVX2 / ARM Neon / Hexagon
HVX) by per-target term-rewriting systems.

Quickstart::

    from repro import pitchfork_compile, targets
    from repro.workloads import by_name

    wl = by_name("sobel3x3")
    program = pitchfork_compile(wl.expr, targets.ARM)
    print(program.assembly())      # Figure 3-style listing
    print(program.cost().total)    # modelled cycles per vector

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-figure reproductions.
"""

import importlib

from ._lazy import lazy_exports

__version__ = "1.0.0"

#: ``import repro`` loads only this package shell: each subpackage and
#: the pipeline names are imported on first access, so a cold
#: ``python -m repro compile`` loads the selector and not the fabric,
#: the verifier or the report machinery
_SUBPACKAGES = (
    "analysis", "fabric", "fpir", "interp", "ir", "lifting", "machine",
    "observe", "passes", "pipeline", "targets", "trs", "verify",
)
__getattr__, __dir__ = lazy_exports(globals(), {
    **{name: "." + name for name in _SUBPACKAGES},
    **{name: ".pipeline" for name in (
        "CompiledProgram",
        "LLVMCompileError",
        "PitchforkCompiler",
        "llvm_compile",
        "pitchfork_compile",
        "rake_compile",
    )},
})


def _import_all() -> None:
    """Import every subpackage above and every name in its ``__all__``.

    A long-lived process that forks workers (the ``serve`` daemon, a
    ``--jobs`` pool) calls this first, so the workers inherit these
    modules instead of each importing them on first use.
    """
    for name in _SUBPACKAGES:
        package = importlib.import_module("." + name, __name__)
        for attr in getattr(package, "__all__", ()):
            getattr(package, attr)


__all__ = [
    "CompiledProgram",
    "LLVMCompileError",
    "PitchforkCompiler",
    "llvm_compile",
    "pitchfork_compile",
    "rake_compile",
    "analysis",
    "fpir",
    "interp",
    "ir",
    "lifting",
    "machine",
    "targets",
    "trs",
    "verify",
    "__version__",
]
