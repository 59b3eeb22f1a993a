"""Target ISA modelling: instruction specs and target-instruction IR nodes.

A :class:`TargetDesc` describes one backend (register width, name); an
:class:`InstrSpec` describes one instruction: its mnemonic, its reciprocal
throughput (from the vendor optimization guides the paper cites — Intel's
intrinsics guide, the ARM ARM, Qualcomm's HVX PRM), and its *executable
semantics* — a builder that reconstructs the instruction's meaning as a
core-IR/FPIR expression over its operands.

Executable semantics close the loop the paper leaves as future work
("Verified Lowering Systems", §6): because every target instruction can be
run, tests check ``simulate(lower(lift(e))) == interpret(e)`` end-to-end.

Lowered programs are trees of :class:`TargetOp` nodes (arity-specialized so
the TRS matcher/instantiator handles them like any other node).  The
throughput cost model lives in :mod:`repro.machine.simulator`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple, Union

from ..ir.expr import EXACT_FIELD_TYPES, Expr
from ..ir.types import ScalarType

__all__ = [
    "TargetDesc",
    "InstrSpec",
    "TargetOp",
    "TargetOp1",
    "TargetOp2",
    "TargetOp3",
    "TargetOp4",
    "target_op",
    "is_lowered",
]


@dataclass(frozen=True)
class TargetDesc:
    """One backend."""

    name: str
    register_bits: int
    #: element widths the ISA supports natively
    max_elem_bits: int = 64
    #: natural vectorization width chosen by the Halide schedules in §5
    #: (register_bits / 8: one register of bytes)
    @property
    def natural_lanes(self) -> int:
        return self.register_bits // 8


@dataclass(frozen=True)
class InstrSpec:
    """One target instruction.

    ``semantics`` maps operand expressions to a reference expression (core
    IR + FPIR) defining exactly what the instruction computes per lane.
    ``cost`` is reciprocal throughput in cycles for one issue of the
    instruction at its natural width.  ``elem_bits`` overrides the element
    width used for the ceil(L/native_lanes) throughput computation when it
    differs from the output type (e.g. narrowing packs work at the input
    width).
    """

    name: str
    isa: str
    cost: float
    semantics: Callable[..., Expr] = field(compare=False)
    elem_bits: Optional[int] = None
    #: True for data-movement instructions (packs, shuffles, interleaves)
    #: whose cost a swizzle co-optimizer (Rake, §5.3.2/§6) can largely
    #: eliminate by restructuring layouts.
    swizzle: bool = False

    def __repr__(self) -> str:  # pragma: no cover
        return f"<{self.isa}:{self.name}>"


# Equal specs are interchangeable operands of a TargetOp constructor
# (``semantics`` is excluded from equality and never read at build time).
EXACT_FIELD_TYPES.add(InstrSpec)


class TargetOp(Expr):
    """Base for lowered instruction nodes; subclasses fix the arity."""

    __slots__ = ()
    spec: InstrSpec
    out: Union[ScalarType, object]

    @property
    def type(self):
        return self.out

    @property
    def operands(self) -> Tuple[Expr, ...]:
        return self.children

    def reference_semantics(self) -> Expr:
        """The instruction's meaning over its actual operands."""
        return self.spec.semantics(*self.operands)


class TargetOp1(TargetOp):
    """A lowered instruction with 1 operand(s)."""

    __slots__ = ("spec", "out", "a")
    _fields = ("spec", "out", "a")

    def __init__(self, spec: InstrSpec, out, a: Expr):
        object.__setattr__(self, "spec", spec)
        object.__setattr__(self, "out", out)
        object.__setattr__(self, "a", a)


class TargetOp2(TargetOp):
    """A lowered instruction with 2 operand(s)."""

    __slots__ = ("spec", "out", "a", "b")
    _fields = ("spec", "out", "a", "b")

    def __init__(self, spec: InstrSpec, out, a: Expr, b: Expr):
        object.__setattr__(self, "spec", spec)
        object.__setattr__(self, "out", out)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)


class TargetOp3(TargetOp):
    """A lowered instruction with 3 operand(s)."""

    __slots__ = ("spec", "out", "a", "b", "c")
    _fields = ("spec", "out", "a", "b", "c")

    def __init__(self, spec: InstrSpec, out, a: Expr, b: Expr, c: Expr):
        object.__setattr__(self, "spec", spec)
        object.__setattr__(self, "out", out)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)


class TargetOp4(TargetOp):
    """A lowered instruction with 4 operand(s)."""

    __slots__ = ("spec", "out", "a", "b", "c", "d")
    _fields = ("spec", "out", "a", "b", "c", "d")

    def __init__(
        self, spec: InstrSpec, out, a: Expr, b: Expr, c: Expr, d: Expr
    ):
        object.__setattr__(self, "spec", spec)
        object.__setattr__(self, "out", out)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "d", d)


class TargetOp5(TargetOp):
    """A lowered instruction with 5 operand(s)."""

    __slots__ = ("spec", "out", "a", "b", "c", "d", "e")
    _fields = ("spec", "out", "a", "b", "c", "d", "e")

    def __init__(
        self, spec: InstrSpec, out, a: Expr, b: Expr, c: Expr, d: Expr,
        e: Expr,
    ):
        object.__setattr__(self, "spec", spec)
        object.__setattr__(self, "out", out)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "e", e)


_ARITY = {1: TargetOp1, 2: TargetOp2, 3: TargetOp3, 4: TargetOp4, 5: TargetOp5}


def target_op(spec: InstrSpec, out, *args: Expr) -> TargetOp:
    """Build a TargetOp of the right arity."""
    try:
        cls = _ARITY[len(args)]
    except KeyError:
        raise ValueError(
            f"unsupported instruction arity {len(args)} for {spec.name}"
        ) from None
    return cls(spec, out, *args)


def is_lowered(expr: Expr) -> bool:
    """True if the tree contains only target ops, constants and inputs."""
    from ..ir.expr import Const, Var

    return all(
        isinstance(n, (TargetOp, Const, Var)) for n in expr.walk()
    )


# -- printing ----------------------------------------------------------
def _install_printers() -> None:
    from ..ir.printer import register_printer, to_string

    def _render(e: TargetOp) -> str:
        args = ", ".join(to_string(c) for c in e.children)
        return f"{e.spec.name}({args})"

    for cls in _ARITY.values():
        register_printer(cls, _render)


_install_printers()
