"""Core vector-IR expression nodes.

This is the fragment of Halide IR that PITCHFORK consumes: already-vectorized
integer expressions built from primitive arithmetic, comparisons, selects and
casts.  Every node is immutable and hash-consed: constructing a node returns
the canonical instance for its structure, so structurally-equal expressions
are reference-equal and the term-rewriting engine detects fixed points, hits
memo caches, and value-numbers programs in O(1) per node.

Semantics follow Halide's documented integer semantics:

* all arithmetic wraps (two's complement) at the element type's width;
* division rounds toward negative infinity and ``x / 0 == 0``;
* ``x % 0 == 0`` and otherwise ``x % y`` has the sign of ``y`` (Euclidean);
* a shift by a *negative* amount shifts in the opposite direction;
* shifts by amounts >= the bit-width saturate the shift distance (left
  shift produces 0; arithmetic right shift produces the sign; logical
  right shift produces 0).

Type rules are deliberately strict: binary arithmetic requires equal operand
types (shifts additionally allow a signedness mismatch on the shift amount,
as in ``rounding_shr(x_u16, y_i16)``), and all conversions are explicit via
:class:`Cast` / :class:`Reinterpret`.  Pattern nodes used by the rewriter
(:mod:`repro.trs.pattern`) subclass :class:`Expr` and may carry *symbolic*
types; validation is therefore skipped whenever an operand's type is not yet
concrete.
"""

from __future__ import annotations

import weakref
from typing import Iterator, Optional, Sequence, Tuple

from .types import BOOL, ScalarType

__all__ = [
    "Expr",
    "Const",
    "Var",
    "Cast",
    "Reinterpret",
    "Neg",
    "Not",
    "BinaryOp",
    "Add",
    "Sub",
    "Mul",
    "Div",
    "Mod",
    "Min",
    "Max",
    "Shl",
    "Shr",
    "BitAnd",
    "BitOr",
    "BitXor",
    "CmpOp",
    "LT",
    "LE",
    "GT",
    "GE",
    "EQ",
    "NE",
    "Select",
    "TypeError_",
]


class TypeError_(TypeError):
    """Raised when an expression is constructed with ill-typed operands."""


def _is_concrete(t: object) -> bool:
    return isinstance(t, ScalarType)


#: Hash-cons table: structural key -> weak reference to the canonical node
#: for that key.  Each reference removes its own entry when the node dies,
#: so expressions die with their last outside reference.  (A plain dict
#: read inline is cheaper than ``WeakValueDictionary``'s Python-level
#: ``get``/``__setitem__`` on this hottest of paths.)
_INTERN: "dict[tuple, weakref.KeyedRef]" = {}


def _forget(ref: "weakref.KeyedRef", _intern=_INTERN) -> None:
    """Weakref callback: drop a dead node's entry (unless re-interned)."""
    if _intern.get(ref.key) is ref:
        del _intern[ref.key]


#: Field-value types for which ``==`` implies interchangeable constructor
#: arguments.  A key made of these values and canonical children can be
#: looked up before constructing; ``bool``, ``float`` and NumPy scalars
#: compare equal to ints yet are normalized or refused by ``__init__``, so
#: they always take the full construction path.  Modules defining other
#: such field types add them here.
EXACT_FIELD_TYPES = {int, str, ScalarType}


class _ExprMeta(type):
    """Metaclass implementing hash-cons interning of expression nodes.

    Constructing a node returns *the* canonical instance for its structural
    key, so structurally-equal expressions are reference-equal.  That makes
    fixed-point checks, cache lookups and value numbering O(1) per node —
    the foundation of the memoized compile pipeline.

    A node is interned only when its class opts in (``_internable``, off
    for the rewriter's pattern leaves whose ``_key`` deliberately omits
    their type pattern) and every child is itself canonical (rule patterns
    embed wildcard leaves in otherwise-concrete nodes).

    When the positional arguments already spell a canonical key (canonical
    children, :data:`EXACT_FIELD_TYPES` values), the table is consulted
    *before* constructing: a hit returns the canonical node without
    running ``__init__``, which is safe because that node passed the same
    checks with equal field values.  A miss constructs, checks and
    normalizes as usual (``Const`` wrapping, int operands coerced to
    ``Const``), then interns under the normalized key.
    """

    def __call__(cls, *args, **kwargs):
        if cls._internable and not kwargs and len(args) == len(cls._fields):
            for a in args:
                if type(a) not in EXACT_FIELD_TYPES and not getattr(
                    a, "_canon", False
                ):
                    break
            else:
                try:
                    ref = _INTERN.get((cls,) + args)
                except TypeError:  # unhashable field value
                    ref = None
                if ref is not None:
                    canon = ref()
                    if canon is not None:
                        return canon
        obj = super().__call__(*args, **kwargs)
        if not cls._internable:
            return obj
        for c in obj.children:
            if not getattr(c, "_canon", False):
                return obj
        key = obj._key()
        try:
            ref = _INTERN.get(key)
        except TypeError:  # unhashable field value: skip interning
            return obj
        if ref is not None:
            canon = ref()
            if canon is not None:
                return canon
        object.__setattr__(obj, "_canon", True)
        _INTERN[key] = weakref.KeyedRef(obj, _forget, key)
        return obj


class Expr(metaclass=_ExprMeta):
    """Base class for all IR nodes (core IR, FPIR, patterns, target ops).

    Subclasses define ``_fields``: the constructor-argument names in order.
    Fields whose values are :class:`Expr` instances are the node's children.

    Instances are immutable and hash-consed (see :class:`_ExprMeta`); the
    ``_hash``/``_size``/``_cost`` slots lazily cache per-node derived data.
    """

    __slots__ = (
        "_hash", "_size", "_cost", "_children", "_canon", "__weakref__"
    )

    _fields: Tuple[str, ...] = ()

    #: classes may opt out of hash-cons interning (pattern leaves do)
    _internable = True

    # -- identity ------------------------------------------------------
    def _key(self) -> tuple:
        return (type(self),) + tuple(getattr(self, f) for f in self._fields)

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            h = hash(self._key())
            object.__setattr__(self, "_hash", h)
            return h

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if type(self) is not type(other):
            return False
        # Two distinct canonical (interned) nodes are never equal.
        if getattr(self, "_canon", False) and getattr(other, "_canon", False):
            return False
        if hash(self) != hash(other):
            return False
        return self._key() == other._key()  # type: ignore[union-attr]

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    # -- structure -----------------------------------------------------
    @property
    def type(self) -> ScalarType:
        """Element type of this expression (may be symbolic in patterns)."""
        raise NotImplementedError

    @property
    def children(self) -> Tuple["Expr", ...]:
        try:
            return self._children
        except AttributeError:
            c = tuple(
                v
                for f in self._fields
                if isinstance(v := getattr(self, f), Expr)
            )
            object.__setattr__(self, "_children", c)
        return c

    def with_children(self, new_children: Sequence["Expr"]) -> "Expr":
        """Rebuild this node with replacement children (same arity)."""
        it = iter(new_children)
        args = []
        for f in self._fields:
            v = getattr(self, f)
            args.append(next(it) if isinstance(v, Expr) else v)
        leftovers = list(it)
        if leftovers:
            raise ValueError("too many replacement children")
        return type(self)(*args)

    def walk(self) -> Iterator["Expr"]:
        """Yield every node in the tree, post-order."""
        for c in self.children:
            yield from c.walk()
        yield self

    @property
    def size(self) -> int:
        """Number of IR nodes in this tree (used by the §4 enumerators)."""
        s = getattr(self, "_size", None)
        if s is None:
            s = 1 + sum(c.size for c in self.children)
            object.__setattr__(self, "_size", s)
        return s

    # -- display -------------------------------------------------------
    def __repr__(self) -> str:
        from .printer import to_string

        return to_string(self)

    # -- operator sugar (concrete expressions only) ---------------------
    def __add__(self, other: "Expr") -> "Expr":
        return Add(self, _coerce(other, self))

    def __sub__(self, other: "Expr") -> "Expr":
        return Sub(self, _coerce(other, self))

    def __mul__(self, other: "Expr") -> "Expr":
        return Mul(self, _coerce(other, self))

    def __floordiv__(self, other: "Expr") -> "Expr":
        return Div(self, _coerce(other, self))

    def __mod__(self, other: "Expr") -> "Expr":
        return Mod(self, _coerce(other, self))

    def __lshift__(self, other: "Expr") -> "Expr":
        return Shl(self, _coerce(other, self))

    def __rshift__(self, other: "Expr") -> "Expr":
        return Shr(self, _coerce(other, self))

    def __and__(self, other: "Expr") -> "Expr":
        return BitAnd(self, _coerce(other, self))

    def __or__(self, other: "Expr") -> "Expr":
        return BitOr(self, _coerce(other, self))

    def __xor__(self, other: "Expr") -> "Expr":
        return BitXor(self, _coerce(other, self))

    def __neg__(self) -> "Expr":
        return Neg(self)


def _stored_type(node: Expr) -> ScalarType:
    try:
        return node._ty
    except AttributeError:  # forged without __init__ (verifier tests)
        return node._derive_type()


#: ``.type`` for nodes whose result type derives from their operands':
#: ``__init__`` stores ``_derive_type()`` in the ``_ty`` slot once, so
#: reading it is O(1) however deep the operand chain is.
stored_type = property(_stored_type)


def _coerce(value: object, like: Expr) -> Expr:
    """Allow ``expr + 3`` by broadcasting the int to ``expr``'s type."""
    if isinstance(value, Expr):
        return value
    if isinstance(value, int) and _is_concrete(like.type):
        return Const(like.type, value)
    raise TypeError_(f"cannot coerce {value!r} to an expression")


# ----------------------------------------------------------------------
# Leaves
# ----------------------------------------------------------------------
class Const(Expr):
    """A scalar constant broadcast across all lanes (Figure 2's ``x(c)``).

    The stored value is always in-range for the type (wrapped on entry).
    """

    __slots__ = ("_type", "value")
    _fields = ("_type", "value")

    def __init__(self, type_: ScalarType, value: int):
        if not isinstance(value, int) or isinstance(value, bool):
            if isinstance(value, bool):
                value = int(value)
            else:
                raise TypeError_(f"Const value must be int, got {value!r}")
        object.__setattr__(self, "_type", type_)
        object.__setattr__(
            self, "value", type_.wrap(value) if _is_concrete(type_) else value
        )

    @property
    def type(self) -> ScalarType:
        return self._type


class Var(Expr):
    """A named input vector (an already-loaded operand, e.g. ``a_u8``)."""

    __slots__ = ("_type", "name")
    _fields = ("_type", "name")

    def __init__(self, type_: ScalarType, name: str):
        object.__setattr__(self, "_type", type_)
        object.__setattr__(self, "name", name)

    @property
    def type(self) -> ScalarType:
        return self._type


# ----------------------------------------------------------------------
# Conversions
# ----------------------------------------------------------------------
class Cast(Expr):
    """Numeric conversion with two's-complement wrapping on narrowing."""

    __slots__ = ("to", "value")
    _fields = ("to", "value")

    def __init__(self, to: ScalarType, value: Expr):
        if _is_concrete(to) and to.is_bool:
            raise TypeError_("cannot Cast to bool; use a comparison")
        object.__setattr__(self, "to", to)
        object.__setattr__(self, "value", value)

    @property
    def type(self) -> ScalarType:
        return self.to


class Reinterpret(Expr):
    """Bit-level reinterpretation between same-width types."""

    __slots__ = ("to", "value")
    _fields = ("to", "value")

    def __init__(self, to: ScalarType, value: Expr):
        vt = value.type
        if _is_concrete(to) and _is_concrete(vt) and to.bits != vt.bits:
            raise TypeError_(f"reinterpret {vt} -> {to}: width mismatch")
        object.__setattr__(self, "to", to)
        object.__setattr__(self, "value", value)

    @property
    def type(self) -> ScalarType:
        return self.to


# ----------------------------------------------------------------------
# Unary
# ----------------------------------------------------------------------
class Neg(Expr):
    """Two's-complement negation (wraps at the type's extreme)."""

    __slots__ = ("value", "_ty")
    _fields = ("value",)

    def __init__(self, value: Expr):
        t = value.type
        if _is_concrete(t) and t.is_bool:
            raise TypeError_("cannot negate bool")
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "_ty", t)

    def _derive_type(self) -> ScalarType:
        return self.value.type

    type = stored_type


class Not(Expr):
    """Boolean negation (operand must be bool)."""

    __slots__ = ("value",)
    _fields = ("value",)

    def __init__(self, value: Expr):
        t = value.type
        if _is_concrete(t) and not t.is_bool:
            raise TypeError_(f"Not requires bool, got {t}")
        object.__setattr__(self, "value", value)

    @property
    def type(self) -> ScalarType:
        return BOOL


# ----------------------------------------------------------------------
# Binary arithmetic
# ----------------------------------------------------------------------
class BinaryOp(Expr):
    """Base for same-type binary arithmetic; result type is the lhs type."""

    __slots__ = ("a", "b", "_ty")
    _fields = ("a", "b")

    #: set on subclasses that permit a signedness mismatch (shifts)
    _allow_sign_mismatch = False
    #: set on subclasses whose operands must not be bool
    _arith_only = True

    def __init__(self, a: Expr, b: Expr):
        # Ergonomics: allow plain ints wherever one side fixes the type.
        if isinstance(b, int) and isinstance(a, Expr):
            b = _coerce(b, a)
        elif isinstance(a, int) and isinstance(b, Expr):
            a = _coerce(a, b)
        ta, tb = a.type, b.type
        if _is_concrete(ta) and _is_concrete(tb):
            if self._arith_only and (ta.is_bool or tb.is_bool):
                raise TypeError_(
                    f"{type(self).__name__} does not accept bool operands"
                )
            if self._allow_sign_mismatch:
                if ta.bits != tb.bits:
                    raise TypeError_(
                        f"{type(self).__name__}: width mismatch {ta} vs {tb}"
                    )
            elif ta != tb:
                raise TypeError_(
                    f"{type(self).__name__}: type mismatch {ta} vs {tb}"
                )
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "_ty", self._derive_type())

    def _derive_type(self) -> ScalarType:
        return self.a.type

    type = stored_type


class Add(BinaryOp):
    """Wrapping addition."""


class Sub(BinaryOp):
    """Wrapping subtraction."""


class Mul(BinaryOp):
    """Wrapping multiplication."""


class Div(BinaryOp):
    """Division rounding toward negative infinity; ``x / 0 == 0``."""


class Mod(BinaryOp):
    """Euclidean remainder; ``x % 0 == 0``."""


class Min(BinaryOp):
    """Lane-wise minimum."""

    _arith_only = False


class Max(BinaryOp):
    """Lane-wise maximum."""

    _arith_only = False


class Shl(BinaryOp):
    """Shift left; a negative amount shifts right instead (Halide rule)."""

    _allow_sign_mismatch = True


class Shr(BinaryOp):
    """Shift right (arithmetic if signed); negative amount shifts left."""

    _allow_sign_mismatch = True


class BitAnd(BinaryOp):
    """Bitwise AND (also serves as logical AND on bool)."""

    _arith_only = False


class BitOr(BinaryOp):
    """Bitwise OR (also serves as logical OR on bool)."""

    _arith_only = False


class BitXor(BinaryOp):
    """Bitwise XOR."""

    _arith_only = False


# ----------------------------------------------------------------------
# Comparisons
# ----------------------------------------------------------------------
class CmpOp(BinaryOp):
    """Base for comparisons; result type is bool."""

    _arith_only = False

    def _derive_type(self) -> ScalarType:
        return BOOL


class LT(CmpOp):
    """a < b"""


class LE(CmpOp):
    """a <= b"""


class GT(CmpOp):
    """a > b"""


class GE(CmpOp):
    """a >= b"""


class EQ(CmpOp):
    """a == b"""


class NE(CmpOp):
    """a != b"""


# ----------------------------------------------------------------------
# Select
# ----------------------------------------------------------------------
class Select(Expr):
    """Lane-wise conditional: ``cond ? t : f`` with a bool condition."""

    __slots__ = ("cond", "t", "f", "_ty")
    _fields = ("cond", "t", "f")

    def __init__(self, cond: Expr, t: Expr, f: Expr):
        ct = cond.type
        if _is_concrete(ct) and not ct.is_bool:
            raise TypeError_(f"Select condition must be bool, got {ct}")
        tt, ft = t.type, f.type
        if _is_concrete(tt) and _is_concrete(ft) and tt != ft:
            raise TypeError_(f"Select branches differ: {tt} vs {ft}")
        object.__setattr__(self, "cond", cond)
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "f", f)
        object.__setattr__(self, "_ty", tt)

    def _derive_type(self) -> ScalarType:
        return self.t.type

    type = stored_type


def free_vars(expr: Expr) -> Tuple[Var, ...]:
    """All distinct :class:`Var` leaves, in first-occurrence order."""
    seen: dict = {}
    for node in expr.walk():
        if isinstance(node, Var) and node not in seen:
            seen[node] = None
    return tuple(seen)
