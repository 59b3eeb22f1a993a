"""Hash-cons interning: structurally equal exprs are reference-equal."""

import sys
import weakref

import pytest

from repro import fpir as F
from repro.ir import builders as h
from repro.ir import expr as E
from repro.ir.types import BOOL, I16, U8, U16
from repro.trs.pattern import ConstWild, TVar, Wild

a = h.var("a", U8)
b = h.var("b", U8)


class TestInterning:
    def test_equal_constructions_are_identical(self):
        assert E.Add(a, b) is E.Add(a, b)
        assert h.u16(a) is h.u16(a)
        assert E.Const(U8, 7) is E.Const(U8, 7)

    def test_distinct_constructions_are_distinct(self):
        assert E.Add(a, b) is not E.Add(b, a)
        assert E.Const(U8, 7) is not E.Const(U16, 7)

    def test_nested_trees_share_identity(self):
        x = E.Min(E.Add(a, b), E.Max(a, b))
        y = E.Min(E.Add(a, b), E.Max(a, b))
        assert x is y
        assert x.children[0] is y.children[0]

    def test_fpir_nodes_intern_too(self):
        assert F.WideningAdd(a, b) is F.WideningAdd(a, b)

    def test_interned_nodes_marked_canonical(self):
        assert getattr(E.Add(a, b), "_canon", False)

    def test_equality_and_hash_still_structural(self):
        x, y = E.Add(a, b), E.Add(a, b)
        assert x == y and hash(x) == hash(y)
        assert x != E.Add(b, a)

    def test_with_children_rebuilds_interned(self):
        x = E.Add(a, b)
        assert x.with_children([a, b]) is x or x.with_children([a, b]) == x
        assert x.with_children([b, a]) is E.Add(b, a)


class TestPatternNodesNotInterned:
    """Wildcards carry per-rule type constraints their ``_key`` omits —
    interning them would conflate same-named wildcards across rules."""

    def test_wild_not_interned(self):
        T1, T2 = TVar("T", max_bits=16), TVar("T", max_bits=32)
        w1, w2 = Wild("x", T1), Wild("x", T2)
        assert w1 is not w2
        assert not getattr(w1, "_canon", False)

    def test_constwild_not_interned(self):
        assert ConstWild("c", U8) is not ConstWild("c", U8)

    def test_composite_over_wildcards_not_interned(self):
        T = TVar("T")
        pat = E.Add(Wild("x", T), Wild("y", T))
        assert not getattr(pat, "_canon", False)
        assert pat is not E.Add(Wild("x", T), Wild("y", T))


class TestInternBeforeConstruct:
    """The intern table is consulted before ``__init__`` runs; values that
    ``__init__`` would normalize still reach the canonical node."""

    def test_out_of_range_const_reaches_wrapped_node(self):
        assert E.Const(U8, 999) is E.Const(U8, 231)

    def test_bool_const_value_reaches_int_node(self):
        assert E.Const(BOOL, True) is E.Const(BOOL, 1)
        assert type(E.Const(BOOL, True).value) is int

    def test_int_operand_reaches_const_operand_node(self):
        x = h.var("x", U16)
        assert E.Add(x, 3) is E.Add(x, E.Const(x.type, 3))
        assert E.Add(3, x) is E.Add(E.Const(x.type, 3), x)

    def test_non_int_const_value_still_refused(self):
        E.Const(U8, 1)
        with pytest.raises(E.TypeError_):
            E.Const(U8, 1.0)

    def test_ill_typed_still_raises_after_well_typed_exists(self):
        c = h.var("c", U16)
        E.Add(a, b)
        E.Add(c, c)
        with pytest.raises(E.TypeError_):
            E.Add(a, c)
        with pytest.raises(E.TypeError_):
            E.Add(c, a)

    def test_pattern_child_still_not_interned(self):
        E.Add(a, b)
        pat = E.Add(a, Wild("x", TVar("T")))
        assert not getattr(pat, "_canon", False)

    def test_rebuild_of_canonical_node_skips_init(self, monkeypatch):
        x = E.Add(a, b)
        original = E.BinaryOp.__init__
        inits = []

        def spy(self, *args):
            inits.append(type(self))
            original(self, *args)

        monkeypatch.setattr(E.BinaryOp, "__init__", spy)
        assert E.Add(a, b) is x
        assert x.with_children([a, b]) is x
        assert inits == []
        E.Sub(a, h.var("fresh", U8))  # a new node still runs __init__
        assert inits == [E.Sub]

    def test_nodes_die_with_their_last_reference(self):
        v, c = h.var("dies", I16), E.Const(I16, 12345)
        y = E.Mul(v, c)
        key, alive = y._key(), weakref.ref(y)
        assert key in E._INTERN
        del y
        assert alive() is None
        assert key not in E._INTERN


class TestDerivedTypeIsStored:
    def test_deep_add_chain_type_under_default_recursion_limit(self):
        # deeper than the recursion limit: a recursive .type would fail
        assert sys.getrecursionlimit() < 3000
        x = h.var("deep", U8)
        e = x
        for _ in range(3000):
            e = E.Add(e, x)
        assert e.type == U8
