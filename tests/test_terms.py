"""Frozen shapes and renderings for the term layer."""

import copy
import dataclasses
import pickle
import sys
import typing

import pytest

from alloy2fa import terms
from alloy2fa.frontend import (
    AlloyModel, SigDecl, check_arities, free_vars, pretty,
)
from alloy2fa.oracle import FiniteModel, fact_holds, infer_width
from alloy2fa.pipeline import nesting
from alloy2fa.terms import (
    AConv, AIden, AJoin, ANone, AProd, ARel, ASig, AStar, AUnion, AUniv,
    AVar, ADiff, ADomRes, ARanRes, AInter,
    ArityError, Comp, Compl, Conv, FAll, FAnd, FEq, FIn, FNot, FOr,
    FPredCall, FSome, FactEq, FactLe, Fork, Ldiv, Meet, NComp,
    Phi, Prod, Rel, Rot, Star, Var,
    BOT, ID, PI1, PI2, TOP,
    RAll, RAnd, RApp, REx, RImp, RLFormula, RMark, RNot, RTrue, RFalse,
    arity_of, children, cut, fa_op_count,
    fa_text, fact_text, instantiate, is_core, map_children, match, ncomp,
    projX, rl_text, rotate, unbind, unfold,
)


class TestSelectors:
    def test_unit_and_base_cases(self):
        assert projX(1, 1) == ID
        assert projX(2, 1) == PI1
        assert projX(2, 2) == PI2

    def test_middle_selector_composes(self):
        assert projX(3, 2) == Comp(PI1, PI2)
        assert projX(3, 3) == Comp(PI2, PI2)
        assert projX(4, 3) == Comp(Comp(PI1, PI2), PI2)

    def test_bounds_are_checked(self):
        with pytest.raises(ArityError):
            projX(2, 3)
        with pytest.raises(ArityError):
            projX(3, 0)


class TestRotate:
    def test_binary_is_converse_with_collapse(self):
        r = Rel("r")
        assert rotate(r, 2) == Conv(r)
        assert rotate(Conv(r), 2) == r

    def test_wider_arities_defer(self):
        t = Rel("t", 3)
        assert rotate(t, 3) == Rot(t, 3)
        assert fa_text(rotate(t, 3)) == "rot3(t)"

    def test_rejects_unary(self):
        with pytest.raises(ArityError):
            rotate(Rel("r"), 1)


class TestNComp:
    def test_identity_absorbs(self):
        t = Rel("t", 3)
        assert ncomp(t, ID, 3) is t

    def test_binary_is_plain_composition(self):
        assert ncomp(Rel("r"), Rel("s"), 2) == Comp(Rel("r"), Rel("s"))

    def test_wider_defer_and_render(self):
        e = ncomp(Rel("t", 3), Rel("s"), 3)
        assert e == NComp(Rel("t", 3), Rel("s"), 3)
        assert fa_text(e) == "(t .3 s)"

    def test_rejects_unary(self):
        with pytest.raises(ArityError):
            ncomp(Rel("r"), Rel("s"), 1)


class TestCut:
    def test_base_is_a_fork(self):
        assert cut(2) == Fork(ID, TOP)

    def test_wider_prefix_with_identity(self):
        assert cut(3) == Prod(ID, Fork(ID, TOP))
        assert fa_text(cut(3)) == "(id x (id nabla TOP))"

    def test_rejects_width_one(self):
        with pytest.raises(ArityError):
            cut(1)


class TestUnfold:
    def test_rotation_of_a_ternary(self):
        got = unfold(rotate(Rel("t", 3), 3))
        assert fa_text(got) == "(pi2 . (t nabla pi1)~)"

    def test_rotation_of_a_quaternary(self):
        got = unfold(rotate(Rel("q", 4), 4))
        assert fa_text(got) == \
            "((pi2 . pi2) . (q nabla (pi1 nabla (pi1 . pi2)))~)"

    def test_nary_composition(self):
        got = unfold(ncomp(Rel("t", 3), Rel("s"), 3))
        assert fa_text(got) == "(t . (id x s))"
        got4 = unfold(ncomp(Rel("q", 4), Rel("s"), 4))
        assert fa_text(got4) == "(q . (id x (id x s)))"

    def test_recurses_into_subterms(self):
        inner = Meet(rotate(Rel("t", 3), 3), TOP)
        assert fa_text(unfold(inner)) == "((pi2 . (t nabla pi1)~) & TOP)"

    def test_identity_on_base_vocabulary(self):
        e = Meet(Comp(Rel("r"), Conv(Rel("s"))), Star(Rel("r")))
        assert unfold(e) is e


class TestRendering:
    def test_leaves(self):
        assert fa_text(TOP) == "TOP" and fa_text(BOT) == "BOT"
        assert fa_text(ID) == "id"
        assert fa_text(Phi("Course")) == "Phi_Course"

    def test_tight_unary_operators(self):
        assert fa_text(Compl(Rel("r"))) == "-r"
        assert fa_text(Conv(Comp(Rel("r"), Rel("s")))) == "(r . s)~"
        assert fa_text(Star(Rel("r"))) == "r*"
        assert fa_text(Compl(Conv(Rel("r")))) == "-(r~)"

    def test_infix_forms(self):
        e = Ldiv(Rel("r"), Meet(Rel("s"), Rel("t", 3)))
        assert fa_text(e) == "(r \\ (s & t))"
        assert fa_text(Fork(PI1, Prod(ID, TOP))) == "(pi1 nabla (id x TOP))"

    def test_fact_text(self):
        assert fact_text(FactLe(ID, Comp(Rel("r"), Conv(Rel("s"))))) == \
            "id in (r . s~)"
        assert fact_text(FactEq(Phi("A"), Meet(Phi("A"), ID))) == \
            "Phi_A = (Phi_A & id)"

    def test_rl_text(self):
        f = RAll(2, None,
                 RImp(RApp((1,), Phi("A"), (1,)),
                      REx(1, RApp((1, 2), Rel("t", 3), (3,)))))
        assert rl_text(f) == "<A2 :: 1 Phi_A 1 => <E1 :: (1,2) t 3>>"
        g = RMark(RApp(("x",), Star(Rel("r")), ("y",)))
        assert rl_text(g) == "<Axy :: x (r*) y>"
        assert rl_text(RNot(RAnd(RTrue(), RFalse()))) == "!(true && false)"

    def test_compound_relation_sides_get_parens(self):
        f = RApp((1,), Comp(Rel("r"), Rel("s")), (2,))
        assert rl_text(f) == "1 (r . s) 2"


class TestFactBookkeeping:
    def test_labels_and_widths_do_not_affect_equality(self):
        assert FactLe(ID, TOP, label="typing", width=3) == FactLe(ID, TOP)
        assert FactEq(ID, TOP) != FactLe(ID, TOP)
        assert (FactLe(Rel("r"), TOP, label="a")
                is not FactLe(Rel("r"), TOP, label="b"))

    def test_op_count_ignores_leaves(self):
        assert fa_op_count(Comp(Rel("r"), Conv(Rel("s")))) == 2
        assert fa_op_count(TOP) == 0

    def test_positions_do_not_affect_alloy_equality(self):
        a, b = AJoin(AVar("x"), ARel("r"), pos=(1, 2)), AJoin(
            AVar("x", pos=(3, 4)), ARel("r"))
        assert a == b and hash(a) == hash(b) and a is not b
        assert FIn(a, ASig("A")) == FIn(b, ASig("A"))


class TestInterning:
    """FA terms and RL formulas are hash-consed: equal means identical."""

    def test_every_construction_route_gives_one_object(self):
        e = Meet(Comp(Rel("r"), Conv(Rel("s"))), Rel("t", 3))
        assert Meet(l=Comp(Rel("r"), Conv(Rel("s"))), r=Rel("t", 3)) is e
        assert Meet(Comp(r=Conv(Rel("s")), l=Rel("r")), Rel("t", arity=3)) \
            is e
        assert Rel("r") is Rel("r", 2) is Rel(name="r", arity=2)
        assert dataclasses.replace(e, r=Rel("t", 3)) is e
        assert dataclasses.replace(e.l, r=Rel("s")) is Comp(Rel("r"),
                                                            Rel("s"))
        assert map_children(e, lambda c: unfold(Rot(c, 3))) is Meet(
            unfold(Rot(e.l, 3)), unfold(Rot(Rel("t", 3), 3)))
        assert unfold(NComp(Rel("t", 3), Rel("r"), 3)) is Comp(
            Rel("t", 3), Prod(ID, Rel("r")))
        f = RAll(1, RApp((1,), Phi("A"), (1,)), RNot(RApp((1,), e, (2,))))
        assert RAll(1, rng=RApp((1,), Phi("A"), (1,)),
                    body=RNot(RApp((1,), e, (2,)))) is f
        assert map_children(f, lambda c: c) is f
        assert unbind(f, 3, 1) is f

    def test_identity_is_equality_and_hash(self):
        assert Comp(Rel("r"), Rel("s")) == Comp(Rel("r"), Rel("s"))
        assert Comp(Rel("r"), Rel("s")) != Comp(Rel("s"), Rel("r"))
        assert {Conv(Rel("r")): 1}[Conv(Rel("r"))] == 1
        assert RApp((1,), Rel("r"), (2,)) is not RApp((1,), Rel("r"), ("x",))
        assert RTrue() is RTrue() and terms.Top() is TOP

    def test_arity_is_part_of_a_relation(self):
        assert Rel("t", 3) is not Rel("t")
        assert Rel("t", 3) != Rel("t")
        assert Rel("t", 3).arity == 3 and Rel("t").arity == 2

    def test_terms_stay_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            Rel("r").name = "s"

    def test_bad_arguments_raise(self):
        with pytest.raises(TypeError):
            Comp(Rel("r"))
        with pytest.raises(TypeError):
            Comp(Rel("r"), Rel("s"), Rel("t"))
        with pytest.raises(TypeError):
            Conv(Rel("r"), x=ID)

    def test_invalid_application_enters_no_table_entry(self):
        for lhs, rhs in (((), (1,)), ((1,), ())):
            with pytest.raises(ValueError, match="non-empty"):
                RApp(lhs, Rel("r"), rhs)
            with pytest.raises(ValueError, match="non-empty"):
                RApp(lhs=lhs, rel=Rel("r"), rhs=rhs)
        assert not any(k[0] is RApp and not (k[1] and k[3])
                       for k in terms._INTERNED)
        app = RApp((1,), Rel("r"), (2,))
        assert (app.lhs, app.rel, app.rhs) == ((1,), Rel("r"), (2,))
        assert RApp((1,), Rel("r"), (2,)) is app

    def test_copies_and_pickles_are_the_interned_term(self):
        e = Comp(Rel("r"), Rel("s"))
        f = RAll(1, RApp((1,), Phi("A"), (1,)), RApp((1,), e, ("x",)))
        for t in (e, Rel("t", 3), TOP, f):
            assert copy.copy(t) is t
            assert copy.deepcopy(t) is t
            assert pickle.loads(pickle.dumps(t)) is t


class TestArities:
    ARITIES = {"r": 2, "t": 3}

    def test_leaves_and_operators(self):
        assert arity_of(ASig("A"), self.ARITIES) == 1
        assert arity_of(AIden(), self.ARITIES) == 2
        assert arity_of(AUniv(), self.ARITIES) == 1
        assert arity_of(ANone(), self.ARITIES) == 1
        assert arity_of(ARel("t"), self.ARITIES) == 3
        assert arity_of(AProd(ARel("r"), ASig("A")), self.ARITIES) == 3
        assert arity_of(AJoin(AVar("u"), ARel("t")), self.ARITIES) == 2
        assert arity_of(AConv(ARel("r")), self.ARITIES) == 2
        assert arity_of(AStar(ARel("r")), self.ARITIES) == 2

    def test_errors(self):
        with pytest.raises(ArityError, match="unknown relation"):
            arity_of(ARel("nope"), self.ARITIES)
        with pytest.raises(ArityError, match="arity mismatch"):
            arity_of(AUnion(ASig("A"), ARel("r")), self.ARITIES)
        with pytest.raises(ArityError):
            arity_of(AJoin(ASig("A"), ASig("B")), self.ARITIES)
        with pytest.raises(ArityError):
            arity_of(AConv(ARel("t")), self.ARITIES)
        with pytest.raises(ArityError):
            arity_of(AStar(ARel("t")), self.ARITIES)
        with pytest.raises(ArityError):
            arity_of(ADomRes(ARel("r"), ARel("r")), self.ARITIES)
        with pytest.raises(ArityError):
            arity_of(ARanRes(ARel("r"), ARel("r")), self.ARITIES)

    def test_restrictions(self):
        assert arity_of(ADomRes(ASig("A"), ARel("t")), self.ARITIES) == 3
        assert arity_of(ARanRes(ARel("t"), ASig("A")), self.ARITIES) == 3
        assert arity_of(ADiff(ARel("r"), AInter(ARel("r"), ARel("r"))),
                        self.ARITIES) == 2


class TestFormShapes:
    def test_core_scanner(self):
        good = FAll("x", ASig("A"),
                    FAnd(FNot(FSome(AVar("x"))),
                         FIn(AVar("x"), ASig("A"))))
        assert is_core(good)
        assert not is_core(FOr(FSome(ASig("A")), FSome(ASig("A"))))
        assert not is_core(FAnd(FSome(ASig("A")), FEq(ASig("A"), ASig("A"))))
        assert not is_core(FPredCall("inv", ()))

    def test_children_walkers(self):
        f = FAnd(FSome(ASig("A")), FNot(FSome(ASig("B"))))
        assert list(children(f)) == [("l", f.l), ("r", f.r)]
        e = AUnion(ASig("A"), ADiff(ASig("B"), ASig("C")))
        assert [c for _, c in children(e)] == [e.l, e.r]
        q = FAll("x", ASig("A"), f)
        assert [c for _, c in children(q)] == [q.bound, f]
        call = FPredCall("p", (ASig("A"), AVar("x")))
        assert list(children(call)) == [("args", ASig("A")),
                                        ("args", AVar("x"))]


def node_classes() -> list:
    """Every subclass of terms.Node, at any depth."""
    out, todo = [], [terms.Node]
    while todo:
        for sub in todo.pop().__subclasses__():
            out.append(sub)
            todo.append(sub)
    return out


def names_node(hint) -> bool:
    """Whether a type hint names a Node subclass, directly or inside
    Optional, Union or Tuple."""
    if isinstance(hint, type) and issubclass(hint, terms.Node):
        return True
    return any(names_node(a) for a in typing.get_args(hint))


class TestNodeModel:
    # a value for each field annotation, to build an instance of any class
    SAMPLES = {"FAExpr": Rel("r"), "RLFormula": RTrue(),
               "Optional[RLFormula]": RTrue(), "AlloyExpr": ASig("A"),
               "AlloyForm": FSome(ASig("A")),
               "Tuple[AlloyExpr, ...]": (ASig("A"),), "str": "a", "int": 2,
               "tuple": (1,), "type": terms.FAExpr}
    METHODS = {"__init__", "__eq__", "__hash__", "__repr__", "__setattr__",
               "__delattr__"}

    def test_every_node_class_is_a_frozen_dataclass(self):
        # by behaviour: frozen, with a dataclass field layout, and with
        # the methods of Node (or Interned) alone, no per-class code
        classes = node_classes()
        assert terms.Interned in classes and Rel in classes
        for cls in classes:
            x = cls(*[self.SAMPLES[f.type] for f in dataclasses.fields(cls)
                      if f.default is dataclasses.MISSING])
            for name in cls._fields + ("other",):
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(x, name, None)
                with pytest.raises(dataclasses.FrozenInstanceError):
                    delattr(x, name)
            assert tuple(f.name for f in dataclasses.fields(x)) == \
                cls._fields
            assert dataclasses.replace(x) == x and repr(x).startswith(
                cls.__name__ + "(")
            if cls is not terms.Interned:
                assert not self.METHODS & set(vars(cls)), cls

    def test_position_is_keyword_only(self):
        a, b = AVar("x"), ASig("A")
        assert FIn(a, b, pos=(1, 2)).pos == (1, 2)
        assert FIn(a, b).pos is None and FIn(l=a, r=b).pos is None
        assert dataclasses.replace(FIn(a, b, pos=(1, 2)), r=a).pos == (1, 2)
        with pytest.raises(TypeError):
            FIn(a, b, (1, 2))
        with pytest.raises(TypeError):
            FIn(a, b, l=a)
        with pytest.raises(TypeError):
            FIn(a)

    def test_interned_classes_compare_by_identity(self):
        interned = [c for c in node_classes()
                    if issubclass(c, terms.Interned)]
        assert RApp in interned and FactEq not in interned
        for cls in interned:
            assert cls.__eq__ is object.__eq__, cls
            assert not cls.__dataclass_params__.init, cls

    def test_slots_are_the_fields_typed_as_nodes(self):
        assert names_node(typing.Optional[terms.FAExpr])
        assert not names_node(typing.Optional[tuple])
        for cls in node_classes():
            hints = typing.get_type_hints(cls)
            want = tuple(
                (f.name, typing.get_origin(hints[f.name]) is tuple)
                for f in dataclasses.fields(cls)
                if names_node(hints[f.name]))
            assert cls._slots == want, cls

    def test_fa_terms_hold_only_fa_terms(self):
        # the rewrite engine returns at an FA node for a bank with no rule
        # of an FA kind; an FA class with an RL slot would hide its redexes
        fa = [c for c in node_classes() if issubclass(c, terms.FAExpr)]
        assert Comp in fa and len(fa) >= 18
        for cls in fa:
            hints = typing.get_type_hints(cls)
            for name, many in cls._slots:
                assert not many and hints[name] is terms.FAExpr, (cls, name)


class TestTraversal:
    def test_data_fields_are_not_children(self):
        app = RApp((1, "x"), Rel("t", 3), (2,))
        assert list(children(app)) == [("rel", Rel("t", 3))]
        assert list(children(NComp(Rel("r"), ID, 3))) == [
            ("l", Rel("r")), ("r", ID)]
        assert list(children(FactLe(ID, TOP, label="a", width=2))) == [
            ("lhs", ID), ("rhs", TOP)]
        assert list(children(Rel("r"))) == []

    def test_absent_range_is_skipped(self):
        body = RApp((1,), Rel("r"), (1,))
        assert list(children(RAll(1, None, body))) == [("body", body)]
        assert list(children(RAll(1, body, body))) == [("rng", body),
                                                      ("body", body)]
        assert list(children(REx(1, body))) == [("body", body)]
        assert list(children(RMark(body))) == [("body", body)]

    def test_every_field_is_classified(self):
        # "type" is the class a pattern variable (`Var.kind`) matches
        data = {"str", "int", "tuple", "Pos", "type"}
        known = terms._CHILD | terms._CHILDREN | data
        for name in dir(terms):
            cls = getattr(terms, name)
            if isinstance(cls, type) and dataclasses.is_dataclass(cls):
                for f in dataclasses.fields(cls):
                    assert f.type in known, (name, f.name, f.type)

    def test_map_children_rebuilds_only_on_change(self):
        e = Meet(Comp(Rel("r"), Rel("s")), Rel("t"))
        assert map_children(e, lambda c: c) is e
        g = map_children(e, lambda c: Conv(c) if isinstance(c, Rel) else c)
        assert g == Meet(Comp(Rel("r"), Rel("s")), Conv(Rel("t")))
        assert g.l is e.l
        f = FactLe(Rel("r"), Rel("s"), label="keep", width=3)
        h = map_children(f, Conv)
        assert h == FactLe(Conv(Rel("r")), Conv(Rel("s")))
        assert (h.label, h.width) == ("keep", 3)
        call = FPredCall("p", (ASig("A"), AVar("x")))
        assert map_children(call, lambda c: c) is call
        swapped = map_children(
            call, lambda c: ASig("B") if c == ASig("A") else c)
        assert swapped.args == (ASig("B"), AVar("x"))


F = Var("F", RLFormula)


class TestPatterns:
    X, Y, P = Var("X"), Var("Y"), Var("P", Phi)

    def test_variables_bind_subterms(self):
        env = {}
        t = Comp(Conv(Rel("r")), Meet(ID, TOP))
        assert match(Comp(Conv(self.X), self.Y), t, env)
        assert env == {self.X: Rel("r"), self.Y: Meet(ID, TOP)}
        assert instantiate(Comp(self.Y, self.X), env) == Comp(
            Meet(ID, TOP), Rel("r"))

    def test_a_repeated_variable_meets_one_term(self):
        assert match(Meet(self.X, self.X), Meet(Rel("r"), Rel("r")), {})
        assert not match(Meet(self.X, self.X), Meet(Rel("r"), Rel("s")), {})

    def test_a_repeated_data_variable_meets_equal_values(self):
        # item tuples and widths bind by equality, not identity
        U, V, N = Var("U", tuple), Var("V", tuple), Var("N", int)
        a, b = tuple(range(1, 3)), tuple([1, 2])
        assert a == b and a is not b
        pat = RAnd(RApp(U, self.X, V), RApp(U, self.Y, V))
        t = RAnd(RApp(a, Rel("u"), (3,)), RApp(b, Rel("v"), (3,)))
        assert t.l.lhs is not t.r.lhs
        env = {}
        assert match(pat, t, env) and env[U] == (1, 2) and env[V] == (3,)
        assert not match(pat, RAnd(RApp(a, Rel("u"), (3,)),
                                   RApp((2, 1), Rel("v"), (3,))), {})
        body = RApp((1,), Rel("r"), (1,))
        assert match(RAll(N, None, REx(N, F)), RAll(2, None, REx(2, body)),
                     {})
        assert not match(RAll(N, None, REx(N, F)),
                         RAll(2, None, REx(1, body)), {})
        assert not match(RAll(N, None, F), RAll(2, body, body), {})

    def test_data_variables_render_with_a_question_mark(self):
        U, N = Var("U", tuple), Var("N", int)
        assert fa_text(RAll(N, None, RApp(U, self.X, (1,)))) == \
            "<A?N :: ?U ?X 1>"
        assert fa_text(REx(N, RApp((1, 2), Conv(self.X), U))) == \
            "<E?N :: (1,2) (?X~) ?U>"

    def test_kind_restricts_the_match(self):
        assert match(Meet(self.P, ID), Meet(Phi("A"), ID), {})
        assert not match(Meet(self.P, ID), Meet(Rel("r"), ID), {})
        assert not match(self.X, RTrue(), {})

    def test_data_fields_must_be_equal(self):
        assert match(NComp(self.X, ID, 3), NComp(Rel("t", 3), ID, 3), {})
        assert not match(NComp(self.X, ID, 3), NComp(Rel("t", 4), ID, 4), {})
        assert not match(Conv(Rel("r")), Conv(Rel("s")), {})

    def test_fact_label_and_width_match_anything(self):
        env = {}
        fact = FactLe(Compl(Rel("r")), TOP, label="f", width=3)
        assert match(FactLe(Compl(self.X), TOP), fact, env)
        out = instantiate(FactLe(TOP, self.X), env)
        assert out == FactLe(TOP, Rel("r"))
        assert (out.label, out.width) == ("", 0)


class TestRLHelpers:
    def test_unbind_substitutes_and_renumbers(self):
        f = RAnd(RApp((2,), Rel("r"), (3,)), RApp((1,), Rel("s"), (2,)))
        g = unbind(f, 2, "cx")
        assert rl_text(g) == "cx r 2 && 1 s cx"

    @pytest.mark.parametrize("repl", [2, 3])
    def test_unbind_refuses_a_replacement_at_or_below_the_level(self, repl):
        f = RApp((1,), Rel("r"), (3,))
        assert unbind(f, 2, 1) == RApp((1,), Rel("r"), (2,))
        with pytest.raises(ValueError, match="cannot replace level 2"):
            unbind(f, 2, repl)


class TestDeepTerms:
    """Every bottom-up walk folds by an explicit stack (`terms.fold`), so
    no term is too deep for it under the default recursion limit."""

    N = 2000

    def fa_chain(self):
        steps = (Conv, Compl, lambda e: Comp(e, Rel("r")),
                 lambda e: Meet(Rel("s"), e))
        e = Rel("r")
        for i in range(self.N):
            e = steps[i % 4](e)
        return e

    def test_fa_walks(self):
        assert sys.getrecursionlimit() == 1000
        e = self.fa_chain()
        fact = FactLe(e, TOP)
        assert fact_text(fact).endswith(" in TOP")
        assert unfold(e) is e
        assert fa_op_count(e) == self.N
        assert infer_width(fact) == 1
        model = FiniteModel(("a", "b"), {}, {"r": frozenset({("a", "b")}),
                                             "s": frozenset()})
        assert fact_holds(fact, model)

    def rl_chain(self, app):
        steps = (lambda f: REx(1, f), RNot, lambda f: RAnd(RTrue(), f))
        f = app
        for i in range(self.N):
            f = steps[i % 3](f)
        return f

    def test_rl_walks(self):
        assert sys.getrecursionlimit() == 1000
        f = self.rl_chain(RApp((1,), Rel("r"), (1,)))
        assert rl_text(f).endswith("1 r 1" + ">" * 667)
        assert nesting(f) == 667

    def test_unbind(self):
        assert sys.getrecursionlimit() == 1000
        f = self.rl_chain(RApp((1,), Rel("r"), (3,)))
        assert unbind(f, 2, "cx") is self.rl_chain(
            RApp((1,), Rel("r"), (2,)))
        assert unbind(f, 3, 1) is self.rl_chain(RApp((1,), Rel("r"), (1,)))

    def test_core_alloy_walks(self):
        assert sys.getrecursionlimit() == 1000
        steps = (FNot, lambda f: FAnd(FSome(ASig("A")), f),
                 lambda f: FAll("x", ASig("A"), f))
        f = FIn(AVar("x"), ASig("A"))
        for i in range(self.N):
            f = steps[i % 3](f)
        assert free_vars(f) == set()
        assert is_core(f)
        model = AlloyModel((SigDecl("A"),), (), (f,), (), ())
        assert check_arities(model) is model
        assert pretty(model).endswith("x in A" + ")" * 1334 + " }\n")

    def test_core_alloy_equality_hash_and_repr(self):
        assert sys.getrecursionlimit() == 1000
        f, g, h = (FIn(AVar("x"), ASig(s), pos=(1, 1)) for s in "AAB")
        for _ in range(self.N):
            f, g, h = FNot(f), FNot(g, pos=(2, 2)), FNot(h)
        assert f == g and hash(f) == hash(g) and f is not g
        assert f != h and f != FNot(g) and FNot(f, pos=(3, 3)) == FNot(g)
        assert repr(f) == repr(g) == "FNot(f=" * self.N + (
            "FIn(l=AVar(name='x'), r=ASig(name='A'))" + ")" * self.N)


class TestSharedSubterms:
    def test_a_shared_subterm_counts_once_per_occurrence(self):
        c = Comp(Rel("r"), Rel("s"))
        assert fa_op_count(Meet(c, c)) == 3

    def test_a_doubling_term_is_counted_without_walking_its_tree(self):
        t = Rel("r")
        for _ in range(40):
            t = Meet(t, t)
        assert fa_op_count(t) == 2 ** 40 - 1
