"""Variable-elimination pipeline: rule shapes, invariants, preservation."""

import itertools
from collections import Counter

import pytest

from conftest import TRANSLATORS, model_assert

from alloy2fa import pipeline
from alloy2fa.heuristics import SHORTCUT
from alloy2fa.oracle import (
    SigInfo,
    Vocab,
    check_equiv,
    eval_rl,
    fact_holds,
    gen_formula,
    gen_vocab,
    interp_from_model,
    iter_models,
    tuple_space,
)
from alloy2fa.pipeline import (
    DEFINITION_RULES,
    MECHANICAL,
    TranslateError,
    _COMBINE_RULES,
    _DISCHARGE_RULES,
    _FRAME_RULES,
    _NORMALIZE_RULES,
    _count,
    _flat,
    _rotated,
    fact_of,
    free_var_levels,
    nesting,
    translate_closure,
    translate_form,
    translate_with_trace,
    star_lifter,
)
from alloy2fa.strategy import BudgetError, RunState, rewrite, step
from alloy2fa.terms import (
    ID,
    MARK_X,
    MARK_Y,
    PI1,
    PI2,
    TOP,
    AIden,
    AInter,
    AJoin,
    AProd,
    ARel,
    ASig,
    AStar,
    AUniv,
    AVar,
    AConv,
    Comp,
    Compl,
    Conv,
    FAExpr,
    FactEq,
    FactLe,
    FAll,
    FIn,
    FNot,
    Fork,
    FSome,
    Join,
    Meet,
    Phi,
    Prod,
    RAll,
    RAnd,
    RApp,
    REx,
    RImp,
    RLFormula,
    RMark,
    RNot,
    ROr,
    RTRUE,
    Rel,
    Star,
    children,
    projX,
    rl_text,
)

R = Rel("R")
S = Rel("S")


def app(l, rel, r):
    l = l if isinstance(l, tuple) else (l,)
    r = r if isinstance(r, tuple) else (r,)
    return RApp(l, rel, r)


def normalized(f):
    """The fixpoint of the normalization bank alone."""
    return rewrite(f, (_NORMALIZE_RULES,), RunState())


def step1(f, bank):
    """One firing of a single bank, None when it has no redex."""
    return step(f, (bank,), RunState())


def two_rel_vocab():
    return Vocab(sigs={"A": SigInfo("A")},
                 rels={"r": ("A", "A"), "s": ("A", "A")})


class TestNormalize:
    def test_implication_becomes_or(self):
        f = RImp(app(1, R, 2), app(2, S, 1))
        assert normalized(REx(2, f)) == REx(
            2, ROr(RNot(app(1, R, 2)), app(2, S, 1)))

    def test_plain_forall_becomes_not_exists_not(self):
        f = RAll(2, None, app(1, R, 2))
        assert normalized(f) == RNot(REx(2, RNot(app(1, R, 2))))

    def test_ranged_forall_fixpoint(self):
        f = RAll(1, app(1, Phi("A"), 1), app(1, R, 1))
        assert rl_text(normalized(f)) == "!<E1 :: !(!1 Phi_A 1 || 1 R 1)>"

    def test_marker_wrapper_survives(self):
        g = normalized(RMark(RAll(1, None, app(1, R, 1))))
        assert isinstance(g, RMark)
        assert g.body == RNot(REx(1, RNot(app(1, R, 1))))

    def test_quantifier_free_unchanged(self):
        f = ROr(RNot(app(1, R, 2)), app(1, S, 2))
        assert normalized(f) == f

    def test_no_leftovers(self):
        f = RAll(1, app(1, Phi("A"), 1),
                 RImp(REx(2, RAnd(app(2, Phi("B"), 2), app(1, R, 2))),
                      RAll(1, None, app(2, S, 2))))

        def scan(g):
            assert not isinstance(g, (RImp, RAll))
            if isinstance(g, REx):
                scan(g.body)
            elif isinstance(g, RNot):
                scan(g.f)
            elif isinstance(g, (RAnd, ROr)):
                scan(g.l)
                scan(g.r)

        scan(normalized(f))


def test_the_elimination_loop_builds_no_universal(golden_runs):
    """The frame and discharge rules read the depth as the existential
    depth: no loop step (its input under the marker wrapper) may leave a
    universal or an implication, which normalization removed."""
    clean = set()

    def leaves_one(f):
        if f in clean or isinstance(f, RApp):
            return False
        if isinstance(f, (RAll, RImp)) or any(
                leaves_one(c) for _, c in children(f)):
            return True
        clean.add(f)
        return False

    loop = 0
    for name, runs in golden_runs.items():
        for key, _, _, steps in runs:
            for s in steps:
                if isinstance(s.before, RMark):
                    loop += 1
                    assert not leaves_one(s.after), (name, key, s.rule)
    assert loop > 5000


def test_memoized_level_counts_equal_a_recount(golden_runs):
    """`_count` remembers its answer per interned formula and item; on
    every RL subformula of every golden trace step it agrees with a
    recount of the items of the subformula's applications, at every
    level up to one past the deepest it uses."""
    uses = {}  # RL formula -> Counter of its applications' items, in
    # the order a walk from each trace step first meets it, inner first

    def recount(f):
        if f not in uses:
            uses[f] = (Counter(_flat(f)) if isinstance(f, RApp) else
                       sum((recount(c) for _, c in children(f)), Counter()))
        return uses[f]

    for runs in golden_runs.values():
        for _, _, _, steps in runs:
            for s in steps:
                for t in (s.before, s.after):
                    if isinstance(t, RLFormula):
                        recount(t)
    _count.cache_clear()
    checked = 0
    for f, table in uses.items():
        top = max([i for i in table if isinstance(i, int)], default=0)
        for lvl in range(1, top + 2):
            assert _count(f, lvl) == table[lvl], (rl_text(f), lvl)
            checked += 1
    assert len(uses) > 100000 and checked > len(uses)


class TestUniform:
    def test_two_level_application(self):
        f = REx(2, app(2, R, 1))
        want = REx(2, RApp(
            (MARK_X,), Comp(TOP, Meet(PI2, Comp(R, PI1))), (1, 2)))
        assert step1(f, _FRAME_RULES) == want

    def test_tuple_side_becomes_fork(self):
        t3 = Rel("T", 3)
        f = REx(3, app(1, t3, (2, 3)))
        sel = Fork(projX(3, 2), projX(3, 3))
        want = REx(3, RApp(
            (MARK_X,), Comp(TOP, Meet(PI1, Comp(t3, sel))), (1, 2, 3)))
        assert step1(f, _FRAME_RULES) == want

    def test_already_framed_fails(self):
        f = REx(2, RApp((MARK_X,), R, (1, 2)))
        assert step1(f, _FRAME_RULES) is None

    def test_literal_inside_block(self):
        f = REx(1, RTRUE)
        assert step1(f, _FRAME_RULES) == REx(
            1, RApp((MARK_X,), TOP, (1,)))

    def test_literal_outside_blocks(self):
        assert step1(RTRUE, _FRAME_RULES) == RApp(
            (MARK_X,), TOP, (MARK_Y,))

    def test_leftmost_application_first(self):
        f = REx(1, RAnd(app(1, R, 1), app(1, S, 1)))
        g = step1(f, _FRAME_RULES)
        assert g.body.l.lhs == (MARK_X,)
        assert g.body.r == app(1, S, 1)


class TestAggregate:
    def test_conjunction_becomes_meet(self):
        f = RAnd(RApp((MARK_X,), R, (1, 2)), RApp((MARK_X,), S, (1, 2)))
        assert step1(f, _COMBINE_RULES) == RApp(
            (MARK_X,), Meet(R, S), (1, 2))

    def test_disjunction_becomes_join(self):
        f = ROr(app(1, R, 2), app(1, S, 2))
        assert step1(f, _COMBINE_RULES) == app(1, Join(R, S), 2)

    def test_negation_becomes_complement(self):
        assert step1(RNot(app(1, R, 2)), _COMBINE_RULES) == app(
            1, Compl(R), 2)

    def test_mismatched_sides_fail(self):
        f = RAnd(app(1, R, 2), app(2, S, 1))
        assert step1(f, _COMBINE_RULES) is None


class TestDropExists:
    def test_wide_block_shrinks(self):
        f = REx(2, RApp((MARK_X,), R, (1, 2)))
        want = REx(1, RApp(
            (MARK_X,), Comp(R, Fork(ID, TOP)), (1,)))
        assert step1(f, _DISCHARGE_RULES) == want

    def test_split_blocks_shrink_inner(self):
        f = REx(1, REx(1, RApp((MARK_X,), R, (1, 2))))
        want = REx(1, RApp(
            (MARK_X,), Comp(R, Fork(ID, TOP)), (1,)))
        assert step1(f, _DISCHARGE_RULES) == want

    def test_last_level_composes_top(self):
        f = REx(1, RApp((MARK_X,), R, (1,)))
        assert step1(f, _DISCHARGE_RULES) == RApp(
            (MARK_X,), Comp(R, TOP), (MARK_Y,))

    def test_no_existential_fails(self):
        assert step1(RApp((MARK_X,), R, (MARK_Y,)), _DISCHARGE_RULES) is None

    def test_unreduced_block_fails(self):
        f = REx(1, RAnd(app(1, R, 1), app(1, S, 1)))
        assert step1(f, _DISCHARGE_RULES) is None


class TestFactOf:
    def test_marker_wrapper(self):
        f = RMark(RApp((MARK_X,), R, (MARK_Y,)))
        assert fact_of(f) == FactEq(R, TOP)

    def test_non_facts(self):
        assert fact_of(app(1, R, 2)) is None
        # plain universals are heuristics.drop_vars's to read
        assert fact_of(RAll(2, None, app(1, R, 2))) is None
        assert fact_of(RAll(2, None, RAnd(app(1, R, 2), app(1, S, 2)))) is None
        assert fact_of(RAll(2, None, app(1, R, (1, 2)))) is None


def pure_fa(e):
    assert isinstance(e, FAExpr)
    for _, c in children(e):
        pure_fa(c)


class TestTranslate:
    def test_totality(self):
        rng = RAnd(app(1, Phi("A"), 1), app(2, Phi("A"), 2))
        f = RAll(2, rng, app(1, Rel("r"), 2))
        fact = translate_with_trace(f)[0]
        assert isinstance(fact, FactEq) and fact.rhs == TOP
        voc = two_rel_vocab()
        assert check_equiv(f, fact, voc, bound=2).status == "PASS"
        truths = {fact_holds(fact, m) for m in iter_models(voc, 2, ["r"])}
        assert truths == {True, False}

    def test_heuristic_free_shape_matches_known_result(self):
        # all a | some b | a R b && a S b, ranges dropped
        f = RAll(1, None, REx(1, RAnd(app(1, Rel("r"), 2),
                                      app(1, Rel("s"), 2))))
        fact = translate_with_trace(f)[0]
        w1 = Comp(TOP, Meet(PI1, Comp(Rel("r"), PI2)))
        w2 = Comp(TOP, Meet(PI1, Comp(Rel("s"), PI2)))
        known = FactLe(TOP, Compl(Comp(Compl(Comp(
            Meet(w1, w2), Fork(ID, TOP))), TOP)))
        voc = two_rel_vocab()
        assert check_equiv(known, fact, voc, bound=2).status == "PASS"
        # the ranged variant is the non-vacuous check
        g = RAll(1, app(1, Phi("A"), 1),
                 REx(1, RAnd(app(2, Phi("A"), 2),
                             RAnd(app(1, Rel("r"), 2), app(1, Rel("s"), 2)))))
        gfact = translate_with_trace(g)[0]
        assert check_equiv(g, gfact, voc, bound=2).status == "PASS"
        truths = {fact_holds(gfact, m)
                  for m in iter_models(voc, 2, ["r", "s"])}
        assert truths == {True, False}

    def test_expanded_joins_reach_the_same_fact(self):
        # same formula with the joins spelled out through a witness level
        mem = lambda rel: REx(1, RAnd(app(1, rel, 3), app(3, ID, 2)))
        f = RAll(1, None, REx(1, RAnd(mem(Rel("r")), mem(Rel("s")))))
        fact = translate_with_trace(f)[0]
        assert fact.width == 3
        w1 = Comp(TOP, Meet(PI1, Comp(Rel("r"), PI2)))
        w2 = Comp(TOP, Meet(PI1, Comp(Rel("s"), PI2)))
        known = FactLe(TOP, Compl(Comp(Compl(Comp(
            Meet(w1, w2), Fork(ID, TOP))), TOP)))
        v = check_equiv(known, fact, two_rel_vocab(), bound=2)
        assert v.status == "PASS"

    def test_depth_never_increases(self):
        f = gen_formula(11)
        rl = _expand(f)
        fact, trace = translate_with_trace(rl)
        depths = [nesting(rl)] + [nesting(s.after) for s in trace]
        assert all(a >= b for a, b in zip(depths, depths[1:]))
        assert fact.width == depths[0] or depths[0] == 0

    def test_each_discharge_removes_one_level(self):
        def levels(g):
            if isinstance(g, RApp):
                return 0
            mine = g.width if isinstance(g, REx) else 0
            return mine + sum(levels(c) for _, c in children(g))

        mem = lambda rel: REx(1, RAnd(app(1, rel, 3), app(3, ID, 2)))
        f = RAll(1, None, REx(1, RAnd(mem(Rel("r")), mem(Rel("s")))))
        _, trace = translate_with_trace(f)
        drops = [t for t in trace if t.rule == "discharge-innermost-exists"]
        assert len(drops) == 4
        assert all(levels(t.before) - levels(t.after) == 1 for t in drops)

    def test_trace_chains_across_the_wrap(self):
        f = RAll(1, None, REx(1, app(2, Rel("r"), 1)))
        _, trace = translate_with_trace(f)
        for a, b in zip(trace, trace[1:]):
            assert b.before in (a.after, RMark(a.after))

    def test_output_is_variable_free(self):
        for seed in (0, 3, 17, 40):
            fact = translate_form(gen_formula(seed), gen_vocab().arity())
            pure_fa(fact.lhs)
            pure_fa(fact.rhs)

    def test_label_and_width_stamp(self):
        fact, _ = translate_with_trace(RAll(2, None, app(1, Rel("r"), 2)))
        assert (fact.label, fact.width) == ("", 2)

    @pytest.mark.parametrize("translator, budget",
                             [(MECHANICAL, 3), (SHORTCUT, 0)],
                             ids=["mech", "short"])
    def test_budget_exhaustion(self, monkeypatch, translator, budget):
        """The mechanical translation of f fires 7 steps and the shortcut
        one 1, so a budget of 3 stops the first and a budget of 0 the
        second."""
        f = RAll(1, None, REx(1, RAnd(app(1, Rel("r"), 2),
                                      app(1, Rel("s"), 2))))
        monkeypatch.setattr(pipeline, "RunState",
                            lambda: RunState(budget=budget))
        with pytest.raises(BudgetError):
            translate_with_trace(f, translator)

    def test_open_formula_diagnostic(self):
        with pytest.raises(TranslateError) as err:
            translate_with_trace(app(5, Rel("r"), 6))
        assert "stuck" in str(err.value)
        assert isinstance(err.value.trace, list)

    def test_some_ternary(self):
        voc = gen_vocab()
        fact = translate_form(FSome(ARel("t")), voc.arity())
        v = check_equiv(FSome(ARel("t")), fact, voc, bound=2)
        assert v.status == "PASS" and v.checked > 0

    def test_literal_only_formulas(self):
        always = translate_with_trace(RAll(1, None, RTRUE))[0]
        never = translate_with_trace(RNot(REx(1, RTRUE)))[0]
        for m in iter_models(two_rel_vocab(), 2, ["r"]):
            assert fact_holds(always, m)
            assert not fact_holds(never, m)

    def test_depth_six_terminates(self):
        f = FIn(AProd(AVar("v1"), AVar("v6")), ARel("r"))
        for name in ("v6", "v5", "v4", "v3", "v2", "v1"):
            f = FAll(name, AUniv(), f)
        fact = translate_form(f, {"r": 2})
        assert fact.width >= 6
        v = check_equiv(f, fact, two_rel_vocab(), bound=2)
        assert v.status == "PASS"


def _expand(f):
    from alloy2fa.expand import expand_form
    return expand_form(f, gen_vocab().arity(),
                       closure=star_lifter(gen_vocab().arity()))


class TestSemanticPreservation:
    def test_generated_formulas_exhaustive_small(self):
        voc = gen_vocab()
        ar = voc.arity()
        for seed in range(80):
            f = gen_formula(seed)
            fact = translate_form(f, ar)
            v = check_equiv(f, fact, voc, bound=2)
            assert v.status == "PASS", "seed %d: %s" % (seed, v.detail)

    def test_generated_formulas_bound_three(self):
        voc = gen_vocab()
        ar = voc.arity()
        for seed in range(15):
            f = gen_formula(seed)
            fact = translate_form(f, ar)
            v = check_equiv(f, fact, voc, bound=3, samples=200, seed=seed)
            assert bool(v), "seed %d: %s" % (seed, v.detail)
            assert v.checked >= 200 or v.status == "PASS"


# Closures of operands with free variables, over gen_vocab().  In the
# first three a coreflexive sits beside the lifted closure application;
# the next three leave join witnesses beside a parameter; the last has
# two parameters and a join through one of them.
PARAMETRIC_CLOSURES = [
    pytest.param("all v0 : B | s in *(%s)" % e, id=e.replace(" ", ""))
    for e in ("v0 -> v0", "v0 <: (s . r)", "(s . r) :> v0",
              "(v0 <: s) . (r :> v0)", "(v0 <: s) . r", "s . (r :> v0)")
] + [pytest.param(body, id=key) for body, key in (
    ("all v0 : A | all v1 : B | (v1 -> v0) in *((v0 . r) <: (B -> A))",
     "(v0.r)<:(B->A)"),
    # a witness beside a marker: the closing rules take any item but x/y
    ("all v0 : A | r in *(r . (A -> v0))", "r.(A->v0)"),
    ("all v0 : A | all v1 : A | s in *(~r . (v0 <: r))", "~r.(v0<:r)"))]


class TestClosureLifting:
    def test_constant_composition(self):
        W, frames = translate_closure(
            AJoin(ARel("r"), ARel("s")), {}, {"r": 2, "s": 2})
        assert W == Star(Comp(Rel("r"), Rel("s")))
        assert frames == ()

    def test_constant_converse(self):
        W, _ = translate_closure(AConv(ARel("r")), {}, {"r": 2})
        assert W == Star(Conv(Rel("r")))

    def test_constant_meet_with_identity(self):
        W, _ = translate_closure(AInter(ARel("r"), AIden()), {}, {"r": 2})
        assert W == Star(Meet(Rel("r"), ID))

    def test_parametric_operand_gets_preservation_meet(self):
        W, frames = translate_closure(
            AProd(AVar("u"), AVar("u")), {"u": 1}, {})
        assert frames == (1,)
        assert isinstance(W, Star)
        assert isinstance(W.e, Meet)
        assert W.e.r == Comp(Conv(PI1), PI1)

    def test_lifted_application_sides(self):
        cb = star_lifter({"r": 2})
        got = cb((2, 3), AInter(ARel("r"), AProd(AVar("u"), AVar("u"))),
                 {"u": 1})
        assert got.lhs == (1, 2) and got.rhs == (1, 3)
        assert isinstance(got.rel, Star)

    def test_free_var_levels_sorted_by_level(self):
        e = AProd(AVar("b"), AVar("a"))
        assert free_var_levels(e, {"a": 2, "b": 4}) == (2, 4)

    def test_rotation_preserves_truth(self):
        voc = gen_vocab()
        base = RApp((1,), Rel("t", 3), (2, 3))
        for m in iter_models(voc, 2, ["t"]):
            space = tuple_space(m.atoms, 2)
            interp = interp_from_model(m, space)
            for a in m.atoms:
                for b in m.atoms:
                    for c in m.atoms:
                        env = {1: a, 2: b, 3: c}
                        want = eval_rl(base, space, interp, env)
                        for item, last in itertools.product(
                                (1, 2, 3), (False, True)):
                            rot = _rotated(base, item, last)
                            got = eval_rl(rot, space, interp, env)
                            assert got == want
                            end = rot.rhs[-1] if last else rot.lhs[0]
                            assert end == item

    def test_pointwise_coincidence_parametric(self):
        # (x,y) in *(u->u) for every binding of u, x, y
        f = FAll("u", AUniv(), FAll("x", AUniv(), FAll("y", AUniv(), FIn(
            AProd(AVar("x"), AVar("y")),
            AStar(AProd(AVar("u"), AVar("u")))))))
        voc = gen_vocab()
        fact = translate_form(f, voc.arity())
        v = check_equiv(f, fact, voc, bound=2)
        assert v.status == "PASS" and v.checked > 0

    def test_pointwise_coincidence_with_relation(self):
        f = FAll("u", ASig("A"), FAll("x", AUniv(), FAll("y", AUniv(), FNot(
            FIn(AProd(AVar("x"), AVar("y")),
                AStar(AInter(ARel("r"), AProd(AVar("u"), ASig("B")))))))))
        voc = gen_vocab()
        fact = translate_form(f, voc.arity())
        v = check_equiv(f, fact, voc, bound=2)
        assert v.status == "PASS" and v.checked > 0

    def test_nested_closures(self):
        inner = AStar(AJoin(ASig("A"), ARel("t")))
        f = FSome(AStar(AJoin(inner, ARel("s"))))
        voc = gen_vocab()
        fact = translate_form(f, voc.arity())
        v = check_equiv(f, fact, voc, bound=2)
        assert v.status == "PASS" and v.checked > 0

    @pytest.mark.parametrize("name, translate", TRANSLATORS,
                             ids=[n for n, _ in TRANSLATORS])
    @pytest.mark.parametrize("body", PARAMETRIC_CLOSURES)
    def test_parametric_closures_keep_their_meaning(self, body, name,
                                                    translate):
        form, arities = model_assert(
            "sig A { r : B, t : B -> A } sig B { s : A }\n"
            "assert { %s }\n" % body)
        v = check_equiv(form, translate(form, arities), gen_vocab(), bound=2)
        assert v.status == "PASS", v.detail

    # Closure lifting gets stuck on these in both translators: a literal
    # in the operand, a join witness under a disjunction, a witness seen
    # only on a diagonal, and a nested closure with a parameter. A
    # change that mends one moves it to PARAMETRIC_CLOSURES.
    @pytest.mark.xfail(strict=True, raises=TranslateError,
                       reason="closure lifting got stuck")
    @pytest.mark.parametrize("name, translate", TRANSLATORS,
                             ids=[n for n, _ in TRANSLATORS])
    @pytest.mark.parametrize("body", [
        pytest.param(body, id=key) for key, body in (
            ("literal-1", "iden in *(A -> none) :> univ"),
            ("literal-2", "*iden = r . *(univ -> univ)"),
            ("disjunction", "all v0 : B | all v1 : A | s in *((v0 + B) . t)"),
            ("diagonal", "r in *((A & B) . (B -> s))"),
            ("nested", "all v0 : A | r in *(r . s . *((v0 <: r) . s))"))])
    def test_stuck_closures_translate_and_certify(self, body, name,
                                                  translate):
        form, arities = model_assert(
            "sig A { r : B, t : B -> A } sig B { s : A }\n"
            "assert { %s }\n" % body)
        v = check_equiv(form, translate(form, arities), gen_vocab(), bound=2)
        assert v, v.detail

    def test_definition_rules_leave_lifted_applications_whole(self):
        # (1,2) (id x id) (1,3) relates the pair (1,2) to the pair (1,3):
        # no rotation puts atom 1 alone in front, so a coreflexive on 1
        # must not be composed onto it
        lifted = RApp((1, 2), Prod(ID, ID), (1, 3))
        t = REx(3, RAnd(RApp((1,), Phi("B"), (1,)), lifted))
        assert step(t, (DEFINITION_RULES,), RunState()) is None

    # At 2 atoms *e equals iden + e, so only 3 atoms, where e.e can need
    # a second step, tell a closure from one that lost its star.
    @pytest.mark.parametrize("name, translate", TRANSLATORS,
                             ids=[n for n, _ in TRANSLATORS])
    @pytest.mark.parametrize("body", [
        "e.e in *e", "all a : A | a.e.e in a.*(e :> A)", "e.e in *(~~e)",
        "all v0 : A | v0.e.e in v0.*(e - (v0 -> v0))"])
    def test_closures_see_transitivity_at_three_atoms(self, body, name,
                                                      translate):
        form, arities = model_assert("sig A { e : A }\nassert { %s }\n"
                                     % body)
        vocab = Vocab(sigs={"A": SigInfo("A")}, rels={"e": ("A", "A")})
        v = check_equiv(form, translate(form, arities), vocab, bound=3)
        assert (v.status, v.checked) == ("PASS", 530), v.detail

    def test_closure_membership_through_navigation(self):
        f = FAll("a", ASig("A"), FIn(
            AJoin(AVar("a"), AStar(AJoin(ARel("r"), ARel("s")))),
            ASig("A")))
        voc = gen_vocab()
        fact = translate_form(f, voc.arity())
        v = check_equiv(f, fact, voc, bound=3, samples=500)
        assert bool(v) and v.checked > 0


# iden between two levels of one binder: substituting the outer level
# by the deeper one would break unbind's renumbering.
@pytest.mark.parametrize("name, translate", TRANSLATORS,
                         ids=[n for n, _ in TRANSLATORS])
@pytest.mark.parametrize("body", [
    "iden in iden", "iden & r in iden", "iden in ~iden",
    "(r & iden) in (none -> none)", "(A <: iden) = iden", "iden = *iden",
    "iden = ~iden"])
def test_iden_asserts_keep_their_meaning(body, name, translate):
    form, arities = model_assert("sig A { r : A }\nassert { %s }\n" % body)
    vocab = Vocab(sigs={"A": SigInfo("A")}, rels={"r": ("A", "A")})
    v = check_equiv(form, translate(form, arities), vocab, bound=2)
    assert v.status == "PASS", v.detail


def _wrapped(t):
    return isinstance(t, RMark)


class TestPipelineStates:
    def test_marker_wrapper_tracks_the_phase(self):
        f = RAll(2, None, app(1, Rel("r"), 2))
        _, trace = translate_with_trace(f)
        flags = [_wrapped(s.after) for s in trace]
        # normalization runs before the wrap, elimination under it
        assert not _wrapped(f) and not flags[0]
        assert flags[-1]
        assert flags == sorted(flags)

    def test_snapshots_are_pipeline_states(self):
        f = RAll(1, None, RTRUE)
        _, trace = translate_with_trace(f)
        assert trace and all(_wrapped(s.after) for s in trace[1:])
        assert nesting(trace[-1].after) == 0


class TestLargeInputs:
    """Long chains translate: neither translator may raise a
    RecursionError (deep nests fail at parse, see test_frontend)."""

    @pytest.mark.parametrize("name, translate", TRANSLATORS,
                             ids=[n for n, _ in TRANSLATORS])
    @pytest.mark.parametrize("op", ["and", "or", "=>"])
    def test_300_long_chains_translate(self, op, name, translate):
        text = "sig A {}\nassert a { %s }" % (" %s " % op).join(
            ["some A"] * 300)
        form, arities = model_assert(text)
        fact = translate(form, arities)
        assert isinstance(fact, (FactEq, FactLe))
