"""Expansion of core formulas into relational logic: golden shapes for
every membership rule, contract errors, the applications-only scanner,
and semantic agreement with direct Alloy evaluation."""

import pytest

from alloy2fa.expand import ExpandError, expand_form, expand_membership
from alloy2fa.oracle import (
    eval_alloy,
    eval_rl,
    gen_formula,
    gen_vocab,
    interp_from_model,
    iter_models,
    mentioned_rels,
    model_count,
    sample_model,
    tuple_space,
)
from alloy2fa.terms import (
    AIden,
    AInter,
    AJoin,
    ANone,
    AProd,
    ARanRes,
    ADomRes,
    ADiff,
    ARel,
    ASig,
    AStar,
    AConv,
    AUnion,
    AUniv,
    AVar,
    FAll,
    FAnd,
    FEq,
    FIn,
    FNot,
    FOr,
    FSome,
    Id,
    Phi,
    RApp,
    Rel,
    Star,
    rl_text,
)

ARITY = {"r": 2, "s": 2, "t": 3}


def ex(f, closure=None):
    return expand_form(f, ARITY, closure)


class TestFormRules:
    def test_some_binary(self):
        assert rl_text(ex(FSome(ARel("r")))) == "<E2 :: 1 r 2>"

    def test_some_ternary_nests_input(self):
        assert rl_text(ex(FSome(ARel("t")))) == "<E3 :: 1 t (2,3)>"

    def test_membership_is_ranged_universal(self):
        got = ex(FIn(ASig("A"), ASig("B")))
        assert rl_text(got) == "<A1 : 1 Phi_A 1: 1 Phi_B 1>"

    def test_negation_and_conjunction_are_homomorphic(self):
        got = ex(FNot(FAnd(FSome(ARel("r")), FSome(ARel("s")))))
        assert rl_text(got) == "!(<E2 :: 1 r 2> && <E2 :: 1 s 2>)"

    def test_quantifier_ranges_over_bound(self):
        f = FAll("x", ASig("A"), FSome(AJoin(AVar("x"), ARel("r"))))
        assert rl_text(ex(f)) == (
            "<A1 : 1 Phi_A 1: <E1 :: <E1 :: 3 id 1 && 3 r 2>>>"
        )

    def test_levels_grow_outside_in(self):
        f = FAll("x", ASig("A"), FAll("y", ASig("B"),
                 FIn(AVar("x"), AVar("y"))))
        assert rl_text(ex(f)) == (
            "<A1 : 1 Phi_A 1: <A1 : 2 Phi_B 2: <A1 : 3 id 1: 3 id 2>>>"
        )

    def test_non_core_is_rejected(self):
        with pytest.raises(ExpandError):
            ex(FOr(FSome(ARel("r")), FSome(ARel("s"))))
        with pytest.raises(ExpandError):
            ex(FEq(ARel("r"), ARel("s")))

    def test_membership_arity_mismatch(self):
        with pytest.raises(ExpandError):
            ex(FIn(ASig("A"), ARel("r")))


class TestMembershipRules:
    def body(self, rhs_expr, lhs_expr=None, arity=2):
        lhs = lhs_expr if lhs_expr is not None else (
            ARel("r") if arity == 2 else ARel("t"))
        return rl_text(ex(FIn(lhs, rhs_expr)))

    def test_relation_application(self):
        assert self.body(ARel("s")) == "<A2 : 1 r 2: 1 s 2>"

    def test_signature_is_diagonal(self):
        got = rl_text(ex(FIn(ASig("A"), ASig("B"))))
        assert "1 Phi_B 1" in got

    def test_univ_and_none(self):
        assert self.body(AUniv(), lhs_expr=ASig("A"), arity=1) == (
            "<A1 : 1 Phi_A 1: true>"
        )
        assert self.body(ANone(), lhs_expr=ASig("A"), arity=1) == (
            "<A1 : 1 Phi_A 1: false>"
        )

    def test_iden(self):
        assert self.body(AIden()) == "<A2 : 1 r 2: 1 id 2>"

    def test_union_inter_diff(self):
        assert self.body(AUnion(ARel("s"), ARel("r"))) == (
            "<A2 : 1 r 2: 1 s 2 || 1 r 2>"
        )
        assert self.body(AInter(ARel("s"), ARel("r"))) == (
            "<A2 : 1 r 2: 1 s 2 && 1 r 2>"
        )
        assert self.body(ADiff(ARel("s"), ARel("r"))) == (
            "<A2 : 1 r 2: 1 s 2 && !1 r 2>"
        )

    def test_converse_swaps(self):
        assert self.body(AConv(ARel("s"))) == "<A2 : 1 r 2: 2 s 1>"

    def test_join_splits_with_fresh_inner_level(self):
        got = rl_text(ex(FSome(AJoin(ARel("t"), ARel("r")))))
        assert got == "<E3 :: <E1 :: 1 t (2,4) && 4 r 3>>"

    def test_unary_join_binds_first_column(self):
        got = rl_text(ex(FSome(AJoin(ASig("A"), ARel("r")))))
        assert got == "<E1 :: <E1 :: 2 Phi_A 2 && 2 r 1>>"

    def test_product_splits_tuple(self):
        got = rl_text(ex(FIn(ARel("r"), AProd(ASig("A"), ASig("B")))))
        assert got == "<A2 : 1 r 2: 1 Phi_A 1 && 2 Phi_B 2>"

    def test_domain_restriction(self):
        got = self.body(ADomRes(ASig("A"), ARel("s")))
        assert got == "<A2 : 1 r 2: 1 Phi_A 1 && 1 s 2>"

    def test_range_restriction_checks_last_column_first(self):
        got = self.body(ARanRes(ARel("s"), ASig("B")))
        assert got == "<A2 : 1 r 2: 2 Phi_B 2 && 1 s 2>"

    def test_star_of_bare_relation_stays_application(self):
        got = self.body(AStar(ARel("s")))
        assert got == "<A2 : 1 r 2: 1 (s*) 2>"

    def test_star_of_compound_needs_callback(self):
        with pytest.raises(ExpandError):
            ex(FIn(ARel("r"), AStar(AConv(ARel("s")))))

    def test_closure_callback_receives_context(self):
        seen = {}

        def cb(xs, operand, env):
            seen["xs"], seen["operand"] = xs, operand
            seen["env"] = dict(env)
            return RApp((xs[0],), Star(Rel("s")), (xs[1],))

        f = FAll("x", ASig("A"),
                 FIn(ARel("r"), AStar(AConv(ARel("s")))))
        ex(f, closure=cb)
        assert seen["xs"] == (2, 3)
        assert isinstance(seen["operand"], AConv)
        assert seen["env"] == {"x": 1}

    def test_width_mismatch_in_direct_call(self):
        with pytest.raises(ExpandError):
            expand_membership((1,), ARel("r"), ARITY)

    def test_direct_call_infers_levels_from_items(self):
        got = expand_membership((1, 2), AJoin(ARel("r"), ARel("s")), ARITY)
        # the fresh join variable lands above the given items
        assert rl_text(got) == "<E1 :: 1 r 3 && 3 s 2>"


def all_apps(f):
    out = []
    stack = [f]
    while stack:
        g = stack.pop()
        if isinstance(g, RApp):
            out.append(g)
        for fld in ("f", "l", "r", "rng", "body"):
            v = getattr(g, fld, None)
            if v is not None and not isinstance(v, (str, int, tuple, bool)):
                stack.append(v)
    return out


def scan_constants_only(f):
    for app in all_apps(f):
        rel = app.rel
        if isinstance(rel, Star):
            rel = rel.e
        assert isinstance(rel, (Rel, Phi, Id)), rel


class TestScannerInvariant:
    def test_generated_formulas_expand_to_applications_only(self):
        for seed in range(120):
            f = gen_formula(seed)
            scan_constants_only(expand_form(f, ARITY))

    def test_every_connective_survives_in_rl_form(self):
        f = FNot(FAnd(FIn(ARel("r"), AUnion(ARel("s"), AStar(ARel("r")))),
                      FSome(ARel("t"))))
        scan_constants_only(ex(f))


def models_for(f, n_models=140):
    vocab = gen_vocab()
    rels = sorted(mentioned_rels(f))
    for n in (1, 2):
        if model_count(vocab, n, rels) <= n_models:
            yield from iter_models(vocab, n, rels)
        else:
            import random
            rng = random.Random(7000 + n)
            for _ in range(n_models // 2):
                yield sample_model(vocab, n, rels, rng)
    import random
    rng = random.Random(7003)
    for _ in range(12):
        yield sample_model(vocab, 3, rels, rng)


class TestSemanticPreservation:
    """Expansion preserves truth against direct Alloy evaluation."""

    def check(self, f):
        rl = expand_form(f, gen_vocab().arity())
        for m in models_for(f):
            space = tuple_space(m.atoms, 2)
            interp = interp_from_model(m, space)
            want = eval_alloy(f, m)
            got = eval_rl(rl, space, interp)
            assert got == want, (f, m)

    def test_generated_formulas(self):
        for seed in range(40):
            self.check(gen_formula(seed))

    def test_ternary_join_chain(self):
        self.check(FSome(AJoin(ARel("t"), ARel("r"))))

    def test_closure_membership(self):
        self.check(FIn(ARel("r"), AStar(ARel("r"))))

    def test_quantified_navigation(self):
        self.check(
            FAll("x", ASig("A"),
                 FIn(AJoin(AVar("x"), ARel("r")), ASig("B")))
        )

    def test_restrictions(self):
        self.check(FIn(ADomRes(ASig("A"), ARel("r")),
                       ARanRes(ARel("r"), ASig("B"))))
