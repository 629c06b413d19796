"""Shortcut translator: oracle certificates, the frame-free readings and
the pair rules' scan."""

import random

import pytest

from alloy2fa.heuristics import (
    ALGEBRA_RULES,
    LOGIC_RULES,
    _indexed,
    _leaves,
    _rebuild,
    _scan,
    _solver,
    drop_vars,
    translate_h_with_trace,
)
from alloy2fa.oracle import SigInfo, Vocab, check_equiv, gen_vocab
from alloy2fa.strategy import Rule, RunState, rewrite
from alloy2fa.terms import (
    BOT,
    ID,
    PI1,
    PI2,
    TOP,
    Comp,
    Conv,
    FactEq,
    FactLe,
    Join,
    Meet,
    Phi,
    RAll,
    RAnd,
    RApp,
    REx,
    RFalse,
    RMark,
    RNot,
    ROr,
    RTrue,
    Rel,
)

R = Rel("r")
S = Rel("s")


def app(l, rel, r):
    return RApp((l,), rel, (r,))


def two_rel_vocab():
    return Vocab(sigs={"A": SigInfo("A")},
                 rels={"r": ("A", "A"), "s": ("A", "A")})


def test_generated_formulas_certify(golden_translations):
    vocab = gen_vocab()
    for key, form, fact in golden_translations["short"]:
        if key.startswith("seed"):
            v = check_equiv(form, fact, vocab, bound=2)
            assert v.status == "PASS", "%s: %s" % (key, v.detail)


@pytest.mark.parametrize("config", ["mech", "short"])
def test_generated_formulas_sampled_at_three_atoms(golden_translations,
                                                   config):
    """Seeds 0-59 at 3 atoms, on 40 sampled models each: a SAMPLED
    verdict finds no counterexample, it proves nothing."""
    vocab = gen_vocab()
    for key, form, fact in golden_translations[config]:
        if key.startswith("seed"):
            v = check_equiv(form, fact, vocab, bound=3, max_exhaustive=0,
                            samples=40, seed=int(key[len("seed"):]))
            assert v.status != "FAIL", "%s: %s" % (key, v.detail)


@pytest.mark.parametrize("source, target", [("mech", "short"),
                                            ("short", "mech")])
def test_mechanical_and_shortcut_facts_are_equivalent(golden_translations,
                                                      source, target):
    # the source fact is evaluated on the carrier of the wider of the two
    vocab = gen_vocab()
    pairs = zip(golden_translations[source], golden_translations[target])
    for (key, _, a), (_, _, b) in pairs:
        if key.startswith("seed"):
            v = check_equiv(a, b, vocab, bound=2)
            assert v.status == "PASS", "%s: %s" % (key, v.detail)


class TestDropVars:
    @pytest.mark.parametrize("formula, fact", [
        (RTrue(), FactEq(TOP, TOP)),
        (RFalse(), FactEq(TOP, BOT)),
        # totality, in either orientation
        (RAll(2, None, app(1, R, 2)), FactEq(R, TOP)),
        (RAll(2, None, app(2, R, 1)), FactEq(Conv(R), TOP)),
        # inclusion
        (RAll(2, app(1, R, 2), app(1, S, 2)), FactLe(R, S)),
        (RAll(2, app(2, R, 1), app(1, S, 2)), FactLe(Conv(R), S)),
        # reflexivity, plain and ranged
        (RAll(1, None, app(1, R, 1)), FactLe(ID, R)),
        (RAll(1, app(1, Phi("A"), 1), app(1, R, 1)),
         FactLe(Meet(Phi("A"), ID), R)),
    ])
    def test_pattern(self, formula, fact):
        got = drop_vars(formula)
        assert got == fact
        assert got.width == 0
        assert check_equiv(formula, got, two_rel_vocab(), bound=2).status \
            == "PASS"

    @pytest.mark.parametrize("formula", [
        RMark(app(1, R, 2)),
        RAll(2, None, RAnd(app(1, R, 2), app(1, S, 2))),
        RAll(2, None, app(1, R, 1)),
        RAll(1, app(1, R, 2), app(1, S, 1)),
        REx(2, app(1, R, 2)),
        RNot(RTrue()),
    ])
    def test_other_shapes_need_frames(self, formula):
        assert drop_vars(formula) is None


class TestTranslate:
    def test_frame_free_fact_has_width_zero(self):
        fact, trace = translate_h_with_trace(RAll(2, None, app(1, R, 2)))
        assert fact == FactEq(R, TOP)
        assert fact.width == 0
        assert trace == []

    def test_framed_fact_carries_its_width(self):
        f = RAll(1, None, REx(1, RAnd(app(1, R, 2), RNot(app(2, S, 1)))))
        fact, trace = translate_h_with_trace(f)
        assert fact.width == 2
        assert any(s.rule == "discharge-innermost-exists" for s in trace)
        assert check_equiv(f, fact, two_rel_vocab(), bound=2).status \
            == "PASS"


def all_pairs_rule(name, kind, fn):
    """The pair rule as it was: every leaf pair of the spine, in (i, j)
    order, each tried both ways round."""

    def go(t, ctx):
        leaves = _leaves(kind, t)
        for i in range(len(leaves)):
            for j in range(i + 1, len(leaves)):
                for a, b in ((leaves[i], leaves[j]), (leaves[j], leaves[i])):
                    res = fn(a, b)
                    if res is not None:
                        rest = [x for k, x in enumerate(leaves)
                                if k not in (i, j)]
                        return _rebuild(kind, [res] + rest)
        return None

    return Rule(name, kind, go)


def random_spine(rng, kind, pool, n):
    """A randomly bracketed spine of n leaves drawn from a small pool, so
    that duplicates and units are planted at random places."""
    if n == 1:
        return rng.choice(pool)
    k = rng.randrange(1, n)
    return kind(random_spine(rng, kind, pool, k),
                random_spine(rng, kind, pool, n - k))


FORMULA_POOL = [app(1, R, 1), app(1, S, 1), app(1, R, 2), RTrue(), RFalse()]
TERM_POOL = [R, S, Conv(R), TOP, BOT, ID, Phi("A"), Comp(Conv(PI1), R),
             Comp(Conv(PI2), S)]


class TestLatticeIndex:
    """The lattice rules find their first straddling pair through an
    index; on any two sides, with or without matches within one side,
    it is the scan's first pair, and fn is tried on it as the scan
    tries it."""

    @pytest.mark.parametrize("fn, marks", [
        (_solver("conjunction-pair", pair=True), (RTrue, RFalse)),
        (_solver("disjunction-pair", pair=True), (RFalse, RTrue)),
    ], ids=["conjunction", "disjunction"])
    def test_same_first_pair_and_calls_as_the_scan(self, fn, marks):
        rng = random.Random(repr(marks))
        # a prefix of the pool holds the units only when it is long
        pool = [app(1, R, 1), app(1, S, 1), app(1, R, 2), app(2, S, 1),
                app(1, R, 3), RNot(app(1, R, 1)), RTrue(), RFalse()]
        hits = misses = 0
        for _ in range(400):
            left, right = ([rng.choice(pool[:rng.randint(1, len(pool))])
                            for _ in range(rng.randint(1, 6))]
                           for _ in range(2))
            calls = {"scan": [], "index": []}

            def logged(key):
                def pair(a, b):
                    calls[key].append((a, b))
                    return fn(a, b)
                return pair

            want = _scan(logged("scan"), left, right)
            got = _indexed(marks, logged("index"), left, right)
            assert got == want
            tried = calls["index"]
            assert len(tried) == (0 if want is None else
                                  1 if len(calls["scan"]) % 2 else 2)
            assert tried == calls["scan"][len(calls["scan"]) - len(tried):]
            hits += want is not None
            misses += want is None
        assert hits > 100 and misses > 50


class TestPairScan:
    """The pair rules scan only the pairs that straddle the root; under
    the engine's order that finds what the all-pairs scan found."""

    @pytest.mark.parametrize("name, kind, fn, bank, pool", [
        ("conjunction-pair", RAnd, _solver("conjunction-pair", pair=True),
         LOGIC_RULES, FORMULA_POOL),
        ("disjunction-pair", ROr, _solver("disjunction-pair", pair=True),
         LOGIC_RULES, FORMULA_POOL),
        ("meet-pair", Meet, _solver("meet-pair", pair=True), ALGEBRA_RULES,
         TERM_POOL),
        ("join-pair", Join, _solver("join-pair", pair=True), ALGEBRA_RULES,
         TERM_POOL),
    ], ids=["conjunction", "disjunction", "meet", "join"])
    def test_same_rewrites_as_the_all_pairs_scan(self, name, kind, fn, bank,
                                                 pool):
        ref = all_pairs_rule(name, kind, fn)
        ref_bank = [ref if r.name == name else r for r in bank]
        assert ref_bank != bank
        rng = random.Random(name)
        fired = 0
        for n in range(3, 9):
            for _ in range(40):
                t = random_spine(rng, kind, rng.sample(pool, 4), n)
                got, want = RunState(), RunState()
                assert rewrite(t, (bank,), got) == rewrite(t, (ref_bank,),
                                                           want)
                assert [(s.rule, s.after) for s in got.trace] == [
                    (s.rule, s.after) for s in want.trace]
                fired += sum(s.rule == name for s in got.trace)
        assert fired > 200
