"""Shortcut translator: oracle certificates, the frame-free readings, and
the pair rules' scan, index and memoized spine leaves and keys."""

import functools
import random

import pytest

from alloy2fa.heuristics import (
    ALGEBRA_RULES,
    LOGIC_RULES,
    _LINKS,
    _indexed,
    _keys,
    _leaf_class,
    _leaves,
    _partners,
    _rebuild,
    _scan,
    _solver,
    drop_vars,
    translate_h_with_trace,
)
from alloy2fa.pipeline import _spine_memo
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
    Fork,
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


def flatten(kind, t) -> tuple:
    """The leaves of t's spine of kind nodes, left to right, by a plain
    walk: the reference for the memoized spine values."""
    out, todo = [], [t]
    while todo:
        x = todo.pop()
        if isinstance(x, kind):
            todo += [x.r, x.l]
        else:
            out.append(x)
    return tuple(out)


def all_pairs_rule(name, kind, fn):
    """The pair rule as it was: every leaf pair of the spine, in (i, j)
    order, each tried both ways round."""

    def go(t, ctx):
        leaves = flatten(kind, t)
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
# every leaf class of the index, the marks last, so that a short prefix
# of a pool holds none of them
INDEX_POOLS = {
    "formula": [app(1, R, 1), app(1, S, 1), app(1, R, 2), app(2, S, 1),
                app(1, R, 3), RNot(app(1, R, 1)), RTrue(), RFalse()],
    "term": [R, S, Conv(R), Comp(R, S), Conv(PI1), Phi("A"),
             Comp(Conv(PI1), R), ID, Phi("B"), Comp(Conv(PI2), S),
             Comp(Conv(PI1), S), TOP, BOT],
}
PLAIN = {"formula": [app(1, Rel("p%d" % i), 2) for i in range(80)],
         "term": [Rel("p%d" % i) for i in range(80)]}
LATTICE_RULES = [("conjunction-pair", RAnd, "formula"),
                 ("disjunction-pair", ROr, "formula"),
                 ("meet-pair", Meet, "term"), ("join-pair", Join, "term")]
RULES = {r.name: r for r in LOGIC_RULES + ALGEBRA_RULES}


class TestLatticeIndex:
    """The lattice rules answer most nodes from their sides' key sets and
    find their first straddling pair through an index; on any two sides,
    with or without matches within one side, that is the scan's first
    pair, fn is tried on it as the scan tries it, and the rule rewrites
    the node as the scan would."""

    @pytest.mark.parametrize("name, kind, pool", LATTICE_RULES,
                             ids=["conjunction", "disjunction", "meet",
                                  "join"])
    def test_same_first_pair_and_calls_as_the_scan(self, name, kind, pool):
        fn, partners = _solver(name, pair=True), _partners(_LINKS[name])
        pool, plain = INDEX_POOLS[pool], PLAIN[pool]
        rng = random.Random(name)
        hits = misses = 0
        for _ in range(600):
            # sides of up to 40 leaves: distinct plain leaves, a share of
            # them replaced by leaves of a prefix of the pool
            size, share = rng.choice((6, 6, 40)), rng.random()
            base = pool[:rng.randint(1, len(pool))]
            n = rng.randint(1, size)
            leaves = [rng.choice(base) if rng.random() < share else x
                      for x in rng.sample(plain, n + rng.randint(1, size))]
            left, right = leaves[:n], leaves[n:]
            calls = {"scan": [], "index": []}

            def logged(key):
                def pair(a, b):
                    calls[key].append((a, b))
                    return fn(a, b)
                return pair

            want = _scan(logged("scan"), left, right)
            got = _indexed(partners, logged("index"), left, right)
            assert got == want
            tried = calls["index"]
            assert len(tried) == (0 if want is None else
                                  1 if len(calls["scan"]) % 2 else 2)
            assert tried == calls["scan"][len(calls["scan"]) - len(tried):]
            t = kind(_rebuild(kind, left), _rebuild(kind, right))
            assert RULES[name].fn(t, 0) == (None if want is None else
                                            _rebuild(kind, [
                                                want[2],
                                                *left[:want[0]],
                                                *left[want[0] + 1:],
                                                *right[:want[1]],
                                                *right[want[1] + 1:]]))
            hits += want is not None
            misses += want is None
        assert hits > 150 and misses > 100

    def test_every_row_class_pairs(self):
        # each kind of row fires through the index: unit, zero,
        # idempotence, Phi & id and the fork row
        meet = _solver("meet-pair", pair=True)
        find = functools.partial(_indexed, _partners(_LINKS["meet-pair"]))
        fork = Comp(Conv(PI1), R), Comp(Conv(PI2), S)
        for left, right, res in [
                ((R, S), (Conv(R), TOP), R), ((R, BOT), (S,), BOT),
                ((R, S), (Conv(R), S), S), ((R, Phi("A")), (S, ID), Phi("A")),
                ((ID,), (Phi("A"),), Phi("A")), (fork[:1], fork[1:],
                                                  Fork(R, S)),
                (fork[1:], fork[:1], Fork(R, S))]:
            assert find(meet, left, right)[2] == res
        join = functools.partial(_indexed, _partners(_LINKS["join-pair"]))
        solve = _solver("join-pair", pair=True)
        assert join(solve, (R, S), (BOT,)) == (0, 0, R)
        assert join(solve, (R, S), (Conv(R), TOP)) == (0, 1, TOP)
        assert join(solve, (Phi("A"),), (ID,)) is None
        assert join(solve, fork[:1], fork[1:]) is None


class TestSpineMemo:
    """A spine node's leaves and keys are joined from its children's
    memoized values; they must equal a plain flattening."""

    @pytest.mark.parametrize("name, kind, pool", LATTICE_RULES,
                             ids=["conjunction", "disjunction", "meet",
                                  "join"])
    def test_rebuilt_spines_match_a_plain_flattening(self, name, kind,
                                                     pool):
        rng = random.Random("memo " + name)
        pool = INDEX_POOLS[pool]
        for _ in range(150):
            t = random_spine(rng, kind, pool, rng.randint(2, 30))
            for _ in range(3):
                want = flatten(kind, t)
                assert _leaves(kind, t) == want
                assert _keys(kind, t) == (frozenset(want), sum(
                    {1 << _leaf_class(x) for x in want}))
                # rebuild the path to a random leaf, as a firing does
                t = replace_leaf(rng, kind, t, rng.choice(pool))
        assert len(_leaves.memo) <= _leaves.cap
        assert len(_keys.memo) <= _keys.cap

    def test_a_deep_spine_flattens(self):
        leaves = [app(1, Rel("deep%d" % i), 2) for i in range(2000)]
        assert _leaves(RAnd, _rebuild(RAnd, leaves)) == tuple(leaves)
        # every node of the fresh spine was memoized with its leaves, 2
        # million in all; they need not stay for the tests that follow
        _leaves.memo.clear()

    def test_the_memo_holds_at_most_its_cap(self):
        value = _spine_memo(lambda x: (x,), tuple.__add__, cap=8)
        rng = random.Random(3)
        for _ in range(200):
            t = random_spine(rng, Meet, TERM_POOL, rng.randint(2, 12))
            assert value(Meet, t) == flatten(Meet, t)
            assert len(value.memo) <= 8


def replace_leaf(rng, kind, t, leaf):
    """t with one random leaf of its spine replaced by leaf; the nodes on
    the path to it are new, the rest are t's."""
    path = []
    while isinstance(t, kind):
        side = rng.choice("lr")
        path.append((t, side))
        t = getattr(t, side)
    for node, side in reversed(path):
        leaf = kind(leaf, node.r) if side == "l" else kind(node.l, leaf)
    return leaf


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
        # short spines of four leaves, then long ones of mostly distinct
        # leaves, where nearly every node the rule is offered holds no
        # match
        plain = PLAIN["formula" if kind in (RAnd, ROr) else "term"]
        for n in (*range(3, 9), 20, 40):
            for _ in range(40 if n < 9 else 6):
                leaves = rng.sample(pool, 4) if n < 9 else (
                    rng.sample(plain, n - 4) + rng.sample(pool, 4))
                t = random_spine(rng, kind, leaves, n) if n < 9 else \
                    shuffled_spine(rng, kind, leaves)
                got, want = RunState(), RunState()
                assert rewrite(t, (bank,), got) == rewrite(t, (ref_bank,),
                                                           want)
                assert [(s.rule, s.after) for s in got.trace] == [
                    (s.rule, s.after) for s in want.trace]
                fired += sum(s.rule == name for s in got.trace)
        assert fired > 200


def shuffled_spine(rng, kind, leaves):
    """A randomly bracketed spine of the leaves, each once, in a random
    order."""
    leaves = rng.sample(leaves, len(leaves))
    while len(leaves) > 1:
        i = rng.randrange(len(leaves) - 1)
        leaves[i:i + 2] = [kind(leaves[i], leaves[i + 1])]
    return leaves[0]
