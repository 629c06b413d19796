"""Engine discipline: positions, bank priority, traces, budgets."""

import dataclasses
import random
import time

import pytest

from alloy2fa import strategy
from alloy2fa.strategy import (
    BudgetError, Rule, RunState, StrategyError, rewrite, step,
)
from alloy2fa.terms import (
    BOT, RFALSE, RTRUE, TOP, Comp, Compl, Conv, FAExpr, Join, Meet,
    Node, Phi, RAll, RAnd, RApp, REx, RFalse, RImp, RMark, RNot, ROr, RTrue,
    Rel, fa_text, subterms,
)


def collapse_twin(t, depth):
    return t.l if t.l == t.r else None


COLLAPSE = Rule("collapse-twin", Join, collapse_twin)


def drop_conv(t, depth):
    if isinstance(t, Conv) and isinstance(t.e, Conv):
        return t.e.e
    return None


DROP_CONV = Rule("drop-double-converse", Conv, drop_conv)


def run(t, banks, budget=10000):
    """rewrite on a fresh state: (fixpoint, trace)."""
    state = RunState(budget=budget)
    return rewrite(t, banks, state), state.trace


class TestOnce:
    def test_fires_leftmost_innermost(self):
        t = Meet(Join(Rel("a"), Rel("a")), Join(Rel("b"), Rel("b")))
        state = RunState()
        out = step(t, ([COLLAPSE],), state)
        assert fa_text(out) == "(a & (b + b))"
        assert len(state.trace) == 1
        assert state.trace[0].rule == "collapse-twin"
        assert state.trace[0].before == t and state.trace[0].after == out

    def test_inner_beats_outer(self):
        t = Join(Join(Rel("a"), Rel("a")), Join(Rel("a"), Rel("a")))
        out = step(t, ([COLLAPSE],), RunState())
        # the root also matches, but the left child goes first
        assert fa_text(out) == "(a + (a + a))"

    def test_no_match_returns_input_unchanged(self):
        t = Meet(Rel("a"), Rel("b"))
        state = RunState()
        assert step(t, ([COLLAPSE],), state) is None
        out, trace = run(t, ([COLLAPSE],))
        assert out is t and trace == [] and state.trace == []

    def test_rule_order_decides_at_one_position(self):
        to_meet = Rule("join-to-meet", Join, lambda t, depth: Meet(t.l, t.r))
        t = Join(Rel("a"), Rel("a"))
        assert step(t, ([COLLAPSE, to_meet],), RunState()) == Rel("a")
        assert step(t, ([to_meet, COLLAPSE],), RunState()) == Meet(
            Rel("a"), Rel("a"))

    def test_position_beats_rule_order_within_a_bank(self):
        t = Meet(Conv(Conv(Rel("a"))), Join(Rel("b"), Rel("b")))
        out = step(t, ([COLLAPSE, DROP_CONV],), RunState())
        assert fa_text(out) == "(a & (b + b))"

    def test_a_rule_is_offered_only_the_nodes_of_its_kind(self):
        seen = []

        def probe(t, depth):
            seen.append(t)

        inner = RNot(RApp((1,), Conv(Rel("r")), (2,)))
        outer = RNot(REx(1, RAnd(inner, RApp((2,), Rel("s"), (1,)))))
        f = RAll(1, None, outer)
        assert step(f, ([Rule("probe", RNot, probe)],), RunState()) is None
        assert seen == [inner, outer]

    def test_a_tuple_kind_admits_each_of_its_classes(self):
        seen = []

        def probe(t, depth):
            seen.append((type(t).__name__, depth))

        f = RAll(1, None, RNot(REx(2, RApp((1,), Rel("r"), (3,)))))
        assert step(f, ([Rule("probe", (RAll, REx), probe)],),
                    RunState()) is None
        assert seen == [("REx", 1), ("RAll", 0)]

    def test_identity_rule_is_rejected(self):
        bad = Rule("noop", Join, lambda t, depth: t)
        with pytest.raises(StrategyError, match="noop"):
            step(Join(Rel("a"), Rel("b")), ([bad],), RunState())


class TestCombinators:
    """Bank tuples: `rewrite` iterates `step`, whose first bank with a
    redex fires."""

    def test_many_reaches_the_fixpoint(self):
        t = Join(Join(Rel("a"), Rel("a")), Join(Rel("a"), Rel("a")))
        out, trace = run(t, ([COLLAPSE],))
        assert out == Rel("a")
        assert [s.rule for s in trace] == ["collapse-twin"] * 3
        assert trace[0].before == t and trace[-1].after == out
        assert all(a.after == b.before for a, b in zip(trace, trace[1:]))

    def test_many_with_zero_firings_still_succeeds(self):
        t = Rel("a")
        out, trace = run(t, ([COLLAPSE],))
        assert out is t and trace == []

    def test_choice_takes_the_first_success(self):
        t = Conv(Conv(Rel("a")))
        assert step(t, ([COLLAPSE], [DROP_CONV]), RunState()) == Rel("a")

    def test_choice_fails_when_all_fail(self):
        assert step(Rel("a"), ([COLLAPSE], [DROP_CONV]), RunState()) is None

    def test_bank_priority_is_global(self):
        # the first bank's redex deep on the right beats the second
        # bank's redex at the leftmost position
        t = Meet(Conv(Conv(Rel("a"))),
                 Meet(Rel("b"), Join(Rel("c"), Rel("c"))))
        state = RunState()
        out = step(t, ([COLLAPSE], [DROP_CONV]), state)
        assert fa_text(out) == "((a~)~ & (b & c))"
        assert [s.rule for s in state.trace] == ["collapse-twin"]


class TestContext:
    def test_binder_depths_at_application_positions(self):
        seen = {}

        def probe(t, depth):
            seen[fa_text(t.rel)] = depth

        f = RAll(2, RApp((1,), Phi("A"), (1,)),
                 REx(1, RNot(RApp((1,), Rel("r"), (3,)))))
        step(f, ([Rule("probe", RApp, probe)],), RunState())
        # the range lives inside the binder's scope, like the body
        assert seen["Phi_A"] == 2
        assert seen["r"] == 3

    def test_special_wrapper_binds_no_level(self):
        seen = []

        def probe(t, depth):
            seen.append((type(t).__name__, depth))

        f = RMark(REx(1, RMark(RApp(("x",), Rel("r"), ("y",)))))
        step(f, ([Rule("probe", (RMark, RApp), probe)],), RunState())
        assert seen == [("RApp", 1), ("RMark", 1), ("RMark", 0)]

    def test_never_firing_rule_visits_innermost_first(self):
        seen = []

        def probe(t, depth):
            seen.append(fa_text(t))
            return None

        t = Meet(Comp(Rel("a"), Rel("b")), Rel("c"))
        assert step(t, ([Rule("probe", object, probe)],), RunState()) is None
        assert seen == ["a", "b", "(a . b)", "c", "((a . b) & c)"]


class TestBudgets:
    def test_budget_aborts_with_partial_trace(self):
        t = Join(Join(Rel("a"), Rel("a")), Join(Rel("a"), Rel("a")))
        with pytest.raises(BudgetError) as exc:
            run(t, ([COLLAPSE],), budget=2)
        trace = exc.value.trace
        assert len(trace) == 2
        assert trace[0].before == t
        assert trace[1].before == trace[0].after

    def test_too_deep_a_term_is_a_budget_error_not_a_recursion_error(self):
        t = RTRUE
        for _ in range(3000):
            t = RNot(t)
        drop = Rule("drop-double-negation", RNot, lambda t, depth: t.f.f
                    if isinstance(t.f, RNot) else None)
        start = time.perf_counter()
        with pytest.raises(BudgetError, match="nested too deeply") as exc:
            run(t, ([drop],))
        assert time.perf_counter() - start < 1
        assert exc.value.trace == [] and "!" not in str(exc.value)

    def test_a_term_that_grows_too_deep_keeps_its_partial_trace(self):
        grow = Rule("grow", RTrue, lambda t, depth: RNot(RNot(t)))
        with pytest.raises(BudgetError, match="nested too deeply") as exc:
            run(RTRUE, ([grow],))
        trace = exc.value.trace
        assert len(trace) > 100 and trace[0].before == RTRUE
        assert all(a.after is b.before for a, b in zip(trace, trace[1:]))


def balanced_join(leaves):
    if len(leaves) == 1:
        return leaves[0]
    mid = len(leaves) // 2
    return Join(balanced_join(leaves[:mid]), balanced_join(leaves[mid:]))


class TestCleanSubtermMemo:
    """A firing costs the path it rebuilt, not a rescan of the term."""

    def test_rule_calls_grow_with_the_changed_paths(self):
        calls = []

        def counted(t, depth):
            calls.append(t)
            return drop_conv(t, depth)

        leaves = [Conv(Conv(Rel("r%d" % i))) for i in range(64)]
        t = balanced_join(leaves)
        out, trace = run(t, ([Rule("counted", object, counted)],))
        assert out == balanced_join([Rel("r%d" % i) for i in range(64)])
        nodes = sum(1 for _ in subterms(t))
        firings = len(trace)
        depth = 6 + 2  # six Join levels above two converses
        assert (nodes, firings) == (255, 64)
        # a rescan from the root after every firing makes 4,159 calls;
        # firings x nodes would be 16,320
        assert len(calls) <= nodes + firings * depth

    def test_clean_under_one_bank_is_not_clean_under_another(self):
        state = RunState()
        t = Meet(Conv(Conv(Rel("a"))), Rel("b"))
        assert step(t, ([COLLAPSE],), state) is None
        out = step(t, ([DROP_CONV],), state)
        assert fa_text(out) == "(a & b)"
        assert [s.rule for s in state.trace] == ["drop-double-converse"]

    def test_clean_at_one_depth_is_not_clean_at_another(self):
        seen = []

        def deep_only(t, depth):
            if depth >= 2:
                seen.append(depth)
                return RApp(t.lhs, Conv(t.rel), t.rhs)
            return None

        app = RApp((1,), Rel("r"), (1,))
        state = RunState()
        bank = [Rule("deep-only", RApp, deep_only)]
        assert step(RAll(1, None, app), (bank,), state) is None
        # the same node object, one binder deeper, is a redex there
        out = step(RAll(1, None, RAll(1, None, app)), (bank,), state)
        assert out == RAll(1, None, RAll(1, None,
                                         RApp((1,), Conv(Rel("r")), (1,))))
        assert seen == [2]


class TestFASkip:
    """A bank with no rule of an FA kind returns at an FA term at once;
    a bank with one walks the term as before."""

    @staticmethod
    def formula(deep):
        """RNot over an application whose relation joins 100 relations
        and, as its rightmost leaf seven Join levels down, deep."""
        rel = balanced_join([Rel("r%d" % i) for i in range(100)] + [deep])
        return RNot(RApp((1,), rel, (2,)))

    def test_a_bank_without_fa_kinds_enters_no_fa_term(self, monkeypatch):
        visits = []
        real = strategy._once

        def counted(t, entry, plan, depth):
            visits.append(t)
            return real(t, entry, plan, depth)

        monkeypatch.setattr(strategy, "_once", counted)
        f = self.formula(Conv(Conv(Rel("deep"))))
        bank = [Rule("negation-probe", RNot, lambda t, depth: None)]
        assert step(f, (bank,), RunState()) is None
        # the walk enters the application and passes over its relation
        # without entering it, so nothing at or below f.f.rel
        assert visits == [f, f.f]
        visits.clear()
        out = step(f, (bank, [DROP_CONV]), RunState())
        assert out == self.formula(Rel("deep"))
        assert len(visits) > 201

    @pytest.mark.parametrize("kind", [Conv, (RNot, Conv), FAExpr])
    def test_a_bank_with_an_fa_kind_finds_a_deep_redex(self, kind):
        f = self.formula(Conv(Conv(Rel("deep"))))
        state = RunState()
        out = step(f, ([Rule("drop", kind, drop_conv)],), state)
        assert out == self.formula(Rel("deep"))
        assert [s.rule for s in state.trace] == ["drop"]

    def test_a_rule_of_kind_object_is_offered_fa_nodes(self):
        seen = []

        def probe(t, depth):
            seen.append(t)

        f = self.formula(Rel("deep"))
        step(f, ([Rule("probe", object, probe)],), RunState())
        fa = [t for t in seen if isinstance(t, FAExpr)]
        assert len(fa) == 201 and seen[-2:] == [f.f, f]


def reference_step(t, banks):
    """One firing as the module docstring defines it, with no memo, plan
    or skip: the first bank with a redex, at its leftmost-innermost one,
    by the bank's first rule whose kind admits the node; (term, rule
    name)."""

    def walk(t, bank, depth):
        inner = depth + t.width if isinstance(t, (RAll, REx)) else depth
        for f in dataclasses.fields(t):
            v = getattr(t, f.name)
            hit = walk(v, bank, inner) if isinstance(v, Node) else None
            if hit is not None:
                return dataclasses.replace(t, **{f.name: hit[0]}), hit[1]
        for rule in bank:
            res = rule.fn(t, depth) if isinstance(t, rule.kind) else None
            if res is not None:
                return res, rule.name
        return None

    return next(filter(None, (walk(t, bank, 0) for bank in banks)), None)


def random_fa(rng, size):
    """An FA term over few leaves, so twins and units recur."""
    if size <= 1 or rng.random() < 0.2:
        return rng.choice([Rel("r"), Rel("s"), TOP, BOT])
    op = rng.choice([Join, Meet, Comp, Conv, Conv, Compl])
    if op in (Conv, Compl):
        return op(random_fa(rng, size - 1))
    k = rng.randrange(1, size)
    return op(random_fa(rng, k), random_fa(rng, size - k))


# applications that recur at different depths, where the rules that
# read the depth treat them differently
SHARED_APPS = [RApp((1,), TOP, (1,)), RApp((1,), Rel("r"), (2,)),
               RApp((2,), Join(Rel("s"), Rel("s")), (1,))]


def random_rl(rng, size, depth):
    """An RL formula under depth levels whose applications read levels
    up to one past the binders above them."""
    if size <= 1 or rng.random() < 0.15:
        if rng.random() < 0.3:
            return rng.choice([RTRUE, RFALSE] + SHARED_APPS)
        top = depth + 1 if rng.random() < 0.15 else depth
        side = lambda: tuple(rng.randint(1, top)
                             for _ in range(rng.randint(1, 2)))
        return RApp(side(), random_fa(rng, rng.randint(1, 6)), side())
    op = rng.choice([RNot, RNot, RAnd, ROr, RImp, RAll, REx, RMark])
    if op is RNot:
        return RNot(random_rl(rng, size - 1, depth))
    if op is RMark:
        return RMark(random_rl(rng, size - 1, depth))
    if op in (RAll, REx):
        w = rng.randint(1, 2)
        body = random_rl(rng, size - 1, depth + w)
        if op is REx:
            return REx(w, body)
        rng_ = random_rl(rng, 2, depth + w) if rng.random() < 0.5 else None
        return RAll(w, rng_, body)
    k = rng.randrange(1, size)
    return op(random_rl(rng, k, depth), random_rl(rng, size - k, depth))


def _unit_pair(t, depth):
    """x & true, x || false, and their mirror images."""
    unit = RTrue if isinstance(t, RAnd) else RFalse
    if isinstance(t.r, unit):
        return t.l
    return t.r if isinstance(t.l, unit) else None


def _top_app(t, depth):
    """An application of TOP two binders down holds (reads the depth)."""
    return RTRUE if depth >= 2 and t.rel is TOP else None


def _free_level(t, depth):
    """An application reading a level no binder above it binds is false
    (reads the depth)."""
    return RFALSE if max(t.lhs + t.rhs) > depth else None


def _trivial_binder(t, depth):
    return t.body if isinstance(t.body, (RTrue, RFalse)) else None


def _lattice_unit(t, depth):
    unit = TOP if isinstance(t, Meet) else BOT
    return t.l if t.r is unit else None


# no FA kind; a tuple kind; two rules that read the depth
LOGIC = [
    Rule("double-negation", RNot,
         lambda t, depth: t.f.f if isinstance(t.f, RNot) else None),
    Rule("unit-pair", (RAnd, ROr), _unit_pair),
    Rule("top-app", RApp, _top_app),
    Rule("free-level", RApp, _free_level),
    Rule("trivial-binder", (RAll, REx), _trivial_binder),
]
# FA kinds, one of them a tuple
ALGEBRA = [COLLAPSE, DROP_CONV,
           Rule("lattice-unit", (Meet, Join), _lattice_unit)]


def _complement_twice(t, depth):
    if isinstance(t, Compl) and isinstance(t.e, Compl):
        return t.e.e
    return None


def _imp_true(t, depth):
    return RTRUE if isinstance(t, RImp) and t.r is RTRUE else None


# rules of kind object, offered every node of every language
ANY = [Rule("complement-twice", object, _complement_twice),
       Rule("imp-true", object, _imp_true)]


class TestReferenceWalker:
    """The engine's plans, clean-subterm memo and skips change its cost,
    never its firings: on random formulas its trace is the naive walk's,
    step by step, across banks that share one run state."""

    @pytest.mark.parametrize("seed", range(4))
    def test_traces_equal_the_naive_walk(self, seed):
        rng = random.Random(seed)
        fired = {}
        for _ in range(100):
            t = RAll(1, None, random_rl(rng, rng.randint(4, 24), 1))
            state = RunState()
            for banks in ((LOGIC,), (ALGEBRA, LOGIC), (LOGIC, ALGEBRA, ANY),
                          (ANY, ALGEBRA)):
                start = len(state.trace)
                out = rewrite(t, banks, state)
                want = []
                while (hit := reference_step(t, banks)) is not None:
                    want.append((hit[1], t, hit[0]))
                    t = hit[0]
                assert out is t
                assert [(s.rule, s.before, s.after)
                        for s in state.trace[start:]] == want
                for rule, _, _ in want:
                    fired[rule] = fired.get(rule, 0) + 1
        names = {r.name for r in LOGIC + ALGEBRA + ANY}
        assert set(fired) == names and sum(fired.values()) > 150
