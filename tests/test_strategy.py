"""Engine discipline: positions, traces, budgets."""

import pytest

from alloy2fa.strategy import (
    BudgetError, Choice, Many, Once, Rule, StrategyError, replay,
)
from alloy2fa.terms import (
    Comp, Conv, Join, Meet, Phi, RAll, RApp, REx, RNot, Rel, fa_text,
)


def collapse_twin(t, ctx):
    if isinstance(t, Join) and t.l == t.r:
        return t.l
    return None


COLLAPSE = Rule("collapse-twin", collapse_twin)


def drop_conv(t, ctx):
    if isinstance(t, Conv) and isinstance(t.e, Conv):
        return t.e.e
    return None


DROP_CONV = Rule("drop-double-converse", drop_conv)


class TestOnce:
    def test_fires_leftmost_innermost(self):
        t = Meet(Join(Rel("a"), Rel("a")), Join(Rel("b"), Rel("b")))
        out, trace = Once(COLLAPSE)(t)
        assert fa_text(out) == "(a & (b + b))"
        assert len(trace) == 1
        assert trace[0].rule == "collapse-twin"
        assert trace[0].path == (0,)
        assert trace[0].before == t and trace[0].after == out

    def test_inner_beats_outer(self):
        t = Join(Join(Rel("a"), Rel("a")), Join(Rel("a"), Rel("a")))
        out, trace = Once(COLLAPSE)(t)
        # the root also matches, but the left child goes first
        assert fa_text(out) == "(a + (a + a))"

    def test_no_match_returns_input_unchanged(self):
        t = Meet(Rel("a"), Rel("b"))
        out, trace = Once(COLLAPSE)(t)
        assert out is t and trace == []

    def test_rule_order_decides_at_one_position(self):
        to_meet = Rule("join-to-meet",
                       lambda t, ctx: Meet(t.l, t.r)
                       if isinstance(t, Join) else None)
        t = Join(Rel("a"), Rel("a"))
        assert Once([COLLAPSE, to_meet])(t)[0] == Rel("a")
        assert Once([to_meet, COLLAPSE])(t)[0] == Meet(Rel("a"), Rel("a"))

    def test_identity_rule_is_rejected(self):
        bad = Rule("noop", lambda t, ctx: t if isinstance(t, Join) else None)
        with pytest.raises(StrategyError, match="noop"):
            Once(bad)(Join(Rel("a"), Rel("b")))


class TestCombinators:
    def test_many_reaches_the_fixpoint(self):
        t = Join(Join(Rel("a"), Rel("a")), Join(Rel("a"), Rel("a")))
        out, trace = Many(Once(COLLAPSE))(t)
        assert out == Rel("a")
        assert [s.rule for s in trace] == ["collapse-twin"] * 3
        assert replay(trace, t, out)

    def test_many_with_zero_firings_still_succeeds(self):
        t = Rel("a")
        out, trace = Many(Once(COLLAPSE))(t)
        assert out is t and trace == []

    def test_choice_takes_the_first_success(self):
        t = Conv(Conv(Rel("a")))
        out, _ = Choice(Once(COLLAPSE), Once(DROP_CONV))(t)
        assert out == Rel("a")

    def test_choice_fails_when_all_fail(self):
        t = Rel("a")
        out, trace = Choice(Once(COLLAPSE), Once(DROP_CONV))(t)
        assert out is t and trace == []



class TestContext:
    def test_binder_depths_at_application_positions(self):
        seen = {}

        def probe(t, ctx):
            if isinstance(t, RApp):
                seen[fa_text(t.rel)] = (ctx.binder_depth, ctx.ex_depth,
                                        ctx.special)
            return None

        f = RAll(2, RApp((1,), Phi("A"), (1,)),
                 REx(1, None, RNot(RApp((1,), Rel("r"), (3,)))))
        Once(Rule("probe", probe))(f)
        # the range lives inside the binder's scope, like the body
        assert seen["Phi_A"] == (2, 0, False)
        assert seen["r"] == (3, 1, False)

    def test_special_wrapper_sets_the_flag(self):
        seen = {}

        def probe(t, ctx):
            if isinstance(t, RApp):
                seen["app"] = (ctx.binder_depth, ctx.special)
            return None

        f = RAll(2, None, RApp(("x",), Rel("r"), ("y",)), special=True)
        Once(Rule("probe", probe))(f)
        assert seen["app"] == (0, True)

    def test_paths_address_field_positions(self):
        hits = []

        def probe(t, ctx):
            if isinstance(t, Rel):
                hits.append((t.name, ctx.path))
            return None

        # a never-firing rule sees every position, innermost-first
        Once(Rule("probe", probe))(Meet(Comp(Rel("a"), Rel("b")), Rel("c")))
        assert hits == [("a", (0, 0)), ("b", (0, 1)), ("c", (1,))]


class TestBudgets:
    def test_budget_aborts_with_partial_trace(self):
        t = Join(Join(Rel("a"), Rel("a")), Join(Rel("a"), Rel("a")))
        with pytest.raises(BudgetError) as exc:
            Many(Once(COLLAPSE))(t, budget=2)
        assert len(exc.value.trace) == 2

    def test_replay_rejects_tampered_traces(self):
        t = Join(Join(Rel("a"), Rel("a")), Join(Rel("a"), Rel("a")))
        out, trace = Many(Once(COLLAPSE))(t)
        assert replay(trace, t, out)
        assert not replay(trace[1:], t, out)
        assert not replay(trace, t, Rel("b"))
