"""Strategic rewriting engine.

A rule is a named partial function on terms; it either fails (None) or
returns a *different* term.  Strategies combine rules: `Once` applies the
first matching rule at the leftmost-innermost position, `Choice` takes
the first success, `Many` iterates to fixpoint.  Every
firing is recorded in a trace of whole-term snapshots so derivations can
be replayed and pretty-printed.

Rules see a context carrying the quantifier depth at their position:
`binder_depth` counts all bound levels on the path, `ex_depth` only the
existentially bound ones, and `special` is set inside the marker wrapper.
Terms of all three languages (RL formulas, FA expressions, facts) share
the generic traversal `terms.children`; item tuples inside applications
are opaque to it.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Callable, List

from .terms import RAll, REx, children


class StrategyError(Exception):
    """A rule broke the engine contract (e.g. returned its input)."""


class BudgetError(Exception):
    """Step budget exhausted; carries the partial trace."""

    def __init__(self, msg: str, trace: list):
        super().__init__(msg)
        self.trace = trace


@dataclass(frozen=True)
class Rule:
    name: str
    fn: Callable  # (term, Ctx) -> Optional[term]


@dataclass(frozen=True)
class Ctx:
    binder_depth: int = 0
    ex_depth: int = 0
    special: bool = False
    path: tuple = ()


@dataclass(frozen=True)
class TraceStep:
    rule: str
    before: object
    after: object
    path: tuple


@dataclass
class RunState:
    budget: int = 10000
    steps: int = 0
    trace: List[TraceStep] = field(default_factory=list)
    _path: tuple = ()
    _last_rule: str = ""

    def fire(self, rule: Rule, path: tuple):
        self.steps += 1
        if self.steps > self.budget:
            raise BudgetError(
                "rewrite budget of %d steps exhausted (last rule %s)"
                % (self.budget, rule.name), self.trace)
        self._path = path


def child_ctx(t, ctx: Ctx, index: int) -> Ctx:
    """Context of the index-th child of t; both slots of a quantifier
    (range and body) lie inside its scope."""
    path = ctx.path + (index,)
    if isinstance(t, (RAll, REx)):
        if isinstance(t, RAll) and t.special:
            return Ctx(ctx.binder_depth, ctx.ex_depth, True, path)
        ex = ctx.ex_depth + (t.width if isinstance(t, REx) else 0)
        return Ctx(ctx.binder_depth + t.width, ex, ctx.special, path)
    return Ctx(ctx.binder_depth, ctx.ex_depth, ctx.special, path)


class Strategy:
    def run(self, t, state: RunState):
        raise NotImplementedError

    def __call__(self, t, budget: int = 10000):
        """Run standalone; returns the (possibly unchanged) term and trace."""
        state = RunState(budget=budget)
        out = self.run(t, state)
        return (t if out is None else out), state.trace


class Once(Strategy):
    """Apply the first matching rule at the leftmost-innermost position."""

    def __init__(self, rules):
        self.rules = [rules] if isinstance(rules, Rule) else list(rules)

    def run(self, t, state: RunState):
        res = self._descend(t, Ctx(), state)
        if res is not None:
            state.trace.append(
                TraceStep(state._last_rule, t, res, state._path))
        return res

    def _descend(self, t, ctx: Ctx, state: RunState):
        for i, (name, v) in enumerate(children(t)):
            sub = self._descend(v, child_ctx(t, ctx, i), state)
            if sub is not None:
                return dataclasses.replace(t, **{name: sub})
        return self._here(t, ctx, state)

    def _here(self, t, ctx: Ctx, state: RunState):
        for rule in self.rules:
            res = rule.fn(t, ctx)
            if res is not None:
                if res == t:
                    raise StrategyError(
                        "rule %s returned its input unchanged" % rule.name)
                state.fire(rule, ctx.path)
                state._last_rule = rule.name
                return res
        return None


class Choice(Strategy):
    def __init__(self, *parts):
        self.parts = parts

    def run(self, t, state: RunState):
        for p in self.parts:
            res = p.run(t, state)
            if res is not None:
                return res
        return None


class Many(Strategy):
    """Iterate to fixpoint; zero applications still succeed."""

    def __init__(self, inner: Strategy):
        self.inner = inner

    def run(self, t, state: RunState):
        cur = t
        while True:
            res = self.inner.run(cur, state)
            if res is None:
                return cur
            cur = res


def replay(trace: List[TraceStep], first, final) -> bool:
    """Check a trace chains from first to final with no gaps."""
    cur = first
    for step in trace:
        if step.before != cur:
            return False
        cur = step.after
    return cur == final
