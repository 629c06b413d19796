"""Rewrite engine: prioritized rule banks, leftmost-innermost.

A rule is a named partial function on one node class, its `kind` (or
a tuple of classes).  The engine checks the class and offers a rule
only the nodes of its kind, so the rule tests only the shape below the
root.  A rule either fails (None) or returns a *different* term.  A
bank is a list of rules, and a rewrite runs over a tuple of banks in
priority order.  `step` fires once: the first bank with a redex
anywhere in the term wins, at that bank's leftmost-innermost redex,
where the bank's first matching rule fires.
`rewrite` repeats `step` to a fixpoint.  Every firing is recorded as a
whole-term snapshot in the `RunState`, which also caps the number of
firings of one run; a term too deep to walk is a `BudgetError` too.

Rules must be pure: a rule's result depends on its term and its depth
and on nothing else, and terms are immutable.
The engine relies on that to remember, per bank, every subterm a
traversal found free of redexes at given depths (the clean-subterm
memo on `RunState`, in the manner of Stratego's and Maude's memoized
traversals), keyed by the hash-consed node.  A later `step` skips such
a subterm, so a firing costs the path it rebuilt and the new subterm,
not the whole term; it picks the position, rule and bank a rescan picks.

Rules see one depth, the number of levels bound on the path to their
position: `RAll` and `REx` raise it by their width, and the marker
wrapper `RMark` binds none.
Terms of all three languages (RL formulas, FA expressions, facts) share
the generic traversal `terms.children`; item tuples inside applications
are opaque to it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List

from .terms import RAll, REx, children, with_child


class StrategyError(Exception):
    """A rule broke the engine contract (e.g. returned its input)."""


class BudgetError(Exception):
    """Step budget or stack depth exhausted; carries the partial trace."""

    def __init__(self, msg: str, trace: list):
        super().__init__(msg)
        self.trace = trace


@dataclass(frozen=True)
class Rule:
    name: str
    kind: type | tuple  # the node class(es) fn is offered
    fn: Callable  # (term, depth) -> Optional[term]


@dataclass(frozen=True)
class TraceStep:
    rule: str
    before: object
    after: object


@dataclass
class RunState:
    budget: int = 10000
    steps: int = 0
    trace: List[TraceStep] = field(default_factory=list)
    # the bank's rules -> {(node, depth) free of its redexes}
    clean: dict = field(default_factory=dict, repr=False)


def _once(t, bank, depth: int, clean: set):
    """(rewritten t, rule) at the bank's leftmost-innermost redex, or None.

    Both slots of a quantifier (range and body) lie inside its scope.
    A subterm found free of redexes is entered in `clean` and skipped
    the next time.
    """
    key = (t, depth)
    if key in clean:
        return None
    inner = depth + t.width if isinstance(t, (RAll, REx)) else depth
    for name, v in children(t):
        hit = _once(v, bank, inner, clean)
        if hit is not None:
            return with_child(t, name, hit[0]), hit[1]
    for rule in bank:
        if not isinstance(t, rule.kind):
            continue
        res = rule.fn(t, depth)
        if res is not None:
            if res == t:
                raise StrategyError(
                    "rule %s returned its input unchanged" % rule.name)
            return res, rule
    clean.add(key)
    return None


def step(t, banks, state: RunState):
    """Fire the first bank with a redex once; None when no bank has one."""
    try:
        for bank in banks:
            clean = state.clean.setdefault(tuple(bank), set())
            hit = _once(t, bank, 0, clean)
            if hit is not None:
                break
        else:
            return None
    except RecursionError:
        # the term is not rendered: rendering recurses as deep as the walk
        raise BudgetError("term nested too deeply for the rewrite engine "
                          "after %d steps" % state.steps,
                          state.trace) from None
    out, rule = hit
    state.steps += 1
    if state.steps > state.budget:
        raise BudgetError(
            "rewrite budget of %d steps exhausted (last rule %s)"
            % (state.budget, rule.name), state.trace)
    state.trace.append(TraceStep(rule.name, t, out))
    return out


def rewrite(t, banks, state: RunState):
    """Repeat `step` until no bank has a redex; returns the fixpoint."""
    while True:
        out = step(t, banks, state)
        if out is None:
            return t
        t = out
