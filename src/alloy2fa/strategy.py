"""Rewrite engine: prioritized rule banks, leftmost-innermost.

A rule is a named partial function on one node class, its `kind` (or a
tuple of classes); it may be built from equations.  The engine checks
the class and offers a rule only the nodes of its kind, so the rule
tests only the shape below the root.  A rule either fails (None) or
returns a *different* term.  A bank is a list of rules, and a rewrite
runs over a tuple of banks in priority order.  `step` fires once: the
first bank with a redex anywhere in the term wins, at that bank's
leftmost-innermost redex, where the bank's first matching rule fires.
`rewrite` repeats `step` to a fixpoint.  Every firing is recorded as a
whole-term snapshot in the `RunState`, which also caps the number of
firings of one run; a term too deep to walk is a `BudgetError` too.

Rules must be pure: a rule's result depends on its term and its depth
and on nothing else, and terms are immutable.  The `RunState` compiles
each bank once per run into a `_Plan`, which holds a table from node
class to the rules offered to it, filled on first sight of the class,
and the clean-subterm memo: every subterm a traversal found free of the
bank's redexes at given depths, keyed by the hash-consed node (in the
manner of Stratego's and Maude's memoized traversals).  A later `step`
skips such a subterm, so a firing costs the path it rebuilt and the new
subterm, not the whole term; it picks the position, rule and bank a
rescan picks.  The plan of a bank none of whose kinds touches `FAExpr`
maps every FA class to None: FA terms hold only FA terms.

The walk reads a node's child slots directly, by the slot names `terms`
records per class (`_kids`).  A parent passes over a child whose class
the plan maps to None or whose (node, depth) is clean without calling
the walk on it, and `step` does the same at the root; so the walk is
called only on nodes the bank has not yet found clean.  A rebuilt node
is looked up in the intern table by `terms.with_child`.

Rules see one depth, the number of levels bound on the path to their
position: `RAll` and `REx` raise it by their width, and the marker
wrapper `RMark` binds none.  Terms of all three languages (RL formulas,
FA expressions, facts) share the slot layout of `terms`; item tuples
inside applications are data to it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List

from .terms import FAExpr, RAll, REx, with_child


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


class _Plan(dict):
    """A bank compiled for one run: node class -> (the rules offered to
    it, its child slot names, whether it binds levels), or None where
    no rule can fire at the node or below it; and the bank's
    clean-subterm memo, {(node, depth)}."""

    def __init__(self, bank):
        self.bank, self.clean = bank, set()
        kinds = [k for r in bank for k in
                 (r.kind if isinstance(r.kind, tuple) else (r.kind,))]
        self.fa = any(issubclass(k, FAExpr) or issubclass(FAExpr, k)
                      for k in kinds)

    def __missing__(self, cls):
        skip = not self.fa and issubclass(cls, FAExpr)
        self[cls] = entry = None if skip else (
            tuple(r for r in self.bank if issubclass(cls, r.kind)),
            cls._kids, issubclass(cls, (RAll, REx)))
        return entry


@dataclass
class RunState:
    budget: int = 10000
    steps: int = 0
    trace: List[TraceStep] = field(default_factory=list)
    plans: dict = field(default_factory=dict, repr=False)  # rules -> _Plan
    last: tuple = field(default=((), ()), repr=False)  # (banks, plans)


def _once(t, entry, plan: _Plan, depth: int):
    """(rewritten t, rule) at the bank's leftmost-innermost redex, or None.

    t is a node the walk must enter: entry = plan[type(t)] is not None
    and (t, depth) is not clean.  A child that the plan skips or the
    clean set holds is passed over without a call.  Both slots of a
    quantifier (range and body) lie inside its scope.  A subterm found
    free of redexes is entered in the clean set.
    """
    rules, kids, binds = entry
    inner = depth + t.width if binds else depth
    clean = plan.clean
    for name in kids:
        v = getattr(t, name)
        if v is None:
            continue
        e = plan[type(v)]
        if e is None or (v, inner) in clean:
            continue
        hit = _once(v, e, plan, inner)
        if hit is not None:
            return with_child(t, name, hit[0]), hit[1]
    for rule in rules:
        res = rule.fn(t, depth)
        if res is not None:
            if res == t:
                raise StrategyError(
                    "rule %s returned its input unchanged" % rule.name)
            return res, rule
    clean.add((t, depth))
    return None


def step(t, banks, state: RunState):
    """Fire the first bank with a redex once; None when no bank has one."""
    if state.last[0] is not banks:
        state.last = banks, [state.plans.setdefault(tuple(b), _Plan(b))
                             for b in banks]
    try:
        for plan in state.last[1]:
            entry = plan[type(t)]
            if entry is None or (t, 0) in plan.clean:
                continue
            hit = _once(t, entry, plan, 0)
            if hit is not None:
                break
        else:
            return None
    except RecursionError:
        # the term is left out: over a thousand levels deep, it would
        # render to a line no message should carry
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
