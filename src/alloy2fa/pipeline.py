"""Variable elimination: quantified relational formulas to point-free facts.

The driver, `translate_with_trace`, runs a `Translator`: a pre-pass of
rule banks and a read-off, then the elimination loop.  The loop
rewrites a closed formula with the normalization bank to existential
shape, wraps it under the marker pair, then calls `strategy.rewrite`
with the translator's prioritized banks until a single `x REL y`
application survives; that application is read off as an equation
between variable-free terms.  Levels never need renaming along the way:
every rule either discharges the innermost level of the enclosing block
or leaves binders untouched.

`EQUATIONS` states the rules that are laws, both translators' and the
shortcut read-off, as rows read by `terms.match`.  A pattern variable
stands for a term of its kind, or for data: a width or an item tuple.

Closure operands take a separate route.  Their membership formula is
expanded with a private marker pair cx/cy and their free variables as
markers a1..ak, so their only levels are the join witnesses, which the
definition rules (defined here for that reason) compose away.  The
markers a1..ak then lead the tuples of an endorelation that is starred.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
from typing import Callable, Optional

from .expand import expand_form, expand_membership
from .strategy import Rule, RunState, rewrite
from .terms import (
    BOT,
    ID,
    MARK_CX,
    MARK_CY,
    MARK_X,
    MARK_Y,
    PI1,
    PI2,
    RFALSE,
    RTRUE,
    TOP,
    AlloyExpr,
    AlloyForm,
    AVar,
    Comp,
    Compl,
    Conv,
    FactEq,
    FactLe,
    FAFact,
    Fork,
    Id,
    Join,
    Ldiv,
    Meet,
    Phi,
    Prod,
    RAll,
    RAnd,
    RApp,
    REx,
    RFalse,
    RImp,
    RLFormula,
    RMark,
    RNot,
    ROr,
    RTrue,
    Star,
    Var,
    children,
    cut,
    fold,
    instantiate,
    match,
    ncomp,
    projX,
    rl_text,
    rotate,
    subterms,
    unbind,
)


class TranslateError(Exception):
    """The rewrite loop reached a fixpoint that is not a fact."""

    def __init__(self, msg: str, trace=None):
        super().__init__(msg)
        self.trace = list(trace or [])


def nesting(f: RLFormula) -> int:
    """Largest number of levels simultaneously in scope anywhere in f."""
    return fold(f, lambda x, v: max(v, default=0) + (
        x.width if isinstance(x, (RAll, REx)) else 0),
        lambda x: not isinstance(x, RApp))


# ---------------------------------------------------------------------------
# rules stated as equations


def _by_rule(rows) -> dict:
    """{rule name: [(lhs, rhs), ...]} of (rule name, lhs, rhs) rows."""
    table = {}
    for name, lhs, rhs in rows:
        table.setdefault(name, []).append((lhs, rhs))
    return table


X, Y, Z, W, P = Var("X"), Var("Y"), Var("Z"), Var("W"), Var("P", Phi)
F, G, H = Var("F", RLFormula), Var("G", RLFormula), Var("H", RLFormula)
# data: a binder's width and an application's item tuples
N, U, V = Var("N", int), Var("U", tuple), Var("V", tuple)

# One row per equation, a rule's rows in the order they are tried, as
# in egg's rewrite lists: FA equations, fact equivalences, RL
# equivalences, and the read-off of a closed formula's fact.  A pair
# rule's left sides are nodes of its kind.
EQUATIONS = _by_rule([
    ("meet-pair", Meet(X, TOP), X),
    ("meet-pair", Meet(X, BOT), BOT),
    ("meet-pair", Meet(X, X), X),
    ("meet-pair", Meet(P, ID), P),
    ("meet-pair", Meet(Comp(Conv(PI1), X), Comp(Conv(PI2), Y)), Fork(X, Y)),
    ("join-pair", Join(X, BOT), X),
    ("join-pair", Join(X, TOP), TOP),
    ("join-pair", Join(X, X), X),
    ("converse-collapse", Conv(Conv(X)), X),
    ("converse-collapse", Conv(ID), ID),
    ("converse-collapse", Conv(TOP), TOP),
    ("converse-collapse", Conv(BOT), BOT),
    ("converse-distribute", Conv(Comp(X, Y)), Comp(Conv(Y), Conv(X))),
    ("converse-distribute", Conv(Meet(X, Y)), Meet(Conv(X), Conv(Y))),
    ("converse-distribute", Conv(Join(X, Y)), Join(Conv(X), Conv(Y))),
    ("complement-collapse", Compl(Compl(X)), X),
    ("complement-collapse", Compl(Conv(Compl(X))), Conv(X)),
    ("complement-collapse", Compl(TOP), BOT),
    ("complement-collapse", Compl(BOT), TOP),
    ("complement-distribute", Compl(Meet(X, Y)), Join(Compl(X), Compl(Y))),
    ("complement-distribute", Compl(Join(X, Y)), Meet(Compl(X), Compl(Y))),
    ("complement-distribute", Compl(Comp(X, Y)), Ldiv(Conv(X), Compl(Y))),
    ("complement-distribute", Compl(Ldiv(X, Y)), Comp(Conv(X), Compl(Y))),
    ("composition-unit", Comp(X, ID), X),
    ("composition-unit", Comp(ID, X), X),
    ("composition-unit", Comp(BOT, X), BOT),
    ("composition-unit", Comp(X, BOT), BOT),
    ("residual-units", Ldiv(BOT, X), TOP),
    ("residual-units", Ldiv(X, TOP), TOP),
    ("residual-units", Ldiv(ID, X), X),
    ("fork-converse-meet", Comp(Conv(Fork(X, Y)), Fork(Z, W)),
     Meet(Comp(Conv(X), Z), Comp(Conv(Y), W))),
    # (id nabla T) . X  duplicates X over both components
    ("fork-absorbs-composition", Comp(Fork(ID, TOP), X),
     Fork(X, Comp(TOP, X))),
    ("product-intro", Fork(Comp(X, PI1), Comp(Y, PI2)), Prod(X, Y)),
    # each fact holds exactly when its rewrite does
    ("inequation-normalize", FactLe(Compl(X), Compl(Y)), FactLe(Y, X)),
    ("inequation-normalize", FactLe(TOP, Conv(X)), FactLe(TOP, X)),
    ("inequation-normalize", FactLe(Conv(X), BOT), FactLe(X, BOT)),
    ("inequation-normalize", FactLe(X, Ldiv(Y, Z)), FactLe(Comp(Y, X), Z)),
    ("conjunction-pair", RAnd(F, RTRUE), F),
    ("conjunction-pair", RAnd(F, RFALSE), RFALSE),
    ("conjunction-pair", RAnd(F, F), F),
    ("disjunction-pair", ROr(F, RFALSE), F),
    ("disjunction-pair", ROr(F, RTRUE), RTRUE),
    ("disjunction-pair", ROr(F, F), F),
    ("double-negation", RNot(RNot(F)), F),
    ("negated-literal", RNot(RTRUE), RFALSE),
    ("negated-literal", RNot(RFALSE), RTRUE),
    ("negation-over-and", RNot(RAnd(F, G)), ROr(RNot(F), RNot(G))),
    ("negation-over-or", RNot(ROr(F, G)), RAnd(RNot(F), RNot(G))),
    ("implication-literal", RImp(RFALSE, F), RTRUE),
    ("implication-literal", RImp(RTRUE, F), F),
    ("implication-curry", RImp(F, RImp(G, H)), RImp(RAnd(F, G), H)),
    ("negation-to-implication", ROr(RNot(F), G), RImp(F, G)),
    # normalization: implications and universal quantifiers out
    ("implication-to-or", RImp(F, G), ROr(RNot(F), G)),
    ("forall-range-to-implication", RAll(N, F, G),
     RAll(N, None, RImp(F, G))),
    ("forall-to-not-exists", RAll(N, None, F), RNot(REx(N, RNot(F)))),
    # combining: connectives between co-located applications
    ("combine-and", RAnd(RApp(U, X, V), RApp(U, Y, V)),
     RApp(U, Meet(X, Y), V)),
    ("combine-or", ROr(RApp(U, X, V), RApp(U, Y, V)),
     RApp(U, Join(X, Y), V)),
    ("complement-not", RNot(RApp(U, X, V)), RApp(U, Compl(X), V)),
    # forall u : rng : (a => b)  keeps a as part of the range
    ("forall-absorb-implication", RAll(N, None, RImp(F, G)), RAll(N, F, G)),
    ("forall-absorb-implication", RAll(N, H, RImp(F, G)),
     RAll(N, RAnd(H, F), G)),
    # the fact a closed formula denotes, quantified over plain elements
    # only: a literal, a binary application over levels 1 and 2 either
    # way round, or a diagonal one, each with or without a range
    ("read-off", RTRUE, FactEq(TOP, TOP)),
    ("read-off", RFALSE, FactEq(TOP, BOT)),
    ("read-off", RAll(2, None, RApp((1,), X, (2,))), FactEq(X, TOP)),
    ("read-off", RAll(2, None, RApp((2,), X, (1,))), FactEq(Conv(X), TOP)),
    ("read-off", RAll(2, RApp((1,), Y, (2,)), RApp((1,), X, (2,))),
     FactLe(Y, X)),
    ("read-off", RAll(2, RApp((2,), Y, (1,)), RApp((1,), X, (2,))),
     FactLe(Conv(Y), X)),
    ("read-off", RAll(2, RApp((1,), Y, (2,)), RApp((2,), X, (1,))),
     FactLe(Y, Conv(X))),
    ("read-off", RAll(2, RApp((2,), Y, (1,)), RApp((2,), X, (1,))),
     FactLe(Conv(Y), Conv(X))),
    ("read-off", RAll(1, None, RApp((1,), X, (1,))), FactLe(ID, X)),
    ("read-off", RAll(1, RApp((1,), Y, (1,)), RApp((1,), X, (1,))),
     FactLe(Meet(Y, ID), X)),
])


def _solver(name: str, pair=False):
    """Memoized rewriting by EQUATIONS[name]: the rhs of the first whose
    lhs matches the redex, or None.  A pair rule's solver matches two
    leaves against each lhs's operands; spine scans repeat their pairs."""
    table = [((lhs.l, lhs.r) if pair else (lhs,), rhs)
             for lhs, rhs in EQUATIONS[name]]

    @functools.lru_cache(maxsize=1 << 14)
    def solve(*ts):
        for pats, rhs in table:
            env = {}
            if all(map(match, pats, ts, itertools.repeat(env))):
                return instantiate(rhs, env)
        return None

    return solve


def _equation_rule(name: str) -> Rule:
    """The node rule of EQUATIONS[name]; it ignores the depth."""
    solve = _solver(name)
    return Rule(name, type(EQUATIONS[name][0][0]), lambda t, depth: solve(t))


# normalization: implications and universal quantifiers out
_NORMALIZE_RULES = [_equation_rule(name) for name in (
    "implication-to-or", "forall-range-to-implication",
    "forall-to-not-exists")]


# ---------------------------------------------------------------------------
# framing: every application gets the frame sides x REL (1,..,n)


def _selector(n: int, items: tuple):
    """Term steering the level tuple (1,..,n) onto the given items."""
    if len(items) == 1:
        return projX(n, items[0])
    return Fork(projX(n, items[0]), _selector(n, items[1:]))


def _frame_app(rel, n: int) -> RApp:
    if n == 0:
        return RApp((MARK_X,), rel, (MARK_Y,))
    return RApp((MARK_X,), rel, tuple(range(1, n + 1)))


def _r_uniform(t, depth):
    items = t.lhs + t.rhs
    if not all(isinstance(i, int) for i in items):
        return None
    if depth < max(items):  # open formula: the level is nobody's to frame
        return None
    body = Meet(_selector(depth, t.lhs),
                Comp(t.rel, _selector(depth, t.rhs)))
    return RApp((MARK_X,), Comp(TOP, body), tuple(range(1, depth + 1)))


def _r_true(t, depth):
    return _frame_app(TOP, depth)


def _r_false(t, depth):
    return _frame_app(BOT, depth)


_FRAME_RULES = [
    Rule("frame-application", RApp, _r_uniform),
    Rule("frame-true", RTrue, _r_true),
    Rule("frame-false", RFalse, _r_false),
]


# connectives between co-located applications become operators
_COMBINE_RULES = [_equation_rule(name) for name in (
    "combine-and", "combine-or", "complement-not")]


# ---------------------------------------------------------------------------
# discharging: the innermost existential level is cut off the frame tuple


def _r_discharge(t, depth):
    if not isinstance(t.body, RApp):
        return None
    app = t.body
    n = depth + t.width
    if app.lhs != (MARK_X,) or app.rhs != tuple(range(1, n + 1)):
        return None
    if n == 1:
        return RApp((MARK_X,), Comp(app.rel, TOP), (MARK_Y,))
    inner = RApp((MARK_X,), Comp(app.rel, cut(n)), tuple(range(1, n)))
    return inner if t.width == 1 else REx(t.width - 1, inner)


_DISCHARGE_RULES = [Rule("discharge-innermost-exists", REx, _r_discharge)]


# ---------------------------------------------------------------------------
# reading the fact off the shortened formula


def fact_of(f: RLFormula) -> Optional[FAFact]:
    """The fact `x R y` under the marker wrapper denotes, if f is that."""
    if (isinstance(f, RMark) and isinstance(f.body, RApp)
            and f.body.lhs == (MARK_X,) and f.body.rhs == (MARK_Y,)):
        return FactEq(f.body.rel, TOP)
    return None


# ---------------------------------------------------------------------------
# the driver


@dataclasses.dataclass(frozen=True)
class Translator:
    """Rule banks configuring the driver: `pre` rewrites first, and a
    fact `read_off` finds in the result is rewritten with `post`;
    otherwise the elimination loop runs `banks` in priority order."""

    banks: tuple
    pre: tuple = ()
    read_off: Optional[Callable] = None  # RL formula -> fact or None
    post: tuple = ()


# The paper's mechanical elimination.  The frame and discharge rules read
# the depth as the number of existential levels on the path.  That is
# exact because the loop runs only after normalization, which leaves no
# universal, and no loop rule builds one.
MECHANICAL = Translator((_COMBINE_RULES, _DISCHARGE_RULES, _FRAME_RULES))


def translate_with_trace(f: RLFormula, translator=MECHANICAL):
    """Eliminate all variables from a closed formula; returns the fact
    and the rewrite trace: (fact, trace).  A fact of the loop is stamped
    with the deepest level nesting of the normalized formula."""
    state = RunState()
    g = rewrite(f, translator.pre, state)
    fact = translator.read_off(g) if translator.read_off else None
    if fact is not None:
        return rewrite(fact, translator.post, state), state.trace
    g = rewrite(g, (_NORMALIZE_RULES,), state)
    width = max(1, nesting(g))
    out = rewrite(RMark(g), translator.banks, state)
    fact = fact_of(out)
    if fact is None:
        raise TranslateError(
            "variable elimination got stuck at: %s" % rl_text(out),
            state.trace)
    return dataclasses.replace(fact, width=width), state.trace


def translate_form(f: AlloyForm, rel_arity, translator=MECHANICAL) -> FAFact:
    """Expand a core formula (closures included) and eliminate variables."""
    rl = expand_form(f, rel_arity, closure=star_lifter(rel_arity))
    return translate_with_trace(rl, translator)[0]


# ---------------------------------------------------------------------------
# applications as flat item lists: rotations and the joins built on them


def _flat(app: RApp) -> tuple:
    return app.lhs + app.rhs


def _rotated(app: RApp, item, last=False) -> RApp:
    """The application's items cycled, its relation rotated with them,
    until item is its first item, or its last."""
    items = _flat(app)
    m = len(items)
    k = -(items.index(item) + last) % m  # steps to the right
    if k == 0:
        return app
    rel = app.rel
    for _ in range(k):
        rel = rotate(rel, m)
    items = items[-k:] + items[:-k]
    return RApp(items[:1], rel, items[1:])


def compose_apps(p: RApp, q: RApp) -> RApp:
    """Join p, rotated to end in a shared item, with q, rotated to start
    with it; wider applications join through their last column."""
    if len(p.rhs) == 1:
        return RApp(p.lhs, Comp(p.rel, q.rel), q.rhs)
    return RApp(p.lhs, ncomp(p.rel, q.rel, len(p.rhs) + 1),
                p.rhs[:-1] + q.rhs)


def absorb_diagonal(d: RApp, q: RApp) -> RApp:
    """a (X) a  &&  a (R) ys  as one application  a ((X & id).R) ys; the
    meet with id pins the composition's middle element to a."""
    q = _rotated(q, d.lhs[0])
    return RApp(q.lhs, Comp(Meet(d.rel, ID), q.rel), q.rhs)


def project_out(p: RApp, item) -> RApp:
    """p with the column of item cut:  xs (R) (ys,w)  to  xs (R.cut) ys."""
    p = _rotated(p, item, last=True)
    return RApp(p.lhs, Comp(p.rel, cut(len(p.rhs))), p.rhs[:-1])


# ---------------------------------------------------------------------------
# definition rules: quantified patterns become relational operators


def _plain(app: RApp) -> bool:
    """One-item left side, and neither frame marker x nor y.

    An application with x or y is framed and belongs to the mechanical
    combine and discharge rules.  A lifted closure application relates
    a tuple to a tuple, so no rotation puts one item alone in front; the
    frame and lift rules take it whole.  Levels pass, and so do a
    closure operand's markers cx, cy and a1..ak.
    """
    items = _flat(app)
    return len(app.lhs) == 1 and MARK_X not in items and MARK_Y not in items


def _spine_memo(leaf, join, cap=1 << 12):
    """value(kind, t): leaf(t) when t is not a kind node, else
    join(value of t.l, value of t.r), memoized per interned spine node.

    A rebuilt spine node is joined from its children's values, which
    the engine's leftmost-innermost order has usually memoized already,
    so a firing costs the joins of the nodes it rebuilt, not a walk of
    the whole spine.  The children not yet memoized are folded by an
    explicit stack, so no spine is too deep.  The memo, value.memo, is
    keyed by the node itself, whose class is its spine's kind, and it
    holds at most cap entries: it is emptied when full.
    """
    memo = {}

    def value(kind, t):
        if not isinstance(t, kind):
            return leaf(t)
        v = memo.get(t)
        if v is not None:
            return v
        new, todo = {}, [t]
        while todo:
            x = todo[-1]
            kids = [c for c in (x.l, x.r) if isinstance(c, kind)
                    and c not in memo and c not in new]
            if kids:
                todo += kids
                continue
            todo.pop()
            new[x] = join(*[new.get(c) or memo[c] if isinstance(c, kind)
                            else leaf(c) for c in (x.l, x.r)])
        for x, v in new.items():
            if len(memo) >= cap:
                memo.clear()
            memo[x] = v
        return new[t]

    value.memo, value.cap = memo, cap
    return value


# _leaves(kind, t): the leaves of t's spine of kind nodes, left to right;
# the definition and pair rules flatten each spine they read
_leaves = _spine_memo(lambda x: (x,), tuple.__add__)


def _rebuild(kind, leaves: list):
    cur = leaves[0]
    for nxt in leaves[1:]:
        cur = kind(cur, nxt)
    return cur


@functools.lru_cache(maxsize=1 << 14)
def _count(f, lvl: int) -> int:
    """Uses of item lvl in the applications of f, memoized per interned
    formula and item: rules ask again about the same subformulas."""
    if isinstance(f, RApp):
        return _flat(f).count(lvl)
    return sum(_count(c, lvl) for _, c in children(f))


def _shrink(t: REx, leaves: list):
    body = _rebuild(RAnd, leaves) if leaves else RTrue()
    return body if t.width == 1 else REx(t.width - 1, body)


def _first(app: RApp, lvl: int):
    """Binary application oriented so lvl reads first; (rel, other item)."""
    if len(app.lhs) != 1 or len(app.rhs) != 1:
        return None
    if app.lhs == (lvl,):
        return app.rel, app.rhs[0]
    if app.rhs == (lvl,):
        return Conv(app.rel), app.lhs[0]
    return None


def _r_substitute(t, depth):
    """An identity conjunct pins a bound level to another item."""
    host = t.rng if isinstance(t, RAll) else t.body
    if host is None:
        return None
    leaves = _leaves(RAnd, host)
    for i, leaf in enumerate(leaves):
        if not (isinstance(leaf, RApp) and isinstance(leaf.rel, Id)
                and len(leaf.lhs) == 1 and len(leaf.rhs) == 1):
            continue
        for lvl, repl in ((leaf.lhs[0], leaf.rhs[0]),
                          (leaf.rhs[0], leaf.lhs[0])):
            if not (isinstance(lvl, int) and depth < lvl <= depth + t.width):
                continue
            # unbind renumbers the deeper levels, so repl must lie above
            if repl in (MARK_X, MARK_Y) or isinstance(repl, int) and \
                    repl >= lvl:
                continue
            rest = [unbind(x, lvl, repl)
                    for k, x in enumerate(leaves) if k != i]
            if isinstance(t, REx):
                return _shrink(t, rest) if lvl == depth + t.width else \
                    REx(t.width, _rebuild(RAnd, rest or [RTrue()]))
            rng = _rebuild(RAnd, rest) if rest else None
            return RAll(t.width, rng, unbind(t.body, lvl, repl))
    return None


def _r_absorb_diag(t, depth):
    """a (X) a beside a (R) ys pins the composition through a."""
    leaves = _leaves(RAnd, t)
    for i, d in enumerate(leaves):
        if not (isinstance(d, RApp) and len(d.lhs) == 1 and d.lhs == d.rhs
                and _plain(d)):
            continue
        for j, q in enumerate(leaves):
            if j == i or not isinstance(q, RApp) or not _plain(q):
                continue
            if d.lhs[0] not in _flat(q):
                continue
            rest = [x for k, x in enumerate(leaves) if k not in (i, j)]
            return _rebuild(RAnd, [absorb_diagonal(d, q)] + rest)
    return None


def _r_compose(t, depth):
    """Two applications sharing the innermost level compose it away."""
    lvl = depth + t.width
    leaves = _leaves(RAnd, t.body)
    if _count(t.body, lvl) != 2:
        return None
    apps = [(i, x) for i, x in enumerate(leaves)
            if isinstance(x, RApp) and _flat(x).count(lvl) == 1
            and _plain(x)]
    if len(apps) != 2:
        return None
    (i, p), (j, q) = apps
    p, q = _rotated(p, lvl, last=True), _rotated(q, lvl)
    if len(p.rhs) > 1 and len(q.rhs) > 1:  # both wide: no shortcut
        return None
    rest = [x for k, x in enumerate(leaves) if k not in (i, j)]
    return _shrink(t, [compose_apps(p, q)] + rest)


def _r_project(t, depth):
    """A level used once in a wide application is cut from its column."""
    lvl = depth + t.width
    if _count(t.body, lvl) != 1:
        return None
    leaves = _leaves(RAnd, t.body)
    for i, p in enumerate(leaves):
        if not isinstance(p, RApp) or not _plain(p):
            continue
        items = _flat(p)
        if lvl not in items or len(items) < 3:
            continue
        rest = [x for k, x in enumerate(leaves) if k != i]
        return _shrink(t, [project_out(p, lvl)] + rest)
    return None


def _r_close_membership(t, depth):
    """A level seen once in a binary application marks a domain element."""
    lvl = depth + t.width
    if _count(t.body, lvl) != 1:
        return None
    leaves = _leaves(RAnd, t.body)
    for i, p in enumerate(leaves):
        if not isinstance(p, RApp):
            continue
        got = _first(p, lvl)
        if got is None or got[1] in (MARK_X, MARK_Y):
            continue
        rel, u = got
        # lvl (rel) u, so u has lvl in rel's converse image: u (T.rel) u
        merged = RApp((u,), Comp(TOP, rel), (u,))
        rest = [x for k, x in enumerate(leaves) if k != i]
        return _shrink(t, [merged] + rest)
    return None


def _r_residual(t, depth):
    """A universal level linking two applications becomes a residual."""
    if t.rng is None or not isinstance(t.body, RApp):
        return None
    lvl = depth + t.width
    if _count(t.body, lvl) != 1 or _count(t.rng, lvl) != 1:
        return None
    got_b = _first(t.body, lvl)
    if got_b is None:
        return None
    leaves = _leaves(RAnd, t.rng)
    for i, p in enumerate(leaves):
        if not isinstance(p, RApp):
            continue
        got_p = _first(p, lvl)
        if got_p is None:
            continue
        merged = RApp((got_p[1],), Ldiv(got_p[0], got_b[0]), (got_b[1],))
        rest = [x for k, x in enumerate(leaves) if k != i]
        if t.width > 1:
            return RAll(t.width - 1,
                        _rebuild(RAnd, rest) if rest else None, merged)
        return merged if not rest else RImp(_rebuild(RAnd, rest), merged)
    return None


DEFINITION_RULES = [
    Rule("substitute-identity", (RAll, REx), _r_substitute),
    Rule("absorb-diagonal", RAnd, _r_absorb_diag),
    Rule("compose-innermost", REx, _r_compose),
    Rule("project-innermost", REx, _r_project),
    Rule("close-membership", REx, _r_close_membership),
    Rule("residual-innermost", RAll, _r_residual),
]


# ---------------------------------------------------------------------------
# closure operands: free variables become markers, witnesses compose away


def free_var_levels(e: AlloyExpr, env) -> tuple:
    """Items of the quantified variables an expression mentions, sorted:
    levels, or a closure operand's parameter markers."""
    names = {x.name for x in subterms(e) if isinstance(x, AVar)}
    return tuple(sorted(env[n] for n in names))


def _lift_rules(params: tuple):
    """Frame rules for a closure operand with the given parameter markers.

    Applications are rewritten between the extended tuples (a1..ak,cx)
    and (a1..ak,cy).  An application whose items all live on one frame
    is embedded as a coreflexive test composed with the full relation, so
    it constrains that frame only.
    """
    w = len(params) + 1
    lframe = params + (MARK_CX,)
    rframe = params + (MARK_CY,)
    pos = {a: i + 1 for i, a in enumerate(params)}

    def sel(side, mark):
        return _selector(w, tuple(w if i == mark else pos[i] for i in side))

    def sandwich(left, rel, right):
        e = rel
        if not isinstance(right, Id):
            e = right if isinstance(e, Id) else Comp(e, right)
        if not isinstance(left, Id):
            e = Conv(left) if isinstance(e, Id) else Comp(Conv(left), e)
        return e

    def lift(t, depth):
        if t.lhs == lframe and t.rhs == rframe:
            return None
        items = _flat(t)
        if not all(i in pos or i in (MARK_CX, MARK_CY) for i in items):
            return None
        nx = items.count(MARK_CX)
        ny = items.count(MARK_CY)
        if nx and ny:
            if nx > 1 or ny > 1:
                return None
            t2 = _rotated(t, MARK_CX)
            core = sandwich(sel(t2.lhs, MARK_CX), t2.rel,
                            sel(t2.rhs, MARK_CY))
            return RApp(lframe, core, rframe)
        if ny == 0:
            core = sandwich(sel(t.lhs, MARK_CX), t.rel,
                            sel(t.rhs, MARK_CX))
            return RApp(lframe, Comp(Meet(core, ID), TOP), rframe)
        core = sandwich(sel(t.lhs, MARK_CY), t.rel,
                        sel(t.rhs, MARK_CY))
        return RApp(lframe, Comp(TOP, Meet(core, ID)), rframe)

    return [Rule("lift-application-to-frames", RApp, lift)]


def translate_closure(e: AlloyExpr, env, rel_arity):
    """Lift a closure operand into an endorelation and star it.

    The operand's free variables become the parameter markers a1..ak, in
    the order of free_var_levels, and lead the lifted relation's
    tuples; a chain step must preserve them, which the meet with the
    component-equality terms enforces.  The join witnesses are then the
    operand's only levels, numbered from 1, and the definition rules
    compose or project them away.  Returns the starred term and the
    items of env the frame tuples carry.
    """
    items = free_var_levels(e, env)
    params = tuple("a%d" % i for i in range(1, len(items) + 1))
    inner = {n: params[items.index(v)] for n, v in env.items() if v in items}
    body = expand_membership((MARK_CX, MARK_CY), e, rel_arity,
                             closure=star_lifter(rel_arity), nl=0,
                             env=inner)
    state = RunState()
    out = rewrite(body, (_COMBINE_RULES, DEFINITION_RULES,
                         _lift_rules(params)), state)
    lframe, rframe = params + (MARK_CX,), params + (MARK_CY,)
    if not (isinstance(out, RApp) and out.lhs == lframe
            and out.rhs == rframe):
        raise TranslateError(
            "closure lifting got stuck at: %s" % rl_text(out), state.trace)
    lifted = out.rel
    if params:
        w = len(params) + 1
        keep = [Comp(Conv(projX(w, i)), projX(w, i)) for i in range(1, w)]
        lifted = Meet(lifted, _rebuild(Meet, keep))
    return Star(lifted), items


def star_lifter(rel_arity):
    """Closure callback for expand_form over the given arity table."""

    def lift(xs, e, env):
        starred, items = translate_closure(e, env, rel_arity)
        return RApp(items + (xs[0],), starred, items + (xs[1],))

    return lift
