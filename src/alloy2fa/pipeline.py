"""Variable elimination: quantified relational formulas to point-free facts.

The driver, `eliminate`, rewrites a closed formula with the
normalization bank to existential shape, wraps it under the marker pair,
then calls `strategy.rewrite` with a tuple of prioritized rule banks
until a single `x REL y` application survives; that application is read
off as an equation between variable-free terms.  Levels never need
renaming along the way: every rule either discharges the innermost level
of the enclosing block or leaves binders untouched.

Closure operands take a separate route.  Their membership formula is
expanded with a private marker pair, bound join witnesses are discharged
by composition instead of framing, and the free variables are lifted into
leading tuple components so the whole operand becomes an endorelation
that can be starred.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

from .expand import expand_form, expand_membership
from .strategy import Rule, RunState, rewrite
from .terms import (
    BOT,
    ID,
    MARK_CX,
    MARK_CY,
    MARK_X,
    MARK_Y,
    TOP,
    AlloyExpr,
    AlloyForm,
    AVar,
    Comp,
    Compl,
    Conv,
    FactEq,
    FAFact,
    Fork,
    Id,
    Join,
    Meet,
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
    children,
    cut,
    ncomp,
    projX,
    rl_text,
    rotate,
    subterms,
)


class TranslateError(Exception):
    """The rewrite loop reached a fixpoint that is not a fact."""

    def __init__(self, msg: str, trace=None):
        super().__init__(msg)
        self.trace = list(trace or [])


def nesting(f: RLFormula) -> int:
    """Largest number of levels simultaneously in scope anywhere in f."""
    if isinstance(f, RApp):
        return 0
    inner = 0
    for _, c in children(f):
        inner = max(inner, nesting(c))
    return inner + (f.width if isinstance(f, (RAll, REx)) else 0)


# ---------------------------------------------------------------------------
# normalization: implications and universal quantifiers out


def _r_imp(t, ctx):
    return ROr(RNot(t.l), t.r)


def _r_all_ranged(t, ctx):
    if t.rng is not None:
        return RAll(t.width, None, RImp(t.rng, t.body))
    return None


def _r_all_plain(t, ctx):
    if t.rng is None:
        return RNot(REx(t.width, RNot(t.body)))
    return None


_NORMALIZE_RULES = [
    Rule("implication-to-or", RImp, _r_imp),
    Rule("forall-range-to-implication", RAll, _r_all_ranged),
    Rule("forall-to-not-exists", RAll, _r_all_plain),
]


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


def _r_uniform(t, ctx):
    items = t.lhs + t.rhs
    if not all(isinstance(i, int) for i in items):
        return None
    n = ctx.ex_depth
    if n < max(items):  # open formula: the level is nobody's to frame
        return None
    body = Meet(_selector(n, t.lhs), Comp(t.rel, _selector(n, t.rhs)))
    return RApp((MARK_X,), Comp(TOP, body), tuple(range(1, n + 1)))


def _r_true(t, ctx):
    return _frame_app(TOP, ctx.ex_depth)


def _r_false(t, ctx):
    return _frame_app(BOT, ctx.ex_depth)


_FRAME_RULES = [
    Rule("frame-application", RApp, _r_uniform),
    Rule("frame-true", RTrue, _r_true),
    Rule("frame-false", RFalse, _r_false),
]


# ---------------------------------------------------------------------------
# combining: connectives between co-located applications become operators


def _r_and(t, ctx):
    if (isinstance(t.l, RApp) and isinstance(t.r, RApp)
            and t.l.lhs == t.r.lhs and t.l.rhs == t.r.rhs):
        return RApp(t.l.lhs, Meet(t.l.rel, t.r.rel), t.l.rhs)
    return None


def _r_or(t, ctx):
    if (isinstance(t.l, RApp) and isinstance(t.r, RApp)
            and t.l.lhs == t.r.lhs and t.l.rhs == t.r.rhs):
        return RApp(t.l.lhs, Join(t.l.rel, t.r.rel), t.l.rhs)
    return None


def _r_not(t, ctx):
    if isinstance(t.f, RApp):
        a = t.f
        return RApp(a.lhs, Compl(a.rel), a.rhs)
    return None


_COMBINE_RULES = [
    Rule("combine-and", RAnd, _r_and),
    Rule("combine-or", ROr, _r_or),
    Rule("complement-not", RNot, _r_not),
]


# ---------------------------------------------------------------------------
# discharging: the innermost existential level is cut off the frame tuple


def _r_discharge(t, ctx):
    if not isinstance(t.body, RApp):
        return None
    app = t.body
    n = ctx.ex_depth + t.width
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

# The paper's mechanical elimination, in priority order; the shortcut
# translator runs the same driver with its own banks in front of these.
MECHANICAL_BANKS = (_COMBINE_RULES, _DISCHARGE_RULES, _FRAME_RULES)


def eliminate(f: RLFormula, banks, state: RunState) -> FAFact:
    """Eliminate all variables from a closed formula with the given banks.

    Rewrites with the normalization bank, wraps the result in the marker
    wrapper `RMark`, rewrites with the banks to a fixpoint and reads the
    fact off it.  The fact's width is the deepest level nesting of the
    normalized formula; it carries no label.
    """
    g = rewrite(f, (_NORMALIZE_RULES,), state)
    width = max(1, nesting(g))
    out = rewrite(RMark(g), banks, state)
    fact = fact_of(out)
    if fact is None:
        raise TranslateError(
            "variable elimination got stuck at: %s" % rl_text(out),
            state.trace)
    return dataclasses.replace(fact, width=width)


def translate_with_trace(f: RLFormula):
    """Eliminate all variables from a closed formula with the mechanical
    banks; returns the fact and the rewrite trace: (fact, trace)."""
    state = RunState()
    return eliminate(f, MECHANICAL_BANKS, state), state.trace


def translate_form(f: AlloyForm, rel_arity) -> FAFact:
    """Expand a core formula (closures included) and eliminate variables."""
    rl = expand_form(f, rel_arity, closure=star_lifter(rel_arity))
    return translate_with_trace(rl)[0]


# ---------------------------------------------------------------------------
# closure operands: lift free variables, discharge witnesses by composition


def free_var_levels(e: AlloyExpr, env) -> tuple:
    """Levels of the quantified variables an expression mentions, ascending."""
    names = {x.name for x in subterms(e) if isinstance(x, AVar)}
    return tuple(sorted(env[n] for n in names))


def _flat(app: RApp) -> tuple:
    return app.lhs + app.rhs


def _rot_app(app: RApp, k: int) -> RApp:
    """Cycle the application's items right by k, rotating the relation."""
    items = _flat(app)
    m = len(items)
    k %= m
    if k == 0:
        return app
    rel = app.rel
    for _ in range(k):
        rel = rotate(rel, m)
    items = items[-k:] + items[:-k]
    return RApp(items[:1], rel, items[1:])


def to_end(app: RApp, item) -> RApp:
    """The application rotated so that item is its last item."""
    items = _flat(app)
    return _rot_app(app, (len(items) - 1 - items.index(item)) % len(items))


def to_front(app: RApp, item) -> RApp:
    """The application rotated so that item is its first item."""
    items = _flat(app)
    return _rot_app(app, (len(items) - items.index(item)) % len(items))


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
    q = to_front(q, d.lhs[0])
    return RApp(q.lhs, Comp(Meet(d.rel, ID), q.rel), q.rhs)


def project_out(p: RApp, item) -> RApp:
    """p with the column of item cut:  xs (R) (ys,w)  to  xs (R.cut) ys."""
    p = to_end(p, item)
    return RApp(p.lhs, Comp(p.rel, cut(len(p.rhs))), p.rhs[:-1])


def _witness_rules(watermark: int):
    """Rules eliminating expansion witnesses inside a closure operand.

    Witness levels are numbered above every level that was in scope when
    the operand was expanded, so any level beyond the watermark belongs
    to the innermost live binder and the largest one is its. Levels at
    or below the watermark are the operand's free parameters and must
    survive.
    """

    def bound_level(*apps):
        ints = [i for a in apps for i in _flat(a) if isinstance(i, int)]
        lvl = max(ints, default=0)
        return lvl if lvl > watermark else None

    def compose(t, ctx):
        # xs (P) w  &&  w (Q) ys  under the binder of w turns into P.Q
        if not (t.width == 1 and isinstance(t.body, RAnd)
                and isinstance(t.body.l, RApp)
                and isinstance(t.body.r, RApp)):
            return None
        p, q = t.body.l, t.body.r
        lvl = bound_level(p, q)
        if lvl is None:
            return None
        if _flat(p).count(lvl) != 1 or _flat(q).count(lvl) != 1:
            return None
        return compose_apps(to_end(p, lvl), to_front(q, lvl))

    def absorb(t, ctx):
        for d, q in ((t.l, t.r), (t.r, t.l)):
            if (isinstance(d, RApp) and isinstance(q, RApp)
                    and len(d.lhs) == 1 and d.lhs == d.rhs
                    and d.lhs[0] in _flat(q)):
                return absorb_diagonal(d, q)
        return None

    def project(t, ctx):
        # a witness used by a single application is dropped with its column
        if not (t.width == 1 and isinstance(t.body, RApp)):
            return None
        p = t.body
        lvl = bound_level(p)
        if lvl is None:
            return None
        items = _flat(p)
        if items.count(lvl) != 1 or len(items) < 3:
            return None
        return project_out(p, lvl)

    return [Rule("compose-shared-level", REx, compose),
            Rule("absorb-diagonal-membership", RAnd, absorb),
            Rule("project-away-witness", REx, project)]


def _lift_rules(a_levels: tuple):
    """Frame rules for a closure operand with the given free levels.

    Applications are rewritten between the extended tuples (a_1..a_k,cx)
    and (a_1..a_k,cy).  An application whose items all live on one frame
    is embedded as a coreflexive test composed with the full relation, so
    it constrains that frame only.
    """
    k = len(a_levels)
    w = k + 1
    lframe = a_levels + (MARK_CX,)
    rframe = a_levels + (MARK_CY,)
    pos = {lvl: i + 1 for i, lvl in enumerate(a_levels)}

    def sel(side, mark):
        return _selector(w, tuple(w if i == mark else pos[i] for i in side))

    def sandwich(left, rel, right):
        e = rel
        if not isinstance(right, Id):
            e = right if isinstance(e, Id) else Comp(e, right)
        if not isinstance(left, Id):
            e = Conv(left) if isinstance(e, Id) else Comp(Conv(left), e)
        return e

    def lift(t, ctx):
        if t.lhs == lframe and t.rhs == rframe:
            return None
        items = _flat(t)
        ok = all((i in pos) if isinstance(i, int)
                 else i in (MARK_CX, MARK_CY) for i in items)
        if not ok:
            return None
        nx = items.count(MARK_CX)
        ny = items.count(MARK_CY)
        if nx and ny:
            if nx > 1 or ny > 1:
                return None
            t2 = to_front(t, MARK_CX)
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


def translate_closure(e: AlloyExpr, env, rel_arity, nl: int = 0):
    """Lift a closure operand into an endorelation and star it.

    Free variables of the operand become leading tuple components of the
    lifted relation; a chain step must preserve them, which the meet with
    the component-equality terms enforces.  Returns the starred term and
    the levels the frame tuples carry.
    """
    a_levels = free_var_levels(e, env)
    watermark = max((nl,) + a_levels)
    body = expand_membership((MARK_CX, MARK_CY), e, rel_arity,
                             closure=star_lifter(rel_arity),
                             nl=watermark, env=env)
    state = RunState()
    out = rewrite(body, (_COMBINE_RULES, _witness_rules(watermark),
                         _lift_rules(a_levels)), state)
    lframe, rframe = a_levels + (MARK_CX,), a_levels + (MARK_CY,)
    if not (isinstance(out, RApp) and out.lhs == lframe
            and out.rhs == rframe):
        raise TranslateError(
            "closure lifting got stuck at: %s" % rl_text(out), state.trace)
    k = len(a_levels)
    lifted = out.rel
    if k:
        keep = None
        for i in range(k, 0, -1):
            part = Comp(Conv(projX(k + 1, i)), projX(k + 1, i))
            keep = part if keep is None else Meet(part, keep)
        lifted = Meet(lifted, keep)
    return Star(lifted), a_levels


def star_lifter(rel_arity):
    """Closure callback for expand_form over the given arity table."""

    def lift(xs, e, nl, env):
        starred, a_levels = translate_closure(e, env, rel_arity, nl=nl)
        return RApp(a_levels + (xs[0],), starred, a_levels + (xs[1],))

    return lift
