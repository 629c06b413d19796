"""Expansion of core Alloy formulas into relational logic.

Quantifiers become de Bruijn levels (1 is the outermost binder, a
width-w binder takes w consecutive levels) and every expression
operator is pushed into tuple memberships until only applications of
relation constants, coreflexives and id remain.  Reflexive-transitive
closure of a bare relation stays an application of the starred
constant; closure of a compound expression is handed to a callback, so
the variable-elimination layer can splice in its own construction.
"""

from __future__ import annotations

from .terms import (
    ADiff,
    ADomRes,
    AIden,
    AInter,
    AJoin,
    ANone,
    AProd,
    ARanRes,
    ARel,
    ASig,
    AStar,
    AUniv,
    AUnion,
    AVar,
    AConv,
    FAll,
    FAnd,
    FIn,
    FNot,
    FSome,
    ID,
    Phi,
    RAll,
    RAnd,
    RApp,
    REx,
    RFALSE,
    RNot,
    ROr,
    RTRUE,
    Rel,
    Star,
    _guarded,
    arity_of,
)


class ExpandError(Exception):
    """Contract violation: non-core input or a width that cannot fit."""


def expand_form(f, rel_arity, closure=None):
    """Expand a closed core formula; see expand_membership for closure.
    A formula too deep for the interpreter stack is an ExpandError."""
    return _guarded(lambda g: _form(g, rel_arity, closure, 0, {}), f,
                    ExpandError)


def _form(f, rel_arity, closure, nl, env):
    if isinstance(f, FNot):
        return RNot(_form(f.f, rel_arity, closure, nl, env))
    if isinstance(f, FAnd):
        return RAnd(_form(f.l, rel_arity, closure, nl, env),
                    _form(f.r, rel_arity, closure, nl, env))
    if isinstance(f, FAll):
        lvl = nl + 1
        rng = expand_membership((lvl,), f.bound, rel_arity, closure,
                                lvl, env)
        env2 = dict(env)
        env2[f.var] = lvl
        return RAll(1, rng, _form(f.body, rel_arity, closure, lvl, env2))
    if isinstance(f, FSome):
        w = arity_of(f.e, rel_arity)
        xs = tuple(range(nl + 1, nl + w + 1))
        return REx(w, expand_membership(xs, f.e, rel_arity, closure,
                                        nl + w, env))
    if isinstance(f, FIn):
        w = arity_of(f.l, rel_arity)
        if w != arity_of(f.r, rel_arity):
            raise ExpandError("membership sides disagree on arity")
        xs = tuple(range(nl + 1, nl + w + 1))
        rng = expand_membership(xs, f.l, rel_arity, closure, nl + w, env)
        body = expand_membership(xs, f.r, rel_arity, closure, nl + w, env)
        return RAll(w, rng, body)
    raise ExpandError("not a core formula node: %r" % type(f).__name__)


def expand_membership(xs, e, rel_arity, closure=None, nl=None, env=None):
    """Membership of the item tuple xs in the expression e.

    nl is the number of levels bound so far (fresh inner quantifiers
    start above it); env maps Alloy variable names to their levels.
    closure(xs, operand, env) supplies the formula for membership in
    the closure of a compound operand, which numbers its own levels;
    bare relations do not need it (the starred constant is its own
    exact semantics).
    """
    if nl is None:
        nl = max((i for i in xs if isinstance(i, int)), default=0)
    env = env or {}
    w = arity_of(e, rel_arity)
    if len(xs) != w:
        raise ExpandError("width %d tuple against arity %d expression"
                          % (len(xs), w))
    return _member(tuple(xs), e, rel_arity, closure, nl, env)


def _member(xs, e, rel_arity, closure, nl, env):
    if isinstance(e, ARel):
        n = rel_arity[e.name]
        if n == 1:
            return RApp((xs[0],), Rel(e.name, 1), (xs[0],))
        return RApp((xs[0],), Rel(e.name, n), xs[1:])
    if isinstance(e, AVar):
        return RApp((xs[0],), ID, (env[e.name],))
    if isinstance(e, ASig):
        return RApp((xs[0],), Phi(e.name), (xs[0],))
    if isinstance(e, AUniv):
        return RTRUE
    if isinstance(e, ANone):
        return RFALSE
    if isinstance(e, AIden):
        return RApp((xs[0],), ID, (xs[1],))
    if isinstance(e, AUnion):
        return ROr(_member(xs, e.l, rel_arity, closure, nl, env),
                   _member(xs, e.r, rel_arity, closure, nl, env))
    if isinstance(e, AInter):
        return RAnd(_member(xs, e.l, rel_arity, closure, nl, env),
                    _member(xs, e.r, rel_arity, closure, nl, env))
    if isinstance(e, ADiff):
        return RAnd(_member(xs, e.l, rel_arity, closure, nl, env),
                    RNot(_member(xs, e.r, rel_arity, closure, nl, env)))
    if isinstance(e, AConv):
        return _member((xs[1], xs[0]), e.e, rel_arity, closure, nl, env)
    if isinstance(e, AJoin):
        la = arity_of(e.l, rel_arity)
        k = nl + 1
        left = _member(xs[:la - 1] + (k,), e.l, rel_arity, closure, k, env)
        right = _member((k,) + xs[la - 1:], e.r, rel_arity, closure, k, env)
        return REx(1, RAnd(left, right))
    if isinstance(e, AProd):
        la = arity_of(e.l, rel_arity)
        return RAnd(_member(xs[:la], e.l, rel_arity, closure, nl, env),
                    _member(xs[la:], e.r, rel_arity, closure, nl, env))
    if isinstance(e, ADomRes):
        return RAnd(_member((xs[0],), e.l, rel_arity, closure, nl, env),
                    _member(xs, e.r, rel_arity, closure, nl, env))
    if isinstance(e, ARanRes):
        return RAnd(_member((xs[-1],), e.r, rel_arity, closure, nl, env),
                    _member(xs, e.l, rel_arity, closure, nl, env))
    if isinstance(e, AStar):
        if isinstance(e.e, ARel):
            return RApp((xs[0],), Star(Rel(e.e.name, 2)), (xs[1],))
        if closure is None:
            raise ExpandError(
                "closure of a compound expression needs a closure callback")
        return closure(xs, e.e, env)
    raise ExpandError("cannot expand membership in %r" % type(e).__name__)
