"""Shortcut translation: simplify first, build frames only as a last resort.

The mechanical pipeline always terminates but its output mirrors the
quantifier structure of the input.  The rules here shrink the formula
before (and while) that machinery runs: logical identities on the
propositional skeleton, definition-shaped quantifier removal that turns
bound levels into composition, residuals and column cuts, and algebraic
identities on the relational terms themselves.  When the simplified
formula already is a closed inclusion or equation, the fact is read off
directly and no frames are built at all; such facts quantify over plain
elements and stay as small as the inputs that produced them.

`SHORTCUT` configures the one driver of `pipeline`: simplification as
its pre-pass, `drop_vars` as its read-off, and the simplification banks
in front of the mechanical ones as its elimination loop;
`translate_h_with_trace` and `translate_form_h` are bound to it.

Logical and definition rules are sound pointwise over any carrier, so
every rewrite step preserves truth on every finite model, not just on
the full pair closure.  Whole translations are certified against the
finite-model oracle; single steps are checked on their own only for the
rules that no corpus translation fires.

The definition rules are defined in `pipeline`, beside the rotations
they build on, because closure lifting runs them too: there they
eliminate the join witnesses, a closure operand's only levels.
"""

from __future__ import annotations

import dataclasses
import functools
from typing import Optional

from .pipeline import (
    DEFINITION_RULES,
    MECHANICAL,
    Translator,
    _count,
    _first,
    _flat,
    _leaves,
    _rebuild,
    translate_form,
    translate_with_trace,
)
from .strategy import Rule
from .terms import (
    BOT,
    ID,
    TOP,
    Bot,
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
    NComp,
    Phi,
    Pi1,
    Pi2,
    Prod,
    RAll,
    RAnd,
    RApp,
    REx,
    RFalse,
    RImp,
    RLFormula,
    RNot,
    ROr,
    Rot,
    RTrue,
    Top,
)


# ---------------------------------------------------------------------------
# flattened spines: pair rules modulo associativity and commutativity


def _pair_rule(name: str, kind, fn) -> Rule:
    """Try a binary identity on the leaf pairs of a flattened spine.

    The identity is tried on a pair (i, j), i < j, as fn(leaf i, leaf j)
    and then fn(leaf j, leaf i), and the first success, in (i, j) order,
    is merged into the spine's first place.  The rule relies on the
    engine's leftmost-innermost order: by the time it sees a node, its
    bank found no redex in either child, so no pair of leaves within one
    side matches, and only the pairs that straddle `t.l` and `t.r` are
    scanned.  Their first match is the first match of all pairs.
    """

    def go(t, depth):
        left = _leaves(kind, t.l)
        split = len(left)
        leaves = left + _leaves(kind, t.r)
        for i in range(split):
            for j in range(split, len(leaves)):
                for a, b in ((leaves[i], leaves[j]), (leaves[j], leaves[i])):
                    res = fn(a, b)
                    if res is None:
                        continue
                    rest = [x for k, x in enumerate(leaves) if k not in (i, j)]
                    return _rebuild(kind, [res] + rest)
        return None

    return Rule(name, kind, go)


# ---------------------------------------------------------------------------
# logical rules


def _lattice_pair(unit: type, zero: type):
    """Pair identity of a lattice operator: its unit, zero and
    idempotence.  Terms are interned, so a zero or twin b is the result."""

    def pair(a, b):
        if isinstance(b, unit):
            return a
        if isinstance(b, zero) or a == b:
            return b
        return None

    return pair


_and_pair = _lattice_pair(RTrue, RFalse)
_or_pair = _lattice_pair(RFalse, RTrue)


def _or_to_imp(a, b):
    if isinstance(a, RNot):
        return RImp(a.f, b)
    return None


def _r_not_not(t, depth):
    if isinstance(t.f, RNot):
        return t.f.f
    return None


def _r_not_literal(t, depth):
    if isinstance(t.f, RTrue):
        return RFalse()
    if isinstance(t.f, RFalse):
        return RTrue()
    return None


def _push_not(over, dual):
    """De Morgan: a negation over `over` becomes `dual` of negations."""

    def push(t, depth):
        if isinstance(t.f, over):
            return dual(RNot(t.f.l), RNot(t.f.r))
        return None

    return push


def _r_imp_literal(t, depth):
    if isinstance(t.l, RFalse):
        return RTrue()
    if isinstance(t.l, RTrue):
        return t.r
    return None


def _r_imp_curry(t, depth):
    if isinstance(t.r, RImp):
        return RImp(RAnd(t.l, t.r.l), t.r.r)
    return None


def _conj(a: Optional[RLFormula], b: Optional[RLFormula]):
    if a is None:
        return b
    if b is None:
        return a
    return RAnd(a, b)


def _r_all_absorb_imp(t, depth):
    # forall u : rng : (a => b)  keeps a as part of the range
    if isinstance(t.body, RImp):
        return RAll(t.width, _conj(t.rng, t.body.l), t.body.r)
    return None


def _r_all_fuse(t, depth):
    if isinstance(t.body, RAll):
        return RAll(t.width + t.body.width, _conj(t.rng, t.body.rng),
                    t.body.body)
    return None


def _r_ex_fuse(t, depth):
    if isinstance(t.body, REx):
        return REx(t.width + t.body.width, t.body.body)
    return None


def _r_binder_trim(t, depth):
    """Drop or narrow a binder whose trailing levels are never used."""
    w = t.width
    while w and not _count(t, depth + w):
        w -= 1
    if w == t.width:
        return None
    if w:
        return dataclasses.replace(t, width=w)
    if isinstance(t, RAll) and t.rng is not None:
        return RImp(t.rng, t.body)
    return t.body


LOGIC_RULES = [
    _pair_rule("conjunction-pair", RAnd, _and_pair),
    _pair_rule("disjunction-pair", ROr, _or_pair),
    Rule("double-negation", RNot, _r_not_not),
    Rule("negated-literal", RNot, _r_not_literal),
    Rule("negation-over-and", RNot, _push_not(RAnd, ROr)),
    Rule("negation-over-or", RNot, _push_not(ROr, RAnd)),
    Rule("implication-literal", RImp, _r_imp_literal),
    Rule("implication-curry", RImp, _r_imp_curry),
    _pair_rule("negation-to-implication", ROr, _or_to_imp),
    Rule("forall-absorb-implication", RAll, _r_all_absorb_imp),
    Rule("forall-fuse", RAll, _r_all_fuse),
    Rule("exists-fuse", REx, _r_ex_fuse),
    Rule("binder-trim", (RAll, REx), _r_binder_trim),
]


# ---------------------------------------------------------------------------
# algebraic rules on relational terms


_join_pair = _lattice_pair(Bot, Top)
_meet_lattice = _lattice_pair(Top, Bot)


def _meet_pair(a, b):
    res = _meet_lattice(a, b)
    if res is not None:
        return res
    if isinstance(b, Id) and isinstance(a, Phi):
        return a
    if (isinstance(a, Comp) and isinstance(a.l, Conv)
            and isinstance(a.l.e, Pi1) and isinstance(b, Comp)
            and isinstance(b.l, Conv) and isinstance(b.l.e, Pi2)):
        return Fork(a.r, b.r)
    return None


def _r_conv_collapse(t, depth):
    if isinstance(t.e, Conv):
        return t.e.e
    if isinstance(t.e, (Id, Top, Bot)):
        return t.e
    return None


def _r_conv_distribute(t, depth):
    e = t.e
    if isinstance(e, Comp):
        return Comp(Conv(e.r), Conv(e.l))
    if isinstance(e, Meet):
        return Meet(Conv(e.l), Conv(e.r))
    if isinstance(e, Join):
        return Join(Conv(e.l), Conv(e.r))
    return None


def _r_compl_collapse(t, depth):
    e = t.e
    if isinstance(e, Compl):
        return e.e
    if isinstance(e, Conv) and isinstance(e.e, Compl):
        return Conv(e.e.e)
    if isinstance(e, Top):
        return BOT
    if isinstance(e, Bot):
        return TOP
    return None


def _r_compl_distribute(t, depth):
    e = t.e
    if isinstance(e, Meet):
        return Join(Compl(e.l), Compl(e.r))
    if isinstance(e, Join):
        return Meet(Compl(e.l), Compl(e.r))
    if isinstance(e, Comp):
        return Ldiv(Conv(e.l), Compl(e.r))
    if isinstance(e, Ldiv):
        return Comp(Conv(e.l), Compl(e.r))
    return None


def _r_comp_unit(t, depth):
    if isinstance(t.r, Id):
        return t.l
    if isinstance(t.l, Id):
        return t.r
    if isinstance(t.l, Bot) or isinstance(t.r, Bot):
        return BOT
    return None


def _r_ncomp_unit(t, depth):
    if isinstance(t.r, Id):
        return t.l
    return None


def _r_rot_cycle(t, depth):
    cur, k = t, 0
    while isinstance(cur, Rot) and cur.n == t.n and k < t.n:
        cur, k = cur.e, k + 1
    return cur if k == t.n else None


def _r_residual_units(t, depth):
    if isinstance(t.l, Bot) or isinstance(t.r, Top):
        return TOP
    if isinstance(t.l, Id):
        return t.r
    return None


def _r_fork_meet(t, depth):
    # (R nabla S)~ . (A nabla B)  =  R~.A & S~.B
    if (isinstance(t.l, Conv) and isinstance(t.l.e, Fork)
            and isinstance(t.r, Fork)):
        f, g = t.l.e, t.r
        return Meet(Comp(Conv(f.l), g.l), Comp(Conv(f.r), g.r))
    return None


def _r_fork_comp(t, depth):
    # (id nabla T) . R  duplicates R over both components
    if (isinstance(t.l, Fork) and isinstance(t.l.l, Id)
            and isinstance(t.l.r, Top)):
        return Fork(t.r, Comp(TOP, t.r))
    return None


def _r_prod_intro(t, depth):
    if (isinstance(t.l, Comp) and isinstance(t.l.r, Pi1)
            and isinstance(t.r, Comp) and isinstance(t.r.r, Pi2)):
        return Prod(t.l.l, t.r.l)
    return None


ALGEBRA_RULES = [
    _pair_rule("meet-pair", Meet, _meet_pair),
    _pair_rule("join-pair", Join, _join_pair),
    Rule("converse-collapse", Conv, _r_conv_collapse),
    Rule("converse-distribute", Conv, _r_conv_distribute),
    Rule("complement-collapse", Compl, _r_compl_collapse),
    Rule("complement-distribute", Compl, _r_compl_distribute),
    Rule("composition-unit", Comp, _r_comp_unit),
    Rule("wide-composition-unit", NComp, _r_ncomp_unit),
    Rule("rotation-cycle", Rot, _r_rot_cycle),
    Rule("residual-units", Ldiv, _r_residual_units),
    Rule("fork-converse-meet", Comp, _r_fork_meet),
    Rule("fork-absorbs-composition", Comp, _r_fork_comp),
    Rule("product-intro", Fork, _r_prod_intro),
]


def _r_fact_norm(t, depth):
    if isinstance(t.lhs, Compl) and isinstance(t.rhs, Compl):
        return FactLe(t.rhs.e, t.lhs.e)
    if isinstance(t.lhs, Top) and isinstance(t.rhs, Conv):
        return FactLe(TOP, t.rhs.e)
    if isinstance(t.lhs, Conv) and isinstance(t.rhs, Bot):
        return FactLe(t.lhs.e, BOT)
    if isinstance(t.rhs, Ldiv):
        return FactLe(Comp(t.rhs.l, t.lhs), t.rhs.r)
    return None


FACT_RULES = [Rule("inequation-normalize", FactLe, _r_fact_norm)]


# ---------------------------------------------------------------------------
# the shortcut translator


def drop_vars(f: RLFormula) -> Optional[FAFact]:
    """Fact a closed prefix-form formula denotes, read off without frames.

    The patterns quantify over plain elements only, so the facts they
    produce are sound at every carrier width and carry no width stamp.
    """
    if isinstance(f, RTrue):
        return FactEq(TOP, TOP)
    if isinstance(f, RFalse):
        return FactEq(TOP, BOT)
    if not isinstance(f, RAll) or not isinstance(f.body, RApp):
        return None
    if f.width == 2:
        # binary applications over levels 1 and 2, either way round
        body = _first(f.body, 1)
        if body is None or body[1] != 2:
            return None
        if f.rng is None:
            return FactEq(body[0], TOP)
        rng = _first(f.rng, 1) if isinstance(f.rng, RApp) else None
        if rng is None or rng[1] != 2:
            return None
        return FactLe(rng[0], body[0])
    if f.width == 1 and _flat(f.body) == (1, 1):
        if f.rng is None:
            return FactLe(ID, f.body.rel)
        if isinstance(f.rng, RApp) and _flat(f.rng) == (1, 1):
            return FactLe(Meet(f.rng.rel, ID), f.body.rel)
    return None


# The pre-pass runs without FACT_RULES: an RL formula holds no fact.  The
# elimination loop runs the simplification rules in front of the
# mechanical ones, but without the two implication builders:
# normalization removed every implication, and no loop rule may build
# one again.
SHORTCUT = Translator(
    banks=([r for r in LOGIC_RULES
            if r.name not in ("negation-to-implication",
                              "forall-absorb-implication")],
           DEFINITION_RULES, ALGEBRA_RULES) + MECHANICAL.banks,
    pre=(LOGIC_RULES, DEFINITION_RULES, ALGEBRA_RULES),
    read_off=drop_vars,
    post=(ALGEBRA_RULES, FACT_RULES))

translate_h_with_trace = functools.partial(translate_with_trace,
                                           translator=SHORTCUT)
translate_form_h = functools.partial(translate_form, translator=SHORTCUT)
