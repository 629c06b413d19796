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

The logical, algebraic and fact rules and the read-off are equations
of `pipeline.EQUATIONS`, each a law and so sound on every redex: the
rows are checked on the pair closure under random interpretations, and
the RL rows between connectives by truth table too.  Five rules stay
hand-written: the three binder rules, which add widths and read level
uses, `rotation-cycle`, and `wide-composition-unit`, which holds only on
typed columns.  They and the definition rules are sound pointwise over
any carrier, so every rewrite step preserves truth on every finite
model, not just on the full pair closure.  Whole translations are
certified against the finite-model oracle.

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
    EQUATIONS,
    MECHANICAL,
    Translator,
    _count,
    _equation_rule,
    _leaves,
    _rebuild,
    _solver,
    _spine_memo,
    translate_form,
    translate_with_trace,
)
from .strategy import Rule
from .terms import (
    PI1,
    PI2,
    Bot,
    Comp,
    Conv,
    Id,
    NComp,
    Phi,
    RAll,
    RAnd,
    REx,
    RFalse,
    RImp,
    RLFormula,
    Rot,
    RTrue,
    Top,
)


# ---------------------------------------------------------------------------
# flattened spines: pair rules modulo associativity and commutativity


def _pair_rule(name: str) -> Rule:
    """The rule of EQUATIONS[name] on the leaf pairs of a flattened
    spine of its left sides' kind.

    The rows' solver fn is tried on a pair (i, j), i < j, as
    fn(leaf i, leaf j) and then fn(leaf j, leaf i), and the first
    success, in (i, j) order, is merged into the spine's first place.
    The rule relies on the engine's leftmost-innermost order: by the
    time it sees a node, its bank found no redex in either child, so no
    pair of leaves within one side matches, and only the pairs that
    straddle `t.l` and `t.r` are tried.  Their first match is the first
    match of all pairs.  A rule without links scans them (`_scan`).

    A lattice rule's fn matches a pair exactly when the two leaves are
    one interned term (idempotence) or their classes pair
    (`_leaf_class`): a mark, the unit or zero, pairs with every class,
    and each of the rule's `_LINKS` pairs two more.  Most nodes it is
    offered hold no straddling match, and their sides' memoized keys
    (`_keys`) say so at once: a side's set of leaves and mask of
    classes.  The sides pair only if the two sets meet or the classes
    that pair with the left side meet the right side's; both are tests
    in C.  Only when they do does `_indexed` look up the scan's first
    pair.  The sets and masks answer yes or no and nothing iterates
    them, so hash order cannot reach a result or a trace.
    """
    kind, fn = type(EQUATIONS[name][0][0]), _solver(name, pair=True)
    links, find = _LINKS.get(name), _scan
    if links is not None:
        partners = _partners(links)
        # the mask of the classes that pair with a side's mask of classes
        pairing = [sum({1 << p for c in _CLASSES if m >> c & 1
                        for p in partners[c]})
                   for m in range(1 << len(_CLASSES))]
        find = functools.partial(_indexed, partners)

    def go(t, depth):
        if links is not None:
            left, ml = _keys(kind, t.l)
            right, mr = _keys(kind, t.r)
            if not pairing[ml] & mr and left.isdisjoint(right):
                return None
        left, right = _leaves(kind, t.l), _leaves(kind, t.r)
        hit = find(fn, left, right)
        if hit is None:
            return None
        i, j, res = hit
        return _rebuild(kind, [res, *left[:i], *left[i + 1:], *right[:j],
                               *right[j + 1:]])

    return Rule(name, kind, go)


def _scan(fn, left, right):
    """(i, j, result) of the first pair (left[i], right[j]) in (i, j)
    order on which fn(left[i], right[j]) or else fn(right[j], left[i])
    succeeds; None when none does."""
    for i, a in enumerate(left):
        for j, b in enumerate(right):
            res = fn(a, b)
            if res is None:
                res = fn(b, a)
            if res is not None:
                return i, j, res
    return None


# The classes of spine leaves that the lattice rules' rows tell apart:
# the unit and zero literals (marks), a signature's coreflexive, id, and
# the pi1~ and pi2~ heads of meet-pair's fork row.
_CLASSES = range(6)
_PLAIN, _MARK, _PHI, _ID, _PI1, _PI2 = _CLASSES
_CLASS_OF = {RTrue: _MARK, RFalse: _MARK, Top: _MARK, Bot: _MARK,
             Phi: _PHI, Id: _ID}
_HEADS = {Conv(PI1): _PI1, Conv(PI2): _PI2}


def _leaf_class(x) -> int:
    if type(x) is Comp:
        return _HEADS.get(x.l, _PLAIN)
    return _CLASS_OF.get(type(x), _PLAIN)


# the links of each lattice rule, the class pairs its rows match besides
# idempotence and the marks
_LINKS = {"conjunction-pair": (), "disjunction-pair": (), "join-pair": (),
          "meet-pair": ((_PHI, _ID), (_PI1, _PI2))}


def _partners(links) -> tuple:
    """The classes each class pairs with: a mark with every class, and
    the two classes of each link with each other."""
    out = [{_MARK} for _ in _CLASSES]
    out[_MARK] = set(_CLASSES)
    for a, b in links:
        out[a].add(b)
        out[b].add(a)
    return tuple(tuple(sorted(p)) for p in out)


# (the set of a spine's leaves, the mask of their classes)
_keys = _spine_memo(lambda x: (frozenset((x,)), 1 << _leaf_class(x)),
                    lambda a, b: (a[0] | b[0], a[1] | b[1]))


def _indexed(partners, fn, left, right):
    """`_scan` for a solver fn that matches a pair exactly when the two
    leaves are one interned term or their classes pair (partners[c] are
    the classes that pair with class c), in O(|left| + |right|): each
    left leaf looks up the first right leaf that is itself or of a class
    it pairs with.  fn is tried on that pair as the scan tries it."""
    n = len(right)
    first = {b: j for j, b in reversed(tuple(enumerate(right)))}
    first_of = {}
    for j, b in enumerate(right):
        first_of.setdefault(_leaf_class(b), j)
    for i, a in enumerate(left):
        j = min(first.get(a, n), *[first_of.get(c, n)
                                   for c in partners[_leaf_class(a)]])
        if j < n:
            return i, j, _scan(fn, (a,), (right[j],))[2]
    return None


# ---------------------------------------------------------------------------
# logical rules: the table's, then the binder rules, which add widths and
# read level uses that no pattern states


def _conj(a: Optional[RLFormula], b: Optional[RLFormula]):
    if a is None:
        return b
    if b is None:
        return a
    return RAnd(a, b)


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
    _pair_rule("conjunction-pair"),
    _pair_rule("disjunction-pair"),
    _equation_rule("double-negation"),
    _equation_rule("negated-literal"),
    _equation_rule("negation-over-and"),
    _equation_rule("negation-over-or"),
    _equation_rule("implication-literal"),
    _equation_rule("implication-curry"),
    _pair_rule("negation-to-implication"),
    _equation_rule("forall-absorb-implication"),
    Rule("forall-fuse", RAll, _r_all_fuse),
    Rule("exists-fuse", REx, _r_ex_fuse),
    Rule("binder-trim", (RAll, REx), _r_binder_trim),
]


# ---------------------------------------------------------------------------
# algebraic rules on relational terms


def _r_ncomp_unit(t, depth):
    if isinstance(t.r, Id):
        return t.l
    return None


def _r_rot_cycle(t, depth):
    cur, k = t, 0
    while isinstance(cur, Rot) and cur.n == t.n and k < t.n:
        cur, k = cur.e, k + 1
    return cur if k == t.n else None


ALGEBRA_RULES = [
    _pair_rule("meet-pair"),
    _pair_rule("join-pair"),
    _equation_rule("converse-collapse"),
    _equation_rule("converse-distribute"),
    _equation_rule("complement-collapse"),
    _equation_rule("complement-distribute"),
    _equation_rule("composition-unit"),
    Rule("wide-composition-unit", NComp, _r_ncomp_unit),
    Rule("rotation-cycle", Rot, _r_rot_cycle),
    _equation_rule("residual-units"),
    _equation_rule("fork-converse-meet"),
    _equation_rule("fork-absorbs-composition"),
    _equation_rule("product-intro"),
]

FACT_RULES = [_equation_rule("inequation-normalize")]


# ---------------------------------------------------------------------------
# the shortcut translator


# the fact a closed prefix-form formula denotes, read off without frames;
# the rows quantify over plain elements only, so the facts they produce
# are sound at every carrier width and carry no width stamp
drop_vars = _solver("read-off")

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
