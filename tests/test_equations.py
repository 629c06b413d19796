"""Every equation of `pipeline.EQUATIONS` is a law, not only on the
redexes the corpus reaches.

An FA equation or fact equivalence is checked in the matrix semantics:
each pattern variable becomes a fresh relation constant, a `Phi`
variable a fresh coreflexive, and both sides are evaluated on the pair
closure of two atoms (38 elements) under seeded random
interpretations.  An equation between FA terms must give equal
matrices, an equivalence between inclusions equal truth values.

An RL equivalence between connectives is checked by truth table: each
`RLFormula` variable is grounded to true or false in every way, and both
sides must get one truth value from `oracle.eval_rl`.  The connectives
are truth-functional, so this check is exhaustive, not sampled.

Every RL row, binders and applications included, is also checked by
evaluation under `oracle.eval_rl` on the pair closure, under seeded
random interpretations.  A width variable takes 1 and 2, and an item
tuple variable a level tuple, a two-item one among them.  The row sits
under two free levels, bound to atoms or atom pairs, so that a two-item
side names a carrier element.  Each `RLFormula` variable becomes an
application of a relation of its name to the innermost two levels in
scope, so a quantifier over them is not vacuous, and ∀ and ∃ differ.
A read-off row's left side is a closed formula, and its truth must be
the truth of the fact on its right.

A failure is a soundness bug in the rule that states the equation.
Near misses of the real equations fail the same checks, so they are not
vacuous; the residual near miss needs a few hundred interpretations to
be refuted on every seed, hence INTERPRETATIONS.
"""

import itertools

import numpy as np
import pytest

from alloy2fa.heuristics import (
    ALGEBRA_RULES,
    EQUATIONS,
    FACT_RULES,
    LOGIC_RULES,
)
from alloy2fa.pipeline import _COMBINE_RULES, _NORMALIZE_RULES
from alloy2fa.oracle import (
    eval_fa,
    eval_rl,
    pair_space,
    tuple_space,
    witness_rows,
)
from alloy2fa.terms import (
    ID,
    TOP,
    Comp,
    Compl,
    FAFact,
    FactLe,
    Fork,
    Join,
    Ldiv,
    Meet,
    Phi,
    RAll,
    RAnd,
    RApp,
    REx,
    RFALSE,
    RImp,
    RLFormula,
    RNot,
    ROr,
    RTRUE,
    Rel,
    Var,
    children,
    fa_text,
    fact_text,
    instantiate,
    subterms,
)

SPACE = pair_space(("a", "b"), 2)
ALL_ROWS = np.ones(SPACE.n, dtype=bool)
# empty, a few pairs, dense, all but a few pairs, full: on 1,444 pairs,
# an inclusion between two relations of one middling density is never
# true, and the fact equivalences would compare false with false
DENSITIES = (0.0, 0.002, 0.35, 0.998, 1.0)
INTERPRETATIONS = 300
# the fuse rules add widths and binder-trim reads level uses;
# rotation-cycle counts an n-ary relation's rotations, and
# wide-composition-unit is sound only on typed columns
HAND_RULES = {"forall-fuse", "exists-fuse", "binder-trim", "rotation-cycle",
              "wide-composition-unit"}
# the law pairs up two existential witnesses, so the sampled relations
# keep their rows below the carrier's top layer, as in
# test_oracle.py::TestAlgebraAxioms::test_fork_converse_law
WITNESS_ROWS_ONLY = {"fork-converse-meet"}
CASES = [(name, i, lhs, rhs) for name, eqs in EQUATIONS.items()
         for i, (lhs, rhs) in enumerate(eqs)]
FA_CASES = [c for c in CASES if not isinstance(c[2], RLFormula)]
EVAL_CASES = [c for c in CASES if isinstance(c[2], RLFormula)]
# the rows between connectives: no binder, no application and no fact
RL_CASES = [c for c in EVAL_CASES if not isinstance(c[3], FAFact)
            and not any(isinstance(x, (RAll, REx, RApp))
                        for side in c[2:] for x in subterms(side))]
X, Y, Z = Var("X"), Var("Y"), Var("Z")
F, G = Var("F", RLFormula), Var("G", RLFormula)
N, U, V = Var("N", int), Var("U", tuple), Var("V", tuple)
TRUTH_SPACE = tuple_space(("a",), 1)
# the values a data variable takes, by kind: widths and item tuples
DATA = {int: (1, 2), tuple: ((1,), (2,), (2, 1))}
# the free levels an RL row sits under, and the elements they take: atoms
# and atom pairs, any two of which nest into a carrier element
CONTEXT = 2
SMALL = [e for e in SPACE.elements if (e, e) in SPACE.index]
# random interpretations per instance of an RL row
EVALUATIONS = 40


def ground(lhs, rhs):
    """Both sides with each variable replaced by a constant of its own
    name: a `Phi` for a variable of kind `Phi`, else a `Rel`."""
    env = {v: Phi(v.name) if v.kind is Phi else Rel(v.name)
           for side in (lhs, rhs) for v in subterms(side)
           if isinstance(v, Var)}
    return instantiate(lhs, env), instantiate(rhs, env)


def random_interp(rng, terms, rows):
    """Random relations for the constants of terms, only on the given
    rows and coreflexive for the `Phi` constants.  Each draws its
    density from DENSITIES."""
    n, out = SPACE.n, {}
    consts = {c for t in terms for c in subterms(t)
              if isinstance(c, (Phi, Rel))}
    for c in sorted(consts, key=fa_text):
        m = (rng.random((n, n)) < rng.choice(DENSITIES)) & rows[:, None]
        if isinstance(c, Phi):
            out["sig", c.sig] = m & np.eye(n, dtype=bool)
        else:
            out["rel", c.name] = m
    return out


def denotation(t, interp, env=None):
    if isinstance(t, FAFact):
        lhs, rhs = (eval_fa(s, SPACE, interp) for s in (t.lhs, t.rhs))
        return bool(((~lhs | rhs) if isinstance(t, FactLe)
                     else lhs == rhs).all())
    if isinstance(t, RLFormula):
        return eval_rl(t, SPACE, interp, env)
    return eval_fa(t, SPACE, interp)


def holds(lhs, rhs, rows, seed: int) -> bool:
    """Whether both sides agree under INTERPRETATIONS seeded random
    interpretations with the given rows."""
    lhs, rhs = ground(lhs, rhs)
    rng = np.random.default_rng(seed)
    for _ in range(INTERPRETATIONS):
        interp = random_interp(rng, (lhs, rhs), rows)
        if not np.array_equal(denotation(lhs, interp),
                              denotation(rhs, interp)):
            return False
    return True


def tautology(lhs, rhs) -> bool:
    """Whether both sides of an RL equivalence get one truth value under
    every grounding of their variables to true and false."""
    variables = {v for side in (lhs, rhs) for v in subterms(side)
                 if isinstance(v, Var)}
    for values in itertools.product((RTRUE, RFALSE), repeat=len(variables)):
        env = dict(zip(variables, values))
        if (eval_rl(instantiate(lhs, env), TRUTH_SPACE, {})
                != eval_rl(instantiate(rhs, env), TRUTH_SPACE, {})):
            return False
    return True


def data_vars(side) -> set:
    """The pattern variables in the data fields of side's nodes."""
    return {d for x in subterms(side) for d in vars(x).values()
            if isinstance(d, Var) and d.kind in DATA}


def scopes(t, depth: int, out: dict) -> dict:
    """out with, for each `RLFormula` variable of t, the numbers of levels
    in scope at its occurrences; t sits under depth levels."""
    if isinstance(t, Var) and t.kind is RLFormula:
        out.setdefault(t, set()).add(depth)
    inner = depth + t.width if isinstance(t, (RAll, REx)) else depth
    for _, c in children(t):
        scopes(c, inner, out)
    return out


def instances(lhs, rhs):
    """(lhs, rhs, free levels) for each binding of the row's data
    variables, its `RLFormula` variables grounded to applications."""
    data = sorted(data_vars(lhs) | data_vars(rhs), key=lambda v: v.name)
    context = 0 if isinstance(rhs, FAFact) else CONTEXT
    for values in itertools.product(*(DATA[v.kind] for v in data)):
        env = {v: v for side in (lhs, rhs) for v in subterms(side)
               if isinstance(v, Var)}
        env.update(zip(data, values))
        depths = {}
        for side in (lhs, rhs):
            scopes(instantiate(side, env), context, depths)
        for v, (k, *more) in depths.items():
            assert not more, "%s occurs at two depths" % v.name
            env[v] = RApp((k - 1,), Rel(v.name), (k,))
        yield (*(instantiate(side, env) for side in (lhs, rhs)), context)


def agree(lhs, rhs, seed: int) -> bool:
    """Whether both sides of an RL row have one truth value in every
    instance, under EVALUATIONS seeded random interpretations each."""
    rng = np.random.default_rng(seed)
    for lhs, rhs, context in instances(lhs, rhs):
        lhs, rhs = ground(lhs, rhs)
        for _ in range(EVALUATIONS):
            interp = random_interp(rng, (lhs, rhs), ALL_ROWS)
            env = {lvl: SMALL[i] for lvl, i in zip(
                range(1, context + 1), rng.integers(len(SMALL), size=context))}
            if denotation(lhs, interp, env) != denotation(rhs, interp, env):
                return False
    return True


@pytest.mark.parametrize("seed", range(len(FA_CASES)),
                         ids=["%s-%d" % c[:2] for c in FA_CASES])
def test_equation_holds_on_random_interpretations(seed):
    name, _, lhs, rhs = FA_CASES[seed]
    rows = witness_rows(SPACE) if name in WITNESS_ROWS_ONLY else ALL_ROWS
    assert holds(lhs, rhs, rows, seed)


@pytest.mark.parametrize("lhs, rhs", [c[2:] for c in RL_CASES],
                         ids=["%s-%d" % c[:2] for c in RL_CASES])
def test_rl_equivalence_holds_on_every_truth_assignment(lhs, rhs):
    assert tautology(lhs, rhs)


@pytest.mark.parametrize("seed", range(len(EVAL_CASES)),
                         ids=["%s-%d" % c[:2] for c in EVAL_CASES])
def test_rl_row_holds_on_random_interpretations(seed):
    assert agree(*EVAL_CASES[seed][2:], seed)


def test_fork_converse_meet_fails_beyond_the_witness_rows():
    (lhs, rhs), = EQUATIONS["fork-converse-meet"]
    assert not holds(lhs, rhs, ALL_ROWS, 0)


@pytest.mark.parametrize("lhs, rhs", [
    (Compl(Comp(X, Y)), Ldiv(X, Compl(Y))),
    (Comp(Fork(TOP, ID), X), Fork(X, Comp(TOP, X))),
    (Meet(X, ID), X),
    (FactLe(X, Ldiv(Y, Z)), FactLe(Comp(X, Y), Z)),
    (ROr(RNot(F), G), RImp(G, F)),
    (RNot(RAnd(F, G)), ROr(F, G)),
], ids=["converse-dropped", "fork-swapped", "kind-dropped", "comp-swapped",
        "implication-swapped", "de-morgan-unnegated"])
def test_the_check_refutes_a_wrong_equation(lhs, rhs):
    if isinstance(lhs, RLFormula):
        assert not tautology(lhs, rhs)
    else:
        assert not holds(lhs, rhs, ALL_ROWS, 0)


@pytest.mark.parametrize("lhs, rhs", [
    (RAnd(RApp(U, X, V), RApp(U, Y, V)), RApp(U, Join(X, Y), V)),
    (RAll(N, None, F), RNot(REx(N, F))),
    (RAll(2, RApp((1,), Y, (2,)), RApp((1,), X, (2,))), FactLe(X, Y)),
], ids=["combine-and-by-join", "forall-without-inner-negation",
        "read-off-reversed"])
def test_the_evaluation_refutes_a_wrong_row(lhs, rhs):
    assert not agree(lhs, rhs, 0)


@pytest.mark.parametrize("seed", range(len(CASES)),
                         ids=["%s-%d" % c[:2] for c in CASES])
def test_both_sides_render_with_their_variables(seed):
    # a variable reads as ?name: grounding each to a relation of its name
    # drops only the ?, and renaming one variable changes every side it
    # occurs in; a width or an item tuple variable is renamed, not
    # grounded
    _, _, lhs, rhs = CASES[seed]
    for side in (lhs, rhs):
        render = fact_text if isinstance(side, FAFact) else fa_text
        text = render(side)
        data = data_vars(side)
        env = {v: v for v in subterms(side) if isinstance(v, Var)}
        env.update((v, v) for v in data)
        grounded = instantiate(side, {v: v if v in data else Rel(v.name)
                                      for v in env})
        want = text
        for v in env.keys() - data:
            want = want.replace("?" + v.name, v.name)
        assert render(grounded) == want
        for v in env:
            assert "?" + v.name in text
            renamed = instantiate(side, {**env, v: Var(v.name + "2", v.kind)})
            assert render(renamed) != text


def test_every_rule_but_the_hand_ones_is_in_the_table():
    # the read-off rows are a translator's read-off, not a rule of a bank
    names = [r.name for r in LOGIC_RULES + ALGEBRA_RULES + FACT_RULES
             + _NORMALIZE_RULES + _COMBINE_RULES]
    assert HAND_RULES <= set(names)
    assert set(names) - HAND_RULES == set(EQUATIONS) - {"read-off"}
    assert len(CASES) == 70 and len(EVAL_CASES) == 33
    assert len(RL_CASES) == 16 and len(EQUATIONS["read-off"]) == 10
