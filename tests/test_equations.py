"""Every equation of `heuristics.EQUATIONS` is a law, not only on the
redexes the corpus reaches.

An FA equation or fact equivalence is checked in the matrix semantics:
each pattern variable becomes a fresh relation constant, a `Phi`
variable a fresh coreflexive, and both sides are evaluated on the pair
closure of two atoms (38 elements) under seeded random
interpretations.  An equation between FA terms must give equal
matrices, an equivalence between inclusions equal truth values.

An RL equivalence is checked by truth table: each `RLFormula` variable
is grounded to true or false in every way, and both sides must get one
truth value from `oracle.eval_rl`.  The connectives are
truth-functional, so this check is exhaustive, not sampled.

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
    Ldiv,
    Meet,
    Phi,
    RAnd,
    RFALSE,
    RImp,
    RLFormula,
    RNot,
    ROr,
    RTRUE,
    Rel,
    Var,
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
# the binder rules read widths, ranges and level uses; the two algebra
# rules an n-ary relation's arity
HAND_RULES = {"forall-absorb-implication", "forall-fuse", "exists-fuse",
              "binder-trim", "rotation-cycle", "wide-composition-unit"}
# the law pairs up two existential witnesses, so the sampled relations
# keep their rows below the carrier's top layer, as in
# test_oracle.py::TestAlgebraAxioms::test_fork_converse_law
WITNESS_ROWS_ONLY = {"fork-converse-meet"}
CASES = [(name, i, lhs, rhs) for name, eqs in EQUATIONS.items()
         for i, (lhs, rhs) in enumerate(eqs)]
FA_CASES = [c for c in CASES if not isinstance(c[2], RLFormula)]
RL_CASES = [c for c in CASES if isinstance(c[2], RLFormula)]
X, Y, Z = Var("X"), Var("Y"), Var("Z")
F, G = Var("F", RLFormula), Var("G", RLFormula)
TRUTH_SPACE = tuple_space(("a",), 1)


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


def denotation(t, interp):
    if isinstance(t, FactLe):
        lhs, rhs = (eval_fa(s, SPACE, interp) for s in (t.lhs, t.rhs))
        return bool((~lhs | rhs).all())
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


@pytest.mark.parametrize("seed", range(len(CASES)),
                         ids=["%s-%d" % c[:2] for c in CASES])
def test_both_sides_render_with_their_variables(seed):
    # a variable reads as ?name: grounding each to a relation of its name
    # drops only the ?, and renaming one variable changes every side it
    # occurs in
    _, _, lhs, rhs = CASES[seed]
    for side in (lhs, rhs):
        render = fact_text if isinstance(side, FAFact) else fa_text
        text = render(side)
        env = {v: v for v in subterms(side) if isinstance(v, Var)}
        grounded = instantiate(side, {v: Rel(v.name) for v in env})
        assert render(grounded) == text.replace("?", "")
        for v in env:
            assert "?" + v.name in text
            renamed = instantiate(side, {**env, v: Var(v.name + "2")})
            assert render(renamed) != text


def test_every_rule_but_the_hand_ones_is_in_the_table():
    names = [r.name for r in LOGIC_RULES + ALGEBRA_RULES + FACT_RULES]
    assert HAND_RULES <= set(names)
    assert set(names) - HAND_RULES == set(EQUATIONS)
    assert len(CASES) == 52 and len(RL_CASES) == 15
