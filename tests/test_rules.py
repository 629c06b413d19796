"""Bank rules, and rule branches, that no corpus translation fires, one
hand-built redex each.

Every case fires exactly its rule with `step(t, (bank,), RunState())`,
and the oracle checks that the redex and its rewrite denote the same
thing (facts: have the same truth) on every model `iter_models` yields
at 2 atoms, over the tuple carrier of width 2. The vocabulary types
every relation column, so ternary extents relate atoms to atom pairs.
The guard test fails when a rule of any bank is neither fired by the
corpus translations nor listed in CASES, or declares a kind that is not
a term class or a tuple of them.
"""

import numpy as np
import pytest

from conftest import TRANSLATORS, traced

from alloy2fa.heuristics import (
    ALGEBRA_RULES,
    DEFINITION_RULES,
    FACT_RULES,
    LOGIC_RULES,
)
from alloy2fa.oracle import (
    SigInfo,
    Vocab,
    eval_fa,
    eval_rl,
    fact_holds,
    gen_vocab,
    get_tuple_space,
    interp_from_model,
    iter_models,
    mentioned_rels,
)
from alloy2fa.pipeline import (
    _COMBINE_RULES,
    _DISCHARGE_RULES,
    _FRAME_RULES,
    _NORMALIZE_RULES,
    _lift_rules,
)
from alloy2fa.strategy import RunState, step
from alloy2fa.terms import (
    BOT,
    ID,
    PI1,
    PI2,
    TOP,
    AInter,
    AJoin,
    AProd,
    ARel,
    ASig,
    AStar,
    AUniv,
    AVar,
    Comp,
    Compl,
    Conv,
    FactLe,
    FAFact,
    FAll,
    FIn,
    FNot,
    Fork,
    FSome,
    Interned,
    Join,
    Ldiv,
    NComp,
    Phi,
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
    Rot,
    RTrue,
    Rel,
)

R, S, T = Rel("r"), Rel("s"), Rel("t", 3)
VOCAB = Vocab(sigs={"A": SigInfo("A"), "B": SigInfo("B")},
              rels={"r": ("A", "A"), "s": ("A", "A"), "t": ("A", "A", "A")})


def in_a(lvl):
    return RApp((lvl,), Phi("A"), (lvl,))


CASES = [
    ("negated-literal", LOGIC_RULES, RAll(1, in_a(1), RNot(RTrue()))),
    ("negated-literal", LOGIC_RULES, REx(1, RAnd(in_a(1), RNot(RFalse())))),
    ("implication-literal", LOGIC_RULES, REx(1, RImp(RFalse(), in_a(1)))),
    ("implication-literal", LOGIC_RULES, REx(1, RImp(RTrue(), in_a(1)))),
    ("frame-false", _FRAME_RULES, RMark(REx(1, ROr(RFalse(), in_a(1))))),
    ("join-pair", ALGEBRA_RULES, Join(R, BOT)),
    ("join-pair", ALGEBRA_RULES, Join(Conv(S), TOP)),
    ("join-pair", ALGEBRA_RULES, Join(R, Join(S, R))),
    ("wide-composition-unit", ALGEBRA_RULES, NComp(T, ID, 3)),
    ("rotation-cycle", ALGEBRA_RULES, Rot(Rot(Rot(T, 3), 3), 3)),
    ("residual-units", ALGEBRA_RULES, Ldiv(BOT, R)),
    ("residual-units", ALGEBRA_RULES, Ldiv(R, TOP)),
    ("residual-units", ALGEBRA_RULES, Ldiv(ID, R)),
    ("fork-converse-meet", ALGEBRA_RULES,
     Comp(Conv(Fork(R, Conv(S))), Fork(Conv(S), R))),
    ("fork-absorbs-composition", ALGEBRA_RULES, Comp(Fork(ID, TOP), R)),
    ("product-intro", ALGEBRA_RULES, Fork(Comp(R, PI1), Comp(Conv(S), PI2))),
    ("complement-collapse", ALGEBRA_RULES, Compl(Conv(Compl(R)))),
    ("complement-collapse", ALGEBRA_RULES, Compl(BOT)),
    ("complement-distribute", ALGEBRA_RULES, Compl(Join(R, S))),
    ("composition-unit", ALGEBRA_RULES, Comp(BOT, R)),
    ("inequation-normalize", FACT_RULES, FactLe(Compl(R), Compl(S))),
    ("inequation-normalize", FACT_RULES, FactLe(TOP, Conv(S))),
    ("inequation-normalize", FACT_RULES, FactLe(Conv(R), BOT)),
    # the branches for an absent range, and a binder trimmed to nothing
    ("forall-absorb-implication", LOGIC_RULES,
     RAll(1, None, RImp(in_a(1), in_a(1)))),
    ("forall-fuse", LOGIC_RULES, RAll(1, in_a(1), RAll(1, None, in_a(2)))),
    ("binder-trim", LOGIC_RULES, REx(1, RAll(1, in_a(1), in_a(1)))),
]


@pytest.mark.parametrize(
    "name, bank, redex", CASES,
    ids=["%s-%d" % (c[0], i) for i, c in enumerate(CASES)])
def test_rule_fires_and_keeps_the_denotation(name, bank, redex):
    state = RunState()
    out = step(redex, (bank,), state)
    assert [s.rule for s in state.trace] == [name]
    rels = sorted(mentioned_rels(redex))
    for m in iter_models(VOCAB, 2, rels):
        space = get_tuple_space(m.atoms, 2)
        interp = interp_from_model(m, space)
        if isinstance(redex, RLFormula):
            assert eval_rl(redex, space, interp) == eval_rl(out, space, interp)
        elif isinstance(redex, FAFact):
            assert fact_holds(redex, m, 2) == fact_holds(out, m, 2)
        else:
            assert np.array_equal(eval_fa(redex, space, interp),
                                  eval_fa(out, space, interp))


# Closure operands, which the corpus lacks: a parametric one lifts its
# free variable into the frames, and joins inside nested ones leave
# witnesses to compose and project away.
CLOSURE_INPUTS = [
    FAll("u", ASig("A"), FAll("x", AUniv(), FAll("y", AUniv(), FNot(FIn(
        AProd(AVar("x"), AVar("y")),
        AStar(AInter(ARel("r"), AProd(AVar("u"), ASig("B"))))))))),
    FSome(AStar(AJoin(AStar(AJoin(ASig("A"), ARel("t"))), ARel("s")))),
]


def bank_rules():
    banks = (LOGIC_RULES, DEFINITION_RULES, ALGEBRA_RULES, FACT_RULES,
             _NORMALIZE_RULES, _FRAME_RULES, _COMBINE_RULES, _DISCHARGE_RULES,
             _lift_rules(()))
    return [rule for bank in banks for rule in bank]


def is_term_class(k) -> bool:
    return isinstance(k, type) and issubclass(k, (Interned, FAFact))


def test_every_bank_rule_is_fired_or_tested(golden_runs):
    fired = {s.rule for runs in golden_runs.values()
             for _, _, _, steps in runs for s in steps}
    gen = gen_vocab().arity()
    for form in CLOSURE_INPUTS:
        for _, translate in TRANSLATORS:
            fired |= {s.rule for s in traced(translate, form, gen)[1]}
    rules = bank_rules()
    for rule in rules:
        kinds = rule.kind if isinstance(rule.kind, tuple) else (rule.kind,)
        assert kinds and all(is_term_class(k) for k in kinds), rule.name
    names = {rule.name for rule in rules}
    tested = {name for name, _, _ in CASES}
    assert tested <= names
    assert names - fired - tested == set()
