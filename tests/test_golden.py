"""Golden facts: both translators emit exactly the recorded output.

`data/golden_facts.json` holds, per translator and input, the first 16
hex digits of sha256 over `fact_text` and the width stamp, joined by a
newline. A refactor of the rewrite engine or of either translator must
keep every entry; a change that means to alter the facts records new
digests and says why.

`data/golden_traces.json` pins the rewrite engine's firings on the same
corpus, closure lifting's included: per translator, the number of steps
and a sha256 over (rule, before, after) of every firing in order, each
term by a digest of its class and fields. An engine optimization must
keep both; the facts alone would not show a changed firing order.
Its `algebra` entry pins the algebra and fact rules on seeded random
terms, and its `logic` entry the logical rules on seeded random
propositional formulas; both reach the branches no corpus translation
fires. Each holds the step count and a sha256 over the rule and the
rendered result of every firing.
"""

import dataclasses
import hashlib
import json
import os
import random

import pytest

from alloy2fa.heuristics import ALGEBRA_RULES, FACT_RULES, LOGIC_RULES
from alloy2fa.strategy import RunState, rewrite
from alloy2fa.terms import (
    BOT,
    ID,
    PI1,
    PI2,
    TOP,
    Comp,
    Compl,
    Conv,
    FactLe,
    Fork,
    Interned,
    Join,
    Ldiv,
    Meet,
    Node,
    Phi,
    Prod,
    RAnd,
    RApp,
    RFALSE,
    RImp,
    RNot,
    ROr,
    RTRUE,
    Rel,
    fa_text,
    fact_text,
)

HERE = os.path.dirname(__file__)


def fact_digest(fact) -> str:
    text = "%s\n%d" % (fact_text(fact), fact.width)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@pytest.fixture(scope="module")
def golden():
    with open(os.path.join(HERE, "data", "golden_facts.json")) as fh:
        return json.load(fh)


@pytest.mark.parametrize("config", ["mech", "short"])
def test_facts_match_the_recorded_digests(config, golden,
                                          golden_translations):
    want = golden[config]
    got = golden_translations[config]
    assert [key for key, _, _ in got] == list(want)
    for key, _, fact in got:
        assert fact_digest(fact) == want[key], (
            "%s: first differing input is %s: %s (width %d)"
            % (config, key, fact_text(fact), fact.width))


def term_digest(t, memo: dict) -> str:
    """sha256 over a term's class name and fields, each subterm by its own
    digest; memo holds the digests of the interned terms seen so far."""
    got = memo.get(t) if isinstance(t, Interned) else None
    if got is None:
        parts = [type(t).__name__]
        for f in dataclasses.fields(t):
            v = getattr(t, f.name)
            parts.append(term_digest(v, memo) if isinstance(v, Node)
                         else repr(v))
        got = hashlib.sha256("\n".join(parts).encode()).hexdigest()
        if isinstance(t, Interned):
            memo[t] = got
    return got


def trace_digest(steps) -> dict:
    """The step count and the sha256 over every firing in order."""
    memo, h = {}, hashlib.sha256()
    for s in steps:
        h.update(("%s\n%s\n%s\n" % (s.rule, term_digest(s.before, memo),
                                      term_digest(s.after, memo))).encode())
    return {"steps": len(steps), "sha256": h.hexdigest()}


def recorded(key: str) -> dict:
    with open(os.path.join(HERE, "data", "golden_traces.json")) as fh:
        return json.load(fh)[key]


@pytest.mark.parametrize("config", ["mech", "short"])
def test_firings_match_the_recorded_digest(config, golden_runs):
    steps = [s for run in golden_runs[config] for s in run[3]]
    assert trace_digest(steps) == recorded(config)


LEAVES = (Rel("r"), Rel("s"), Phi("A"), ID, TOP, BOT, PI1, PI2)
OPERATORS = ((Conv, 1), (Compl, 1), (Join, 2), (Meet, 2), (Comp, 2),
             (Fork, 2), (Prod, 2), (Ldiv, 2))


RL_LEAVES = (RApp((1,), Rel("r"), (2,)), RApp((2,), Rel("s"), (1,)),
             RTRUE, RFALSE)
RL_OPERATORS = ((RNot, 1), (RAnd, 2), (ROr, 2), (RImp, 2))


def random_term(rng, depth, leaves=LEAVES, operators=OPERATORS):
    """A random term of depth at most `depth` over leaves and operators,
    by default an FA term."""
    if depth == 0 or rng.random() < 0.25:
        return rng.choice(leaves)
    op, arity = rng.choice(operators)
    return op(*[random_term(rng, depth - 1, leaves, operators)
                for _ in range(arity)])


def algebra_firings():
    """Every firing that rewrites 3,000 random terms of depth at most 4
    to their fixpoints under ALGEBRA_RULES, then 1,000 random inclusions
    under FACT_RULES."""
    rng, state = random.Random(0), RunState(budget=10 ** 6)
    for _ in range(3000):
        rewrite(random_term(rng, 4), (ALGEBRA_RULES,), state)
    for _ in range(1000):
        fact = FactLe(random_term(rng, 3), random_term(rng, 3))
        rewrite(fact, (FACT_RULES,), state)
    return state.trace


def logic_firings():
    """Every firing that rewrites 3,000 random formulas of depth at most
    4 to their fixpoints under LOGIC_RULES."""
    rng, state = random.Random(0), RunState(budget=10 ** 6)
    for _ in range(3000):
        rewrite(random_term(rng, 4, RL_LEAVES, RL_OPERATORS),
                (LOGIC_RULES,), state)
    return state.trace


def rendered_digest(steps) -> dict:
    """The step count and a sha256 over each firing's rule and rendered
    result."""
    h = hashlib.sha256()
    for s in steps:
        h.update(("%s\n%s\n" % (s.rule, fa_text(s.after))).encode())
    return {"steps": len(steps), "sha256": h.hexdigest()}


def test_algebra_firings_match_the_recorded_digest():
    assert rendered_digest(algebra_firings()) == recorded("algebra")


def test_logic_firings_match_the_recorded_digest():
    assert rendered_digest(logic_firings()) == recorded("logic")
