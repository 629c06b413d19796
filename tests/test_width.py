"""Width stability: a fact has the same truth at its own width and at the
next one.

The oracle reads each fact on a tuple carrier of the fact's width,
while a prover reads every fact of a problem in one fork algebra whose
universe holds every pairing. The two agree only if no fact's truth
depends on the width it is read at (ROADMAP item 8). Each fact is read
at w = max(its width stamp, `infer_width`) and at w + 1 on every model
of 1 and 2 atoms over the relations it mentions.
"""

import os

import pytest

from alloy2fa.decls import declaration_facts
from alloy2fa.frontend import parse, symbol_table
from alloy2fa.oracle import (
    SigInfo, Vocab, describe_model, fact_holds, gen_vocab, infer_width,
    iter_models, mentioned_rels,
)

HERE = os.path.dirname(__file__)

with open(os.path.join(HERE, "data", "university.als")) as fh:
    TABLE = symbol_table(parse(fh.read()))
UNIVERSITY = Vocab(
    sigs={name: SigInfo(name, parent, TABLE.sig_abstract[name])
          for name, parent in TABLE.sig_parent.items()},
    rels=dict(TABLE.rel_cols))
DECLARED = declaration_facts(TABLE)


def unstable_models(fact, vocab) -> list:
    """The models of 1 and 2 atoms on which the fact's truth at its width
    differs from its truth at the next width."""
    w = max(fact.width, infer_width(fact))
    rels = sorted(mentioned_rels(fact) & set(vocab.rels))
    return [describe_model(m) for n in (1, 2)
            for m in iter_models(vocab, n, rels)
            if fact_holds(fact, m, w) != fact_holds(fact, m, w + 1)]


@pytest.mark.parametrize("index", [
    pytest.param(i, id="%s-%d" % (f.label, i), marks=pytest.mark.xfail(
        strict=True, reason=(
            "top-cover equates id with the union of the top signatures: "
            "every element is an atom, true at width 1 and false at width "
            "2 on every model")) if f.label == "top-cover" else ())
    for i, f in enumerate(DECLARED)])
def test_declaration_fact_is_width_stable(index):
    assert unstable_models(DECLARED[index], UNIVERSITY) == []


@pytest.mark.parametrize("config", ["mech", "short"])
def test_translated_facts_are_width_stable(config, golden_translations):
    """Both translators' facts of the running example's assert and of
    `gen_formula` seeds 0-59."""
    runs = [(key, fact) for key, _, fact in golden_translations[config]
            if key.startswith(("university:", "seed"))]
    assert len(runs) == 61
    for key, fact in runs:
        vocab = UNIVERSITY if key.startswith("university:") else gen_vocab()
        assert unstable_models(fact, vocab) == [], key
