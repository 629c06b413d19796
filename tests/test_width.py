"""Width stability: a fact has the same truth at its own width and at the
next one.

The oracle reads each fact on a tuple carrier of the fact's width,
while a prover reads every fact of a problem in one fork algebra whose
universe holds every pairing. The two agree only if no fact's truth
depends on the width it is read at (ROADMAP item 8). Each fact is read
at w = max(its width stamp, `infer_width`) and at w + 1 on every model
of 1 and 2 atoms over the relations it mentions; a scaling fact over k
relations has 2^k such models, so it is read on the family of them that
`scaling_models` builds.
"""

import os

import pytest

from conftest import SCALING_K, scaling_text
from alloy2fa.decls import declaration_facts
from alloy2fa.frontend import parse, symbol_table
from alloy2fa.oracle import (
    FiniteModel, SigInfo, Vocab, describe_model, fact_holds, gen_vocab,
    infer_width, iter_models, iter_orbits, mentioned_rels,
)

HERE = os.path.dirname(__file__)

with open(os.path.join(HERE, "data", "university.als")) as fh:
    TABLE = symbol_table(parse(fh.read()))


def vocab_of(table) -> Vocab:
    """The model-building vocabulary of a symbol table."""
    return Vocab(
        sigs={name: SigInfo(name, parent, table.sig_abstract[name])
              for name, parent in table.sig_parent.items()},
        rels=dict(table.rel_cols))


UNIVERSITY = vocab_of(TABLE)
DECLARED = declaration_facts(TABLE)


def unstable_models(fact, vocab, models=None) -> list:
    """The models (by default every model of 1 and 2 atoms) on which the
    fact's truth at its width differs from its truth at the next width."""
    w = max(fact.width, infer_width(fact))
    if models is None:
        rels = sorted(mentioned_rels(fact) & set(vocab.rels))
        models = (m for n in (1, 2) for m in iter_models(vocab, n, rels))
    return [describe_model(m) for m in models
            if fact_holds(fact, m, w) != fact_holds(fact, m, w + 1)]


def scaling_models(vocab, rels) -> list:
    """Models of 1 and 2 atoms for k relations A -> B, whose 2^k extents
    cannot all be read: on one placement per renaming orbit, no relation,
    every relation, each relation alone and all but each relation hold
    the A -> B pairs. A renamed model has the same truths."""
    out = []
    for n in (1, 2):
        for m, _ in iter_orbits(vocab, n, []):
            pairs = frozenset((a, b) for a in m.sigs["A"]
                              for b in m.sigs["B"])
            ons = [set()]
            if pairs:
                ons += [set(rels)] + [{r} for r in rels] + [
                    set(rels) - {r} for r in rels]
            out += [FiniteModel(m.atoms, m.sigs, {
                r: pairs if r in on else frozenset() for r in rels})
                for on in ons]
    return out


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


@pytest.mark.parametrize("config", ["mech", "short"])
def test_scaling_facts_are_width_stable(config, golden_translations):
    """Both translators' facts of the k = 32 and 64 scaling asserts
    (width 3 or less), on the models of `scaling_models`.

    The nested n = 10 and 20 facts stay out: they have width 11 and 21,
    and a tuple carrier of 2 atoms at width 22 holds 2^23 - 2 elements.
    """
    runs = {key: fact for key, _, fact in golden_translations[config]
            if key.startswith("scaling:")}
    assert sorted(runs) == ["scaling:k%d" % k for k in SCALING_K]
    for k in SCALING_K:
        vocab = vocab_of(symbol_table(parse(scaling_text(k))))
        fact = runs["scaling:k%d" % k]
        assert max(fact.width, infer_width(fact)) <= 3
        rels = sorted(mentioned_rels(fact))
        assert len(rels) == k
        models = scaling_models(vocab, rels)
        assert len(models) == 4 + 2 + 2 * k
        assert unstable_models(fact, vocab, models) == [], k
