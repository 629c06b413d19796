"""Translations shared by the golden-facts and shortcut-translator tests.

Both translators run once per session over the same corpus: the assert
of the running example, `gen_formula` seeds 0-59, then two long-input
families: the benchmark's k-conjunct scaling assert at k = 32 and 64,
and n nested quantifiers `all x0 : A | ... | x0 in A` at n = 10 and 20.
"""

import os

import pytest

from alloy2fa import strategy
from alloy2fa.frontend import check_arities, desugar, parse
from alloy2fa.heuristics import translate_form_h
from alloy2fa.oracle import gen_formula, gen_vocab
from alloy2fa.pipeline import translate_form

HERE = os.path.dirname(__file__)
SEEDS = range(60)
TRANSLATORS = (("mech", translate_form), ("short", translate_form_h))
SCALING_K = (32, 64)
NESTED_N = (10, 20)


def scaling_text(k: int) -> str:
    """The benchmark's scaling model: k conjuncts `x.ri in B`."""
    fields = ", ".join("r%d" % i for i in range(1, k + 1))
    body = " and ".join("x.r%d in B" % i for i in range(1, k + 1))
    return ("sig B {}\nsig A { %s : B }\nassert { all x : A | %s }\n"
            % (fields, body))


def nested_text(n: int) -> str:
    """n nested quantifiers over A, of which only the outermost is used."""
    binders = "".join("all x%d : A | " % i for i in range(n))
    return "sig A {}\nassert { %sx0 in A }\n" % binders


def model_assert(text: str):
    """(the model's one assert formula, relation arities)."""
    model = check_arities(desugar(parse(text)))
    (form,) = [a.form for a in model.asserts]
    return form, model.rel_arity()


def golden_inputs():
    """(input id, core formula, relation arities), in corpus order."""
    with open(os.path.join(HERE, "data", "university.als")) as fh:
        model = check_arities(desugar(parse(fh.read())))
    arities = model.rel_arity()
    out = [("university:%s" % a.name, a.form, arities) for a in model.asserts]
    gen = gen_vocab().arity()
    out += [("seed%d" % s, gen_formula(s), gen) for s in SEEDS]
    out += [("scaling:k%d" % k,) + model_assert(scaling_text(k))
            for k in SCALING_K]
    out += [("nested:n%d" % n,) + model_assert(nested_text(n))
            for n in NESTED_N]
    return out


def traced(translate, form, arities):
    """(fact, every TraceStep the rewrite engine fired on the way),
    closure lifting's steps included."""
    steps = []
    real = strategy.step

    def recording(t, banks, state):
        out = real(t, banks, state)
        if out is not None:
            steps.append(state.trace[-1])
        return out

    strategy.step = recording
    try:
        return translate(form, arities), steps
    finally:
        strategy.step = real


@pytest.fixture(scope="session")
def golden_runs():
    """Translator name -> [(input id, source formula, fact, steps)]."""
    inputs = golden_inputs()
    return {name: [(key, form) + traced(fn, form, arities)
                   for key, form, arities in inputs]
            for name, fn in TRANSLATORS}


@pytest.fixture(scope="session")
def golden_translations(golden_runs):
    """Translator name -> [(input id, source formula, fact)]."""
    return {name: [run[:3] for run in runs]
            for name, runs in golden_runs.items()}
