"""Translations shared by the golden-facts and shortcut-translator tests.

Both translators run once per session over the same corpus: the assert
of the running example, then `gen_formula` seeds 0-59.
"""

import os

import pytest

from alloy2fa.frontend import check_arities, desugar, parse
from alloy2fa.heuristics import translate_form_h
from alloy2fa.oracle import gen_formula, gen_vocab
from alloy2fa.pipeline import translate_form

HERE = os.path.dirname(__file__)
SEEDS = range(60)
TRANSLATORS = (("mech", translate_form), ("short", translate_form_h))


def golden_inputs():
    """(input id, core formula, relation arities), in corpus order."""
    with open(os.path.join(HERE, "data", "university.als")) as fh:
        model = check_arities(desugar(parse(fh.read())))
    arities = model.rel_arity()
    out = [("university:%s" % a.name, a.form, arities) for a in model.asserts]
    gen = gen_vocab().arity()
    out += [("seed%d" % s, gen_formula(s), gen) for s in SEEDS]
    return out


@pytest.fixture(scope="session")
def golden_translations():
    """Translator name -> [(input id, source formula, fact)]."""
    inputs = golden_inputs()
    return {name: [(key, form, fn(form, arities))
                   for key, form, arities in inputs]
            for name, fn in TRANSLATORS}
