"""Workload inputs for the benchmark, built from the settings file.

Two corpora, each a list of model texts in a seed-chosen order:

* ``university``: the running example, one ``.als`` model.
* ``scaling``: generated models ``sig B {} sig A { r1, ..., rk : B }``
  with one assert of k conjuncts ``all x : A | x.ri in B``.

The inputs themselves are fixed, so the fact digests recorded in
``workloads.json`` stay comparable from run to run; the seed permutes
the order in which inputs are processed, which decides the input that
pays each cold tuple-space build.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass

from alloy2fa import frontend
from alloy2fa.oracle import SigInfo, Vocab

HERE = os.path.dirname(os.path.abspath(__file__))
SETTINGS = os.path.join(HERE, "workloads.json")


@dataclass(frozen=True)
class Input:
    """One translation job: a model text, translated from parse on."""

    id: str
    text: str


@dataclass
class Workload:
    name: str
    inputs: list  # Input, in processing order
    vocabs: dict  # input id -> Vocab the oracle builds models from
    oracle: dict  # config -> check_equiv bound, max_exhaustive, samples
    digests: dict  # config -> recorded sha256; empty at tiny sizes
    repeats: dict  # "<cfg>.<stage>" -> runs per round, if not 1
    unscaled: frozenset  # "<cfg>.<stage>" reported as measured


def load_settings() -> dict:
    with open(SETTINGS) as fh:
        return json.load(fh)


def vocab_of(table) -> Vocab:
    """Model-building vocabulary of a symbol table.

    Each signature keeps its parent and abstract flag, and each field its
    column signatures, owner first, which is how ``iter_models`` places
    atoms and draws typed extents.
    """
    sigs = {name: SigInfo(name, parent, table.sig_abstract[name])
            for name, parent in table.sig_parent.items()}
    return Vocab(sigs=sigs, rels=dict(table.rel_cols))


def model_vocab(text: str) -> Vocab:
    model = frontend.check_arities(frontend.desugar(frontend.parse(text)))
    return vocab_of(frontend.symbol_table(model))


def scaling_text(k: int) -> str:
    fields = ", ".join("r%d" % i for i in range(1, k + 1))
    body = " and ".join("x.r%d in B" % i for i in range(1, k + 1))
    return ("sig B {}\nsig A { %s : B }\nassert { all x : A | %s }\n"
            % (fields, body))


def build(name: str, seed: int, root: str, tiny: bool = False) -> Workload:
    """Inputs, vocabularies and oracle settings of one workload.

    root is the checkout the model files are read from. tiny selects the
    self-check sizes of the settings file.
    """
    settings = load_settings()
    spec = dict(settings["workloads"][name])
    if tiny:
        spec.update(spec.get("tiny", {}))
    inputs, vocabs = [], {}
    if name == "university":
        with open(os.path.join(root, spec["source"])) as fh:
            text = fh.read()
        inputs.append(Input("university", text))
        vocabs["university"] = model_vocab(text)
    elif name == "scaling":
        for k in spec["k"]:
            text = scaling_text(k)
            inputs.append(Input("k%d" % k, text))
            vocabs["k%d" % k] = model_vocab(text)
    else:
        raise ValueError("unknown workload %r" % name)
    random.Random(seed).shuffle(inputs)
    digests = {} if tiny else settings["digests"].get(name, {})
    return Workload(name, inputs, vocabs, dict(spec["oracle"]),
                    digests, spec.get("repeats", {}),
                    frozenset(spec.get("unscaled", ())))
