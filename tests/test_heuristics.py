"""Shortcut translator: oracle certificates and the frame-free readings."""

import pytest

from alloy2fa.heuristics import drop_vars, translate_h_with_trace
from alloy2fa.oracle import SigInfo, Vocab, check_equiv, gen_vocab
from alloy2fa.terms import (
    BOT,
    ID,
    TOP,
    Conv,
    FactEq,
    FactLe,
    Meet,
    Phi,
    RAll,
    RAnd,
    RApp,
    REx,
    RFalse,
    RMark,
    RNot,
    RTrue,
    Rel,
)

R = Rel("r")
S = Rel("s")


def app(l, rel, r):
    return RApp((l,), rel, (r,))


def two_rel_vocab():
    return Vocab(sigs={"A": SigInfo("A")},
                 rels={"r": ("A", "A"), "s": ("A", "A")})


def test_generated_formulas_certify(golden_translations):
    vocab = gen_vocab()
    for key, form, fact in golden_translations["short"]:
        if key.startswith("seed"):
            v = check_equiv(form, fact, vocab, bound=2)
            assert v.status == "PASS", "%s: %s" % (key, v.detail)


class TestDropVars:
    @pytest.mark.parametrize("formula, fact", [
        (RTrue(), FactEq(TOP, TOP)),
        (RFalse(), FactEq(TOP, BOT)),
        # totality, in either orientation
        (RAll(2, None, app(1, R, 2)), FactEq(R, TOP)),
        (RAll(2, None, app(2, R, 1)), FactEq(Conv(R), TOP)),
        # inclusion
        (RAll(2, app(1, R, 2), app(1, S, 2)), FactLe(R, S)),
        (RAll(2, app(2, R, 1), app(1, S, 2)), FactLe(Conv(R), S)),
        # reflexivity, plain and ranged
        (RAll(1, None, app(1, R, 1)), FactLe(ID, R)),
        (RAll(1, app(1, Phi("A"), 1), app(1, R, 1)),
         FactLe(Meet(Phi("A"), ID), R)),
    ])
    def test_pattern(self, formula, fact):
        got = drop_vars(formula)
        assert got == fact
        assert got.width == 0
        assert check_equiv(formula, got, two_rel_vocab(), bound=2).status \
            == "PASS"

    @pytest.mark.parametrize("formula", [
        RMark(app(1, R, 2)),
        RAll(2, None, RAnd(app(1, R, 2), app(1, S, 2))),
        RAll(2, None, app(1, R, 1)),
        RAll(1, app(1, R, 2), app(1, S, 1)),
        REx(2, app(1, R, 2)),
        RNot(RTrue()),
    ])
    def test_other_shapes_need_frames(self, formula):
        assert drop_vars(formula) is None


class TestTranslate:
    def test_frame_free_fact_has_width_zero(self):
        fact, trace = translate_h_with_trace(RAll(2, None, app(1, R, 2)))
        assert fact == FactEq(R, TOP)
        assert fact.width == 0
        assert trace == []

    def test_framed_fact_carries_its_width(self):
        f = RAll(1, None, REx(1, RAnd(app(1, R, 2), RNot(app(2, S, 1)))))
        fact, trace = translate_h_with_trace(f)
        assert fact.width == 2
        assert any(s.rule == "discharge-innermost-exists" for s in trace)
        assert check_equiv(f, fact, two_rel_vocab(), bound=2).status \
            == "PASS"
