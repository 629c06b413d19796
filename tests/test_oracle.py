"""Frozen semantics for carriers, matrix evaluation and the checker.

These expectations were computed by hand from the pair/tuple calculus
before the evaluator existed; everything downstream is certified
against them, so change them only with a written justification.
"""

import functools
import hashlib
import itertools
import os
import random

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from alloy2fa import oracle
from alloy2fa.terms import (
    AConv, ADiff, AInter, AJoin, AProd, ARel, ASig, AStar, AUnion, AVar,
    Comp, Compl, Conv, FAll, FIn, FSome,
    FactEq, FactLe, Fork, Join, Ldiv, Meet, NComp, Phi, Pi1, Pi2, Prod,
    Rel, Rot, Star, Top, Bot, Id,
    BOT, ID, PI1, PI2, TOP,
    RAll, RAnd, RApp, REx, RImp, RLFormula, RMark, arity_of, children, cut,
    is_core, ncomp, projX, rotate, subterms, unfold, with_child,
)
from alloy2fa.frontend import parse, symbol_table
from alloy2fa.oracle import (
    FiniteModel, SigInfo, SizingError, Space, Vocab,
    check_equiv, describe_model, eval_aexpr, eval_alloy, eval_fa, eval_rl,
    fact_holds, gen_formula, gen_vocab, get_tuple_space, infer_width,
    interp_from_model, iter_models, iter_orbits, mentioned_rels,
    model_count, nest, pair_space, sample_model, tuple_space,
    _fact_prelude,
)


def hits(space, m):
    return {(space.elements[i], space.elements[j])
            for i, j in zip(*np.nonzero(m))}


@pytest.fixture(scope="module")
def trio():
    """Three atoms, a binary and a ternary extent, width-3 carrier."""
    model = FiniteModel(
        ("a", "b", "c"),
        {"A": frozenset({"a", "b"}), "B": frozenset({"c"})},
        {"r": frozenset({("a", "c"), ("b", "c")}),
         "t": frozenset({("a", "b", "c")}),
         "u1": frozenset({("b",)})},
    )
    space = tuple_space(model.atoms, 3)
    return model, space, interp_from_model(model, space)


class TestCarriers:
    def test_tuple_space_layers(self):
        sp = tuple_space(["a", "b"], 3)
        assert sp.n == 2 + 4 + 8
        assert sp.atom_count == 2
        assert sp.elements[:2] == ["a", "b"]
        assert ("a", ("b", "a")) in sp.index

    def test_width_one_is_atoms_only(self):
        sp = tuple_space(["a", "b"], 1)
        assert sp.n == 2 and len(sp._pairs) == 0

    def test_pair_space_closure(self):
        sp = pair_space(["a", "b", "c"], 2)
        # depth 1 adds 9 pairs, depth 2 the remaining pairs over 12 elements
        assert sp.n == 3 + 9 + (12 * 12 - 9)
        assert (("a", "b"), ("c", "a")) in sp.index

    def test_nest_is_right_associated(self):
        assert nest(["a"]) == "a"
        assert nest(["a", "b", "c"]) == ("a", ("b", "c"))


class TestMatrixSemantics:
    def test_relation_binarizes_first_column_out(self, trio):
        model, sp, interp = trio
        m = eval_fa(Rel("t", 3), sp, interp)
        assert hits(sp, m) == {("a", ("b", "c"))}

    def test_unary_relation_is_a_coreflexive(self, trio):
        model, sp, interp = trio
        m = eval_fa(Rel("u1", 1), sp, interp)
        assert hits(sp, m) == {("b", "b")}

    def test_signature_is_a_coreflexive(self, trio):
        model, sp, interp = trio
        m = eval_fa(Phi("A"), sp, interp)
        assert hits(sp, m) == {("a", "a"), ("b", "b")}

    def test_projections_run_component_to_pair(self, trio):
        model, sp, interp = trio
        p1 = eval_fa(PI1, sp, interp)
        p2 = eval_fa(PI2, sp, interp)
        assert p1[sp.index["a"], sp.index[("a", "b")]]
        assert not p1[sp.index["b"], sp.index[("a", "b")]]
        assert p2[sp.index["b"], sp.index[("a", "b")]]

    def test_selector_chain_picks_middle_component(self, trio):
        model, sp, interp = trio
        sel = eval_fa(projX(3, 2), sp, interp)
        tup = ("a", ("b", "c"))
        assert sel[sp.index["b"], sp.index[tup]]
        assert not sel[sp.index["a"], sp.index[tup]]
        assert not sel[sp.index["c"], sp.index[tup]]

    def test_fork_pairs_on_the_left(self):
        model = FiniteModel(("a", "b"), {},
                            {"r": frozenset({("a", "b")}),
                             "s": frozenset({("b", "b")})})
        sp = tuple_space(model.atoms, 2)
        interp = interp_from_model(model, sp)
        m = eval_fa(Fork(Rel("r"), Rel("s")), sp, interp)
        assert hits(sp, m) == {(("a", "b"), "b")}

    def test_product_applies_componentwise(self):
        model = FiniteModel(("a", "b"), {},
                            {"r": frozenset({("a", "b")}),
                             "s": frozenset({("b", "a")})})
        sp = tuple_space(model.atoms, 2)
        interp = interp_from_model(model, sp)
        m = eval_fa(Prod(Rel("r"), Rel("s")), sp, interp)
        assert hits(sp, m) == {(("a", "b"), ("b", "a"))}

    def test_boolean_and_converse_ops(self, trio):
        model, sp, interp = trio
        r = Rel("r")
        assert hits(sp, eval_fa(Conv(r), sp, interp)) == {
            ("c", "a"), ("c", "b")}
        both = eval_fa(Meet(r, Rel("t", 3)), sp, interp)
        assert not both.any()
        either = eval_fa(Join(r, Rel("t", 3)), sp, interp)
        assert either.sum() == 3
        comp = eval_fa(Compl(r), sp, interp)
        assert not comp[sp.index["a"], sp.index["c"]]
        assert comp[sp.index["a"], sp.index["b"]]

    def test_composition_chains(self, trio):
        model, sp, interp = trio
        m = eval_fa(Comp(Rel("r"), Conv(Rel("r"))), sp, interp)
        assert hits(sp, m) == {("a", "a"), ("a", "b"),
                               ("b", "a"), ("b", "b")}

    def test_divisions_match_their_pointwise_definitions(self):
        rng = random.Random(4)
        model = FiniteModel(("a", "b", "c"), {}, {})
        sp = tuple_space(model.atoms, 2)
        interp = interp_from_model(model, sp)
        n = sp.n
        for _ in range(10):
            L = np.array([[rng.random() < 0.4 for _ in range(n)]
                          for _ in range(n)])
            R = np.array([[rng.random() < 0.4 for _ in range(n)]
                          for _ in range(n)])
            sp.cache.clear()
            key_l, key_r = Rel("L"), Rel("R")
            itp = {("rel", "L"): L, ("rel", "R"): R}
            ld = eval_fa(Ldiv(key_l, key_r), sp, itp)
            for u in range(n):
                for v in range(n):
                    assert ld[u, v] == all(
                        not L[w, u] or R[w, v] for w in range(n))

    def test_star_is_reflexive_transitive_closure(self):
        model = FiniteModel(("a", "b", "c"), {},
                            {"e": frozenset({("a", "b"), ("b", "c")})})
        sp = tuple_space(model.atoms, 1)
        interp = interp_from_model(model, sp)
        m = eval_fa(Star(Rel("e")), sp, interp)
        assert hits(sp, m) == {("a", "a"), ("b", "b"), ("c", "c"),
                               ("a", "b"), ("b", "c"), ("a", "c")}

    def test_rotate_shifts_the_tuple_right(self, trio):
        model, sp, interp = trio
        m = eval_fa(rotate(Rel("t", 3), 3), sp, interp)
        assert hits(sp, m) == {("c", ("a", "b"))}

    def test_rotating_arity_times_is_identity(self, trio):
        model, sp, interp = trio
        t = Rel("t", 3)
        thrice = rotate(rotate(rotate(t, 3), 3), 3)
        assert np.array_equal(eval_fa(thrice, sp, interp),
                              eval_fa(t, sp, interp))

    def test_binary_rotate_is_converse(self, trio):
        model, sp, interp = trio
        assert np.array_equal(eval_fa(rotate(Rel("r"), 2), sp, interp),
                              eval_fa(Conv(Rel("r")), sp, interp))

    def test_nary_composition_joins_the_last_column(self):
        model = FiniteModel(("a", "b", "c"),
                            {},
                            {"t": frozenset({("a", "b", "c")}),
                             "s": frozenset({("c", "a")})})
        sp = tuple_space(model.atoms, 2)
        interp = interp_from_model(model, sp)
        m = eval_fa(ncomp(Rel("t", 3), Rel("s"), 3), sp, interp)
        assert hits(sp, m) == {("a", ("b", "a"))}

    def test_cut_drops_the_innermost_column(self):
        model = FiniteModel(("a", "b", "c"), {},
                            {"t": frozenset({("a", "b", "c")})})
        sp = tuple_space(model.atoms, 2)
        interp = interp_from_model(model, sp)
        m = eval_fa(Comp(Rel("t", 3), cut(2)), sp, interp)
        assert hits(sp, m) == {("a", "b")}

    def test_unknown_symbols_denote_empty(self, trio):
        model, sp, interp = trio
        assert not eval_fa(Rel("nope"), sp, interp).any()
        assert not eval_fa(Phi("nope"), sp, interp).any()

    def test_a_2000_deep_term_evaluates(self):
        # the evaluator walks its term with an explicit stack: 1,000
        # complements and 1,000 converses of r are r again
        model = FiniteModel(("a", "b"), {}, {"r": frozenset({("a", "b")})})
        sp = tuple_space(model.atoms, 1)
        interp = interp_from_model(model, sp)
        e = Rel("r")
        for i in range(2000):
            e = Conv(e) if i % 2 else Compl(e)
        assert np.array_equal(eval_fa(e, sp, interp),
                              eval_fa(Rel("r"), sp, interp))

    def test_model_cache_survives_freed_temporaries(self):
        # one eval_rl call shares one per-model cache across all four
        # terms; each is evaluated through a fresh unfolded copy that is
        # freed afterwards, and a later copy may get its id() and must not
        # see its entry.  m_i is term i evaluated on its own, and the
        # formula says every term agrees with it on every pair.
        voc = gen_vocab()
        t = Rel("t", 3)
        terms = [Rot(t, 3), Rot(Rot(t, 3), 3), NComp(t, Rel("r"), 3),
                 NComp(t, Conv(Rel("s")), 3)]
        agree = None
        for i, e in enumerate(terms):
            a, m = RApp((1,), e, (2,)), RApp((1,), Rel("m%d" % i), (2,))
            iff = RAnd(RImp(a, m), RImp(m, a))
            agree = iff if agree is None else RAnd(agree, iff)
        rng = random.Random(0)
        for _ in range(200):
            model = sample_model(voc, 2, ["r", "s", "t"], rng)
            sp = get_tuple_space(model.atoms, 2)
            interp = interp_from_model(model, sp)
            for i, e in enumerate(terms):
                interp[("rel", "m%d" % i)] = eval_fa(e, sp, interp)
            assert eval_rl(RAll(2, None, agree), sp, interp), \
                describe_model(model)

    def test_oversized_tuple_raises(self):
        model = FiniteModel(("a",), {}, {"t": frozenset({("a", "a", "a")})})
        sp = tuple_space(model.atoms, 1)
        with pytest.raises(SizingError):
            interp_from_model(model, sp)


GATE = oracle._RESTRICT_INNER


def _dense_mm(a, b):
    """a;b as one float32 product of the n x n broadcasts."""
    n = max(a.shape + b.shape)
    a, b = np.broadcast_to(a, (n, n)), np.broadcast_to(b, (n, n))
    return (a.astype(np.float32) @ b.astype(np.float32)) > 0.0


def _kernel_agrees(a, b):
    """_mm matches the dense product, in a valid C-ordered shape."""
    n = max(a.shape + b.shape)
    m = oracle._mm(a, b)
    assert set(m.shape) <= {1, n} and m.flags.c_contiguous
    return np.array_equal(np.broadcast_to(m, (n, n)), _dense_mm(a, b))


def _partial_function(rng, rows, n, density):
    """rows x n with at most one entry per row, in a random column."""
    m = np.zeros((rows, n), dtype=bool)
    m[np.arange(rows), rng.integers(0, n, rows)] = rng.random(rows) < density
    return m


def _planted(rng, n, density, empty_rows, empty_cols):
    """A random n x n bool matrix with some whole rows and columns empty."""
    m = rng.random((n, n)) < density
    m[rng.random(n) < empty_rows] = False
    m[:, rng.random(n) < empty_cols] = False
    return m


class TestCompositionKernel:
    """_mm keeps only the shared inner indices above an inner dimension of
    GATE; the operands here sit on both sides of it."""

    @settings(max_examples=120, deadline=None)
    @given(n=st.integers(1, 2 * GATE) | st.sampled_from(
               [GATE - 1, GATE, GATE + 1]),
           seed=st.integers(0, 2 ** 32 - 1),
           density=st.sampled_from([0.005, 0.05, 0.3, 1.0]),
           empty=st.tuples(*[st.sampled_from([0.0, 0.5, 0.95])] * 4))
    def test_matches_the_dense_product(self, n, seed, density, empty):
        rng = np.random.default_rng(seed)
        a = _planted(rng, n, density, empty[0], empty[1])
        b = _planted(rng, n, density, empty[2], empty[3])
        assert _kernel_agrees(a, b)

    @settings(max_examples=120, deadline=None)
    @given(n=st.integers(1, 2 * GATE) | st.sampled_from(
               [GATE - 1, GATE, GATE + 1]),
           seed=st.integers(0, 2 ** 32 - 1),
           density=st.sampled_from([0.0, 0.05, 0.5, 1.0]),
           shapes=st.tuples(*[st.sampled_from(["1n", "n1", "11", "nn"])] * 2))
    def test_vector_shapes_match_the_dense_product(self, n, seed, density,
                                                   shapes):
        # a 1 in a shape stands for n equal rows or columns
        rng = np.random.default_rng(seed)
        a, b = (rng.random(tuple(n if c == "n" else 1 for c in shape))
                < density for shape in shapes)
        assert _kernel_agrees(a, b)

    @settings(max_examples=120, deadline=None)
    @given(n=st.sampled_from([2, GATE - 1, GATE, GATE + 1, 2 * GATE]),
           seed=st.integers(0, 2 ** 32 - 1),
           density=st.sampled_from([0.0, 0.3, 0.9, 1.0]),
           other=st.sampled_from([0.0, 0.02, 0.3, 1.0]),
           vector=st.booleans(), converse=st.booleans(),
           ordered=st.booleans(), twice=st.booleans())
    def test_gathers_match_the_dense_product(self, n, seed, density, other,
                                             vector, converse, ordered,
                                             twice):
        # a partial function on the left (at most one entry per row), or
        # its converse on the right (at most one per column), possibly a
        # single row or column, beside a random operand; the converse is
        # a transposed view unless ordered, and twice gives one row a
        # second entry, so no gather applies
        rng = np.random.default_rng(seed)
        f = _partial_function(rng, 1 if vector else n, n, density)
        if twice:
            f[0, :2] = True
        g = rng.random((n, n)) < other
        if converse:
            f = np.ascontiguousarray(f.T) if ordered else f.T
            a, b = g, f
        else:
            a, b = f, g
        assert _kernel_agrees(a, b)
        assert _kernel_agrees(f, f.T) and _kernel_agrees(f.T, f)

    @pytest.mark.parametrize("n", [GATE, GATE + 1, 3 * GATE])
    def test_no_shared_inner_index(self, n):
        # a uses only even columns and b only odd rows: nothing composes
        a = np.zeros((n, n), dtype=bool)
        b = np.zeros((n, n), dtype=bool)
        a[:, 0::2] = True
        b[1::2, :] = True
        m = oracle._mm(a, b)
        assert m.shape == (n, n) and not m.any()
        assert not oracle._mm(np.zeros((n, n), dtype=bool), b).any()

    def _space(self):
        # 5 + 25 + 125 elements: above the gate, so Ldiv and Star reach
        # the restricted kernel
        sp = get_tuple_space(("a", "b", "c", "d", "e"), 3)
        assert sp.n > GATE
        return sp

    def test_ldiv_matches_its_pointwise_definition(self):
        sp = self._space()
        rng = np.random.default_rng(5)
        for density, empty in ((0.02, 0.9), (0.3, 0.5), (0.9, 0.0)):
            L = _planted(rng, sp.n, density, empty, empty)
            R = _planted(rng, sp.n, 1 - density, empty, 0.0)
            ld = eval_fa(Ldiv(Rel("L"), Rel("R")), sp,
                         {("rel", "L"): L, ("rel", "R"): R})
            # u (L\R) v  iff  every w with w L u has w R v
            want = np.all(~L[:, :, None] | R[:, None, :], axis=0)
            assert np.array_equal(ld, want)

    def test_star_matches_reachability(self):
        sp = self._space()
        rng = np.random.default_rng(6)
        # one long path through every element in a random order: every
        # inner index carries a path that no other index does
        order = rng.permutation(sp.n)
        chain = np.zeros((sp.n, sp.n), dtype=bool)
        chain[order[:-1], order[1:]] = True
        graphs = [chain] + [_planted(rng, sp.n, density, empty, empty)
                            for density, empty in ((0.005, 0.8), (0.02, 0.5),
                                                   (0.1, 0.0))]
        for E in graphs:
            m = eval_fa(Star(Rel("E")), sp, {("rel", "E"): E})
            succ = [np.flatnonzero(row) for row in E]
            for u in range(sp.n):
                seen = {u}
                todo = [u]
                while todo:
                    for v in succ[todo.pop()]:
                        if v not in seen:
                            seen.add(v)
                            todo.append(v)
                assert set(np.flatnonzero(m[u])) == seen


def dense_eval(e, space, interp):
    """The evaluator the vector-shaped one replaced, as the reference:
    every value a full n x n matrix, every composition one float32
    product, no caches."""
    n = space.n
    ev = lambda x: dense_eval(x, space, interp)  # noqa: E731
    pairs, left, right = space._pairs, space._left, space._right
    if isinstance(e, (Rel, Phi)):
        key = ("rel", e.name) if isinstance(e, Rel) else ("sig", e.sig)
        return interp.get(key, np.zeros((n, n), dtype=bool))
    if isinstance(e, (Top, Bot)):
        return np.full((n, n), isinstance(e, Top))
    if isinstance(e, Id):
        return np.eye(n, dtype=bool)
    if isinstance(e, (Pi1, Pi2)):
        m = np.zeros((n, n), dtype=bool)
        m[left if isinstance(e, Pi1) else right, pairs] = True
        return m
    if isinstance(e, Join):
        return ev(e.l) | ev(e.r)
    if isinstance(e, Meet):
        return ev(e.l) & ev(e.r)
    if isinstance(e, Comp):
        return _dense_mm(ev(e.l), ev(e.r))
    if isinstance(e, Ldiv):
        return ~_dense_mm(ev(e.l).T, ~ev(e.r))
    if isinstance(e, Conv):
        return ev(e.e).T
    if isinstance(e, Compl):
        return ~ev(e.e)
    if isinstance(e, Fork):
        m = np.zeros((n, n), dtype=bool)
        m[pairs] = ev(e.l)[left] & ev(e.r)[right]
        return m
    if isinstance(e, Prod):
        m = np.zeros((n, n), dtype=bool)
        if len(pairs):
            m[np.ix_(pairs, pairs)] = (ev(e.l)[np.ix_(left, left)]
                                       & ev(e.r)[np.ix_(right, right)])
        return m
    if isinstance(e, (NComp, Rot)):
        return ev(unfold(e))
    if isinstance(e, Star):
        m = np.eye(n, dtype=bool) | ev(e.e)
        while True:
            nxt = _dense_mm(m, m) | m
            if np.array_equal(nxt, m):
                return m
            m = nxt
    raise TypeError(e)


def dense_fact(fact, space, interp, frame):
    a, b = dense_eval(fact.lhs, space, interp), dense_eval(fact.rhs, space,
                                                          interp)
    if frame == "atoms":
        k = space.atom_count
        a, b = a[:k, :k], b[:k, :k]
    if isinstance(fact, FactEq):
        return bool(np.array_equal(a, b))
    return bool((~a | b).all())


# r is random, f a partial function, g the converse of one, A a
# coreflexive and nope an unknown name
fa_terms = st.recursive(
    st.sampled_from([Rel("r"), Rel("f"), Rel("g"), Rel("nope"), Phi("A"),
                     TOP, BOT, ID, PI1, PI2]),
    lambda sub: st.one_of(
        *[st.builds(op, sub, sub)
          for op in (Join, Meet, Comp, Ldiv, Fork, Prod)],
        *[st.builds(op, sub) for op in (Conv, Compl, Star)]),
    max_leaves=6)

# prefixes of a tuple carrier keep every pair's components, so the
# projections, forks and products have pairs to act on
_ELEMENTS = tuple_space(("a", "b"), 8).elements
SHAPE_SPACES = {n: Space(_ELEMENTS[:n], min(n, 2))
                for n in (0, 1, GATE - 1, GATE + 1)}


def _shape_interp(space, rng):
    n = space.n
    f = _partial_function(rng, n, n, 0.7)
    return {("rel", "r"): rng.random((n, n)) < rng.choice([0.01, 0.3]),
            ("rel", "f"): f,
            ("rel", "g"): np.ascontiguousarray(
                _partial_function(rng, n, n, 0.7).T),
            ("sig", "A"): np.diag(rng.random(n) < 0.5)}


def _shape_model(rng, k, empty=()):
    """A random model of k atoms whose relations named in empty have
    empty extents."""
    atoms = tuple("a%d" % i for i in range(k))
    fun = {(x, atoms[rng.integers(k)]) for x in atoms if rng.random() < 0.7}
    con = {(atoms[rng.integers(k)], x) for x in atoms if rng.random() < 0.7}
    rels = {"r": frozenset((x, y) for x in atoms for y in atoms
                           if rng.random() < 0.1),
            "f": frozenset(fun), "g": frozenset(con)}
    return FiniteModel(atoms, {"A": frozenset(atoms[:k // 2])}, {
        name: frozenset() if name in empty else ext
        for name, ext in rels.items()})


def _near_gate(width):
    """Atom counts whose tuple carrier of the width has the most elements
    below GATE and the fewest above it."""
    size = lambda k: sum(k ** i for i in range(1, width + 1))  # noqa: E731
    below = max(k for k in range(1, GATE + 1) if size(k) < GATE)
    return below, next(k for k in range(below, GATE + 2) if size(k) > GATE)


def university_vocab():
    """The running example's model-building vocabulary."""
    with open(os.path.join(os.path.dirname(__file__), "data",
                           "university.als")) as fh:
        table = symbol_table(parse(fh.read()))
    return Vocab({name: SigInfo(name, parent, table.sig_abstract[name])
                  for name, parent in table.sig_parent.items()},
                 dict(table.rel_cols))


class TestVectorShapes:
    """Vector-shaped values and the gather kernel evaluate every term
    and fact as the dense evaluator does."""

    @settings(max_examples=200, deadline=None)
    @given(term=fa_terms, n=st.sampled_from(sorted(SHAPE_SPACES)),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_eval_fa_matches_the_dense_evaluator(self, term, n, seed):
        space = SHAPE_SPACES[n]
        interp = _shape_interp(space, np.random.default_rng(seed))
        m = eval_fa(term, space, interp)
        assert m.shape == (n, n) and m.flags.writeable
        assert np.array_equal(m, dense_eval(term, space, interp))

    @settings(max_examples=80, deadline=None)
    @given(lhs=fa_terms, rhs=fa_terms, eq=st.booleans(),
           carrier=st.sampled_from(["empty", "one", "below", "above"]),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_fact_holds_matches_the_dense_evaluator(self, lhs, rhs, eq,
                                                    carrier, seed):
        # 0 atoms, 1 atom, and the tuple carriers of the fact's width
        # just below and just above GATE elements
        fact = (FactEq if eq else FactLe)(lhs, rhs)
        w = infer_width(fact)
        assume(w <= 4)
        k = {"empty": 0, "one": 1}.get(carrier)
        if k is None:
            k = _near_gate(w)[carrier == "above"]
        model = _shape_model(np.random.default_rng(seed), k)
        space = get_tuple_space(model.atoms, w)
        interp = interp_from_model(model, space)
        for frame in ("carrier", "atoms"):
            assert fact_holds(fact, model, frame=frame) == dense_fact(
                fact, space, interp, frame)

    @settings(max_examples=150, deadline=None)
    @given(term=fa_terms | st.builds(Rot, fa_terms, st.just(3))
           | st.builds(NComp, fa_terms, fa_terms, st.just(3)),
           n=st.sampled_from(sorted(SHAPE_SPACES)), b=st.integers(1, 4),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_a_batch_evaluates_as_its_models_alone(self, term, n, b, seed):
        # b stacked interpretations against each one on its own; above
        # GATE a batch of several takes the unrestricted product
        space = SHAPE_SPACES[n]
        rng = np.random.default_rng(seed)
        interps = [_shape_interp(space, rng) for _ in range(b)]
        batch = {key: np.stack([itp[key] for itp in interps])
                 for key in interps[0]}
        m = oracle._value(term, space, batch, {})[0]
        assert m.ndim == 3 and m.shape[0] in (1, b)
        for one, itp in zip(np.broadcast_to(m, (b, n, n)), interps):
            assert np.array_equal(one, eval_fa(term, space, itp))

    def test_empty_carrier_has_empty_vectors(self):
        # TOP and BOT are (1, 1) only on a non-empty carrier
        empty = FiniteModel((), {}, {})
        assert fact_holds(FactEq(TOP, BOT), empty)
        assert fact_holds(FactLe(TOP, Comp(Comp(TOP, Phi("A")), TOP)), empty)
        assert eval_fa(TOP, SHAPE_SPACES[0], {}).shape == (0, 0)

    @pytest.mark.parametrize("config, settings", [
        ("mech", dict(bound=2, max_exhaustive=0, samples=6)),
        ("short", dict(bound=2))])
    def test_constant_cache_is_never_written(self, config, settings,
                                             golden_translations,
                                             monkeypatch):
        # hash every matrix of space.cache before each model of one
        # check_equiv on the running example and once more after it
        vocab = university_vocab()
        ((_, form, fact),) = [run for run in golden_translations[config]
                              if run[0].startswith("university:")]
        hashes, spaces = {}, []

        def check(space):
            # and every array a functional value or a gather holds
            for term, (v, _) in space.cache.items():
                if isinstance(v, oracle._Fun):
                    assert not v.index.flags.writeable, term
                    assert not v.mask.flags.writeable, term
                for i, m in enumerate(_arrays(v)):
                    h = hashlib.sha256(np.ascontiguousarray(m).tobytes())
                    h = (m.shape, h.hexdigest())
                    assert hashes.setdefault((space, term, i), h) == h, term

        def checking(model, space):
            spaces.append(space)
            check(space)
            return real(model, space)

        real = oracle.interp_from_model
        monkeypatch.setattr(oracle, "interp_from_model", checking)
        v = check_equiv(form, fact, vocab, **settings)
        for space in set(spaces):
            check(space)
            # a write before the first hash shows against a fresh carrier
            fresh = Space(space.elements, space.atom_count, space.width)
            for term, (f, _) in space.cache.items():
                if isinstance(f, oracle._Fun):
                    oracle._value(term, fresh, {}, {})
                    g = fresh.cache[term][0]
                    assert f.rows == g.rows, term
                    assert np.array_equal(f.index, g.index), term
                    assert np.array_equal(f.mask, g.mask), term
        # the sampled check evaluates its 6 samples, the exhaustive one
        # the first model of each of the 28 orbits of its 44 models
        assert v.status != "FAIL"
        assert len(spaces) == {"mech": 6, "short": 28}[config]
        assert len(hashes) > 10
        # only the mechanical fact's carrier (510 elements) is above GATE
        assert any(isinstance(f, oracle._Fun) for sp in spaces
                   for f, _ in sp.cache.values()) == (config == "mech")


def _arrays(v):
    """The arrays a value holds: an array itself; a functional value's
    index and mask; a gather's operand and its column function's; then
    the dense form built from a value, if any."""
    if isinstance(v, np.ndarray):
        return [v]
    if isinstance(v, oracle._Fun):
        own = [v.index, v.mask]
    else:
        own = [v.x, v.k.index, v.k.mask]
    return own + ([v.full] if v.full is not None else [])


# constants built from id and the projections: chains, compositions,
# forks and products of them, their converses, forks with TOP and
# products with id, functional or not
fun_terms = st.recursive(
    st.lists(st.sampled_from([ID, PI1, PI2]), min_size=1, max_size=4).map(
        lambda ks: functools.reduce(Comp, ks)),
    lambda sub: st.one_of(
        *[st.builds(op, sub, sub) for op in (Comp, Fork, Prod)],
        st.builds(Conv, sub), st.builds(Fork, sub, st.just(TOP)),
        st.builds(Fork, st.just(TOP), sub), st.builds(Prod, st.just(ID), sub)),
    max_leaves=4)

# their other operands: relation extents, vectors, one-cell values,
# functional values and dense terms
other_terms = (fa_terms | st.builds(Comp, st.just(TOP), fa_terms)
               | st.builds(Comp, fa_terms, st.just(TOP)))

# just above GATE, and the 510 elements of the running example's
# mechanical fact (two atoms, width 8)
FUN_SPACES = {GATE + 1: SHAPE_SPACES[GATE + 1],
              len(_ELEMENTS): Space(_ELEMENTS, 2, width=8)}


def _orientation(k):
    """False where the kernels keep a constant k a column function, True
    where a row function, None where they need not keep it functional:
    id and the projections are column functions, a converse swaps the
    two, a composition or product keeps one shared by its operands (id
    takes the other's), a fork of column functions is one, and a fork
    with a row function or with id is a row function."""
    if isinstance(k, (Id, Pi1, Pi2)):
        return False
    if isinstance(k, Conv):
        o = _orientation(k.e)
        return None if o is None else not o
    if not isinstance(k, (Comp, Fork, Prod)):
        return None
    lo, ro = _orientation(k.l), _orientation(k.r)
    if isinstance(k, Fork):
        if lo is False and ro is False:
            return False
        return True if True in (lo, ro) or ID in (k.l, k.r) else None
    if lo == ro or k.l == ID:
        return ro
    return lo if k.r == ID else None


class TestFunctionalValues:
    """Above GATE elements, constants built from id and the projections
    are functional values, index arrays with at most one entry per column
    or per row, and the kernels that meet, compose, fork and multiply them
    keep them so; every other operator takes the dense fallback. Every
    value matches the dense evaluator, on one model or a batch."""

    @settings(max_examples=60, deadline=None)
    @given(x=other_terms, k1=fun_terms, k2=fun_terms,
           n=st.sampled_from(sorted(FUN_SPACES)), b=st.integers(1, 4),
           seed=st.integers(0, 2 ** 32 - 1))
    # the chains of the running example's mechanical fact, where the
    # order of a composition and each mask decide the value, and a
    # product chain that is a row function
    @example(x=Rel("r"), k1=Comp(PI1, PI2), k2=Comp(Comp(PI2, PI2), PI1),
             n=len(_ELEMENTS), b=2, seed=1)
    @example(x=Compl(Phi("A")), k1=Prod(ID, Prod(ID, Fork(ID, TOP))),
             k2=Fork(Comp(PI1, PI2), PI1), n=GATE + 1, b=3, seed=2)
    def test_kernels_match_the_dense_evaluator(self, x, k1, k2, n, b, seed):
        space = FUN_SPACES[n]
        interps, batch = _batch(space, np.random.default_rng(seed), b)
        terms = (Meet(k1, x), Meet(x, k1), Meet(k1, k2), Comp(x, k1),
                 Comp(k1, x), Comp(k1, k2), Comp(Comp(TOP, x), k1),
                 Comp(TOP, Meet(k1, Comp(x, k2))), Fork(k1, k2),
                 Fork(k1, x), Fork(x, k1), Prod(k1, k2), Conv(k1),
                 Join(k1, x), Compl(k1), Star(k1))
        for term in terms:
            m = oracle._value(term, space, batch, {})[0]
            assert m.ndim == 3 and m.shape[0] in (1, b)
            for one, itp in zip(np.broadcast_to(m, (b, n, n)), interps):
                assert np.array_equal(one, dense_eval(term, space, itp))
        # the constants the kernels keep functional are, in the
        # orientation they should have
        for k in {t for term in terms for t in subterms(term)}:
            rows = _orientation(k)
            if rows is not None and not any(
                    isinstance(t, (Rel, Phi)) for t in subterms(k)):
                # a coreflexive, such as id, is either
                f = space.cache[k][0]
                assert isinstance(f, oracle._Fun), k
                assert f.turned(rows) is not None, k

    def test_at_or_below_the_gate_no_value_is_functional(self, monkeypatch):
        def no_kernel(*args):
            raise AssertionError("a functional kernel ran below the gate")

        monkeypatch.setattr(oracle, "_kinds", no_kernel)
        rng = np.random.default_rng(0)
        for space in (Space(_ELEMENTS[:n], min(n, 2))
                      for n in (0, 1, GATE - 1, GATE)):
            interp = _shape_interp(space, rng)
            for term in (ID, PI1, Fork(ID, TOP), Prod(ID, Fork(ID, TOP)),
                         Meet(PI2, Rel("r")), Comp(Rel("r"), PI2)):
                oracle._value(term, space, interp, {})
            assert all(isinstance(v, np.ndarray)
                       for v, _ in space.cache.values())

    def test_the_running_example_builds_no_dense_functional_value(
            self, golden_translations, monkeypatch):
        # the mechanical fact's TOP . (K & (R . K')) and V . P nodes, K and
        # K' chains and forks of id and the projections and P a chain of
        # products, take no dense path on its 510-element carrier
        ((_, form, fact),) = [run for run in golden_translations["mech"]
                              if run[0].startswith("university:")]
        order = [e for e, *_ in oracle._post_order(fact.lhs)[0]]

        def constant(t):
            return all(isinstance(c, (Id, Pi1, Pi2, Top, Comp, Fork, Prod))
                       for c in subterms(t))

        meets = [e for e in order if isinstance(e, Comp)
                 and isinstance(e.l, Top) and isinstance(e.r, Meet)
                 and isinstance(e.r.r, Comp) and constant(e.r.l)
                 and constant(e.r.r.r)]
        products = [e for e in order if isinstance(e, Comp)
                    and isinstance(e.r, Prod) and constant(e.r)]
        pinned = {t for e in meets for t in (e, e.r, e.r.r)}
        pinned |= set(products)
        pinned |= {t for e in meets for k in (e.r.l, e.r.r.r)
                   for t in subterms(k)}
        pinned |= {t for e in products for t in subterms(e.r)}
        assert len(meets) >= 10 and len(products) >= 10

        def spy(e, args, space, interp):
            m = node(e, args, space, interp)
            if space.n > GATE and m.shape[1:] == (space.n, space.n):
                dense.add(e)
            return m

        def build(self):
            raise AssertionError("a functional value was made dense")

        dense, node = set(), oracle._node
        monkeypatch.setattr(oracle, "_node", spy)
        monkeypatch.setattr(oracle._Fun, "build", build)
        monkeypatch.setattr(oracle._Gather, "build", build)
        v = check_equiv(form, fact, university_vocab(), bound=2,
                        max_exhaustive=0, samples=6)
        assert (v.status, v.checked) == ("SAMPLED", 6)
        # the relation extents and their complements are n x n
        assert dense and not dense & pinned


def _batch(space, rng, b):
    """b random interpretations and their stacked batch."""
    interps = [_shape_interp(space, rng) for _ in range(b)]
    return interps, {key: np.stack([itp[key] for itp in interps])
                     for key in interps[0]}


# the relations of _shape_model, each over the one signature
SHAPE_VOCAB = Vocab({"A": SigInfo("A")}, {name: ("A", "A") for name in "rfg"})


class TestSmallShapes:
    """Values keep their smallest shape: an extent empty in a whole batch
    is the shared one-cell False, a one-cell operand of a meet or join is
    absorbed, and the closure of a vector is id | X. Verdicts and values
    are those of the sequential check and the dense evaluator."""

    @settings(max_examples=60, deadline=None)
    @given(lhs=fa_terms, rhs=fa_terms, eq=st.booleans(),
           k=st.sampled_from([1, 2]),
           empty=st.lists(st.booleans(), min_size=1, max_size=5),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_check_equiv_matches_the_sequential_check(self, lhs, rhs, eq, k,
                                                      empty, seed):
        # one batch of k-atom models, whose relation r is empty in the
        # models empty marks: in all of them, in some or in none
        source = FactLe(Rel("r"), lhs)
        fact = (FactEq if eq else FactLe)(Meet(Rel("r"), rhs), lhs)
        assume(infer_width(fact) <= 4)
        rng = np.random.default_rng(seed)
        models = [_shape_model(rng, k, {"r"} if e else ()) for e in empty]

        def orbits(vocab, n, rel_names):
            return ((m, 1) for m in models if len(m.atoms) == n)

        def spy(f, space, interp, cache, frame):
            seen.append((interp["rel", "r"], space.n))
            return truth(f, space, interp, cache, frame)

        seen, truth = [], oracle._fact_truth
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(oracle, "iter_orbits", orbits)
            mp.setitem(globals(), "iter_orbits", orbits)
            expected = sequential_check(source, fact, SHAPE_VOCAB, bound=2)
            mp.setattr(oracle, "_fact_truth", spy)
            v = check_equiv(source, fact, SHAPE_VOCAB, bound=2)
        assert (v.status, v.checked, v.counterexample, v.detail) == expected
        # both facts saw the one batch's r: the one cell, or every
        # model's full extent
        assert len(seen) == 2
        b = (len(models),) if len(models) > 1 else ()
        for m, n in seen:
            if not any(model.rels["r"] for model in models):
                assert m is oracle._CELLS[False, 1]
            else:
                assert m.shape == b + (n, n) and m.flags.writeable

    @settings(max_examples=120, deadline=None)
    @given(x=fa_terms, cell=st.sampled_from([TOP, BOT, Rel("nope")]),
           meet=st.booleans(), swap=st.booleans(),
           n=st.sampled_from(sorted(SHAPE_SPACES)), b=st.integers(1, 3),
           seed=st.integers(0, 2 ** 32 - 1))
    @example(x=Rel("r"), cell=TOP, meet=True, swap=False, n=GATE + 1, b=2,
             seed=0)
    def test_a_one_cell_operand_is_absorbed(self, x, cell, meet, swap, n, b,
                                            seed):
        space = SHAPE_SPACES[n]
        interps, batch = _batch(space, np.random.default_rng(seed), b)
        term = (Meet if meet else Join)(*((cell, x) if swap else (x, cell)))
        cache = {}
        xv = oracle._value(x, space, batch, cache)[0]
        m = oracle._value(term, space, batch, cache)[0]
        # TOP is the unit of a meet, BOT and unknown names of a join
        unit = (cell == TOP) == meet
        if n and xv.shape != (1, 1, 1):
            assert m is (xv if unit else oracle._CELLS[cell == TOP, 1])
        for one, itp in zip(np.broadcast_to(m, (b, n, n)), interps):
            assert np.array_equal(one, dense_eval(term, space, itp))

    @settings(max_examples=80, deadline=None)
    @given(x=fa_terms, n=st.sampled_from(sorted(SHAPE_SPACES)),
           b=st.integers(1, 3), seed=st.integers(0, 2 ** 32 - 1))
    # a random relation, whose closure is more than id | r
    @example(x=Rel("r"), n=GATE + 1, b=1, seed=0)
    @example(x=Rel("r"), n=GATE - 1, b=2, seed=1)
    def test_star_of_a_vector_matches_the_dense_evaluator(self, x, n, b,
                                                          seed):
        space = SHAPE_SPACES[n]
        interps, batch = _batch(space, np.random.default_rng(seed), b)
        for term in (Star(Comp(TOP, x)), Star(Comp(x, TOP)), Star(x)):
            m = oracle._value(term, space, batch, {})[0]
            for one, itp in zip(np.broadcast_to(m, (b, n, n)), interps):
                assert np.array_equal(one, dense_eval(term, space, itp))

    @settings(max_examples=60, deadline=None)
    @given(n=st.sampled_from(sorted(SHAPE_SPACES)), b=st.integers(1, 3),
           dims=st.sampled_from(["row", "column", "cell"]),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_star_of_a_vector_squares_nothing(self, n, b, dims, seed):
        # all rows, or all columns, equal: X;X = X, so no product is taken
        assume(n or dims != "cell")
        space = SHAPE_SPACES[n]
        shape = {"row": (b, 1, n), "column": (b, n, 1),
                 "cell": (1, 1, 1)}[dims]
        x = np.random.default_rng(seed).random(shape) < 0.3

        def no_product(a, c):
            raise AssertionError("the closure of a vector took a product")

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(oracle, "_mm", no_product)
            m = oracle._node(Star(Rel("x")), [x], space, {})
        for i, one in enumerate(np.broadcast_to(m, (b, n, n))):
            xi = np.broadcast_to(x[min(i, len(x) - 1)], (n, n))
            assert np.array_equal(one, dense_eval(Star(Rel("x")), space,
                                                  {("rel", "x"): xi}))

    def test_one_cell_values_are_shared_and_read_only(self):
        for n, space in SHAPE_SPACES.items():
            k = min(n, 1)
            for term, truth in ((TOP, True), (BOT, False),
                                (Rel("nope"), False), (Phi("nope"), False)):
                m = oracle._value(term, space, {}, {})[0]
                assert m is oracle._CELLS[truth, k]
                assert m.shape == (1, k, k) and not m.flags.writeable
                with pytest.raises(ValueError):
                    m[...] = not truth


def _random_interp(space, rng, names, density=0.35):
    n = space.n
    return {("rel", name): np.array(
        [[rng.random() < density for _ in range(n)] for _ in range(n)])
        for name in names}


class TestAlgebraAxioms:
    """Spot checks of the defining laws over the pair closure.

    These pin the matrix semantics itself against randomly sampled
    relations; the equations of the rewrite rules are law-checked on
    the same carrier in test_equations.py.
    """

    def setup_method(self, _):
        self.space = pair_space(("a", "b"), 2)
        self.rng = random.Random(11)

    def _itp(self):
        return _random_interp(self.space, self.rng, ("R", "S", "T", "Q"))

    def _true(self, fact, interp):
        a = eval_fa(fact.lhs, self.space, interp)
        b = eval_fa(fact.rhs, self.space, interp)
        if isinstance(fact, FactEq):
            return np.array_equal(a, b)
        return bool((~a | b).all())

    def test_fork_definition(self):
        R, S = Rel("R"), Rel("S")
        lhs = Fork(R, S)
        rhs = Meet(Comp(Fork(ID, TOP), R), Comp(Fork(TOP, ID), S))
        for _ in range(10):
            assert self._true(FactEq(lhs, rhs), self._itp())

    def test_fork_converse_law(self):
        # the law pairs up two existential witnesses, so the sampled
        # relations must keep their rows below the carrier's top layer
        from alloy2fa.oracle import witness_rows
        keep = witness_rows(self.space)
        R, S, T, Q = Rel("R"), Rel("S"), Rel("T"), Rel("Q")
        lhs = Comp(Conv(Fork(R, S)), Fork(T, Q))
        rhs = Meet(Comp(Conv(R), T), Comp(Conv(S), Q))
        for _ in range(10):
            itp = self._itp()
            for m in itp.values():
                m[~keep, :] = False
            assert self._true(FactEq(lhs, rhs), itp)

    def test_projection_law(self):
        pair_of_projections = Fork(Conv(Fork(ID, TOP)), Conv(Fork(TOP, ID)))
        assert self._true(FactLe(pair_of_projections, ID), {})

    def test_closure_unfolding(self):
        R = Rel("R")
        fact = FactEq(Star(R), Join(ID, Comp(Star(R), R)))
        for _ in range(10):
            assert self._true(fact, self._itp())

    def test_closure_induction(self):
        R, S = Rel("R"), Rel("S")
        ts = Comp(TOP, S)
        lhs = Comp(ts, Star(R))
        rhs = Join(ts, Comp(Meet(Compl(ts), Comp(ts, R)), Star(R)))
        for _ in range(10):
            assert self._true(FactLe(lhs, rhs), self._itp())


class TestAlloyEvaluation:
    def setup_method(self, _):
        self.m = FiniteModel(
            ("a", "b", "c"),
            {"A": frozenset({"a", "b"}), "B": frozenset({"c"})},
            {"r": frozenset({("a", "c")}),
             "t": frozenset({("a", "c", "b")})},
        )

    def test_join_binds_last_to_first(self):
        got = eval_aexpr(AJoin(AVar("u"), ARel("t")), self.m, {"u": ("a",)})
        assert got == {("c", "b")}

    def test_join_of_relations(self):
        got = eval_aexpr(AJoin(AConv(ARel("r")), ARel("t")), self.m, {})
        assert got == {("c", "c", "b")}
        assert eval_aexpr(AJoin(ARel("r"), ARel("t")), self.m, {}) == set()

    def test_closure_includes_identity_on_atoms(self):
        got = eval_aexpr(AStar(ARel("r")), self.m, {})
        assert got == {("a", "a"), ("b", "b"), ("c", "c"), ("a", "c")}

    def test_quantifier_ranges_over_the_bound(self):
        f = FAll("x", ASig("A"), FSome(AJoin(AVar("x"), ARel("r"))))
        assert eval_alloy(f, self.m) is False  # b has no image
        g = FAll("x", AInter(ASig("A"), ASig("B")),
                 FSome(AJoin(AVar("x"), ARel("r"))))
        assert eval_alloy(g, self.m) is True  # empty bound, vacuous
        assert eval_alloy(FSome(AJoin(AVar("x"), ARel("r"))),
                          self.m, {"x": ("c",)}) is False

    def test_set_operators(self):
        u = eval_aexpr(AUnion(ASig("A"), ASig("B")), self.m, {})
        assert u == {("a",), ("b",), ("c",)}
        d = eval_aexpr(ADiff(ASig("A"), ASig("B")), self.m, {})
        assert d == {("a",), ("b",)}
        i = eval_aexpr(AInter(ASig("A"), ASig("B")), self.m, {})
        assert i == set()
        p = eval_aexpr(AProd(ASig("B"), ASig("B")), self.m, {})
        assert p == {("c", "c")}


class TestRLEvaluation:
    def setup_method(self, _):
        self.m = FiniteModel(("a", "b"), {"A": frozenset({"a"})},
                             {"r": frozenset({("a", "b")})})
        self.sp = get_tuple_space(self.m.atoms, 1)
        self.interp = interp_from_model(self.m, self.sp)

    def test_ranged_universal(self):
        f = RAll(1, RApp((1,), Phi("A"), (1,)),
                 REx(1, RApp((1,), Rel("r"), (2,))))
        assert eval_rl(f, self.sp, self.interp) is True

    def test_unranged_universal_sees_the_whole_carrier(self):
        f = RAll(1, None, REx(1, RApp((1,), Rel("r"), (2,))))
        assert eval_rl(f, self.sp, self.interp) is False  # b has no image

    def test_width_two_existential(self):
        f = REx(2, RApp((1,), Rel("r"), (2,)))
        assert eval_rl(f, self.sp, self.interp) is True

    def test_special_wrapper_binds_markers(self):
        f = RMark(RApp(("x",), Rel("r"), ("y",)))
        assert eval_rl(f, self.sp, self.interp) is False  # r not full
        full = FiniteModel(("a",), {}, {"r": frozenset({("a", "a")})})
        spf = get_tuple_space(full.atoms, 1)
        assert eval_rl(f, spf, interp_from_model(full, spf)) is True

    def test_free_markers_come_from_the_environment(self):
        app = RApp(("cx",), Rel("r"), ("cy",))
        assert eval_rl(app, self.sp, self.interp,
                       env={"cx": "a", "cy": "b"}) is True
        assert eval_rl(app, self.sp, self.interp,
                       env={"cx": "b", "cy": "a"}) is False

    def test_tuple_sides_nest(self):
        m = FiniteModel(("a", "b"), {}, {"t": frozenset({("a", "a", "b")})})
        sp = get_tuple_space(m.atoms, 2)
        f = REx(3, RApp((1,), Rel("t", 3), (2, 3)))
        assert eval_rl(f, sp, interp_from_model(m, sp)) is True

    def test_unbound_item_is_an_error(self):
        with pytest.raises(KeyError):
            eval_rl(RApp((1,), Rel("r"), (2,)), self.sp, self.interp)


class TestFactEvaluation:
    def test_width_inference(self):
        assert infer_width(FactLe(ID, Comp(Rel("r"), Conv(Rel("s"))))) == 1
        assert infer_width(FactLe(TOP, Comp(TOP, Rel("t", 3)))) == 2
        assert infer_width(rotate(Rel("t", 3), 3)) == 2
        sigma = Fork(projX(3, 1), Fork(projX(3, 2), projX(3, 3)))
        assert infer_width(sigma) == 3
        assert infer_width(cut(4)) == 4
        # check_equiv reads a fact's width and relations off the
        # evaluator's post-orders of its sides
        for fact in (FactLe(TOP, Comp(TOP, Rel("t", 3))),
                     FactEq(rotate(Rel("t", 3), 3), sigma),
                     FactLe(ncomp(Rel("t", 3), Rel("u", 3), 3), cut(4))):
            assert _fact_prelude(fact) == (infer_width(fact),
                                           mentioned_rels(fact))

    def test_golden_facts_keep_the_tree_walk_results(self,
                                                     golden_translations):
        # infer_width and mentioned_rels visit each shared subterm once;
        # the tree walks they replaced are the reference
        def tree_width(e):
            w = e.arity - 1 if isinstance(e, Rel) else 1
            if isinstance(e, (Fork, Prod)):
                k, cur = 0, e
                while isinstance(cur, (Fork, Prod)):
                    k, cur = k + 1, cur.r
                w = max(w, k + 1)
            return max([w, pi_chain(e) + 1]
                       + [tree_width(c) for _, c in children(e)])

        def pi_chain(e):
            if isinstance(e, (Pi1, Pi2)):
                return 1
            if isinstance(e, Comp):
                l, r = pi_chain(e.l), pi_chain(e.r)
                return l + r if l and r else 0
            return 0

        def tree_rels(x):
            return {t.name for t in subterms(x) if isinstance(t, (ARel, Rel))}

        for config, runs in golden_translations.items():
            for key, form, fact in runs:
                assert infer_width(fact) == max(
                    tree_width(unfold(fact.lhs)),
                    tree_width(unfold(fact.rhs))), (config, key)
                assert mentioned_rels(fact) == tree_rels(fact), (config, key)
                assert mentioned_rels(form) == tree_rels(form), (config, key)
                assert _fact_prelude(fact) == (
                    max(fact.width, infer_width(fact)),
                    mentioned_rels(fact)), (config, key)

    def test_explicit_width_wins_when_larger(self):
        m = FiniteModel(("a",), {}, {"r": frozenset({("a", "a")})})
        fact = FactEq(Rel("r"), TOP)
        assert fact_holds(fact, m, width=1) is True
        # over the width-2 carrier top includes tuples r cannot reach
        assert fact_holds(fact, m, width=2) is False

    def test_atom_frame_for_totality_facts(self):
        # every atom is an output of t, but the tuple diagonal never is
        m = FiniteModel(("a", "b"), {},
                        {"t": frozenset({("a", "b", "a"), ("b", "a", "b")})})
        t = Rel("t", 3)
        fact = FactLe(ID, Comp(t, Conv(t)))
        assert fact_holds(fact, m) is False
        assert fact_holds(fact, m, frame="atoms") is True
        short = FiniteModel(("a", "b"), {},
                            {"t": frozenset({("a", "b", "a")})})
        assert fact_holds(fact, short, frame="atoms") is False


class TestChecker:
    def setup_method(self, _):
        self.vocab = Vocab({"A": SigInfo("A"), "B": SigInfo("B")},
                           {"r": ("A", "B")})

    def test_pass_counts_all_models(self):
        fact = FactLe(TOP, Comp(Comp(TOP, Phi("A")), TOP))
        v = check_equiv(FSome(ASig("A")), fact, self.vocab, bound=3)
        assert v.status == "PASS" and bool(v)
        assert v.checked == 14  # no relations mentioned: 2 + 4 + 8 models

    def test_fail_carries_a_counterexample(self):
        bad = FactLe(TOP, Comp(Comp(TOP, Phi("B")), TOP))
        v = check_equiv(FSome(ASig("A")), bad, self.vocab, bound=3)
        assert v.status == "FAIL" and not bool(v)
        assert v.counterexample is not None
        assert "A={a0}" in v.detail

    def test_only_mentioned_relations_vary(self):
        fact = FactLe(Rel("r"), TOP)
        v = check_equiv(FIn(ARel("r"), AProd(ASig("A"), ASig("B"))),
                        fact, self.vocab, bound=2)
        # size 1: two placements, r forced empty -> 2 models
        # size 2: placements AA/AB/BA/BB give 1+2+2+1 extent choices
        assert v.checked == 2 + 6

    def test_sampling_kicks_in_beyond_the_cap(self):
        gv = gen_vocab()
        fact = FactLe(TOP, Comp(Comp(TOP, Rel("t", 3)), TOP))
        v = check_equiv(FSome(ARel("t")), fact, gv, bound=3,
                        max_exhaustive=50, samples=120, seed=3)
        assert v.status == "SAMPLED" and v.checked == 120

    def test_sampled_fail_names_the_first_differing_sample(self):
        # TOP = BOT is false on every non-empty model, so the verdict is
        # the first sample on which seed 4's formula holds
        gv, form = gen_vocab(), gen_formula(4)
        v = check_equiv(form, FactEq(TOP, BOT), gv, bound=2,
                        max_exhaustive=0, samples=50, seed=4)
        # the stream: one size, then one model, per sample
        rng = random.Random(4)
        rels = sorted(mentioned_rels(form) & set(gv.rels))
        for k in range(1, 51):
            model = sample_model(gv, rng.choice([1, 2]), rels, rng)
            if eval_alloy(form, model):
                break
        assert k > 1
        assert v.status == "FAIL" and v.checked == k
        assert v.counterexample == model

    @pytest.mark.parametrize("config, settings, status, checked", [
        ("mech", dict(bound=2, max_exhaustive=0, samples=6), "SAMPLED", 6),
        ("short", dict(bound=2), "PASS", 44)])
    def test_benchmark_settings_check_the_running_example(
            self, config, settings, status, checked, golden_translations):
        # perfbench's university oracle settings and model counts
        ((_, form, fact),) = [run for run in golden_translations[config]
                              if run[0].startswith("university:")]
        v = check_equiv(form, fact, university_vocab(), **settings)
        assert (v.status, v.checked) == (status, checked), v.detail

    def test_empty_model_stays_excluded_by_default(self):
        fact = FactLe(TOP, Comp(Comp(TOP, Phi("A")), TOP))
        ok = check_equiv(FSome(ASig("A")), fact, self.vocab, bound=1)
        assert ok.status == "PASS"
        # the empty model makes every inclusion hold while `some A` fails
        v = check_equiv(FSome(ASig("A")), fact, self.vocab, bound=1,
                        include_empty=True)
        assert v.status == "FAIL" and len(v.counterexample.atoms) == 0

    def test_hierarchy_placements(self):
        vocab = Vocab(
            {"P": SigInfo("P", abstract=True),
             "S": SigInfo("S", parent="P"),
             "Pr": SigInfo("Pr", parent="P")},
            {})
        for m in iter_models(vocab, 2, []):
            assert m.sigs["P"] == m.sigs["S"] | m.sigs["Pr"]
            assert not (m.sigs["S"] & m.sigs["Pr"])
        assert model_count(vocab, 2, []) == 4

    def test_mentioned_rels_walks_all_three_languages(self):
        assert mentioned_rels(FSome(AJoin(ARel("r"), ARel("t")))) == {
            "r", "t"}
        assert mentioned_rels(REx(1, RApp((1,), Rel("s"), (1,)))) == {
            "s"}
        assert mentioned_rels(FactLe(Rel("a"), Comp(Rel("b"), TOP))) == {
            "a", "b"}


def _renamed(m, g):
    """The model m with atom i renamed to atom g[i]."""
    ren = {a: m.atoms[j] for a, j in zip(m.atoms, g)}
    return FiniteModel(
        m.atoms,
        {s: frozenset(ren[a] for a in ext) for s, ext in m.sigs.items()},
        {r: frozenset(tuple(ren[a] for a in t) for t in ext)
         for r, ext in m.rels.items()})


def _model_key(m):
    return tuple(sorted(m.sigs.items())), tuple(sorted(m.rels.items()))


def reference_truth(x, model, width):
    """Truth of a source or fact on one model, through the one-model
    entry points, over the carrier of check_equiv's width."""
    if isinstance(x, (FactEq, FactLe)):
        return fact_holds(x, model, width=width)
    space = get_tuple_space(model.atoms, width)
    if isinstance(x, RLFormula):
        return eval_rl(x, space, interp_from_model(model, space))
    return eval_alloy(x, model)


def sequential_check(source, fact, vocab, bound=3, include_empty=False,
                     max_exhaustive=1 << 14, samples=4096, seed=0,
                     full=False):
    """check_equiv's verdict one model at a time, as the reference: its
    model stream and the loop over it as they were before models were
    batched, each truth read through the one-model entry points. With
    full, the stream is every iter_models model, each counted once, as
    before the orbit stream. (status, checked, counterexample, detail)."""
    names = mentioned_rels(source) | mentioned_rels(fact)
    rel_names = sorted(n for n in names if n in vocab.rels)
    w = max(max(x.width, infer_width(x)) for x in (source, fact)
            if isinstance(x, (FactEq, FactLe)))
    for r in rel_names:
        w = max(w, len(vocab.rels[r]) - 1)
    sizes = list(range(0 if include_empty else 1, bound + 1))
    total = sum(model_count(vocab, n, rel_names) for n in sizes)
    exhaustive = full or total <= max_exhaustive
    if full:
        models = ((m, 1) for n in sizes for m in iter_models(vocab, n,
                                                             rel_names))
    elif exhaustive:
        models = (mk for n in sizes for mk in iter_orbits(vocab, n, rel_names))
    else:
        rng = random.Random(seed)
        models = ((sample_model(vocab, rng.choice(sizes), rel_names, rng), 1)
                  for _ in range(samples))
    checked = 0
    for model, covered in models:
        checked += covered
        s = reference_truth(source, model, w)
        f = reference_truth(fact, model, w)
        if s != f:
            return ("FAIL", checked, model, "source %s, fact %s on %s"
                    % (s, f, describe_model(model)))
    return "PASS" if exhaustive else "SAMPLED", checked, None, ""


def _drop_conjunct(t):
    """t with its first meet in pre-order replaced by the meet's left
    operand, or None without a meet."""
    if isinstance(t, Meet):
        return t.l
    for name, c in children(t):
        d = _drop_conjunct(c)
        if d is not None:
            return with_child(t, name, d)
    return None


class TestBatchedVerdicts:
    """check_equiv evaluates its stream in ordered chunks, one batch per
    carrier in each; status, checked, counterexample and detail are the
    sequential reference loop's."""

    def _agree(self, source, fact, vocab, **kw):
        v = check_equiv(source, fact, vocab, **kw)
        assert (v.status, v.checked, v.counterexample, v.detail) == \
            sequential_check(source, fact, vocab, **kw)
        return v

    @pytest.mark.parametrize("config", ["mech", "short"])
    def test_generated_formulas_and_wrong_facts(self, config,
                                                golden_translations):
        # each seed's fact, its inclusion swapped and a conjunct dropped,
        # exhaustive and sampled at 2 atoms
        runs = [(form, fact) for key, form, fact in golden_translations[config]
                if key.startswith("seed")]
        assert len(runs) == 60
        vocab, statuses = gen_vocab(), []
        for i, (form, fact) in enumerate(runs):
            wrong = [FactLe(fact.rhs, fact.lhs, width=fact.width),
                     _drop_conjunct(fact)]
            for f in [fact] + [w for w in wrong if w is not None]:
                for kw in ({}, dict(max_exhaustive=0, samples=30, seed=i)):
                    statuses.append(self._agree(form, f, vocab, bound=2,
                                                **kw).status)
        assert statuses.count("FAIL") > 40
        assert statuses.count("PASS") >= 60
        assert statuses.count("SAMPLED") >= 60

    def _batches(self, monkeypatch):
        # the models of each batch evaluated, in order: the extents built
        # since the last fact evaluation
        batches = [[]]
        real_interp, real_truth = oracle.interp_from_model, oracle._fact_truth

        def interp(model, space):
            batches[-1].append(model)
            return real_interp(model, space)

        def truth(*args):
            batches.append([])
            return real_truth(*args)

        monkeypatch.setattr(oracle, "interp_from_model", interp)
        monkeypatch.setattr(oracle, "_fact_truth", truth)
        return batches

    def test_a_fail_inside_a_mixed_batch(self, monkeypatch):
        # seed 4's formula against TOP = BOT: all 50 samples fit in one
        # chunk, batched by atom count, and the counterexample is not
        # the first model of its batch
        batches = self._batches(monkeypatch)
        gv, form = gen_vocab(), gen_formula(4)
        kw = dict(bound=2, max_exhaustive=0, samples=50, seed=4)
        v = check_equiv(form, FactEq(TOP, BOT), gv, **kw)
        batches = [b for b in batches if b]
        assert self._agree(form, FactEq(TOP, BOT), gv, **kw) == v
        assert v.status == "FAIL" and v.checked > 1
        assert sorted({len(m.atoms) for m in b} for b in batches) == [
            {1}, {2}]
        assert sum(map(len, batches)) == 50
        (batch,) = [b for b in batches if v.counterexample in b]
        assert batch.index(v.counterexample) > 0

    def test_batches_stay_under_the_cap(self, monkeypatch,
                                        golden_translations):
        # the running example's mechanical fact at 2 atoms: a 510-element
        # carrier, so every 2-atom model is a batch of its own
        batches = self._batches(monkeypatch)
        ((_, form, fact),) = [run for run in golden_translations["mech"]
                              if run[0].startswith("university:")]
        kw = dict(bound=2, max_exhaustive=0, samples=6)
        v = check_equiv(form, fact, university_vocab(), **kw)
        batches = [b for b in batches if b]
        assert self._agree(form, fact, university_vocab(), **kw) == v
        assert v.status == "SAMPLED" and sum(map(len, batches)) == 6
        assert all(len(b) == 1 for b in batches
                   if len(b[0].atoms) == 2)

    def test_include_empty(self):
        vocab = Vocab({"A": SigInfo("A"), "B": SigInfo("B")},
                      {"r": ("A", "B")})
        some_a = FSome(ASig("A"))
        fact = FactLe(TOP, Comp(Comp(TOP, Phi("A")), TOP))
        for f in (fact, FactEq(TOP, BOT), FactLe(Rel("r"), TOP)):
            for kw in ({}, dict(max_exhaustive=0, samples=40)):
                self._agree(some_a, f, vocab, bound=2, include_empty=True,
                            **kw)

    def test_rl_and_fact_sources(self):
        # an RL source is evaluated per model, a fact source in the batch
        vocab = gen_vocab()
        loop = FactLe(TOP, Comp(Comp(TOP, Meet(Rel("r"), ID)), TOP))
        for source in (REx(1, RApp((1,), Rel("r"), (1,))),
                       FactLe(TOP, Comp(TOP, Comp(Rel("r"), TOP))), loop):
            for kw in ({}, dict(max_exhaustive=0, samples=40)):
                self._agree(source, loop, vocab, bound=2, **kw)


class TestOrbits:
    """iter_orbits yields each atom-renaming orbit of the iter_models
    stream once, as its first model in the stream, with its size, and
    check_equiv's verdicts over it are those over every model."""

    @pytest.mark.parametrize("n", range(4))
    @pytest.mark.parametrize("vocab", ["university", "gen"])
    def test_orbits_partition_the_stream(self, vocab, n):
        if vocab == "university":
            vocab = university_vocab()
            rels = sorted(vocab.rels)
        else:
            vocab, rels = gen_vocab(), ["r", "s"]
        stream = list(iter_models(vocab, n, rels))
        place = {_model_key(m): i for i, m in enumerate(stream)}
        assert len(place) == len(stream)
        orbits = {}  # first stream index -> the orbit's stream indices
        for m in stream:
            orbit = {place[_model_key(_renamed(m, g))]
                     for g in itertools.permutations(range(n))}
            orbits.setdefault(min(orbit), orbit)
        got = [(place[_model_key(m)], size)
               for m, size in iter_orbits(vocab, n, rels)]
        assert got == [(first, len(orbit))
                       for first, orbit in sorted(orbits.items())]
        assert sum(size for _, size in got) == model_count(vocab, n, rels)

    @pytest.mark.parametrize("config", ["mech", "short"])
    def test_full_and_reduced_verdicts_agree_at_two_atoms(
            self, config, golden_translations):
        # each seed's formula against a wrong fact and the next seed's
        # fact: the same status and counterexample, and on a PASS the
        # same count of models
        runs = [(form, fact) for key, form, fact in golden_translations[config]
                if key.startswith("seed")]
        assert len(runs) == 60
        vocab, statuses = gen_vocab(), []
        for i, (form, _) in enumerate(runs):
            for fact in (FactEq(TOP, BOT), runs[(i + 1) % len(runs)][1]):
                status, checked, cex, _ = sequential_check(
                    form, fact, vocab, 2, full=True)
                v = check_equiv(form, fact, vocab, bound=2)
                assert (v.status, v.counterexample) == (status, cex), i
                assert status == "FAIL" or v.checked == checked, i
                statuses.append(status)
        assert (statuses.count("FAIL"), statuses.count("PASS")) == (100, 20)

    def test_running_example_is_certified_at_three_atoms(
            self, golden_translations):
        # the shortcut fact of the running example's assert, exhaustively
        # over every model of 1-3 atoms: 195 orbits cover the 841 models
        ((_, form, fact),) = [run for run in golden_translations["short"]
                              if run[0].startswith("university:")]
        v = check_equiv(form, fact, university_vocab(), bound=3)
        assert (v.status, v.checked) == ("PASS", 841), v.detail

    def test_mechanical_running_example_is_certified_at_two_atoms(
            self, golden_translations, monkeypatch):
        # the mechanical fact of the running example's assert, exhaustively
        # over every model of 1-2 atoms, whose carriers reach 510 elements:
        # 28 orbits cover the 44 models
        ((_, form, fact),) = [run for run in golden_translations["mech"]
                              if run[0].startswith("university:")]
        evaluated = []

        def counting(model, space):
            evaluated.append(space.n)
            return real(model, space)

        real = oracle.interp_from_model
        monkeypatch.setattr(oracle, "interp_from_model", counting)
        v = check_equiv(form, fact, university_vocab(), bound=2)
        assert (v.status, v.checked) == ("PASS", 44), v.detail
        assert len(evaluated) == 28 and max(evaluated) == len(_ELEMENTS)


class TestGenerator:
    def test_deterministic(self):
        assert gen_formula(42) == gen_formula(42)
        assert len({repr(gen_formula(s)) for s in range(10)}) > 5

    def test_core_and_arity_legal_over_many_seeds(self):
        arities = {"r": 2, "s": 2, "t": 3}

        def legal(f):
            if isinstance(f, FIn):
                assert arity_of(f.l, arities) == arity_of(f.r, arities)
            elif isinstance(f, FSome):
                arity_of(f.e, arities)
            elif isinstance(f, FAll):
                assert arity_of(f.bound, arities) == 1
            for _, c in children(f):
                legal(c)

        for seed in range(300):
            f = gen_formula(seed)
            assert is_core(f), seed
            legal(f)

    def test_shapes_vary(self):
        kinds = set()
        for seed in range(300):
            f = gen_formula(seed)
            kinds.add(type(f).__name__)
        assert {"FAll", "FIn", "FNot", "FAnd"} <= kinds

    def test_closures_in_forcing_positions_are_shielded(self):
        # on a membership's left (or under a counting form) a closure is
        # legal only inside a difference's right arm: the left arm then
        # zeroes every row the closure's identity part would add

        def check(e, shielded):
            if isinstance(e, AStar):
                assert shielded, "unshielded closure in a forcing position"
            if isinstance(e, ADiff):
                check(e.l, shielded)
                check(e.r, True)
            else:
                for _, c in children(e):
                    check(c, shielded)

        def walk(f):
            if isinstance(f, FIn):
                check(f.l, False)
            elif isinstance(f, FSome):
                check(f.e, False)
            for _, c in children(f):
                walk(c)

        for seed in range(300):
            walk(gen_formula(seed))

    def test_evaluates_on_every_small_model(self):
        gv = gen_vocab()
        f = gen_formula(17)
        names = sorted(mentioned_rels(f) & set(gv.rels))
        seen = 0
        for n in (1, 2):
            for mdl in iter_models(gv, n, names):
                eval_alloy(f, mdl)
                seen += 1
        assert seen == sum(model_count(gv, n, names) for n in (1, 2))
