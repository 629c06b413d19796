"""Declaration facts: golden shapes for the university model, its
hierarchy and typing facts against their declarations at 3 atoms,
degenerate hierarchies, and oracle soundness of typing and multiplicity
facts against direct counting on the flat extents."""

import itertools
import os
import random

import pytest

from alloy2fa.decls import (
    col_mult_facts,
    declaration_facts,
    sig_facts,
    sig_mult_facts,
    typing_fact,
)
from alloy2fa.frontend import parse, symbol_table
from alloy2fa.oracle import (
    FiniteModel, SigInfo, Vocab, check_equiv, fact_holds, iter_models,
)
from alloy2fa.terms import (
    AJoin,
    ARel,
    ASig,
    AVar,
    BOT,
    Comp,
    Conv,
    FactEq,
    FactLe,
    FAll,
    FSome,
    ID,
    Id,
    Join,
    Meet,
    Phi,
    Prod,
    Rel,
    TOP,
    subterms,
    fact_text,
)

HERE = os.path.dirname(__file__)


def university_text():
    with open(os.path.join(HERE, "data", "university.als")) as fh:
        return fh.read()


def university_table():
    return symbol_table(parse(university_text()))


def table_of(src):
    return symbol_table(parse(src))


class TestUniversityFacts:
    """The full fact list for the running example, frozen structurally."""

    def test_labels_in_emission_order(self):
        facts = declaration_facts(university_table())
        assert [f.label for f in facts] == [
            "top-cover",
            "hierarchy",
            "disjointness",
            "abstract-cover",
            "typing",
            "typing",
            "typing",
            "typing",
            "multiplicity",
        ]

    def test_top_cover(self):
        f = declaration_facts(university_table())[0]
        assert f == FactEq(
            ID, Join(Phi("Person"), Join(Phi("Course"), Phi("University")))
        )

    def test_hierarchy_is_union_inclusion(self):
        f = declaration_facts(university_table())[1]
        assert f == FactLe(Join(Phi("Student"), Phi("Professor")),
                           Phi("Person"))

    def test_sibling_disjointness(self):
        f = declaration_facts(university_table())[2]
        assert f == FactEq(Meet(Phi("Student"), Phi("Professor")), BOT)

    def test_abstract_cover(self):
        f = declaration_facts(university_table())[3]
        assert f == FactEq(Phi("Person"),
                           Join(Phi("Student"), Phi("Professor")))

    def test_typing_facts(self):
        facts = declaration_facts(university_table())
        typ = {f.lhs.name: f for f in facts if f.label == "typing"}
        assert typ["lecturer"] == FactLe(
            Rel("lecturer"), Comp(Phi("Course"), Comp(TOP, Phi("Professor")))
        )
        assert typ["depends"] == FactLe(
            Rel("depends"), Comp(Phi("Course"), Comp(TOP, Phi("Course")))
        )
        assert typ["enrolled"] == FactLe(
            Rel("enrolled"), Comp(Phi("University"), Comp(TOP, Phi("Student")))
        )
        assert typ["courses"] == FactLe(
            Rel("courses", 3),
            Comp(Phi("University"),
                 Comp(TOP, Prod(Phi("Student"), Phi("Course")))),
        )

    def test_lecturer_multiplicity(self):
        f = declaration_facts(university_table())[-1]
        assert f == FactLe(ID, Comp(Rel("lecturer"), Conv(Rel("lecturer"))))

    @pytest.mark.xfail(strict=True, reason=(
        "a `some` column fact bounds id over every atom, not the owner's "
        "atoms: it fails on a 1-atom model without a Course, where the "
        "declaration holds; Phi_Course in (lecturer . lecturer~) passes"))
    def test_lecturer_multiplicity_matches_the_declaration(self):
        table = university_table()
        vocab = Vocab(
            sigs={name: SigInfo(name, parent, table.sig_abstract[name])
                  for name, parent in table.sig_parent.items()},
            rels=dict(table.rel_cols))
        declared = FAll("c", ASig("Course"),
                        FSome(AJoin(AVar("c"), ARel("lecturer"))))
        fact = declaration_facts(table)[-1]
        v = check_equiv(declared, fact, vocab, bound=1)
        assert v.status == "PASS", v.detail

    # each fact of the running example ahead of the multiplicity, by
    # position, beside the Alloy formula of the declaration it encodes
    DECLARED = [
        ("top-cover", "univ = Person + Course + University"),
        ("hierarchy", "Student + Professor in Person"),
        ("disjointness", "not some Student & Professor"),
        ("abstract-cover", "Person = Student + Professor"),
        ("typing", "lecturer in Course -> Professor"),
        ("typing", "depends in Course -> Course"),
        ("typing", "enrolled in University -> Student"),
        ("typing", "courses in University -> Student -> Course"),
    ]

    @pytest.mark.parametrize("index, label, declared",
                             [(i, *d) for i, d in enumerate(DECLARED)],
                             ids=["%s-%d" % (d[0], i)
                                  for i, d in enumerate(DECLARED)])
    def test_fact_matches_its_declaration_at_3_atoms(self, index, label,
                                                      declared):
        model = parse(university_text() + "\nfact { %s }\n" % declared)
        table = symbol_table(model)
        vocab = Vocab(
            sigs={name: SigInfo(name, parent, table.sig_abstract[name])
                  for name, parent in table.sig_parent.items()},
            rels=dict(table.rel_cols))
        fact = declaration_facts(table)[index]
        assert fact.label == label
        v = check_equiv(model.facts[0], fact, vocab, bound=3)
        assert v.status == "PASS", v.detail

    def test_widths(self):
        facts = declaration_facts(university_table())
        by_label = {}
        for f in facts:
            by_label.setdefault(f.label, []).append(f.width)
        assert by_label["top-cover"] == [1]
        assert by_label["multiplicity"] == [1]
        # ternary courses needs the pair carrier, the binaries do not
        typ = {f.lhs.name: f.width for f in facts if f.label == "typing"}
        assert typ == {"lecturer": 1, "depends": 1, "enrolled": 1,
                       "courses": 2}

    def test_every_sig_constant_appears(self):
        table = university_table()
        facts = declaration_facts(table)
        seen = set()
        for f in facts:
            seen |= {r.sig for r in subterms(f) if isinstance(r, Phi)}
        assert seen == set(table.sig_parent)

    def test_exactly_one_typing_fact_per_field(self):
        table = university_table()
        facts = declaration_facts(table)
        owners = [f.lhs.name for f in facts if f.label == "typing"]
        assert sorted(owners) == sorted(table.rel_cols)
        assert len(owners) == len(set(owners))

    def test_round_trip_text(self):
        facts = declaration_facts(university_table())
        assert fact_text(facts[0]) == (
            "id = (Phi_Person + (Phi_Course + Phi_University))")
        assert fact_text(facts[-1]) == "id in (lecturer . lecturer~)"


class TestDegenerateHierarchies:
    def test_single_signature(self):
        facts = sig_facts(table_of("sig A {}"))
        assert facts == [FactEq(ID, Phi("A"))]

    def test_two_tops_no_disjointness(self):
        facts = sig_facts(table_of("sig A {} sig B {}"))
        assert facts == [FactEq(ID, Join(Phi("A"), Phi("B")))]

    def test_single_child_no_disjointness(self):
        facts = sig_facts(table_of("sig A {} sig B extends A {}"))
        assert facts == [
            FactEq(ID, Phi("A")),
            FactLe(Phi("B"), Phi("A")),
        ]

    def test_three_siblings_pairwise_disjoint(self):
        facts = sig_facts(
            table_of("sig A {} sig B extends A {} sig C extends A {}"
                     " sig D extends A {}")
        )
        dis = [f for f in facts if f.label == "disjointness"]
        assert dis == [
            FactEq(Meet(Phi("B"), Phi("C")), BOT),
            FactEq(Meet(Phi("B"), Phi("D")), BOT),
            FactEq(Meet(Phi("C"), Phi("D")), BOT),
        ]

    def test_childless_abstract_gets_no_cover(self):
        facts = sig_facts(table_of("abstract sig A {} sig B {}"))
        assert facts == [FactEq(ID, Join(Phi("A"), Phi("B")))]

    def test_nested_extensions(self):
        facts = sig_facts(
            table_of("sig A {} sig B extends A {} sig C extends B {}")
        )
        assert facts == [
            FactEq(ID, Phi("A")),
            FactLe(Phi("B"), Phi("A")),
            FactLe(Phi("C"), Phi("B")),
        ]


class TestFactShapes:
    def test_typing_quaternary_nests_right(self):
        f = typing_fact("q", ("A", "B", "C", "D"))
        assert f.rhs == Comp(
            Phi("A"), Comp(TOP, Prod(Phi("B"), Prod(Phi("C"), Phi("D"))))
        )
        assert f.width == 3

    def test_field_facts_carry_the_field_arity(self):
        # one term per field: the one expand builds for an n-ary field
        assert typing_fact("t", ("A", "B", "C")).lhs is Rel("t", 3)
        assert typing_fact("r", ("A", "B")).lhs is Rel("r")
        (f,) = col_mult_facts("t", 3, 1, "lone")
        assert Rel("t", 3) in set(subterms(f.lhs))
        assert Rel("t") not in set(subterms(f.lhs))

    def test_typing_rejects_unary(self):
        with pytest.raises(ValueError):
            typing_fact("u", ("A",))

    def test_sig_mult_shapes(self):
        some = sig_mult_facts("A", "some")
        lone = sig_mult_facts("A", "lone")
        assert some == [FactLe(TOP, Comp(TOP, Comp(Phi("A"), TOP)))]
        assert lone == [FactLe(Comp(Phi("A"), Comp(TOP, Phi("A"))), ID)]
        assert sig_mult_facts("A", "one") == some + lone
        assert sig_mult_facts("A", None) == []
        assert sig_mult_facts("A", "set") == []

    def test_col_mult_one_is_some_plus_lone(self):
        for col in (1, 2, 3):
            one = col_mult_facts("r", 3, col, "one")
            pair = col_mult_facts("r", 3, col, "some") + col_mult_facts(
                "r", 3, col, "lone"
            )
            assert one == pair

    def test_col_mult_last_column_is_unrotated(self):
        facts = col_mult_facts("r", 2, 2, "lone")
        assert facts == [FactLe(Comp(Conv(Rel("r")), Rel("r")), ID)]

    def test_col_mult_rotation_count(self):
        # column 1 of a ternary relation sits two rotations away
        (f,) = col_mult_facts("r", 3, 1, "lone")
        inner = f.lhs.r
        depth = 0
        while not isinstance(inner, Rel):
            assert type(inner).__name__ == "Rot"
            inner = inner.e
            depth += 1
        assert depth == 2

    def test_set_and_bare_columns_are_free(self):
        assert col_mult_facts("r", 2, 2, "set") == []
        assert col_mult_facts("r", 2, 2, None) == []


# ---------------------------------------------------------------------------
# counting ground truth

def shift(t, k):
    k %= len(t)
    return t[-k:] + t[:-k] if k else t


def lone_by_count(tuples, n, col):
    seen = {}
    for t in tuples:
        s = shift(t, n - col)
        if seen.setdefault(s[0], s[1:]) != s[1:]:
            return False
    return True


def some_by_count(tuples, atoms, n, col):
    firsts = {shift(t, n - col)[0] for t in tuples}
    return set(atoms) <= firsts


def mult_fact_holds(f, model):
    # totality facts (id on the small side) read pointwise over atoms
    frame = "atoms" if isinstance(f.lhs, Id) else "carrier"
    return fact_holds(f, model, frame=frame)


def one_sig_models(n_tuples_arity, n_atoms):
    vocab = Vocab(
        sigs={"A": SigInfo("A")},
        rels={"r": ("A",) * n_tuples_arity},
    )
    return iter_models(vocab, n_atoms, ["r"])


class TestSigMultSoundness:
    """Signature mult facts agree with extent cardinality, exhaustively
    over every placement of up to three atoms into two top sigs."""

    def models(self):
        vocab = Vocab(sigs={"A": SigInfo("A"), "B": SigInfo("B")}, rels={})
        for n in (1, 2, 3):
            yield from iter_models(vocab, n, [])

    def test_some_counts(self):
        (f,) = sig_mult_facts("A", "some")
        for m in self.models():
            assert fact_holds(f, m) == (len(m.sigs["A"]) >= 1), m

    def test_lone_counts(self):
        (f,) = sig_mult_facts("A", "lone")
        for m in self.models():
            assert fact_holds(f, m) == (len(m.sigs["A"]) <= 1), m

    def test_one_counts(self):
        facts = sig_mult_facts("A", "one")
        for m in self.models():
            got = all(fact_holds(f, m) for f in facts)
            assert got == (len(m.sigs["A"]) == 1), m


class TestRelMultSoundness:
    """Column mult facts against flat-tuple counting.  Binary relations
    exhaust |U| <= 3; ternary relations exhaust |U| <= 2 and at three
    atoms cover every extent of up to three tuples plus a seeded
    random layer (the full extent lattice at 2^27 is out of reach)."""

    def binary_models(self):
        for n in (1, 2, 3):
            yield from one_sig_models(2, n)

    def ternary_models(self):
        for n in (1, 2):
            yield from one_sig_models(3, n)
        atoms = ("a0", "a1", "a2")
        sigs = {"A": frozenset(atoms)}
        pool = list(itertools.product(atoms, repeat=3))
        for k in (0, 1, 2, 3):
            for ext in itertools.combinations(pool, k):
                yield FiniteModel(atoms, sigs, {"r": frozenset(ext)})
        rng = random.Random(20240917)
        for _ in range(300):
            ext = frozenset(t for t in pool if rng.random() < rng.random())
            yield FiniteModel(atoms, sigs, {"r": ext})

    def check(self, models, arity):
        for m in models:
            ext = m.rels["r"]
            for col in range(1, arity + 1):
                (lo,) = col_mult_facts("r", arity, col, "lone")
                (so,) = col_mult_facts("r", arity, col, "some")
                assert mult_fact_holds(lo, m) == lone_by_count(
                    ext, arity, col
                ), describe(m, col, "lone")
                assert mult_fact_holds(so, m) == some_by_count(
                    ext, m.atoms, arity, col
                ), describe(m, col, "some")

    def test_binary_columns(self):
        self.check(self.binary_models(), 2)

    def test_ternary_columns(self):
        self.check(self.ternary_models(), 3)


def describe(m, col, kind):
    return "%s col=%d ext=%s" % (kind, col, sorted(m.rels["r"]))


class TestTypingSoundness:
    def test_typing_holds_on_typed_models(self):
        vocab = Vocab(
            sigs={"A": SigInfo("A"), "B": SigInfo("B")},
            rels={"r": ("A", "B"), "t": ("A", "B", "A")},
        )
        fr = typing_fact("r", ("A", "B"))
        ft = typing_fact("t", ("A", "B", "A"))
        n_checked = 0
        for n in (2, 3):
            for m in iter_models(vocab, n, ["r", "t"]):
                # the ternary extent forces the pair carrier on both checks
                assert fact_holds(fr, m, width=2)
                assert fact_holds(ft, m)
                n_checked += 1
        assert n_checked == 10 + 242

    def test_typing_rejects_stray_tuple(self):
        f = typing_fact("r", ("A", "B"))
        atoms = ("a0", "a1")
        m = FiniteModel(
            atoms,
            {"A": frozenset(["a0"]), "B": frozenset(["a1"])},
            {"r": frozenset([("a1", "a0")])},  # backwards
        )
        assert not fact_holds(f, m)
        ok = FiniteModel(
            atoms, m.sigs, {"r": frozenset([("a0", "a1")])}
        )
        assert fact_holds(f, ok)

    def test_disjoint_middles_compose_to_empty(self):
        vocab = Vocab(
            sigs={s: SigInfo(s) for s in "ABCD"},
            rels={"r": ("A", "B"), "s": ("C", "D")},
        )
        empty = FactEq(Comp(Rel("r"), Rel("s")), BOT)
        n_checked = 0
        for n in (1, 2, 3):
            for m in iter_models(vocab, n, ["r", "s"]):
                assert fact_holds(empty, m, width=1), describe_rs(m)
                n_checked += 1
        assert n_checked == 148

    def test_shared_middle_can_compose(self):
        # sanity: the lemma above is about disjointness, not composition
        atoms = ("a0", "a1", "a2")
        m = FiniteModel(
            atoms,
            {"A": frozenset(["a0"]), "B": frozenset(["a1"]),
             "C": frozenset(["a2"])},
            {"r": frozenset([("a0", "a1")]), "s": frozenset([("a1", "a2")])},
        )
        empty = FactEq(Comp(Rel("r"), Rel("s")), BOT)
        assert not fact_holds(empty, m, width=1)


def describe_rs(m):
    return "r=%s s=%s" % (sorted(m.rels["r"]), sorted(m.rels["s"]))
