"""Parsing, desugaring and symbol-table behavior on the accepted subset."""

import ast
import os
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alloy2fa.expand import ExpandError, expand_form
from alloy2fa.frontend import (
    KEYWORDS, OPS, DesugarError, ParseError, SigDecl, _Parser,
    check_arities, desugar, lex, parse, pp_expr, pp_form, pretty, subst,
    symbol_table,
)
from alloy2fa.terms import (
    ADiff, ADomRes, AInter, AJoin, AProd, ARanRes, ARel, ASig, AStar,
    AUnion, AVar, ArityError, FAll, FAnd, FImp, FIn, FNot, FOr, FSome,
    arity_of, is_core,
)

HERE = os.path.dirname(__file__)


def load_university():
    with open(os.path.join(HERE, "data", "university.als")) as fh:
        return fh.read()


@pytest.fixture(scope="module")
def university():
    return parse(load_university())


class TestParsing:
    def test_census_of_the_running_example(self, university):
        m = university
        assert len(m.sigs) == 5
        assert len(m.fields) == 4
        assert len(m.preds) == 2
        assert len(m.asserts) == 1

    def test_declarations_carry_their_structure(self, university):
        m = university
        assert [s.name for s in m.sigs] == [
            "Person", "Student", "Professor", "Course", "University"]
        assert m.sigs[0].abstract and m.sigs[0].parent is None
        assert m.sigs[1].parent == "Person" and not m.sigs[1].abstract
        assert m.sigs[2].parent == "Person"
        courses = m.fields[3]
        assert courses.owner == "University"
        assert courses.cols == ("Student", "Course")
        assert courses.arity == 3
        assert m.fields[0].col_mults == ("some",)
        assert m.fields[1].col_mults == ("set",)  # recorded as written
        assert m.rel_arity() == {"lecturer": 2, "depends": 2,
                                 "enrolled": 2, "courses": 3}

    def test_minimal_model(self):
        m = parse("sig A {}")
        assert len(m.sigs) == 1 and m.fields == ()
        assert m.sigs[0] == SigDecl("A")

    def test_signature_references_become_sig_nodes(self):
        m = parse("sig A { r : A } fact { A.r in A }")
        f = m.facts[0]
        assert f == FIn(AJoin(ASig("A"), ARel("r")), ASig("A"))

    def test_quantifier_groups_unroll_in_order(self):
        m = parse("sig A {} fact { all x, y : A, z : A | some z }")
        f = m.facts[0]
        assert [q.var for q in (f, f.body, f.body.body)] == ["x", "y", "z"]

    def test_blocks_conjoin_implicitly(self):
        m = parse("sig A {} fact { some A some A some A }")
        f = m.facts[0]
        assert isinstance(f, FAnd) and isinstance(f.r, FAnd)

    def test_keyword_and_symbol_connectives_agree(self):
        a = parse("sig A {} fact { some A and some A or not some A }")
        b = parse("sig A {} fact { some A && some A || ! some A }")
        assert a.facts == b.facts

    def test_expression_precedence(self):
        m = parse("sig A { r : A, s : A } "
                  "fact { r + s & r in r } "
                  "fact { A.~r.s in A } "
                  "fact { r - s - r in r }")
        assert pp_expr(m.facts[0].l) == "(r + (s & r))"
        assert pp_expr(m.facts[1].l) == "((A . ~r) . s)"
        assert pp_expr(m.facts[2].l) == "((r - s) - r)"

    def test_star_binds_tighter_than_dot(self):
        m = parse("sig A { r : A } fact { A.*r in A }")
        assert m.facts[0].l == AJoin(ASig("A"), AStar(ARel("r")))

    def test_quantifier_body_extends_right(self):
        m = parse("sig A {} fact { all x : A | some x && some A }")
        f = m.facts[0]
        assert isinstance(f, FAll) and isinstance(f.body, FAnd)

    def test_parenthesized_formulas(self):
        m = parse("sig A {} fact { (some A && some A) || some A }")
        assert is_core(desugar(m).facts[0])

    def test_comments(self):
        m = parse("// leading\nsig A {} -- trailing\n/* block\nstill */ "
                  "fact { some A }")
        assert len(m.sigs) == 1 and len(m.facts) == 1


class TestPrecedence:
    """`a op1 b op2 c` for every ordered pair of binary operators. The
    expected trees are written out, with `or`/`and` drawn as `||`/`&&`."""

    EXPR_PAIRS = [
        ("+", "+", "((a + b) + c)"),
        ("+", "-", "((a + b) - c)"),
        ("+", "&", "(a + (b & c))"),
        ("+", "->", "(a + (b -> c))"),
        ("+", "<:", "(a + (b <: c))"),
        ("+", ":>", "(a + (b :> c))"),
        ("+", ".", "(a + (b . c))"),
        ("-", "+", "((a - b) + c)"),
        ("-", "-", "((a - b) - c)"),
        ("-", "&", "(a - (b & c))"),
        ("-", "->", "(a - (b -> c))"),
        ("-", "<:", "(a - (b <: c))"),
        ("-", ":>", "(a - (b :> c))"),
        ("-", ".", "(a - (b . c))"),
        ("&", "+", "((a & b) + c)"),
        ("&", "-", "((a & b) - c)"),
        ("&", "&", "((a & b) & c)"),
        ("&", "->", "(a & (b -> c))"),
        ("&", "<:", "(a & (b <: c))"),
        ("&", ":>", "(a & (b :> c))"),
        ("&", ".", "(a & (b . c))"),
        ("->", "+", "((a -> b) + c)"),
        ("->", "-", "((a -> b) - c)"),
        ("->", "&", "((a -> b) & c)"),
        ("->", "->", "((a -> b) -> c)"),
        ("->", "<:", "(a -> (b <: c))"),
        ("->", ":>", "(a -> (b :> c))"),
        ("->", ".", "(a -> (b . c))"),
        ("<:", "+", "((a <: b) + c)"),
        ("<:", "-", "((a <: b) - c)"),
        ("<:", "&", "((a <: b) & c)"),
        ("<:", "->", "((a <: b) -> c)"),
        ("<:", "<:", "((a <: b) <: c)"),
        ("<:", ":>", "((a <: b) :> c)"),
        ("<:", ".", "(a <: (b . c))"),
        (":>", "+", "((a :> b) + c)"),
        (":>", "-", "((a :> b) - c)"),
        (":>", "&", "((a :> b) & c)"),
        (":>", "->", "((a :> b) -> c)"),
        (":>", "<:", "((a :> b) <: c)"),
        (":>", ":>", "((a :> b) :> c)"),
        (":>", ".", "(a :> (b . c))"),
        (".", "+", "((a . b) + c)"),
        (".", "-", "((a . b) - c)"),
        (".", "&", "((a . b) & c)"),
        (".", "->", "((a . b) -> c)"),
        (".", "<:", "((a . b) <: c)"),
        (".", ":>", "((a . b) :> c)"),
        (".", ".", "((a . b) . c)"),
    ]
    FORM_PAIRS = [
        ("||", "||", "((a || b) || c)"),
        ("||", "or", "((a || b) || c)"),
        ("||", "=>", "(a || (b => c))"),
        ("||", "&&", "(a || (b && c))"),
        ("||", "and", "(a || (b && c))"),
        ("or", "||", "((a || b) || c)"),
        ("or", "or", "((a || b) || c)"),
        ("or", "=>", "(a || (b => c))"),
        ("or", "&&", "(a || (b && c))"),
        ("or", "and", "(a || (b && c))"),
        ("=>", "||", "((a => b) || c)"),
        ("=>", "or", "((a => b) || c)"),
        ("=>", "=>", "(a => (b => c))"),
        ("=>", "&&", "(a => (b && c))"),
        ("=>", "and", "(a => (b && c))"),
        ("&&", "||", "((a && b) || c)"),
        ("&&", "or", "((a && b) || c)"),
        ("&&", "=>", "((a && b) => c)"),
        ("&&", "&&", "((a && b) && c)"),
        ("&&", "and", "((a && b) && c)"),
        ("and", "||", "((a && b) || c)"),
        ("and", "or", "((a && b) || c)"),
        ("and", "=>", "((a && b) => c)"),
        ("and", "&&", "((a && b) && c)"),
        ("and", "and", "((a && b) && c)"),
    ]
    SHAPES = {AUnion: "+", ADiff: "-", AInter: "&", AProd: "->",
              ADomRes: "<:", ARanRes: ":>", AJoin: ".",
              FOr: "||", FImp: "=>", FAnd: "&&"}

    def shape(self, x):
        if isinstance(x, (ASig, FSome)):
            return x.name if isinstance(x, ASig) else self.shape(x.e)
        return "(%s %s %s)" % (self.shape(x.l), self.SHAPES[type(x)],
                                 self.shape(x.r))

    @pytest.mark.parametrize("op1,op2,tree", EXPR_PAIRS)
    def test_expression_pairs(self, op1, op2, tree):
        m = parse("sig a {} sig b {} sig c {} fact { a %s b %s c in a }"
                  % (op1, op2))
        assert self.shape(m.facts[0].l) == tree

    @pytest.mark.parametrize("op1,op2,tree", FORM_PAIRS)
    def test_formula_pairs(self, op1, op2, tree):
        m = parse("sig a {} sig b {} sig c {} "
                  "fact { some a %s some b %s some c }" % (op1, op2))
        assert self.shape(m.facts[0]) == tree


class TestParseErrors:
    CASES = [
        ("sig A { r : some }", "expected column signature"),
        ("sig A {} fact { some A.q }", "unknown identifier 'q'"),
        ("sig A { f : B }", "unknown column signature 'B'"),
        ("sig A extends A {}", "cycle"),
        ("sig A extends Z {}",
         "unknown parent signature 'Z' at line 1, column 5"),
        ("sig A extends B {}\nsig B extends A {}",
         "cycle through 'A' at line 2, column 5"),
        ("sig A {} fact { some ^A }", "outside the fragment"),
        ("sig @ {}", "unexpected character"),
        ("sig A {} /* oops", "unterminated comment"),
        ("sig A {} sig A {}", "duplicate signature"),
        ("sig A {} fact { }", "empty block"),
        ("sig A {} fact { A }", "expected 'in' or '='"),
        # an operand of the wrong kind, named where it stands
        ("sig A { r : A } fact { ~(some A) in A }",
         "expected an expression, got a formula at line 1, column 26"),
        ("sig A { r : A } fact { (some A).r in A }",
         "expected an expression, got a formula at line 1, column 25"),
        ("sig A { r : A } fact { A in A in A }",
         "expected an expression, got a formula at line 1, column 26"),
        ("sig A { r : A } fact { some A and A }",
         "expected 'in' or '=' after an expression, got '}' at line 1, "
         "column 37"),
        ("sig A { r : A } fact { some (some A) }",
         "expected an expression, got a formula at line 1, column 30"),
        # the end of input stands past a trailing line comment
        ("sig A { // x", "got 'end of input' at line 1, column 13"),
        ("sig A {} assert { some A -- y",
         "got 'end of input' at line 1, column 30"),
        ("sig A {}\nfoo",
         "expected a paragraph .* got 'foo' at line 2, column 1"),
    ]

    @pytest.mark.parametrize("text,needle", CASES)
    def test_positioned_failures(self, text, needle):
        with pytest.raises(ParseError, match=needle):
            parse(text)

    @pytest.mark.parametrize("n", [30, 120])
    def test_nested_parentheses_parse_in_one_pass(self, n, monkeypatch):
        # each parenthesis is read once, whatever it turns out to hold
        calls = []
        prim_expr = _Parser.prim_expr
        monkeypatch.setattr(_Parser, "prim_expr",
                            lambda p: calls.append(p.i) or prim_expr(p))
        parse("sig A {} fact { %ssome A%s }" % ("(" * n, ")" * n))
        assert len(calls) <= n + 4

    def test_errors_carry_line_and_column(self):
        with pytest.raises(ParseError, match=r"line 3, column 13"):
            parse("sig A {}\nsig B {}\nfact { some ^A }")

    @pytest.mark.parametrize("deep", [
        "(" * 500 + "some A" + ")" * 500,
        "(" * 500 + "x.r in (A)" + ")" * 500,
        "".join("all y%d : A | " % i for i in range(499)) + "x in A",
    ], ids=["some A", "x.r in (A)", "500 quantifiers"])
    def test_deep_parentheses_fail_with_a_position(self, deep):
        text = "sig A { r : A }\nassert a { all x : A | %s }" % deep
        with pytest.raises(ParseError,
                           match=r"nested too deeply.* line 2, column \d+"):
            parse(text)

    def test_1000_conjuncts_parse_and_fail_to_desugar_with_a_position(self):
        # the parser reads a chain in a loop and name resolution folds it
        # by an explicit stack; desugaring still recurses per operator
        text = "sig A { r : A }\nassert a { all x : A | %s }" % " && ".join(
            ["some A"] * 1000)
        model = parse(text)
        with pytest.raises(DesugarError,
                           match=r"nested too deeply.* line 2, column \d+"):
            desugar(model)

    @pytest.mark.parametrize("deep", [
        "(" * 139 + "some A" + ")" * 139,
        "".join("all y%d : A | " % i for i in range(199)) + "x in A",
    ], ids=["139 parentheses", "200 quantifiers"])
    def test_deep_inputs_pass_every_stage(self, deep):
        text = "sig A { r : A }\nassert a { all x : A | %s }" % deep
        model = check_arities(desugar(parse(text)))
        expand_form(model.asserts[0].form, model.rel_arity())

    @pytest.mark.parametrize("op", ["or", "=>", "and"])
    def test_long_chains_pass_every_stage_or_fail_with_a_position(self, op):
        # parsing, desugaring and expansion recurse at their own depth
        # per operator, while name resolution and the arity check fold by
        # an explicit stack; the first stage to give up moves as the walks
        # change, whichever it is names a position, and a bare
        # RecursionError fails the test
        def stages(n):
            text = "sig A {}\nassert a { %s }" % (" %s " % op).join(
                ["some A"] * n)
            model = check_arities(desugar(parse(text)))
            expand_form(model.asserts[0].form, model.rel_arity())

        stages(300)
        for n in range(350, 1101, 50):
            try:
                stages(n)
            except (ParseError, DesugarError, ArityError) as e:
                assert re.search(r"nested too deeply.* line 2, column \d+",
                                 str(e)), (n, e)

    @pytest.mark.parametrize("quants", [0, 150])
    def test_long_joins_pass_every_stage_or_fail_with_a_position(self,
                                                                 quants):
        # name resolution folds a join chain of any length; the arity
        # check and expansion recurse on it behind a depth guard, and
        # under 150 quantifiers expansion is the first to give up
        def stages(n):
            text = "sig A { r : A }\nassert a { all x : A | %sx%s in A }" % (
                "".join("all y%d : A | " % i for i in range(quants)),
                ".r" * n)
            model = check_arities(desugar(parse(text)))
            expand_form(model.asserts[0].form, model.rel_arity())

        for n in range(300, 1501, 100):
            try:
                stages(n)
            except (ArityError, ExpandError) as e:
                assert re.search(r"nested too deeply.* line 2, column \d+",
                                 str(e)), (n, e)


class TestLexer:
    FRAGMENTS = (["a", "Zq", "x1_'", "_", "'", "7", " ", "\t", "\r", "\n",
                  "//", "--", "/*", "*/", "/", "@", "<", ">"]
                 + [op for op in OPS if not op.isalpha()]
                 + list("{}()[],:|!~*^.&+-="))

    @staticmethod
    def offset(text, line, col):
        """The offset of a (line, column) position in text."""
        return sum(len(s) + 1 for s in text.split("\n")[:line - 1]) + col - 1

    @settings(max_examples=400, deadline=None)
    @given(st.lists(st.sampled_from(FRAGMENTS), max_size=30).map("".join))
    def test_every_position_holds_what_it_names(self, text):
        try:
            toks = lex(text)
        except ParseError as e:
            m = re.search(r"(unexpected character (.+)|unterminated comment)"
                          r" at line (\d+), column (\d+)", str(e))
            i = self.offset(text, int(m[3]), int(m[4]))
            bad = ast.literal_eval(m[2]) if m[2] else "/*"
            assert text.startswith(bad, i)
            return
        end = 0
        for t in toks[:-1]:
            i = self.offset(text, t.line, t.col)
            assert i >= end and text.startswith(t.text, i)
            assert (t.kind == "kw") == (t.text in KEYWORDS)
            end = i + len(t.text)
        eof = toks[-1]
        assert eof.kind == "eof"
        assert self.offset(text, eof.line, eof.col) == len(text)


class TestDesugar:
    def test_running_example_assertion_inlines_to_one_closed_formula(
            self, university):
        d = desugar(university)
        got = pp_form(d.asserts[0].form)
        assert got == (
            "all u : University | all u' : University | all s : Student | "
            "!((((((u . courses) . Course) in (u . enrolled)) && "
            "(all s : Student | ((s . (u . courses)) . *depends) in "
            "(s . (u . courses)))) && ((((u' . enrolled) in "
            "((u . enrolled) + s)) && (((u . enrolled) + s) in "
            "(u' . enrolled))) && (((u' . courses) in (u . courses)) && "
            "((u . courses) in (u' . courses))))) && "
            "(!((((u' . courses) . Course) in (u' . enrolled)) && "
            "(all s : Student | ((s . (u' . courses)) . *depends) in "
            "(s . (u' . courses))))))")
        assert is_core(d.asserts[0].form)

    def test_lone_of_a_set(self):
        d = desugar(parse("sig A {} fact { lone A }"))
        assert pp_form(d.facts[0]) == (
            "all lx1 : univ | all ly1 : univ | !(((lx1 in A) && "
            "(ly1 in A)) && (!((lx1 in ly1) && (ly1 in lx1))))")

    def test_lone_of_a_binary_relation(self):
        d = desugar(parse("sig A { r : A } fact { lone r }"))
        assert pp_form(d.facts[0]) == (
            "all lx1 : univ | all lx2 : univ | all ly1 : univ | "
            "all ly2 : univ | !((((lx1 -> lx2) in r) && "
            "((ly1 -> ly2) in r)) && (!(((lx1 in ly1) && (ly1 in lx1)) && "
            "((lx2 in ly2) && (ly2 in lx2)))))")

    def test_some_quantifier_and_equality(self):
        d = desugar(parse("sig A { r : A } fact { some x : A | x.r = A }"))
        assert pp_form(d.facts[0]) == (
            "!(all x : A | !(((x . r) in A) && (A in (x . r))))")

    def test_implication_squeezes_to_negated_conjunction(self):
        d = desugar(parse("sig A {} fact { some A => some A }"))
        f = d.facts[0]
        assert isinstance(f, FNot) and isinstance(f.f, FAnd)
        assert isinstance(f.f.r, FNot)

    def test_model_without_predicates_changes_only_sugar(self):
        src = "sig A {} fact { all x : A | x in A }"
        m = parse(src)
        assert desugar(m).facts == m.facts

    def test_inlining_avoids_capture(self):
        src = ("sig A { r : A } "
               "pred p[x : A] { all y : A | x in y.r } "
               "assert { all y : A | p[y] }")
        d = desugar(parse(src))
        assert pp_form(d.asserts[0].form) == \
            "all y : A | all y' : A | y in (y' . r)"

    def test_inlining_is_stable_under_systematic_renaming(self):
        src = ("sig A { r : A } "
               "pred p[x : A] { all %s : A | x in %s.r } "
               "assert { all %s : A | p[%s] }")
        base = desugar(parse(src % ("y", "y", "v", "v")))
        renamed = desugar(parse(src % ("w", "w", "v", "v")))

        def canon(f, depth=0, env=None):
            env = env or {}
            if isinstance(f, FAll):
                env = dict(env)
                env[f.var] = "v%d" % depth
                body = canon(f.body, depth + 1, env)
                return FAll(env[f.var], f.bound, body)
            if isinstance(f, FIn):
                return FIn(subst_names(f.l, env), subst_names(f.r, env))
            raise AssertionError("unexpected shape")

        def subst_names(e, env):
            return subst(FSome(e), {k: AVar(v) for k, v in env.items()}).e

        assert canon(base.asserts[0].form) == canon(renamed.asserts[0].form)

    def test_recursive_predicates_are_rejected(self):
        src = "sig A {} pred p[x : A] { p[x] } assert { all x : A | p[x] }"
        with pytest.raises(DesugarError,
                           match="recursive.* at line 1, column 26"):
            desugar(parse(src))

    def test_undeclared_predicates_are_rejected(self):
        src = "sig A {}\nassert { undeclaredp[A] }"
        with pytest.raises(DesugarError,
                           match="call to undeclared predicate "
                                 "'undeclaredp' at line 2, column 10"):
            desugar(parse(src))

    def test_invocation_arity_is_checked(self):
        src = ("sig A { r : A } pred p[x : A] { some x.r } "
               "assert { p[r, r] }")
        with pytest.raises(DesugarError, match="takes 1 parameters, got 2"):
            desugar(parse(src))

    def test_parametric_asserts_close_over_their_parameters(self):
        src = ("sig A { r : A } "
               "assert nonEmpty [x : A] { some x.r }")
        d = desugar(parse(src))
        a = d.asserts[0]
        assert a.name == "nonEmpty" and a.params == ()
        assert a.form == FAll("x", ASig("A"),
                              FSome(AJoin(AVar("x"), ARel("r"))))


class TestCheckArities:
    def test_joins_shrink_arity(self, university):
        d = check_arities(desugar(university))
        body = d.asserts[0].form.body.body.body.f  # under the three alls
        first_in = body.l.l.l
        # (u.courses).Course in u.enrolled: left expr is unary
        arities = d.rel_arity()
        assert arity_of(first_in.l, arities) == 1
        assert arity_of(first_in.l.l, arities) == 2  # u.courses

    def test_transpose_of_a_ternary_fails(self):
        m = parse("sig A { t : A -> A } fact { some ~t }")
        with pytest.raises(ArityError, match="binary"):
            check_arities(m)

    def test_membership_needs_equal_arities(self):
        m = parse("sig A { t : A -> A } fact { t in A }")
        with pytest.raises(ArityError, match="arity mismatch 3 vs 1"):
            check_arities(m)

    @pytest.mark.parametrize("text,where", [
        ("sig A {} fact { A.A in A }", "line 1, column 18"),
        ("sig A { r : A } fact { A + r in A }", "line 1, column 26"),
        ("sig A { r : A }\nfact {\nsome (r & A) }", "line 3, column 9"),
    ], ids=["join", "union", "intersection"])
    def test_binary_operator_errors_name_the_operator(self, text, where):
        with pytest.raises(ArityError, match=" at " + where):
            check_arities(desugar(parse(text)))

    def test_quantifier_ranges_must_be_sets(self):
        m = parse("sig A { r : A } fact { all x : r | some x }")
        with pytest.raises(ArityError, match="must be a set"):
            check_arities(m)


class TestPretty:
    def test_round_trip_on_the_running_example(self, university):
        assert parse(pretty(university)) == university

    def test_running_example_prints_as_recorded(self, university):
        with open(os.path.join(HERE, "data", "university.pretty.als")) as fh:
            assert pretty(university) == fh.read()

    def test_round_trip_survives_desugaring(self, university):
        d = desugar(university)
        assert parse(pretty(d)) == d

    def test_round_trip_on_assorted_shapes(self):
        sources = [
            "one sig A {} fact { some A <: (A :> A) }",
            "sig A { r : lone A } fact { lone r => some x : A | x in A }",
            "lone sig B {} sig A { r : B -> some B } "
            "fact { all x : A | ~(x.r) in (B -> B).~r }",
            "sig A { r : A, } assert { r in iden + (none -> none) }",
            # printed unlabelled, and one name per quantifier
            "sig A {} fact Named { some A }",
            "sig A { r : A } fact { some x, y : A | x -> y in r }",
        ]
        for src in sources:
            m = parse(src)
            again = parse(pretty(m))
            assert again == m, src
            assert pretty(again) == pretty(m)


class TestSymbolTable:
    def test_contents(self, university):
        st = symbol_table(university)
        assert st.tops() == ["Person", "Course", "University"]
        assert st.sig_children["Person"] == ("Student", "Professor")
        assert st.sig_abstract["Person"] and not st.sig_abstract["Course"]
        assert st.rel_cols["courses"] == ("University", "Student", "Course")
        assert st.rel_mults["lecturer"] == (None, "some")
        assert st.rel_mults["courses"] == (None, None, None)
        assert st.rel_arity["courses"] == 3

    def test_owner_is_the_first_column(self):
        st = symbol_table(parse("sig A { r : A -> A }"))
        assert st.rel_cols["r"] == ("A", "A", "A")
        assert st.rel_arity["r"] == 3
