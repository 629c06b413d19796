"""Parser, desugarer and symbol table for the accepted Alloy subset.

The surface syntax is a small cut of Alloy 4: signature declarations
with extension, multiplicities and fields, facts, predicates, asserts
(optionally parametric), and formulas built from membership, equality,
the boolean connectives, quantifiers and the counting forms `some` and
`lone`. Transitive closure `^e` is rejected up front; only the
reflexive-transitive `*e` is in the fragment.

`lex` matches one compiled pattern, `_TOKEN`, whose alternatives are
tried in order: skipped text (blanks, `//` and `--` line comments,
closed `/* */` comments), an unclosed `/*`, a name, an operator (the
two-character ones first), and any other character, which is an error.
Lines and columns come from the match offsets.

Binary operators by level, loosest first, on one ladder (the table
OPS); each groups to the left except `=>`, which nests right:

    formulas      ||  or  |  =>  |  &&  and
    comparisons   in  =
    expressions   +  -  |  &  |  ->  |  <:  :>  |  .

The connectives join formulas; every other operator joins expressions,
and a comparison turns two into a formula. One pass climbs the ladder,
so a parenthesis holds either kind, and each node checks the kind of
its operands as it is built. `!`/`not` takes a comparison or anything
tighter, a quantifier body extends as far right as it can, and `~`/`*`
bind tighter than `.`.

`parse` produces a resolved AlloyModel whose formulas use the node
types from terms. `desugar` inlines predicate calls, closes parametric
asserts and rewrites every convenience form down to the core
(membership, counting some, negation, conjunction, ranged all), which
is what the translation pipeline consumes.

Name resolution, `free_vars` and the pretty printer fold by the
explicit stack of `terms.fold`, so no depth overflows them. The parser
and desugaring recurse once or more per operator, and the arity check
once per expression operator. On a chain too long for the interpreter
stack the parser fails at the token it stopped on, and `_guarded` makes
desugaring and the arity check fail at the first position the input
holds.
"""

import dataclasses
import re
from dataclasses import dataclass, field
from functools import reduce
from typing import Optional

from .terms import (
    AConv, ADiff, ADomRes, AIden, AInter, AJoin, ANone, AProd, ARanRes,
    ARel, ASig, AStar, AUnion, AUniv, AVar, AlloyExpr, AlloyForm,
    ArityError, FAll, FAnd, FEq, FImp, FIn, FLone, FNot, FOr, FPredCall,
    FSome, FSomeQ, _guarded, arity_of, at_pos, fold, map_children,
    with_children,
)


class ParseError(Exception):
    """Lexical, syntactic or name-resolution failure, with position."""


class DesugarError(Exception):
    """A construct the reduction to the core cannot handle."""


# ---------------------------------------------------------------------------
# lexer

KEYWORDS = {
    "abstract", "sig", "extends", "fact", "assert", "pred",
    "all", "some", "lone", "one", "set", "in",
    "iden", "none", "univ", "and", "or", "not",
}

_TOKEN = re.compile(r"""
    (?P<skip> [ \t\r\n]+ | //[^\n]* | --[^\n]* | /\*.*?\*/ )
  | (?P<open> /\* )
  | (?P<id>   [A-Za-z][A-Za-z0-9_']* )
  | (?P<op>   -> | => | && | \|\| | <: | :> | [{}()\[\],:|!~*^.&+\-=] )
  | (?P<bad>  . )
""", re.VERBOSE | re.DOTALL)


@dataclass(frozen=True)
class Tok:
    kind: str  # "id", "kw", "op", "eof"
    text: str
    line: int
    col: int


def lex(text: str):
    toks, line, bol = [], 1, 0  # bol: the offset the current line begins at
    for m in _TOKEN.finditer(text):
        kind, word, col = m.lastgroup, m.group(), m.start() - bol + 1
        if kind == "skip":
            if "\n" in word:
                line += word.count("\n")
                bol = m.start() + word.rindex("\n") + 1
        elif kind == "open":
            raise ParseError("lexical error: unterminated comment at line "
                             "%d, column %d" % (line, col))
        elif kind == "bad":
            raise ParseError("lexical error: unexpected character %r at "
                             "line %d, column %d" % (word, line, col))
        else:
            toks.append(Tok("kw" if word in KEYWORDS else kind,
                            word, line, col))
    toks.append(Tok("eof", "", line, len(text) - bol + 1))
    return toks


# ---------------------------------------------------------------------------
# model declarations

MULTS = ("some", "one", "lone", "set")


@dataclass(frozen=True)
class SigDecl:
    name: str
    abstract: bool = False
    parent: Optional[str] = None
    mult: Optional[str] = None
    pos: Optional[tuple] = field(default=None, compare=False)


@dataclass(frozen=True)
class FieldDecl:
    owner: str
    name: str
    cols: tuple  # declared column signature names, owner excluded
    col_mults: tuple  # per declared column, None means unconstrained
    pos: Optional[tuple] = field(default=None, compare=False)

    @property
    def arity(self) -> int:
        return 1 + len(self.cols)


@dataclass(frozen=True)
class PredDecl:
    name: str
    params: tuple  # (name, range expression) pairs
    body: AlloyForm
    pos: Optional[tuple] = field(default=None, compare=False)


@dataclass(frozen=True)
class Assertion:
    name: str
    params: tuple  # as in PredDecl; closed over by desugar
    form: AlloyForm
    pos: Optional[tuple] = field(default=None, compare=False)


@dataclass(frozen=True)
class AlloyModel:
    sigs: tuple
    fields: tuple
    facts: tuple
    preds: tuple
    asserts: tuple

    def sig_names(self):
        return [s.name for s in self.sigs]

    def pred(self, name: str) -> Optional[PredDecl]:
        for p in self.preds:
            if p.name == name:
                return p
        return None

    def rel_arity(self):
        return {f.name: f.arity for f in self.fields}


# ---------------------------------------------------------------------------
# parser

# operator -> (level, node class); a higher level binds tighter, and the
# pretty printer spells each class as its first operator here
OPS = {"||": (0, FOr), "or": (0, FOr), "=>": (1, FImp),
       "&&": (2, FAnd), "and": (2, FAnd), "in": (3, FIn), "=": (3, FEq),
       "+": (4, AUnion), "-": (4, ADiff), "&": (5, AInter), "->": (6, AProd),
       "<:": (7, ADomRes), ":>": (7, ARanRes), ".": (8, AJoin)}
_COMPARISON = OPS["in"][0]  # looser levels join formulas, tighter join sets
# keyword -> constant expression, which the printer spells as the keyword
_CONSTANTS = {"iden": AIden, "none": ANone, "univ": AUniv}
_SPELLING = {**{node: op for op, (_, node) in reversed(OPS.items())},
             **{node: word for word, node in _CONSTANTS.items()}}


class _Parser:
    def __init__(self, toks):
        self.toks = toks
        self.i = 0
        self.scopes = []  # lexically bound variable names

    # -- token plumbing

    def peek(self, ahead=0) -> Tok:
        return self.toks[min(self.i + ahead, len(self.toks) - 1)]

    def at(self, text: str) -> bool:
        t = self.peek()
        return t.kind in ("op", "kw") and t.text == text

    def eat(self, text: str) -> bool:
        if self.at(text):
            self.i += 1
            return True
        return False

    def expect(self, text: str) -> Tok:
        if not self.at(text):
            self.fail("expected %r" % text)
        t = self.peek()
        self.i += 1
        return t

    def ident(self, what="identifier") -> Tok:
        t = self.peek()
        if t.kind != "id":
            self.fail("expected %s" % what)
        self.i += 1
        return t

    def names(self, what: str) -> list:
        """A comma list of one or more identifiers, each a `what`."""
        out = [self.ident(what)]
        while self.eat(","):
            out.append(self.ident(what))
        return out

    def fail(self, msg: str):
        t = self.peek()
        got = t.text if t.kind != "eof" else "end of input"
        raise ParseError("syntax error: %s, got %r at line %d, column %d"
                         % (msg, got, t.line, t.col))

    def _pos(self, t: Tok) -> tuple:
        return (t.line, t.col)

    def want(self, kind, x):
        """x, if it is of kind (AlloyForm or AlloyExpr); otherwise a
        ParseError at the token after a stray expression, or at the
        position of a stray formula."""
        if isinstance(x, kind):
            return x
        if kind is AlloyForm:
            self.fail("expected 'in' or '=' after an expression")
        raise ParseError("syntax error: expected an expression, got a "
                         "formula%s" % at_pos(x))

    # -- paragraphs

    def model(self) -> AlloyModel:
        sigs, fields, facts, preds, asserts = [], [], [], [], []
        while self.peek().kind != "eof":
            t = self.peek()
            if t.text == "fact":
                facts.append(self.fact())
            elif t.text == "assert":
                asserts.append(self.assertion(len(asserts)))
            elif t.text == "pred":
                preds.append(self.pred())
            elif t.text in ("sig", "abstract") or t.text in MULTS:
                s, f = self.sig()
                sigs.extend(s)
                fields.extend(f)
            else:
                self.fail("expected a paragraph (sig, fact, pred, assert)")
        return AlloyModel(tuple(sigs), tuple(fields), tuple(facts),
                          tuple(preds), tuple(asserts))

    def sig(self):
        t = self.peek()
        mult = t.text if t.kind == "kw" and t.text in MULTS else None
        if mult:
            self.i += 1
        abstract = self.eat("abstract")
        self.expect("sig")
        names = self.names("signature name")
        parent = None
        if self.eat("extends"):
            parent = self.ident("parent signature name").text
        self.expect("{")
        fields = []
        first = True
        while not self.at("}"):
            if not first:
                self.expect(",")
                if self.at("}"):  # tolerate a trailing comma
                    break
            first = False
            fields.extend(self.field_decl(names))
        self.expect("}")
        sigs = [SigDecl(n.text, abstract, parent, mult, self._pos(n))
                for n in names]
        return sigs, fields

    def field_decl(self, owners):
        names = self.names("field name")
        self.expect(":")
        cols, mults = [], []
        while True:
            m = None
            if self.peek().kind == "kw" and self.peek().text in MULTS:
                m = self.peek().text
                self.i += 1
            col = self.ident("column signature name")
            cols.append(col.text)
            mults.append(m)
            if not self.eat("->"):
                break
        out = []
        for owner in owners:
            for n in names:
                out.append(FieldDecl(owner.text, n.text, tuple(cols),
                                     tuple(mults), self._pos(n)))
        return out

    def fact(self) -> AlloyForm:
        self.expect("fact")
        if self.peek().kind == "id":  # optional label, not used further
            self.i += 1
        return self.block()

    def assertion(self, index: int) -> Assertion:
        t = self.expect("assert")
        name = "assert%d" % index
        if self.peek().kind == "id":
            name = self.ident().text
        params = ()
        if self.at("["):
            params = self.param_list()
        self.scopes.append({p for p, _ in params})
        form = self.block()
        self.scopes.pop()
        return Assertion(name, params, form, self._pos(t))

    def pred(self) -> PredDecl:
        self.expect("pred")
        name = self.ident("predicate name")
        params = self.param_list() if self.at("[") else ()
        self.scopes.append({p for p, _ in params})
        body = self.block()
        self.scopes.pop()
        return PredDecl(name.text, params, body, self._pos(name))

    def param_list(self) -> tuple:
        self.expect("[")
        params = []
        while not self.at("]"):
            if params:
                self.expect(",")
            names = self.names("parameter name")
            self.expect(":")
            rng = self.expr()
            params.extend((n.text, rng) for n in names)
        self.expect("]")
        return tuple(params)

    def block(self) -> AlloyForm:
        """Braced formula list; several formulas conjoin implicitly."""
        self.expect("{")
        forms = []
        while not self.at("}"):
            forms.append((self.peek(), self.form()))
        self.expect("}")
        if not forms:
            self.fail("empty block")
        out = forms[-1][1]
        for t, f in reversed(forms[:-1]):
            out = FAnd(f, out, pos=self._pos(t))
        return out

    # -- operators, by precedence climbing over OPS

    def binary(self, floor: int = 0):
        """The longest operand-operator chain whose operators bind at level
        floor or tighter, grouped by the table: a formula or an expression.
        Every node is positioned at its operator, and its operands are
        checked for kind as it is built."""
        e = self.unary()
        while True:
            t = self.peek()
            level, node = OPS.get(t.text, (-1, None))
            if level < floor:
                return e
            kind = AlloyForm if level < _COMPARISON else AlloyExpr
            self.want(kind, e)
            self.i += 1
            # `=>` nests to the right: its right operand may hold another
            right = self.binary(level if node is FImp else level + 1)
            e = node(e, self.want(kind, right), pos=self._pos(t))

    def form(self, floor: int = 0) -> AlloyForm:
        return self.want(AlloyForm, self.binary(floor))

    def expr(self) -> AlloyExpr:
        return self.want(AlloyExpr, self.binary(_COMPARISON + 1))

    # -- operands

    def unary(self):
        """A prefix operator and its operand, or a primary."""
        t = self.peek()
        if self.eat("!") or self.eat("not"):
            return FNot(self.form(_COMPARISON), pos=self._pos(t))
        if self.at("all") or self.at("some") and self._quantifier_ahead():
            return self.quantified(t.text)
        if self.eat("some") or self.eat("lone"):
            node = FSome if t.text == "some" else FLone
            return node(self.expr(), pos=self._pos(t))
        if self.eat("~") or self.eat("*"):
            node = AConv if t.text == "~" else AStar
            return node(self.want(AlloyExpr, self.unary()),
                        pos=self._pos(t))
        if self.at("^"):
            self.fail("transitive closure '^' is outside the fragment; "
                      "use reflexive-transitive '*'")
        return self.prim_expr()

    def _quantifier_ahead(self) -> bool:
        # distinguish `some x : T | F` from the counting form `some Exp`
        # (only an operator token can read "," or ":")
        j = self.i + 1
        while self.toks[j].kind == "id" and self.toks[j + 1].text == ",":
            j += 2
        return self.toks[j].kind == "id" and self.toks[j + 1].text == ":"

    def quantified(self, kw: str) -> AlloyForm:
        self.expect(kw)
        groups = []
        while True:
            names = self.names("variable name")
            self.expect(":")
            rng = self.expr()
            groups.append((names, rng))
            if not self.eat(","):
                break
        self.expect("|")
        bound = [n.text for names, _ in groups for n in names]
        self.scopes.append(set(bound))
        body = self.form()
        self.scopes.pop()
        ctor = FAll if kw == "all" else FSomeQ
        for names, rng in reversed(groups):
            for n in reversed(names):
                body = ctor(n.text, rng, body, pos=self._pos(n))
        return body

    def pred_call(self) -> AlloyForm:
        name = self.ident("predicate name")
        self.expect("[")
        args = []
        while not self.at("]"):
            if args:
                self.expect(",")
            args.append(self.expr())
        self.expect("]")
        return FPredCall(name.text, tuple(args), pos=self._pos(name))

    def prim_expr(self):
        """A name, a constant, a predicate call, or what a parenthesis
        holds: a formula or an expression."""
        t = self.peek()
        if self.eat("("):
            x = self.binary()
            self.expect(")")
            return x
        if t.kind == "id" and self.peek(1).text == "[":
            return self.pred_call()
        if t.kind == "kw" and t.text in _CONSTANTS:
            self.i += 1
            return _CONSTANTS[t.text](pos=self._pos(t))
        if t.kind == "id":
            self.i += 1
            if any(t.text in s for s in self.scopes):
                return AVar(t.text, pos=self._pos(t))
            return ARel(t.text, pos=self._pos(t))
        self.fail("expected an expression")


def parse(text: str) -> AlloyModel:
    """Parse and name-resolve a model; raises ParseError with position."""
    p = _Parser(lex(text))
    try:
        model = p.model()
    except RecursionError:
        p.fail("input nested too deeply")
    return _resolve(model)


# ---------------------------------------------------------------------------
# name resolution

def _resolve(model: AlloyModel) -> AlloyModel:
    """Rewrite identifiers naming a signature into sig nodes and reject
    identifiers that name nothing; returns the rebuilt model."""
    signames = set(model.sig_names())
    if len(signames) < len(model.sigs):
        dup = [s for s in model.sigs
               if model.sig_names().count(s.name) > 1][0]
        raise ParseError("duplicate signature %r%s"
                         % (dup.name, at_pos(dup)))
    fieldnames = {f.name for f in model.fields}
    for s in model.sigs:
        if s.parent is not None and s.parent not in signames:
            raise ParseError("unknown parent signature %r%s"
                             % (s.parent, at_pos(s)))
    for f in model.fields:
        for c in f.cols:
            if c not in signames:
                raise ParseError("unknown column signature %r in field "
                                 "%r%s" % (c, f.name, at_pos(f)))
    _check_forest(model)

    def fix(x, v):
        if isinstance(x, ARel):
            if x.name in signames:
                return ASig(x.name, pos=x.pos)
            if x.name not in fieldnames:
                raise ParseError("unknown identifier %r%s"
                                 % (x.name, at_pos(x)))
        return with_children(x, v)

    return dataclasses.replace(
        model,
        facts=tuple(fold(f, fix) for f in model.facts),
        preds=tuple(
            dataclasses.replace(p, params=tuple(
                (n, fold(r, fix)) for n, r in p.params),
                body=fold(p.body, fix)) for p in model.preds),
        asserts=tuple(
            dataclasses.replace(a, params=tuple(
                (n, fold(r, fix)) for n, r in a.params),
                form=fold(a.form, fix)) for a in model.asserts))


def _check_forest(model: AlloyModel):
    decl = {s.name: s for s in model.sigs}
    for start in decl:
        seen, cur = {start}, decl[start]
        while cur.parent is not None:
            if cur.parent in seen:  # cur's declaration closes the cycle
                raise ParseError(
                    "signature hierarchy contains a cycle through %r%s"
                    % (start, at_pos(cur)))
            seen.add(cur.parent)
            cur = decl[cur.parent]


# ---------------------------------------------------------------------------
# pretty printer

def pretty(model: AlloyModel) -> str:
    """Concrete syntax that reparses to an equal model."""
    out = []
    by_owner = {}
    for f in model.fields:
        by_owner.setdefault(f.owner, []).append(f)
    for s in model.sigs:
        head = ""
        if s.mult:
            head += s.mult + " "
        if s.abstract:
            head += "abstract "
        head += "sig " + s.name
        if s.parent:
            head += " extends " + s.parent
        fields = by_owner.get(s.name, [])
        if not fields:
            out.append(head + " {}")
            continue
        lines = []
        for f in fields:
            cols = " -> ".join(
                (m + " " if m else "") + c
                for c, m in zip(f.cols, f.col_mults))
            lines.append("  %s : %s" % (f.name, cols))
        out.append(head + " {\n" + ",\n".join(lines) + "\n}")
    for f in model.facts:
        out.append("fact { %s }" % pp_form(f))
    for p in model.preds:
        out.append("pred %s%s { %s }"
                   % (p.name, _pp_params(p.params), pp_form(p.body)))
    for a in model.asserts:
        out.append("assert %s%s { %s }"
                   % (a.name, _pp_params(a.params), pp_form(a.form)))
    return "\n".join(out) + "\n"


def _pp_params(params) -> str:
    if not params:
        return ""
    return "[" + ", ".join("%s : %s" % (n, pp_expr(r))
                           for n, r in params) + "]"


def pp_form(x) -> str:
    """Concrete syntax of a formula or an expression."""
    return fold(x, _pp)


def _pp(x, v):
    """The concrete syntax of one node from that of its children, v."""
    cls = type(x)
    if cls in (FIn, FEq):
        return "%s %s %s" % (v[0], _SPELLING[cls], v[1])
    if cls in (FAnd, FOr, FImp):
        return "(%s) %s (%s)" % (v[0], _SPELLING[cls], v[1])
    if cls in (FSome, FLone):
        return "%s %s" % ("some" if cls is FSome else "lone", v[0])
    if cls is FNot:
        return "!(%s)" % v[0]
    if cls in (FAll, FSomeQ):
        kw = "all" if cls is FAll else "some"
        return "%s %s : %s | %s" % (kw, x.var, v[0], v[1])
    if cls is FPredCall:
        return "%s[%s]" % (x.name, ", ".join(v))
    if cls in (ASig, ARel, AVar):
        return x.name
    if cls in (AIden, ANone, AUniv):
        return _SPELLING[cls]
    if cls in (AConv, AStar):
        t = v[0]
        if not (t.startswith("(") or t.isalnum() or "'" in t):
            t = "(" + t + ")"
        return ("~" if cls is AConv else "*") + t
    return "(%s %s %s)" % (v[0], _SPELLING[cls], v[1])


pp_expr = pp_form


# ---------------------------------------------------------------------------
# desugaring

def free_vars(x) -> set:
    """Names of the variables free in a formula or an expression."""
    return fold(x, _free_vars)


def _free_vars(x, v):
    if isinstance(x, AVar):
        return {x.name}
    if isinstance(x, (FAll, FSomeQ)):  # v: the bound's names, the body's
        return v[0] | (v[1] - {x.var})
    return set().union(*v)


def subst(x, env: dict, fresh=None):
    """Capture-avoiding substitution of expressions for free variables in
    a formula or an expression."""
    if fresh is None:
        fresh = _FreshNames(free_vars(x) | {n for v in env.values()
                                            for n in free_vars(v)})
    if isinstance(x, AVar):
        return env.get(x.name, x)
    if isinstance(x, (FAll, FSomeQ)):
        env = {k: v for k, v in env.items() if k != x.var}
        bound = subst(x.bound, env, fresh)
        var, body = x.var, x.body
        if any(var in free_vars(v) for v in env.values()):
            var = fresh.like(x.var)
            body = subst(body, {x.var: AVar(var)}, fresh)
        return dataclasses.replace(x, var=var, bound=bound,
                                   body=subst(body, env, fresh))
    return map_children(x, lambda c: subst(c, env, fresh))


class _FreshNames:
    def __init__(self, used):
        self.used = set(used)

    def like(self, base: str) -> str:
        cand = base + "'"
        while cand in self.used:
            cand += "'"
        self.used.add(cand)
        return cand

    def numbered(self, base: str) -> str:
        k = 1
        while "%s%d" % (base, k) in self.used:
            k += 1
        name = "%s%d" % (base, k)
        self.used.add(name)
        return name


def _inline_calls(f: AlloyForm, model: AlloyModel, stack: tuple) -> AlloyForm:
    if isinstance(f, FPredCall):
        p = model.pred(f.name)
        if p is None:
            raise DesugarError("call to undeclared predicate %r%s"
                               % (f.name, at_pos(f)))
        if f.name in stack:
            raise DesugarError("recursive predicate %r is not supported%s"
                               % (f.name, at_pos(f)))
        if len(f.args) != len(p.params):
            raise DesugarError(
                "predicate %r takes %d parameters, got %d%s"
                % (f.name, len(p.params), len(f.args), at_pos(f)))
        body = _inline_calls(p.body, model, stack + (f.name,))
        return subst(body, {n: a for (n, _), a in zip(p.params, f.args)})
    return map_children(f, lambda c: _inline_calls(c, model, stack)
                        if isinstance(c, AlloyForm) else c)


def _to_core(f: AlloyForm, arities: dict) -> AlloyForm:
    """Rewrite the sugared connectives away, innermost first."""
    f = map_children(f, lambda c: _to_core(c, arities)
                     if isinstance(c, AlloyForm) else c)
    if isinstance(f, FEq):
        return FAnd(FIn(f.l, f.r), FIn(f.r, f.l))
    if isinstance(f, FImp):
        return FNot(FAnd(f.l, FNot(f.r)))
    if isinstance(f, FOr):
        return FNot(FAnd(FNot(f.l), FNot(f.r)))
    if isinstance(f, FSomeQ):
        return FNot(FAll(f.var, f.bound, FNot(f.body)))
    if isinstance(f, FLone):
        return _to_core(_expand_lone(f, arities), arities)
    if isinstance(f, FPredCall):
        raise DesugarError("predicate call %r survived inlining" % f.name)
    return f


def _expand_lone(f: FLone, arities: dict) -> AlloyForm:
    """At most one tuple: any two member tuples agree componentwise."""
    n = arity_of(f.e, arities)
    fresh = _FreshNames(free_vars(f.e))
    xs = [fresh.numbered("lx") for _ in range(n)]
    ys = [fresh.numbered("ly") for _ in range(n)]
    tx, ty = (reduce(AProd, map(AVar, names)) for names in (xs, ys))
    eqs = FEq(AVar(xs[-1]), AVar(ys[-1]))
    for x, y in zip(reversed(xs[:-1]), reversed(ys[:-1])):
        eqs = FAnd(FEq(AVar(x), AVar(y)), eqs)
    out = FImp(FAnd(FIn(tx, f.e), FIn(ty, f.e)), eqs)
    for v in reversed(xs + ys):
        out = FAll(v, AUniv(), out)
    return out


def desugar(model: AlloyModel) -> AlloyModel:
    """Inline predicates, close asserts, reduce every formula to the core."""
    arities = model.rel_arity()

    def core(f: AlloyForm, params=()) -> AlloyForm:
        f = _inline_calls(f, model, ())
        for name, rng in reversed(params):
            f = FAll(name, rng, f)
        return _to_core(f, arities)

    facts = tuple(_guarded(core, f, DesugarError) for f in model.facts)
    asserts = tuple(dataclasses.replace(a, params=(), form=_guarded(
        lambda f: core(f, a.params), a.form, DesugarError))
        for a in model.asserts)
    return AlloyModel(model.sigs, model.fields, facts, model.preds, asserts)


def check_arities(model: AlloyModel) -> AlloyModel:
    """Validate the arity of every expression; quantifier ranges must be
    unary. Returns the model unchanged, or raises ArityError with source
    positions on conflicts."""
    arities = model.rel_arity()

    def check(f, _):
        if isinstance(f, (FIn, FEq)):
            la, ra = arity_of(f.l, arities), arity_of(f.r, arities)
            if la != ra:
                raise ArityError(
                    "arity mismatch %d vs %d%s"
                    % (la, ra, at_pos(f.l)))
        elif isinstance(f, (FSome, FLone)):
            arity_of(f.e, arities)
        elif isinstance(f, (FAll, FSomeQ)):
            if arity_of(f.bound, arities) != 1:
                raise ArityError(
                    "quantifier range must be a set%s"
                    % at_pos(f.bound))
        elif isinstance(f, FPredCall):
            raise ArityError("cannot type an uninlined predicate call %r%s"
                             % (f.name, at_pos(f)))

    def walk(f):  # into formulas only: check reads each expression whole
        return fold(f, check, lambda x: isinstance(x, AlloyForm))

    for f in list(model.facts) + [a.form for a in model.asserts]:
        _guarded(walk, f, ArityError)
    return model


# ---------------------------------------------------------------------------
# symbol table

@dataclass(frozen=True)
class SymbolTable:
    rel_arity: dict  # field name -> 1 + column count
    rel_cols: dict  # field name -> column signature names, owner first
    rel_mults: dict  # field name -> per-column multiplicity or None
    sig_parent: dict
    sig_children: dict  # name -> tuple of direct extensions
    sig_abstract: dict
    sig_mult: dict

    def tops(self):
        return [s for s, p in self.sig_parent.items() if p is None]


def symbol_table(model: AlloyModel) -> SymbolTable:
    children = {s.name: [] for s in model.sigs}
    for s in model.sigs:
        if s.parent is not None:
            children[s.parent].append(s.name)
    return SymbolTable(
        rel_arity=model.rel_arity(),
        rel_cols={f.name: (f.owner,) + f.cols for f in model.fields},
        rel_mults={f.name: (None,) + f.col_mults for f in model.fields},
        sig_parent={s.name: s.parent for s in model.sigs},
        sig_children={k: tuple(v) for k, v in children.items()},
        sig_abstract={s.name: s.abstract for s in model.sigs},
        sig_mult={s.name: s.mult for s in model.sigs},
    )
