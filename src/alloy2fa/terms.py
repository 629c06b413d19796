"""The three term languages.

Core Alloy expressions and formulas come out of the frontend, relational
logic (RL) is the intermediate quantified form, and FA terms are the
variable-free fork-algebra output.  Every node class derives from
`Node`, which gives every class one constructor, equality, hash, repr
and immutability, read off the field layout it records per class; a
class is a dataclass only for that layout.  FA terms and RL formulas
derive from `Interned`, which makes equality identity: they are
hash-consed, built once per field tuple.

Conventions that the whole pipeline relies on:

* An application ``u R v`` reads left to right: u is the output side,
  v the input side.  An n-ary relation is stored binarized as pairs
  (column 1, (column 2, (..., column n))) with the tail nested to the
  right in forward column order.
* Fork pairs on the output side: (a,b) (R nabla S) z  iff  a R z and b S z.
  The projections pi1/pi2 run component-to-pair: a pi1 (a,b) and b pi2 (a,b).
  Composing a selector chain after a relation therefore *picks* components:
  m (pi1 . pi2) (a,(b,c))  iff  m = b.
* Quantified variables are de Bruijn levels: 1 is the variable of the
  outermost quantifier on the path, counting every bound variable of
  every quantifier node (a node of width w binds w consecutive levels).
  Every other item is a marker: the wrapper `RMark` around a closed
  formula binds "x" and "y", closure lifting uses "cx" and "cy".
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Optional, Tuple, Union


class ArityError(Exception):
    """An expression violates the arity rules."""


# ---------------------------------------------------------------------------
# generic traversal, shared by every walk over every term language: every
# bottom-up walk is a `fold`; only top-down walks that carry context recurse

# Field annotations of a subterm, and of a tuple of subterms. Every other
# field is data: names, widths, markers, item tuples and source positions.
_CHILD = frozenset({"FAExpr", "RLFormula", "Optional[RLFormula]",
                    "AlloyExpr", "AlloyForm"})
_CHILDREN = frozenset({"Tuple[AlloyExpr, ...]"})


class Node:
    """Base of every term class, and the one place that defines a node's
    constructor, equality, hash, repr and immutability.

    A subclass is a dataclass only for its field layout (`dataclasses.
    fields` and `replace` work).  Node's methods read what
    `__init_subclass__` records: `_fields` in order; `_init`, the
    constructor's order (keyword-only last), `_npos`, `_kw_only` and
    `_defaults`; `_compare` and `_repr`, the fields equality and repr
    read, and `_data`, the compared ones that hold no subterm; `_slots`,
    (name, holds a tuple) per child slot; and `_kids`, the slots of one
    subterm, which the rewrite engine reads.  Equality, hash and repr
    walk by explicit stacks, so no term is too deep for them.
    """

    def __init_subclass__(cls):
        cls.__doc__ = cls.__doc__ or cls.__name__  # no inspect.signature
        fs = dataclasses.fields(dataclass(cls, init=False, repr=False,
                                          eq=False))
        init = sorted(fs, key=lambda f: f.kw_only)
        cls._fields = tuple(f.name for f in fs)
        cls._init = tuple(f.name for f in init)
        cls._kw_only = frozenset(f.name for f in fs if f.kw_only)
        cls._npos = len(fs) - len(cls._kw_only)
        cls._defaults = tuple(f.default for f in init)
        cls._compare = tuple(f.name for f in fs if f.compare)
        cls._repr = tuple(f.name for f in fs if f.repr)
        cls._slots = tuple(
            (f.name, f.type in _CHILDREN) for f in fs
            if f.type in _CHILD or f.type in _CHILDREN)
        cls._kids = tuple(name for name, many in cls._slots if not many)
        cls._data = tuple(n for n in cls._compare
                          if n not in dict(cls._slots))

    def __init__(self, *args, **kw):
        # a keyword-only field left out reads its default off the class;
        # object.__setattr__, not __dict__, keeps the values inline, where
        # attribute reads are fastest
        cls = type(self)
        if len(args) != cls._npos or not cls._kw_only.issuperset(kw):
            args, kw = _bind(cls, args, kw), {}
        for name, v in zip(cls._init, args):
            object.__setattr__(self, name, v)
        for name, v in kw.items():
            object.__setattr__(self, name, v)

    def __setattr__(self, name, *value):
        raise dataclasses.FrozenInstanceError("cannot change field %r"
                                              % name)

    __delattr__ = __setattr__

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        todo = [(self, other)]
        while todo:
            a, b = todo.pop()
            if a is b:
                continue
            if type(a) is type(b) and _structural(a):
                todo += [(getattr(a, n), getattr(b, n)) for n in a._compare]
            elif a != b:
                return False
        return True

    def __hash__(self):
        return fold(self, _hash, _structural)

    def __repr__(self):
        # a stack of text and nodes: any other field value is repr'd as
        # it is pushed, so a str on the stack is text
        out, todo = [], [self]
        while todo:
            x = todo.pop()
            if type(x) is str:
                out.append(x)
                continue
            parts = [type(x).__qualname__ + "("]
            for i, n in enumerate(x._repr):
                v = getattr(x, n)
                parts += [", " * (i > 0) + n + "=",
                          v if isinstance(v, Node) else repr(v)]
            todo += reversed(parts + [")"])
        return "".join(out)


def _bind(cls, args, kw):
    """The field values, in `_init` order, of cls(*args, **kw)."""
    n = len(args)
    rest = tuple(map(kw.pop, cls._init[n:], cls._defaults[n:]))
    if kw or n > cls._npos or any(v is dataclasses.MISSING for v in rest):
        raise TypeError("bad fields for %s" % cls.__name__)
    return args + rest


def _structural(x):
    """Whether x compares and hashes by its fields: a node not interned."""
    return isinstance(x, Node) and not isinstance(x, Interned)


def _hash(x, v):
    return hash(x) if isinstance(x, Interned) else hash(
        (*[getattr(x, n) for n in x._data], *v))


def children(t):
    """(slot name, subterm) pairs of a node, in field order.

    An absent optional subterm (a universal without range) is skipped,
    and a tuple slot yields each of its elements under the slot's name.
    """
    for name, many in type(t)._slots:
        v = getattr(t, name)
        if many:
            for x in v:
                yield name, x
        elif v is not None:
            yield name, v


def fold(t, node, enter=None):
    """The value of t, where the value of a node x is node(x, the values
    of x's children in `children` order).  Children come first, by an
    explicit stack that no depth overflows.  An interned node is folded
    once per call however often t shares it; a node of the other term
    languages once per occurrence.  A node that enter(x) refuses is a
    leaf: its value is node(x, [])."""
    memo, vals, todo = {}, [], [t]
    while todo:
        x = todo.pop()
        if type(x) is tuple:  # (node, child count): its children are done
            x, k = x
            k = len(vals) - k
            v = node(x, vals[k:])
            del vals[k:]
        elif isinstance(x, Interned) and x in memo:
            vals.append(memo[x])
            continue
        else:
            kids = []  # children(x), inlined on the hot path of every walk
            for name, many in x._slots if enter is None or enter(x) else ():
                c = getattr(x, name)
                if many:
                    kids += c
                elif c is not None:
                    kids.append(c)
            if kids:
                todo.append((x, len(kids)))
                todo += reversed(kids)
                continue
            v = node(x, kids)
        if isinstance(x, Interned):
            memo[x] = v
        vals.append(v)
    return vals[0]


def subterms(t) -> list:
    """Every node of a term, t included; an interned node once however
    often the term shares it."""
    out = []
    fold(t, lambda x, _: out.append(x))
    return out


def map_children(t, fn):
    """The node with fn applied to every subterm.

    Returns t itself when fn returns every subterm unchanged (by
    identity), so unchanged subtrees stay shared.
    """
    changes = {}
    for name, many in type(t)._slots:
        v = getattr(t, name)
        if many:
            w = tuple(fn(x) for x in v)
            if any(a is not b for a, b in zip(w, v)):
                changes[name] = w
        elif v is not None:
            w = fn(v)
            if w is not v:
                changes[name] = w
    return dataclasses.replace(t, **changes) if changes else t


def with_children(t, vals):
    """The node with its subterms replaced by vals, in `children` order
    (t itself if none changes)."""
    vals = iter(vals)
    return map_children(t, lambda _: next(vals))


def with_child(t, name, v):
    """The node with its field `name` set to v, rebuilt positionally (the
    rewrite engine's hot path): FA terms, RL formulas and facts only,
    whose classes take every field in order.  An interned node that
    exists is looked up directly; a new or non-interned one is built."""
    cls = type(t)
    key = (cls, *[v if f == name else getattr(t, f) for f in cls._fields])
    out = _INTERNED.get(key)
    return cls(*key[1:]) if out is None else out


# ---------------------------------------------------------------------------
# fork-algebra terms

# (class, *field values) -> the one term with those fields, for the life of
# the process (Filliatre & Conchon, "Type-Safe Modular Hash-Consing", 2006)
_INTERNED: dict = {}


class Interned(Node):
    """Base of the hash-consed term classes: equality and hash are
    identity, and the constructor returns the one term with its fields;
    `__post_init__` checks a new term first."""

    __init__, __eq__, __hash__ = object.__init__, object.__eq__, \
        object.__hash__

    def __new__(cls, *args, **kw):
        if kw or len(args) != cls._npos:  # no field is keyword-only
            args = _bind(cls, args, kw)
        t = _INTERNED.get((cls, *args))
        if t is None:
            t = object.__new__(cls)
            for name, v in zip(cls._init, args):
                object.__setattr__(t, name, v)
            if hasattr(t, "__post_init__"):
                t.__post_init__()
            _INTERNED[(cls, *args)] = t
        return t

    def __reduce__(self):
        # rebuild through the constructor, so a copy or an unpickled term
        # is interned again and is the one object with its fields
        return type(self), tuple(getattr(self, f) for f in self._init)


class FAExpr(Interned):
    """Base class for variable-free relation terms."""


class Rel(FAExpr):
    """Named relation constant of a declared arity; both are its identity."""

    name: str
    arity: int = 2


class Phi(FAExpr):
    """Coreflexive constant of a signature (sub-identity on its atoms)."""

    sig: str


class Top(FAExpr):
    """Universal relation over the carrier."""


class Bot(FAExpr):
    """Empty relation."""


class Id(FAExpr):
    """Identity relation."""


class Pi1(FAExpr):
    """First projection: relates a to the pair (a, b)."""


class Pi2(FAExpr):
    """Second projection: relates b to the pair (a, b)."""


class Join(FAExpr):
    l: FAExpr
    r: FAExpr


class Meet(FAExpr):
    l: FAExpr
    r: FAExpr


class Compl(FAExpr):
    e: FAExpr


class Conv(FAExpr):
    e: FAExpr


class Comp(FAExpr):
    """u (L . R) v  iff  exists m: u L m and m R v."""

    l: FAExpr
    r: FAExpr


class Fork(FAExpr):
    """(a,b) (L nabla R) z  iff  a L z and b R z."""

    l: FAExpr
    r: FAExpr


class Prod(FAExpr):
    """(a,b) (L x R) (c,d)  iff  a L c and b R d."""

    l: FAExpr
    r: FAExpr


class Ldiv(FAExpr):
    """u (L \\ R) v  iff  for all w: w L u implies w R v."""

    l: FAExpr
    r: FAExpr


class Star(FAExpr):
    """Reflexive-transitive closure."""

    e: FAExpr


class NComp(FAExpr):
    """Composition through the last column of an n-ary relation."""

    l: FAExpr
    r: FAExpr
    n: int


class Rot(FAExpr):
    """Right rotation of an n-ary relation (last column to the front)."""

    e: FAExpr
    n: int


class Var(FAExpr):
    """Pattern variable of an equation; it matches the terms of `kind`, or
    the data of a field: a width (int) or an item tuple (tuple)."""

    name: str
    kind: type = FAExpr

    def __str__(self):
        return "?" + self.name


TOP = Top()
BOT = Bot()
ID = Id()
PI1 = Pi1()
PI2 = Pi2()

_FA_LEAVES = (Rel, Phi, Top, Bot, Id, Pi1, Pi2)


def match(p, t, env: dict) -> bool:
    """Whether pattern p matches term t, binding p's variables in env (a
    repeated variable to equal values: one interned term, or equal ints or
    tuples).  The fields that equality ignores, a fact's label and width,
    match anything."""
    if type(p) is not type(t):
        return (type(p) is Var and isinstance(t, p.kind)
                and env.setdefault(p, t) == t)
    if not isinstance(p, Node):
        return p == t
    for name in p._compare:
        if not match(getattr(p, name), getattr(t, name), env):
            return False
    return True


def instantiate(p, env: dict):
    """Pattern p with its variables replaced by their bindings in env,
    rebuilt positionally like `with_child`."""
    if isinstance(p, Var):
        return env[p]
    if not isinstance(p, Node):
        return p
    return type(p)(*[instantiate(getattr(p, name), env)
                     for name in p._init])


def projX(n: int, i: int) -> FAExpr:
    """Selector taking a right-nested n-tuple input to its i-th component.

    Unfolds eagerly; unit factors collapse so that e.g. the (2,2) case is
    plain pi2 and the (3,2) case is pi1 . pi2.
    """
    if not 1 <= i <= n:
        raise ArityError("projX index %d out of range 1..%d" % (i, n))
    if n == 1:
        return ID
    if i == 1:
        return PI1
    rest = projX(n - 1, i - 1)
    return PI2 if rest == ID else Comp(rest, PI2)


def rotate(e: FAExpr, n: int) -> FAExpr:
    """Right rotation; on binary relations this is just the converse."""
    if n < 2:
        raise ArityError("rotate needs arity >= 2, got %d" % n)
    if n == 2:
        return e.e if isinstance(e, Conv) else Conv(e)
    return Rot(e, n)


def ncomp(l: FAExpr, r: FAExpr, n: int) -> FAExpr:
    """Compose r onto the last column of the n-ary l."""
    if n < 2:
        raise ArityError("ncomp needs arity >= 2, got %d" % n)
    if r == ID:
        return l
    if n == 2:
        return Comp(l, r)
    return NComp(l, r, n)


def cut(n: int) -> FAExpr:
    """Relates every n-tuple output to the (n-1)-tuple input it extends.

    Composing an application's relation with cut(n) discards the last
    (innermost-quantified) tuple component.
    """
    if n < 2:
        raise ArityError("cut needs tuple width >= 2, got %d" % n)
    if n == 2:
        return Fork(ID, TOP)
    return Prod(ID, cut(n - 1))


def unfold(e):
    """Expand rotation and n-ary composition into the base vocabulary, in
    a term or a fact."""
    return fold(e, _unfold)


def _unfold(e, v):
    if isinstance(e, NComp):
        out = v[1]
        for _ in range(e.n - 2):
            out = Prod(ID, out)
        return Comp(v[0], out)
    if isinstance(e, Rot):
        m = e.n - 1
        chain = projX(m, m - 1) if m >= 2 else ID
        for i in range(m - 2, 0, -1):
            chain = Fork(projX(m, i), chain)
        return Comp(projX(m, m), Conv(Fork(v[0], chain)))
    return with_children(e, v)


def fa_op_count(e: FAExpr) -> int:
    """Number of operator nodes (constants and named relations are free),
    a shared subterm once per occurrence."""
    return fold(e, lambda x, v: sum(v) + (not isinstance(x, _FA_LEAVES)))


# ---------------------------------------------------------------------------
# facts


class FAFact(Node):
    """Base class for the two emitted fact shapes."""


class FactEq(FAFact):
    lhs: FAExpr
    rhs: FAExpr
    label: str = field(default="", compare=False)
    width: int = field(default=0, compare=False)  # oracle tuple width hint


class FactLe(FAFact):
    lhs: FAExpr
    rhs: FAExpr
    label: str = field(default="", compare=False)
    width: int = field(default=0, compare=False)


# ---------------------------------------------------------------------------
# core Alloy expressions


Pos = Optional[tuple]


class AlloyNode(Node):
    """Base of core Alloy expressions and formulas: every node carries its
    source position (line, column), which equality and repr ignore."""

    pos: Pos = field(default=None, compare=False, repr=False, kw_only=True)


class AlloyExpr(AlloyNode):
    """Base class for core Alloy expressions."""


class ASig(AlloyExpr):
    name: str


class ARel(AlloyExpr):
    name: str


class AVar(AlloyExpr):
    name: str


class AIden(AlloyExpr):
    """The identity relation iden."""


class AUniv(AlloyExpr):
    """The universal set univ."""


class ANone(AlloyExpr):
    """The empty set none."""


class AConv(AlloyExpr):
    e: AlloyExpr


class AStar(AlloyExpr):
    e: AlloyExpr


class AJoin(AlloyExpr):
    l: AlloyExpr
    r: AlloyExpr


class AProd(AlloyExpr):
    l: AlloyExpr
    r: AlloyExpr


class AUnion(AlloyExpr):
    l: AlloyExpr
    r: AlloyExpr


class AInter(AlloyExpr):
    l: AlloyExpr
    r: AlloyExpr


class ADiff(AlloyExpr):
    l: AlloyExpr
    r: AlloyExpr


class ADomRes(AlloyExpr):
    """Domain restriction s <: e (s unary)."""

    l: AlloyExpr
    r: AlloyExpr


class ARanRes(AlloyExpr):
    """Range restriction e :> s (s unary)."""

    l: AlloyExpr
    r: AlloyExpr


def arity_of(e: AlloyExpr, rel_arity) -> int:
    """Arity of an expression, validating every operator along the way.

    rel_arity maps relation names to declared arities; variables and
    signature names count as unary.
    """
    if isinstance(e, (ASig, AVar, AUniv, ANone)):
        a = 1
    elif isinstance(e, AIden):
        a = 2
    elif isinstance(e, ARel):
        try:
            a = rel_arity[e.name]
        except KeyError:
            raise ArityError("unknown relation %r%s" % (e.name, at_pos(e)))
    elif isinstance(e, (AConv, AStar)):
        sub = arity_of(e.e, rel_arity)
        if sub != 2:
            op = "~" if isinstance(e, AConv) else "*"
            raise ArityError("%s needs a binary operand, got arity %d%s"
                             % (op, sub, at_pos(e)))
        a = 2
    elif isinstance(e, AJoin):
        la, ra = arity_of(e.l, rel_arity), arity_of(e.r, rel_arity)
        if la + ra < 3:
            raise ArityError("join of two unary expressions%s" % at_pos(e))
        a = la + ra - 2
    elif isinstance(e, AProd):
        a = arity_of(e.l, rel_arity) + arity_of(e.r, rel_arity)
    elif isinstance(e, (AUnion, AInter, ADiff)):
        la, ra = arity_of(e.l, rel_arity), arity_of(e.r, rel_arity)
        if la != ra:
            raise ArityError("arity mismatch %d vs %d%s" % (la, ra, at_pos(e)))
        a = la
    elif isinstance(e, ADomRes):
        la = arity_of(e.l, rel_arity)
        if la != 1:
            raise ArityError("<: needs a unary left operand%s" % at_pos(e))
        a = arity_of(e.r, rel_arity)
    elif isinstance(e, ARanRes):
        ra = arity_of(e.r, rel_arity)
        if ra != 1:
            raise ArityError(":> needs a unary right operand%s" % at_pos(e))
        a = arity_of(e.l, rel_arity)
    else:
        raise ArityError("cannot compute arity of %r" % (e,))
    return a


def at_pos(x) -> str:
    """Error-message suffix naming the source position of x, a parsed node
    or declaration, or "" when x has none."""
    p = getattr(x, "pos", None)
    return " at line %d, column %d" % p if p else ""


def _guarded(fn, x, error):
    """fn(x), or an error of class error at the first position the core
    Alloy term x holds when x is nested too deeply for fn (say, 1,000
    conjuncts)."""
    try:
        return fn(x)
    except RecursionError:
        first = min((t for t in subterms(x) if t.pos),
                    key=lambda t: t.pos, default=None)
        raise error("input nested too deeply%s" % at_pos(first)) from None


# ---------------------------------------------------------------------------
# core Alloy formulas


class AlloyForm(AlloyNode):
    """Base class for core Alloy formulas."""


class FIn(AlloyForm):
    l: AlloyExpr
    r: AlloyExpr


class FEq(AlloyForm):
    l: AlloyExpr
    r: AlloyExpr


class FSome(AlloyForm):
    e: AlloyExpr


class FLone(AlloyForm):
    e: AlloyExpr


class FNot(AlloyForm):
    f: AlloyForm


class FAnd(AlloyForm):
    l: AlloyForm
    r: AlloyForm


class FOr(AlloyForm):
    l: AlloyForm
    r: AlloyForm


class FImp(AlloyForm):
    l: AlloyForm
    r: AlloyForm


class FAll(AlloyForm):
    var: str
    bound: AlloyExpr
    body: AlloyForm


class FSomeQ(AlloyForm):
    var: str
    bound: AlloyExpr
    body: AlloyForm


class FPredCall(AlloyForm):
    name: str
    args: Tuple[AlloyExpr, ...]


CORE_FORMS = (FIn, FSome, FNot, FAnd, FAll)


def is_core(f: AlloyForm) -> bool:
    """Scanner for the shape the expansion step accepts."""
    return fold(f, lambda x, v: all(v) and isinstance(
        x, (CORE_FORMS, AlloyExpr)))


# ---------------------------------------------------------------------------
# relational-logic formulas

MARK_X = "x"
MARK_Y = "y"
MARK_CX = "cx"
MARK_CY = "cy"

Item = Union[int, str]


class RLFormula(Interned):
    """Base class for relational-logic formulas."""


class RTrue(RLFormula):
    pass


class RFalse(RLFormula):
    pass


class RNot(RLFormula):
    f: RLFormula


class RAnd(RLFormula):
    l: RLFormula
    r: RLFormula


class ROr(RLFormula):
    l: RLFormula
    r: RLFormula


class RImp(RLFormula):
    l: RLFormula
    r: RLFormula


class RAll(RLFormula):
    """Universal quantifier binding `width` consecutive levels; the body
    must hold wherever the optional range does."""

    width: int
    rng: Optional[RLFormula]
    body: RLFormula


class REx(RLFormula):
    """Existential quantifier binding `width` consecutive levels."""

    width: int
    body: RLFormula


class RMark(RLFormula):
    """Universal wrapper binding the marker pair x/y and no levels.

    Variable elimination works under it and reads the fact off it.
    """

    body: RLFormula


class RApp(RLFormula):
    """Tuple application: lhs R rhs, sides are non-empty item tuples."""

    lhs: tuple
    rel: FAExpr
    rhs: tuple

    def __post_init__(self):
        if not self.lhs or not self.rhs:
            raise ValueError("application sides must be non-empty tuples")


RTRUE = RTrue()
RFALSE = RFalse()


def _unbind_item(it: Item, lvl: int, repl: Item) -> Item:
    if isinstance(it, int):
        if it == lvl:
            return repl
        if it > lvl:
            return it - 1
    return it


def unbind(f: RLFormula, lvl: int, repl: Item) -> RLFormula:
    """Substitute repl for level lvl and renumber the deeper levels down.

    Used by the rules that discharge one bound variable; repl must itself
    be an item in scope above lvl, and a level at or below lvl is a
    ValueError.  The fold stops at applications, whose relations hold no
    item.
    """
    if isinstance(repl, int) and repl >= lvl:
        raise ValueError("level %d cannot replace level %d" % (repl, lvl))

    def node(x, v):
        if isinstance(x, RApp):
            return RApp(tuple(_unbind_item(i, lvl, repl) for i in x.lhs),
                        x.rel,
                        tuple(_unbind_item(i, lvl, repl) for i in x.rhs))
        return with_children(x, v)

    return fold(f, node, lambda x: not isinstance(x, RApp))


# ---------------------------------------------------------------------------
# rendering, one node at a time for every term language


def fa_text(x) -> str:
    """Compact one-line rendering of an FA term, fully parenthesized at
    compound nodes, of an RL formula in angle brackets, or of a fact.  A
    pattern variable is its name after a `?`, so no relation reads like
    it."""
    return fold(x, _text)


_WORDS = {Top: "TOP", Bot: "BOT", Id: "id", Pi1: "pi1", Pi2: "pi2",
          RTrue: "true", RFalse: "false"}
_INFIX = {Join: " + ", Meet: " & ", Comp: " . ", Fork: " nabla ",
          Prod: " x ", Ldiv: " \\ ", RAnd: " && ", ROr: " || ",
          RImp: " => "}


def _text(x, v):
    """The rendering of one node from the renderings v of its children."""
    cls = type(x)
    if cls in _WORDS:
        return _WORDS[cls]
    if cls in _INFIX:
        op = _INFIX[cls]
        if issubclass(cls, FAExpr):
            return "(%s%s%s)" % (v[0], op, v[1])
        return _tight(x.l, v[0]) + op + _tight(x.r, v[1])
    if cls is Rel:
        return x.name
    if cls is Phi:
        return "Phi_" + x.sig
    if cls is Var:
        return str(x)
    if cls in (Compl, Conv, Star):
        s = _tight(x.e, v[0])
        return "-" + s if cls is Compl else s + ("~" if cls is Conv else "*")
    if cls is NComp:
        return "(%s .%d %s)" % (v[0], x.n, v[1])
    if cls is Rot:
        return "rot%d(%s)" % (x.n, v[0])
    if cls is RNot:
        return "!" + _tight(x.f, v[0])
    if cls is RAll:
        rng = " " + v[0] if len(v) == 2 else ""  # a range comes first
        return "<A%s :%s: %s>" % (x.width, rng, v[-1])
    if cls is REx:
        return "<E%s :: %s>" % (x.width, v[0])
    if cls is RMark:
        return "<Axy :: %s>" % v[0]
    if cls is RApp:
        return "%s %s %s" % (_side_text(x.lhs), _tight(x.rel, v[0]),
                             _side_text(x.rhs))
    if cls in (FactEq, FactLe):
        return v[0] + (" = " if cls is FactEq else " in ") + v[1]
    raise TypeError("cannot render %r" % (x,))


_ATOMS = _FA_LEAVES + (Var, RTrue, RFalse, RApp, RAll, REx, RMark, RNot)


def _tight(e, s: str) -> str:
    """s, the rendering of e, parenthesized unless e is a leaf, a binder
    or a negation, or an FA term that s parenthesizes already."""
    if isinstance(e, _ATOMS) or isinstance(e, FAExpr) and s.startswith("("):
        return s
    return "(" + s + ")"


def _side_text(side) -> str:
    if type(side) is not tuple:  # a pattern variable
        return str(side)
    if len(side) == 1:
        return str(side[0])
    return "(%s)" % ",".join(str(i) for i in side)


rl_text = fact_text = fa_text
