"""Finite-model semantics for the three term languages, plus the checker.

A translation is certified by comparing the truth of its source formula
against the truth of the produced fact over every finite model up to a
size bound (or over a seeded sample when the extent count explodes).
Renaming the atoms of a model keeps both truths, so the exhaustive check
evaluates one model per orbit of the atom permutations (``iter_orbits``)
and counts the whole orbit as checked.

Relational terms are evaluated as boolean matrices over a finite carrier,
a batch of models at once. A value has shape (B|1, 1|n, 1|n) and stands
for its broadcast to B models of n x n: a vector (a relation TOP;X,
whose rows are all equal) keeps one row, and a value every model
shares, as a constant term's, keeps one model. TOP, BOT, unknown names
and an extent empty in every model of a batch (``_truths``) are one
shared read-only cell (1, 1, 1) (``_CELLS``). A 1 stands for n >= 1
equal rows or columns, so on the empty carrier every matrix is 0 x 0.
Union, meet, complement and converse keep the shapes by broadcasting,
and a one-cell operand of a meet or join returns one of the operands
(``_lattice``); composition has cases for them (``_mm``), the closure
of a vector is id | X, and fork, product, the closure of any other
value and ``eval_fa`` use the full layout. On a carrier above
``_RESTRICT_INNER`` elements, id, the projections and the constants built
from them are functional values (``_Fun``), an index array with at most
one entry per column or per row, and meets, compositions, forks and
products with them read O(n) entries per model (``_kinds``); any other
operator makes its operands dense once (``_dense``).
``check_equiv`` batches its model stream by carrier (``_truths``). Two
kinds of carrier cover the different jobs:

* ``tuple_space(atoms, width)``: the atoms plus every right-nested tuple
  of atoms up to the given width. Translation checks live here, because
  an n-ary relation relates column 1 to the nested tuple of columns 2..n
  and a fact needs tuples exactly as wide as the widest one built for it.
* ``pair_space(atoms, depth)``: the full pair closure up to a nesting
  depth, pairing anything already present. The algebra's axioms quantify
  over arbitrary pairings, so the axiom checks use this shape with
  relation extents drawn over the shallow elements.

``top`` and ``id`` always mean all pairs / the diagonal over the carrier
in play. ``fact_holds`` additionally offers an atom-framed comparison
(rows and columns restricted to atoms) for totality-style facts whose
left side is the bare identity or the universal relation; the
multiplicity tests explain why that frame is the meaningful one there.

Atoms must be strings; every tuple element is a nested pair of them.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .terms import (
    MARK_X, MARK_Y,
    ADiff, ADomRes, AIden, AInter, AJoin, ANone, AProd, ARanRes, ARel,
    ASig, AStar, AUnion, AUniv, AVar, AConv, AlloyExpr, AlloyForm,
    Bot, Comp, Compl, Conv, FAExpr, FAFact, FactEq,
    FAll, FAnd, FEq, FImp, FIn, FLone, FNot, FOr, FPredCall, FSome, FSomeQ,
    Fork, Id, Join, Ldiv, Meet, Phi, Pi1, Pi2, Prod, Rel, Star,
    Top, RAll, RAnd, RApp, REx, RFalse, RImp, RLFormula, RMark, RNot, ROr,
    RTrue, fold, subterms, unfold,
)


class SizingError(Exception):
    """An extent tuple does not fit the carrier's tuple widths."""


# ---------------------------------------------------------------------------
# carriers


def nest(vals):
    """Right-nested tuple of a non-empty value sequence."""
    out = vals[-1]
    for v in reversed(vals[:-1]):
        out = (v, out)
    return out


class Space:
    """A finite carrier indexed for matrix evaluation.

    Pair elements are pre-scanned into index arrays so fork, product and
    the projections are fancy-indexing operations. The cache holds
    the values of constant terms (no relation or signature symbols), which
    are shared by every model over this carrier. Above _RESTRICT_INNER
    elements the constants built from id and the projections are
    functional values (`_Fun`), held as they are: an index array and a
    mask, never scattered unless a dense operator reads them.
    """

    def __init__(self, elements, atom_count, width=None):
        self.elements = list(elements)
        self.n = len(self.elements)
        self.atom_count = atom_count
        self.width = width
        self.index = {e: i for i, e in enumerate(self.elements)}
        pe, pl, pr = [], [], []
        for i, e in enumerate(self.elements):
            if isinstance(e, tuple):
                li = self.index.get(e[0])
                ri = self.index.get(e[1])
                if li is not None and ri is not None:
                    pe.append(i)
                    pl.append(li)
                    pr.append(ri)
        self._pairs = np.asarray(pe, dtype=np.intp)
        self._left = np.asarray(pl, dtype=np.intp)
        self._right = np.asarray(pr, dtype=np.intp)
        self.cache = {}
        # above the gate, for functional values (_pair), the pair keys
        # left * n + right in order, closed by n * n, with each one's pair
        if self.n > _RESTRICT_INNER:
            keys = self._left * self.n + self._right
            order = keys.argsort()
            self._pair_keys = np.append(keys[order], self.n * self.n)
            self._pair_at = np.append(self._pairs[order], 0)

    def __repr__(self):
        return "Space(%d elements, %d atoms)" % (self.n, self.atom_count)


def tuple_space(atoms, width):
    """Atoms plus right-nested atom tuples of widths 2..width."""
    atoms = list(atoms)
    els = list(atoms)
    layer = list(atoms)
    for _ in range(max(width, 1) - 1):
        layer = [(a, t) for a in atoms for t in layer]
        els.extend(layer)
    return Space(els, len(atoms), width=max(width, 1))


def pair_space(atoms, depth=2):
    """Atoms plus the pair closure up to the given nesting depth."""
    els = list(atoms)
    seen = set(els)
    for _ in range(depth):
        base = list(els)
        for a in base:
            for b in base:
                if (a, b) not in seen:
                    seen.add((a, b))
                    els.append((a, b))
    return Space(els, len(atoms))


def witness_rows(space):
    """Boolean mask of rows whose mutual pairs the carrier still holds.

    A law that conjures a pair (u, v) out of two existential witnesses is
    exact on a truncated pair closure only when u and v stay below the
    top layer. Relations with row support inside this mask cannot push a
    witness past the boundary. Membership test: (e, e) exists iff e is
    one level short of the cap, and then so is every mixed pair.
    """
    ok = np.zeros(space.n, dtype=bool)
    for i, e in enumerate(space.elements):
        if (e, e) in space.index:
            ok[i] = True
    return ok


_SPACES = {}


def get_tuple_space(atoms, width):
    key = (tuple(atoms), max(int(width), 1))
    sp = _SPACES.get(key)
    if sp is None:
        sp = _SPACES[key] = tuple_space(key[0], key[1])
    return sp


# ---------------------------------------------------------------------------
# models and vocabularies


@dataclass(frozen=True)
class SigInfo:
    name: str
    parent: Optional[str] = None
    abstract: bool = False


@dataclass
class Vocab:
    """Signature hierarchy and typed relation columns, for model building."""

    sigs: dict  # name -> SigInfo
    rels: dict  # name -> tuple of column signature names, owner first

    def placements(self):
        """Where a single atom may live: any non-abstract signature."""
        opts = [s.name for s in self.sigs.values() if not s.abstract]
        return opts or [None]

    def arity(self):
        return {name: len(cols) for name, cols in self.rels.items()}


@dataclass
class FiniteModel:
    atoms: tuple
    sigs: dict  # name -> frozenset of atoms
    rels: dict  # name -> frozenset of flat column tuples


def describe_model(m: FiniteModel) -> str:
    parts = ["|U|=%d" % len(m.atoms)]
    for name in sorted(m.sigs):
        parts.append("%s={%s}" % (name, ",".join(sorted(m.sigs[name]))))
    for name in sorted(m.rels):
        ts = sorted(m.rels[name])
        parts.append("%s={%s}" % (name, ",".join("(%s)" % ",".join(t)
                                                 for t in ts)))
    return " ".join(parts)


def _placed(vocab, atoms, placement, rel_names):
    """Signature extents of a placement of the atoms (an atom is in its
    signature and every ancestor), and the possible tuples of each named
    relation, in rel_names order."""
    ext = {s: set() for s in vocab.sigs}
    for a, p in zip(atoms, placement):
        while p is not None:
            ext[p].add(a)
            p = vocab.sigs[p].parent
    sig_ext = {s: frozenset(e) for s, e in ext.items()}
    poss = [list(itertools.product(*(sorted(sig_ext[c])
                                     for c in vocab.rels[r])))
            for r in rel_names]
    return sig_ext, poss


def _model(atoms, sig_ext, rel_names, poss, masks):
    """The model whose extent of each relation holds the possible tuples
    its mask selects."""
    return FiniteModel(atoms, sig_ext, {
        r: frozenset(t for b, t in enumerate(p) if mask >> b & 1)
        for r, p, mask in zip(rel_names, poss, masks)})


def model_count(vocab, n_atoms, rel_names):
    """Exact number of models iter_models would yield."""
    return sum(_placement_counts(vocab, n_atoms, rel_names))


def _placement_counts(vocab, n_atoms, rel_names):
    """The number of models of each placement, in iter_models order."""
    atoms = tuple("a%d" % i for i in range(n_atoms))
    for placement in itertools.product(vocab.placements(), repeat=n_atoms):
        poss = _placed(vocab, atoms, placement, rel_names)[1]
        yield 1 << sum(len(p) for p in poss)


def iter_models(vocab, n_atoms, rel_names):
    """Every model: all placements of atoms into signatures, crossed with
    all extents of the named relations (others stay empty)."""
    atoms = tuple("a%d" % i for i in range(n_atoms))
    for placement in itertools.product(vocab.placements(), repeat=n_atoms):
        sig_ext, poss = _placed(vocab, atoms, placement, rel_names)
        for masks in itertools.product(*(range(1 << len(p)) for p in poss)):
            yield _model(atoms, sig_ext, rel_names, poss, masks)


def iter_orbits(vocab, n_atoms, rel_names):
    """(model, orbit size) for each orbit of iter_models's stream under
    renamings of the atoms; the model is the orbit's first in the stream.

    A renaming maps a model to one with the same verdict, so checking one
    model per orbit covers them all (the symmetry breaking of Kodkod and
    of Shlyakhter's lex-leader predicates). The stream orders models by
    (placement index tuple, extent mask tuple). A renaming that changes a
    sorted placement yields a later one, so the first models of the
    orbits are the models of sorted placements that no renaming in the
    placement's stabiliser maps to a smaller mask tuple. The orbit size
    is n! over the number of those renamings that fix the model.
    """
    atoms = tuple("a%d" % i for i in range(n_atoms))
    opts = vocab.placements()
    perms = list(itertools.permutations(range(n_atoms)))[1:]
    size = math.factorial(n_atoms)
    for idx in itertools.combinations_with_replacement(range(len(opts)),
                                                       n_atoms):
        placement = [opts[i] for i in idx]
        sig_ext, poss = _placed(vocab, atoms, placement, rel_names)
        # per renaming that keeps the placement and per relation, the
        # bit each possible tuple's bit moves to
        maps = []
        for g in perms:
            if any(idx[g[i]] != idx[i] for i in range(n_atoms)):
                continue
            ren = {atoms[i]: atoms[g[i]] for i in range(n_atoms)}
            maps.append([[p.index(tuple(ren[a] for a in t)) for t in p]
                         for p in poss])
        for masks in itertools.product(*(range(1 << len(p)) for p in poss)):
            fixed = 1
            for g_maps in maps:
                img = tuple(sum(1 << j for b, j in enumerate(m)
                                if mask >> b & 1)
                            for mask, m in zip(masks, g_maps))
                if img < masks:
                    break
                fixed += img == masks
            else:
                yield (_model(atoms, sig_ext, rel_names, poss, masks),
                       size // fixed)


def sample_model(vocab, n_atoms, rel_names, rng):
    atoms = tuple("a%d" % i for i in range(n_atoms))
    opts = vocab.placements()
    placement = [rng.choice(opts) for _ in atoms]
    sig_ext, poss = _placed(vocab, atoms, placement, rel_names)
    rels = {r: frozenset(t for t in p if rng.random() < 0.5)
            for r, p in zip(rel_names, poss)}
    return FiniteModel(atoms, sig_ext, rels)


def interp_from_model(model: FiniteModel, space: Space) -> dict:
    """Extent matrices keyed by ("rel", name) and ("sig", name).

    Signatures become coreflexives; an n-ary extent tuple becomes one
    entry relating its first column to the nest of the rest. Unary
    relation extents are coreflexives as well.
    """
    interp = {}
    n = space.n
    for name, ext in model.sigs.items():
        m = np.zeros((n, n), dtype=bool)
        for a in ext:
            i = space.index[a]
            m[i, i] = True
        interp[("sig", name)] = m
    for name, ext in model.rels.items():
        m = np.zeros((n, n), dtype=bool)
        for t in ext:
            if len(t) == 1:
                i = space.index[t[0]]
                m[i, i] = True
                continue
            col = space.index.get(nest(t[1:]))
            if col is None:
                raise SizingError(
                    "tuple %r needs carrier width %d, have %r"
                    % (t, len(t) - 1, space.width))
            m[space.index[t[0]], col] = True
        interp[("rel", name)] = m
    return interp


# ---------------------------------------------------------------------------
# matrix semantics of variable-free terms


# Inner dimension above which _mm looks for a gather and drops the
# unused inner indices. On unstructured random operands the
# dense/restricted time ratio is 0.63 at 64, 0.78 at 96, 1.12 at 128 and
# 1.57 at 256: below this the mask and the two slices cost more than the
# float32 product they shrink. The row and column counts a gather needs
# cost as much as the product at n = 62 and a fifth of it at 256. Only
# a carrier above it has functional values (_Fun, _kinds).
_RESTRICT_INNER = 128

# Most boolean entries, B models times n x n, in one check_equiv batch; a
# model over a larger carrier is a batch of its own. At 2^18 the 28
# models of a 62-element carrier made one batch that took 40% longer and
# 2.5 times the memory. Below 2 (_RESTRICT_INNER + 1)^2, so every carrier
# above the gate has one-model batches.
_BATCH_CELLS = 1 << 15

# The one-cell values, (1, 1, 1) or (1, 0, 0) on the empty carrier, keyed
# by (truth, min(n, 1)): read-only and shared by every carrier and batch.
_CELLS = {(v, k): np.broadcast_to(v, (1, k, k))
          for v in (False, True) for k in (0, 1)}


def _mm(a, b):
    """Boolean product a;b of two values of shape (B|1, 1|n, 1|n), or of
    one model's (1|n, 1|n) matrices, as which a one-model batch composes.

    a;b holds at (u, v) iff some inner index w has u a w and w b v. An
    inner dimension of 1 means the operand does not vary with w; as the
    carrier has some w (n >= 1), a;b is then a row test of a times a
    column test of b. For matrices above an inner dimension of
    _RESTRICT_INNER:

    * where every row u of a holds at most one entry w(u), row u of a;b
      is row w(u) of b, or empty with row u of a: a gather of rows, exact
      because no other w adds a path. Columns of b with at most one
      entry gather the columns of a the same way.
    * otherwise only the inner indices w where column w of a and row w
      of b are both non-empty are kept, and the rest is a float32
      matmul. Dropping an index with an empty column of a or an empty
      row of b changes no entry of a;b. Oracle operands are mostly very
      sparse, so the kept product is usually tiny, and with no index
      kept a;b is empty without a product; skipping that float32 result
      also keeps the peak RSS from rising.

    The gate sits where these pay on unstructured operands, from the
    kernel's own cost, not from any carrier size of a workload; batches
    of several models stay below it (_BATCH_CELLS). The int32 counts and
    float32 sums are exact well past any carrier here. Above the gate,
    a composition with a functional operand (id, the projections and
    the constants built from them) is composed, gathered or scattered by
    `_kinds` and never reaches _mm unless neither orientation fits; the
    counts serve relation extents, their complements and products, and
    Star.
    """
    if a.ndim == 3 and len(a) == len(b) == 1:
        return _mm(a[0], b[0])[None]
    if a.shape[-1] == 1:
        return a & b.any(-2, keepdims=True)
    if b.shape[-2] == 1:
        return a.any(-1, keepdims=True) & b
    if a.ndim == 2 and a.shape[1] > _RESTRICT_INNER:
        rows = a.sum(1, dtype=np.int32)
        if rows.max() <= 1:
            return b.take(a.argmax(1), axis=0) & rows.astype(bool)[:, None]
        cols = b.sum(0, dtype=np.int32)
        if cols.max() <= 1:
            return a.take(b.argmax(0), axis=1) & cols.astype(bool)
        keep = a.any(0) & b.any(1)
        if not keep.any():
            return np.zeros((a.shape[0], b.shape[1]), dtype=bool)
        a, b = a[:, keep], b[keep]
    return (a.astype(np.float32) @ b.astype(np.float32)) > 0.0


def _full(m, n):
    """A value in its (B|1, n, n) layout (a read-only view if broadcast)."""
    shape = m.shape[:1] + (n, n)
    return m if m.shape == shape else np.broadcast_to(m, shape)


def eval_fa(e: FAExpr, space: Space, interp: dict):
    """Fresh n x n boolean matrix of a variable-free term over the carrier.

    interp maps ("rel", name) and ("sig", name) to n x n extents, as
    ``interp_from_model`` builds them. Unknown relation and signature
    names denote the empty relation. Subterms free of relation symbols
    are cached on the space itself and shared across models.
    """
    return np.array(_full(_value(e, space, interp, {})[0], space.n)[0])


@functools.lru_cache(maxsize=1 << 12)
def _post_order(root):
    """(order, width, relations) of a term, from one walk of its
    unfolding. order holds (node, operands, constant?, dead) of each
    distinct node, after its operands, left first (`terms.fold`), the
    unfolded root last. Constant nodes have no relation or signature
    under them; dead lists the operands, not constant, that no later
    node reads. width is `infer_width(root)`, and relations are the
    names of the relations root mentions: unfolding keeps both."""
    order, const, widths = [], {}, {}

    def node(e, ops):
        const[e] = not isinstance(e, (Rel, Phi)) and all(map(const.get, ops))
        widths[e] = _widths(e, [widths[c] for c in ops])
        order.append((e, tuple(ops), const[e]))
        return e

    fold(unfold(root), node)
    last = {c: e for e, ops, _ in order for c in ops}
    return (tuple((e, ops, k, tuple(c for c in ops
                                    if last[c] is e and not const[c]))
                  for e, ops, k in order),
            widths[order[-1][0]][0],
            frozenset(e.name for e, _, _ in order if isinstance(e, Rel)))


def _value(root, space, interp, cache):
    """(value, constant?) of a term on a batch of models over one carrier.

    interp maps each extent key to the batch's n x n extents stacked as
    (B, n, n), or to one model's (n, n). cache maps a node to its (value,
    constant?) for this batch, space.cache a constant node for every
    model; a value below the root leaves cache after its last use. Above
    _RESTRICT_INNER elements a node first tries the kernels of functional
    values (`_kinds`); any other node takes `_node`, the one dense
    fallback, on its operands made dense (`_dense`). The root's value is
    returned dense.
    """
    order = _post_order(root)[0]
    root = order[-1][0]  # unfolded
    hit = cache.get(root) or space.cache.get(root)
    if hit is None:
        gate = space.n > _RESTRICT_INNER
        for e, ops, const, dead in order:
            if e in cache:
                continue
            hit = space.cache.get(e) if const else None
            if hit is None:
                args = [cache[c][0] for c in ops]
                m = _kinds(e, ops, args, space) if gate else None
                if m is None:
                    args = [_dense(a) for a in args] if gate else args
                    m = _node(e, args, space, interp)
                hit = (m, const)
                if const:
                    space.cache[e] = hit
            cache[e] = hit
            for c in dead:
                cache.pop(c, None)
        hit = cache[root]
    return _dense(hit[0]), hit[1]


class _Fun:
    """A functional value on a carrier above the gate: column v holds at
    most the entry (index[v], v), in the models where mask[:, v]; or, with
    rows, row u holds at most (u, index[u]) where mask[:, u]. index is
    shared by the batch, mask has shape (B|1, n), and both are read-only,
    since constants are shared by every batch. id and the projections
    are functional, and so are a meet of one with anything, a converse
    (which swaps rows), and the compositions, forks and products that
    `_kinds` keeps functional."""

    __slots__ = ("index", "mask", "rows", "full")

    def __init__(self, index, mask, rows=False):
        index.flags.writeable = mask.flags.writeable = False
        self.index, self.mask, self.rows, self.full = index, mask, rows, None

    @property
    def shape(self):
        return self.mask.shape[:1] + self.index.shape * 2

    def at(self, u, v):
        if self.rows:
            u, v = v, u
        return self.mask[:, v] & (self.index[v] == u)

    def build(self):
        m = np.zeros(self.shape, dtype=bool)
        b, w = np.nonzero(self.mask)
        m[(b, w, self.index[w]) if self.rows else (b, self.index[w], w)] = True
        return m

    def turned(self, rows):
        """The value with rows as asked, or None: only a coreflexive (an
        index that is the identity) is both."""
        if rows == self.rows:
            return self
        if np.array_equal(self.index, np.arange(len(self.index))):
            return _Fun(self.index, self.mask, rows)
        return None


class _Gather:
    """X . K for a column function K, gathered only when read whole:
    column v is X's column K.index[v] where K.mask[:, v]. A meet with a
    functional value reads it at that value's entries alone."""

    __slots__ = ("x", "k", "full")

    def __init__(self, x, k):
        self.x, self.k, self.full = x, k, None

    @property
    def shape(self):
        return (max(len(self.x), len(self.k.mask)),) + self.x.shape[1:]

    def at(self, u, v):
        return _at(self.x, u, self.k.index[v]) & self.k.mask[:, v]

    def build(self):
        return self.x.take(self.k.index, -1) & self.k.mask[:, None]


def _at(x, u, v):
    """The entries of a value at the points (u[i], v[i]), shape (B|1, k)."""
    if not isinstance(x, np.ndarray):
        return x.at(u, v)
    m = x[:, u if x.shape[1] > 1 else 0, v if x.shape[2] > 1 else 0]
    return m if m.ndim == 2 else m[:, None]


def _dense(x):
    """A value as an array: a functional value scattered, a gather taken,
    once each, kept read-only on the value."""
    if isinstance(x, np.ndarray):
        return x
    if x.full is None:
        x.full = x.build()
        x.full.flags.writeable = False
    return x.full


def _pair(space, left, right):
    """(element, found?) of each pair (left[i], right[i]), searched in the
    carrier's sorted pair keys."""
    keys = left * space.n + right
    at = space._pair_keys.searchsorted(keys)
    return space._pair_at[at], space._pair_keys[at] == keys


def _on_pairs(space, index, mask, rows):
    """The functional value whose pair elements p hold index[i] and
    mask[:, i] for p = space._pairs[i], and no other element anything."""
    n, pairs = space.n, space._pairs
    full = np.zeros(n, dtype=np.intp), np.zeros((len(mask), n), dtype=bool)
    full[0][pairs], full[1][:, pairs] = index, mask
    return _Fun(*full, rows)


def _aligned(a, b):
    """Two functional values turned to one orientation, or None."""
    b = b.turned(a.rows) or b
    a = a.turned(b.rows) or a
    return (a, b) if a.rows == b.rows else None


def _kinds(e, ops, args, space):
    """One node's value on a carrier above the gate, where a kernel of
    functional values gives it, or None. Each reads O(n) entries per
    model: a meet reads its other operand at the functional one's
    entries, TOP . F is F's mask, V . G scatters a row vector V through a
    row function G, X . K for a column function K is a gather (`_Gather`),
    and compositions, forks and products of functional operands are
    composed from their indexes."""
    n, left, right = space.n, space._left, space._right
    if isinstance(e, Id):
        return _Fun(np.arange(n), np.ones((1, n), dtype=bool))
    if isinstance(e, (Pi1, Pi2)):
        return _on_pairs(space, right if isinstance(e, Pi2) else left,
                         np.ones((1, len(left)), dtype=bool), False)
    if all(isinstance(a, np.ndarray) for a in args):
        return None
    if isinstance(e, Conv):
        (a,) = args
        return _Fun(a.index, a.mask, not a.rows) if isinstance(a, _Fun) \
            else None
    if not isinstance(e, (Meet, Join, Comp, Fork, Prod)):
        return None
    a, b = args
    funs = isinstance(a, _Fun), isinstance(b, _Fun)
    if isinstance(e, (Meet, Join)):
        if (1, 1, 1) in (a.shape, b.shape):
            return _lattice(isinstance(e, Meet), a, b)
        if isinstance(e, Join) or not any(funs):
            return None
        f, x = (a, b) if funs[0] else (b, a)
        pos = np.arange(n)
        at = (pos, f.index) if f.rows else (f.index, pos)
        return _Fun(f.index, f.mask & _at(x, *at), f.rows)
    if isinstance(e, Comp):
        if isinstance(ops[1], Id) or isinstance(ops[0], Id):
            return a if isinstance(ops[1], Id) else b
        pair = _aligned(a, b) if all(funs) else None
        if pair is not None:
            ca, cb = pair[::-1] if pair[0].rows else pair
            return _Fun(ca.index[cb.index], cb.mask & ca.mask[:, cb.index],
                        ca.rows)
        if not funs[1]:
            return None
        if not b.rows:
            x = _dense(a)
            if min(x.shape[1:]) > 1:
                return _Gather(x, b)
            return (x.take(b.index, -1) if x.shape[2] > 1 else x) \
                & b.mask[:, None]
        if a.shape[1] > 1:
            return None
        m = np.zeros((max(len(a), len(b.mask)), 1, n), dtype=bool)
        w, v = np.nonzero(a[:, 0] & b.mask)
        m[w, 0, b.index[v]] = True
        return m
    if isinstance(e, Fork):
        if all(funs) and not a.rows and not b.rows:
            index, found = _pair(space, a.index, b.index)
            return _Fun(index, a.mask & b.mask & found)
        for f, x, i, j in ((a, b, left, right), (b, a, right, left)):
            f = f.turned(True) if isinstance(f, _Fun) else None
            if f is not None:
                g = f.index[i]
                return _on_pairs(space, g, f.mask[:, i] & _at(x, j, g), True)
        return None
    pair = _aligned(a, b) if all(funs) else None
    if pair is None:
        return None
    a, b = pair
    index, found = _pair(space, a.index[left], b.index[right])
    return _on_pairs(space, index, a.mask[:, left] & b.mask[:, right] & found,
                     a.rows)


def _lattice(meet, a, b):
    """a & b for a meet, else a | b. A one-cell operand is the other's
    unit (TOP for a meet, BOT for a join), which returns the other, or its
    zero, which returns itself: numpy broadcasts a one-cell operand over
    n x n many times slower than it combines two n x n operands."""
    for x, y in ((a, b), (b, a)):
        if x.shape == (1, 1, 1):
            return y if x[0, 0, 0] == meet else x
    return a & b if meet else a | b


def _node(e, args, space, interp):
    """The value of one node from the values of its operands."""
    n = space.n
    if isinstance(e, Comp):
        return _mm(*args)
    if isinstance(e, (Meet, Join)):
        return _lattice(isinstance(e, Meet), *args)
    if isinstance(e, Compl):
        return ~args[0]
    if isinstance(e, Conv):
        return args[0].transpose(0, 2, 1)
    if isinstance(e, Ldiv):
        # u (L\R) v  iff  for all w: w L u implies w R v
        return ~_mm(args[0].transpose(0, 2, 1), ~args[1])
    if isinstance(e, (Rel, Phi)):
        key = ("rel", e.name) if isinstance(e, Rel) else ("sig", e.sig)
        m = interp.get(key)
        if m is not None:
            return m if m.ndim == 3 else m[None]
    if isinstance(e, (Top, Bot, Rel, Phi)):
        return _CELLS[isinstance(e, Top), min(n, 1)]
    if isinstance(e, Id):
        return np.eye(n, dtype=bool)[None]
    if isinstance(e, (Pi1, Pi2)):
        m = np.zeros((1, n, n), dtype=bool)
        m[0, space._left if isinstance(e, Pi1) else space._right,
          space._pairs] = True
        return m
    if isinstance(e, Star):
        m = _lattice(False, np.eye(n, dtype=bool)[None], args[0])
        if 1 in args[0].shape[1:]:
            return m  # all rows, or all columns, equal: X;X = X
        while True:
            nxt = _mm(m, m) | m
            if np.array_equal(nxt, m):
                return m
            m = nxt
    if not isinstance(e, (Fork, Prod)):
        raise TypeError("cannot evaluate %r" % (e,))
    l, r = args
    batch = max(len(l), len(r))
    left, right, pairs = space._left, space._right, space._pairs
    if isinstance(e, Fork):
        m = np.zeros((batch, n, n), dtype=bool)
        m[:, pairs] = _full(l, n)[:, left] & _full(r, n)[:, right]
        return m
    # a product, one axis at a time: 2-D np.ix_ indexing costs several
    # times more
    rows = np.zeros((batch, len(left), n), dtype=bool)
    rows[:, :, pairs] = (_full(l, n)[:, left][:, :, left]
                         & _full(r, n)[:, right][:, :, right])
    m = np.zeros((batch, n, n), dtype=bool)
    m[:, pairs] = rows
    return m


# ---------------------------------------------------------------------------
# Alloy semantics (sets of flat tuples)


def eval_alloy(f: AlloyForm, model: FiniteModel, env=None) -> bool:
    env = env or {}
    if isinstance(f, FIn):
        return eval_aexpr(f.l, model, env) <= eval_aexpr(f.r, model, env)
    if isinstance(f, FEq):
        return eval_aexpr(f.l, model, env) == eval_aexpr(f.r, model, env)
    if isinstance(f, FSome):
        return bool(eval_aexpr(f.e, model, env))
    if isinstance(f, FLone):
        return len(eval_aexpr(f.e, model, env)) <= 1
    if isinstance(f, FNot):
        return not eval_alloy(f.f, model, env)
    if isinstance(f, FAnd):
        return eval_alloy(f.l, model, env) and eval_alloy(f.r, model, env)
    if isinstance(f, FOr):
        return eval_alloy(f.l, model, env) or eval_alloy(f.r, model, env)
    if isinstance(f, FImp):
        return (not eval_alloy(f.l, model, env)) or eval_alloy(f.r, model, env)
    if isinstance(f, (FAll, FSomeQ)):
        tuples = sorted(eval_aexpr(f.bound, model, env))
        results = (eval_alloy(f.body, model, {**env, f.var: t})
                   for t in tuples)
        return all(results) if isinstance(f, FAll) else any(results)
    if isinstance(f, FPredCall):
        raise TypeError("predicate call %r must be desugared first" % f.name)
    raise TypeError("not a core formula: %r" % (f,))


def eval_aexpr(e: AlloyExpr, model: FiniteModel, env) -> set:
    if isinstance(e, ASig):
        return {(a,) for a in model.sigs.get(e.name, ())}
    if isinstance(e, ARel):
        return set(model.rels.get(e.name, ()))
    if isinstance(e, AVar):
        return {env[e.name]}
    if isinstance(e, AIden):
        return {(a, a) for a in model.atoms}
    if isinstance(e, AUniv):
        return {(a,) for a in model.atoms}
    if isinstance(e, ANone):
        return set()
    if isinstance(e, AConv):
        return {(b, a) for (a, b) in eval_aexpr(e.e, model, env)}
    if isinstance(e, AStar):
        cur = {(a, a) for a in model.atoms} | eval_aexpr(e.e, model, env)
        while True:
            nxt = cur | {(a, d) for (a, b) in cur for (c, d) in cur if b == c}
            if nxt == cur:
                return cur
            cur = nxt
    if isinstance(e, AJoin):
        ls = eval_aexpr(e.l, model, env)
        rs = eval_aexpr(e.r, model, env)
        return {x[:-1] + y[1:] for x in ls for y in rs if x[-1] == y[0]}
    if isinstance(e, AProd):
        ls = eval_aexpr(e.l, model, env)
        rs = eval_aexpr(e.r, model, env)
        return {x + y for x in ls for y in rs}
    if isinstance(e, AUnion):
        return eval_aexpr(e.l, model, env) | eval_aexpr(e.r, model, env)
    if isinstance(e, AInter):
        return eval_aexpr(e.l, model, env) & eval_aexpr(e.r, model, env)
    if isinstance(e, ADiff):
        return eval_aexpr(e.l, model, env) - eval_aexpr(e.r, model, env)
    if isinstance(e, ADomRes):
        dom = eval_aexpr(e.l, model, env)
        return {t for t in eval_aexpr(e.r, model, env) if (t[0],) in dom}
    if isinstance(e, ARanRes):
        ran = eval_aexpr(e.r, model, env)
        return {t for t in eval_aexpr(e.l, model, env) if (t[-1],) in ran}
    raise TypeError("not a core expression: %r" % (e,))


# ---------------------------------------------------------------------------
# relational-logic semantics


def eval_rl(f: RLFormula, space: Space, interp: dict, env=None) -> bool:
    """Truth of an RL formula; quantifiers range over the whole carrier.

    That is the untyped reading the translation preserves: formulas
    produced from Alloy carry signature ranges that confine each level
    to atoms, and on a truncated finite carrier only ranged quantifiers
    are guaranteed to survive translation unchanged (an unranged one
    can tell a cut-down carrier from the full pair closure).

    env maps de Bruijn levels and free markers to carrier elements.
    Quantifiers bind consecutive levels below the ones already in env;
    the marker wrapper binds the marker pair and no levels.
    """
    env = dict(env or {})
    base = max((k for k in env if isinstance(k, int)), default=0)
    return _rl(f, space, interp, env, base + 1, {})


def _rl(f, space, interp, env, nl, cache):
    if isinstance(f, RTrue):
        return True
    if isinstance(f, RFalse):
        return False
    if isinstance(f, RNot):
        return not _rl(f.f, space, interp, env, nl, cache)
    if isinstance(f, RAnd):
        return (_rl(f.l, space, interp, env, nl, cache)
                and _rl(f.r, space, interp, env, nl, cache))
    if isinstance(f, ROr):
        return (_rl(f.l, space, interp, env, nl, cache)
                or _rl(f.r, space, interp, env, nl, cache))
    if isinstance(f, RImp):
        return ((not _rl(f.l, space, interp, env, nl, cache))
                or _rl(f.r, space, interp, env, nl, cache))
    if isinstance(f, (RAll, REx, RMark)):
        if isinstance(f, RMark):
            slots, inner = (MARK_X, MARK_Y), nl
        else:
            slots, inner = range(nl, nl + f.width), nl + f.width
        rng = f.rng if isinstance(f, RAll) else None
        forall = not isinstance(f, REx)
        for combo in itertools.product(space.elements, repeat=len(slots)):
            env2 = dict(env)
            env2.update(zip(slots, combo))
            if rng is not None and not _rl(rng, space, interp, env2, inner,
                                           cache):
                continue
            if _rl(f.body, space, interp, env2, inner, cache) != forall:
                return not forall
        return forall
    if isinstance(f, RApp):
        lv = _side_index(f.lhs, env, space)
        rv = _side_index(f.rhs, env, space)
        if lv is None or rv is None:
            return False
        m = _value(f.rel, space, interp, cache)[0]
        return bool(_full(m, space.n)[0, lv, rv])
    raise TypeError("not an RL formula: %r" % (f,))


def _side_index(items, env, space):
    try:
        vals = [env[i] for i in items]
    except KeyError as k:
        raise KeyError("item %r is not bound" % (k.args[0],)) from None
    return space.index.get(nest(vals))


# ---------------------------------------------------------------------------
# facts


def infer_width(x) -> int:
    """Smallest carrier width that can represent a term or fact.

    Derived from relation arities, fork/product nesting and selector
    chains; the pipeline stamps the exact width on the facts it builds,
    so this is the safety net for hand-written terms.
    """
    return fold(unfold(x), _widths)[0]


def _widths(e, v):
    """(width needed under e, length of e's fork/product spine, length of
    e's selector chain) of an unfolded node: a node needs its relation's
    arity less one, its spine's length plus one and its chain's too."""
    spine = v[1][1] + 1 if isinstance(e, (Fork, Prod)) else 0
    if isinstance(e, (Pi1, Pi2)):
        chain = 1
    elif isinstance(e, Comp) and v[0][2] and v[1][2]:
        chain = v[0][2] + v[1][2]
    else:
        chain = 0
    rel = e.arity - 1 if isinstance(e, Rel) else 1
    return max(rel, spine + 1, chain + 1, *(w for w, _, _ in v)), spine, chain


def fact_holds(fact: FAFact, model: FiniteModel, width=None,
               frame="carrier") -> bool:
    """Truth of a fact over the tuple carrier of the fact's width.

    frame="atoms" restricts the final comparison (not the inner
    operators) to atom rows and columns; use it for totality-style facts
    whose pointwise reading quantifies over atoms.
    """
    w = max(width or 1, getattr(fact, "width", 0) or 1, infer_width(fact))
    space = get_tuple_space(model.atoms, w)
    interp = interp_from_model(model, space)
    return bool(_fact_truth(fact, space, interp, {}, frame)[0])


def _fact_truth(fact, space, interp, cache, frame):
    """Truth of a fact on each model of a batch, shape (B|1,)."""
    a = _value(fact.lhs, space, interp, cache)[0]
    b = _value(fact.rhs, space, interp, cache)[0]
    if frame == "atoms":
        k = space.atom_count
        a, b = a[:, :k, :k], b[:, :k, :k]
    if isinstance(fact, FactEq):
        return (a == b).all((1, 2))
    return (~a | b).all((1, 2))


# ---------------------------------------------------------------------------
# the checker


@dataclass
class Verdict:
    status: str  # "PASS", "FAIL" or "SAMPLED" (a pass by sampling)
    checked: int  # models covered, up to and including a counterexample
    counterexample: Optional[FiniteModel] = None
    detail: str = ""

    def __bool__(self):
        return self.status != "FAIL"


def mentioned_rels(x) -> set:
    """Names of the relations a formula, term or fact of any language
    mentions."""
    return {t.name for t in subterms(x) if isinstance(t, (ARel, Rel))}


def _fact_prelude(fact):
    """(width, relation names) of a fact: max(its stamp, `infer_width`)
    and `mentioned_rels`, read off the post-orders of its sides, which
    its evaluation walks anyway."""
    (_, wl, rl), (_, wr, rr) = _post_order(fact.lhs), _post_order(fact.rhs)
    return max(fact.width, 1, wl, wr), rl | rr


def _source_truth(source, models, space, interps, batch, cache):
    """Truth of the source on each model of a batch over one carrier."""
    if isinstance(source, AlloyForm):
        return [eval_alloy(source, m) for m in models]
    if isinstance(source, RLFormula):
        return [_rl(source, space, itp, {}, 1, {}) for itp in interps]
    if isinstance(source, FAFact):
        return _fact_truth(source, space, batch, cache, "carrier")
    raise TypeError("cannot evaluate source %r" % (source,))


def _truths(source, fact, models, width):
    """(model, covered, source truth, fact truth) along the model stream,
    in order. The stream is read in chunks, each cut before one carrier's
    batch would pass _BATCH_CELLS; the models of a chunk over one carrier
    are one batch, whose extents are stacked for one evaluation of each
    fact. An extent empty in every model of the batch, as the models'
    own extents tell, enters as the shared one-cell False of `_CELLS`
    instead."""
    models = iter(models)
    while True:
        chunk, groups = [], {}
        for model, covered in models:
            space = get_tuple_space(model.atoms, width)
            idx = groups.setdefault(space, [])
            idx.append(len(chunk))
            chunk.append((model, covered))
            if (len(idx) + 1) * space.n ** 2 > _BATCH_CELLS:
                break
        if not chunk:
            return
        for space, idx in groups.items():
            ms = [chunk[i][0] for i in idx]
            interps = [interp_from_model(m, space) for m in ms]
            batch = {}
            for (kind, name), m in interps[0].items():
                exts = (x.sigs if kind == "sig" else x.rels for x in ms)
                if not any(ext[name] for ext in exts):
                    m = _CELLS[False, min(space.n, 1)]
                elif len(idx) > 1:
                    m = np.stack([itp[kind, name] for itp in interps])
                batch[kind, name] = m
            cache = {}
            truths = (np.broadcast_to(t, len(idx)).tolist() for t in (
                _source_truth(source, ms, space, interps, batch, cache),
                _fact_truth(fact, space, batch, cache, "carrier")))
            for i, s, f in zip(idx, *truths):
                chunk[i] += (s, f)
        yield from chunk


def check_equiv(source, fact: FAFact, vocab: Vocab, bound=3,
                include_empty=False, max_exhaustive=1 << 14, samples=4096,
                seed=0) -> Verdict:
    """Does the fact have the same truth as the source on every model?

    Models are built from the vocabulary: all placements of up to
    ``bound`` atoms into signatures, crossed with all extents of the
    relations the source or fact mentions. While that count fits
    max_exhaustive the check is exhaustive, beyond it a seeded sample of
    ``samples`` models is drawn and a passing verdict says SAMPLED.

    The exhaustive check evaluates one model per atom-permutation orbit,
    the orbit's first in ``iter_models`` order, so a FAIL names the same
    first counterexample as a walk over every model would. ``checked`` is
    the number of models covered: the sum of the orbit sizes evaluated,
    which on a PASS is the full model count. The stream is evaluated in
    batches per carrier (``_truths``) and scanned in order, so the
    verdict is the one a walk over one model at a time gives.

    The source may be a core Alloy formula, an RL formula (quantifiers
    ranging over the same bounded carrier the fact uses) or another fact.
    """
    w, names = _fact_prelude(fact)
    if isinstance(source, FAFact):
        ws, more = _fact_prelude(source)
        w, names = max(w, ws), names | more
    else:
        names = names | mentioned_rels(source)
    rel_names = sorted(n for n in names if n in vocab.rels)
    for r in rel_names:
        w = max(w, len(vocab.rels[r]) - 1)
    sizes = list(range(0 if include_empty else 1, bound + 1))

    # the running count stops at the first total above max_exhaustive
    counts = (c for n in sizes for c in _placement_counts(vocab, n, rel_names))
    exhaustive = all(t <= max_exhaustive for t in itertools.accumulate(counts))
    if exhaustive:
        models = (mk for n in sizes for mk in iter_orbits(vocab, n, rel_names))
    else:
        rng = random.Random(seed)
        models = ((sample_model(vocab, rng.choice(sizes), rel_names, rng), 1)
                  for _ in range(samples))
    checked = 0
    for model, covered, s, f in _truths(source, fact, models, w):
        checked += covered
        if s != f:
            return Verdict("FAIL", checked, counterexample=model,
                           detail="source %s, fact %s on %s"
                                  % (s, f, describe_model(model)))
    return Verdict("PASS" if exhaustive else "SAMPLED", checked)


# ---------------------------------------------------------------------------
# random formula generation


def gen_vocab() -> Vocab:
    """The fixed vocabulary the random-formula generator draws from."""
    return Vocab(
        sigs={"A": SigInfo("A"), "B": SigInfo("B")},
        rels={"r": ("A", "B"), "s": ("B", "A"), "t": ("A", "B", "A")},
    )


def gen_formula(seed: int) -> AlloyForm:
    """Deterministic random closed core formula over gen_vocab().

    Shapes are kept inside the translator's comfort zone on purpose:
    at most two quantifiers, both ranged over a signature, memberships
    of arity up to 3, and at most one join per membership side. Closures
    stay out of forcing positions: they appear freely on the right side
    of a membership but reach the left side (or a counting operand) only
    inside the negated arm of a set difference, whose left arm pins the
    rows to atom tuples. The cap on levels keeps the expanded quantifier
    depth small enough for exhaustive carriers.
    """
    rng = random.Random(seed)
    return _gen_form(rng, depth=3, quants=2, levels=4, env=[])


def _gen_form(rng, depth, quants, levels, env):
    kinds = ["in", "in", "in", "some", "some"]
    if depth > 0:
        kinds += ["not", "not", "and", "and"]
        if quants > 0 and levels >= 2:
            kinds += ["all", "all", "all"]
    kind = rng.choice(kinds)
    if kind == "all":
        var = "v%d" % len(env)
        sig = rng.choice(("A", "B"))
        body = _gen_form(rng, depth - 1, quants - 1, levels - 1, env + [var])
        return FAll(var, ASig(sig), body)
    if kind == "not":
        return FNot(_gen_form(rng, depth - 1, quants, levels, env))
    if kind == "and":
        return FAnd(_gen_form(rng, depth - 1, quants, levels, env),
                    _gen_form(rng, depth - 1, quants, levels, env))
    if kind == "some":
        a = rng.choice([x for x in (1, 2) if x <= levels])
        return FSome(_gen_expr(rng, a, 2, env, star_ok=False,
                               joins=min(1, levels - a)))
    a = rng.choice([x for x in (1, 2, 3) if x <= levels])
    joins = min(1, levels - a)
    lhs = _gen_expr(rng, a, 2, env, star_ok=False, joins=joins)
    rhs = _gen_expr(rng, a, 2, env, star_ok=True, joins=joins)
    return FIn(lhs, rhs)


def _gen_leaf(rng, arity, env):
    if arity == 1:
        opts = [ASig("A"), ASig("B")] + [AVar(v) for v in env]
        return rng.choice(opts)
    if arity == 2:
        return ARel(rng.choice(("r", "s")))
    return ARel("t")


def _gen_expr(rng, arity, depth, env, star_ok, joins):
    if depth <= 0:
        return _gen_leaf(rng, arity, env)
    ops = ["leaf", "leaf", "union", "inter", "diff"]
    if arity == 2:
        ops += ["conv", "prod"]
        if star_ok:
            ops.append("star")
    if arity == 3:
        ops += ["prod", "prod"]
    if joins > 0 and arity <= 3:
        ops += ["join"]
    ops += ["domres", "ranres"]
    op = rng.choice(ops)
    sub = lambda a, st=star_ok, j=joins: _gen_expr(rng, a, depth - 1, env,
                                                   star_ok=st, joins=j)
    if op == "leaf":
        return _gen_leaf(rng, arity, env)
    if op == "union":
        return AUnion(sub(arity), sub(arity))
    if op == "inter":
        return AInter(sub(arity), sub(arity))
    if op == "diff":
        # only the left arm must stay closure-free: the right is negated
        return ADiff(sub(arity), sub(arity, st=True))
    if op == "conv":
        return AConv(sub(2))
    if op == "star":
        return AStar(_gen_leaf(rng, 2, env))
    if op == "prod":
        k = rng.choice(range(1, arity))
        return AProd(sub(k), sub(arity - k))
    if op == "join":
        la = rng.choice([k for k in (1, 2, 3) if 1 <= arity + 2 - k <= 3])
        return AJoin(sub(la, j=joins - 1), sub(arity + 2 - la, j=joins - 1))
    if op == "domres":
        return ADomRes(sub(1), sub(arity))
    return ARanRes(sub(arity), sub(1))
