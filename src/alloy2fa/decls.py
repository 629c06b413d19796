"""Facts induced by signature and field declarations.

Every signature becomes a coreflexive constant and every field a
relation constant; this module derives the algebraic facts that pin
those constants to the declared shape: the top-level coreflexives
cover the identity, extensions are included in their parents and are
pairwise disjoint, abstract signatures equal the union of their
children, fields are bounded by the product of their column
coreflexives, and multiplicity keywords become (co)functionality
inclusions on the suitably rotated relation.
"""

from __future__ import annotations

from .terms import (
    BOT,
    Comp,
    Conv,
    FactEq,
    FactLe,
    FAFact,
    ID,
    Join,
    Meet,
    Phi,
    Prod,
    Rel,
    TOP,
    rotate,
)


def _union(names):
    # right-nested, declaration order
    exprs = [Phi(n) for n in names]
    out = exprs[-1]
    for e in reversed(exprs[:-1]):
        out = Join(e, out)
    return out


def sig_facts(table) -> list:
    """Hierarchy facts: top cover, parent inclusion, sibling
    disjointness, abstract cover.  Fixed emission order so golden
    tests stay deterministic."""
    facts = []
    tops = table.tops()
    if tops:
        facts.append(FactEq(ID, _union(tops), label="top-cover", width=1))
    parents = [s for s in table.sig_parent if table.sig_children.get(s)]
    for p in parents:
        kids = table.sig_children[p]
        facts.append(
            FactLe(_union(kids), Phi(p), label="hierarchy", width=1)
        )
    for p in parents:
        kids = table.sig_children[p]
        for i, a in enumerate(kids):
            for b in kids[i + 1:]:
                facts.append(
                    FactEq(Meet(Phi(a), Phi(b)), BOT,
                           label="disjointness", width=1)
                )
    for p in parents:
        if table.sig_abstract.get(p):
            facts.append(
                FactEq(Phi(p), _union(table.sig_children[p]),
                       label="abstract-cover", width=1)
            )
    return facts


def typing_fact(name: str, cols) -> FAFact:
    """Bound an n-ary relation by its column coreflexives:
    R included in Phi_1 . TOP . (Phi_2 x ... x Phi_n).  The first
    column's coreflexive guards the output side, matching the
    binarized layout where column one is the pair's left component.
    """
    if len(cols) < 2:
        raise ValueError("typing fact needs arity >= 2, got %r" % (cols,))
    rest = Phi(cols[-1])
    for c in reversed(cols[1:-1]):
        rest = Prod(Phi(c), rest)
    return FactLe(
        Rel(name, len(cols)),
        Comp(Phi(cols[0]), Comp(TOP, rest)),
        label="typing",
        width=len(cols) - 1,
    )


def sig_mult_facts(name: str, mult) -> list:
    """some: the extent is inhabited (TOP factors through Phi).
    lone: any two members are equal.  one is the conjunction."""
    phi = Phi(name)
    facts = []
    if mult in ("some", "one"):
        facts.append(
            FactLe(TOP, Comp(TOP, Comp(phi, TOP)),
                   label="multiplicity", width=1)
        )
    if mult in ("lone", "one"):
        facts.append(
            FactLe(Comp(phi, Comp(TOP, phi)), ID,
                   label="multiplicity", width=1)
        )
    return facts


def col_mult_facts(name: str, arity: int, col: int, mult) -> list:
    """Multiplicity on column `col` (1-based) of an n-ary relation.

    Rotating n - col times brings the column after the marked one to
    the output side, so functionality of the rotated relation says
    each such value determines at most (lone) or at least (some) one
    tuple of the remaining columns.  On binary relations this reads
    as the usual: R~ . R in id for `r : A -> lone B`.
    """
    if mult not in ("some", "lone", "one"):
        return []
    m = Rel(name, arity)
    for _ in range(arity - col):
        m = rotate(m, arity)
    facts = []
    if mult in ("some", "one"):
        facts.append(
            FactLe(ID, Comp(m, Conv(m)),
                   label="multiplicity", width=arity - 1)
        )
    if mult in ("lone", "one"):
        facts.append(
            FactLe(Comp(Conv(m), m), ID,
                   label="multiplicity", width=arity - 1)
        )
    return facts


def declaration_facts(table) -> list:
    """All facts induced by the declarations, in fixed order:
    hierarchy block, then one typing fact per field, then
    multiplicities (signatures first, then fields column by column).
    """
    facts = sig_facts(table)
    for name, cols in table.rel_cols.items():
        facts.append(typing_fact(name, cols))
    for name, mult in table.sig_mult.items():
        facts.extend(sig_mult_facts(name, mult))
    for name, mults in table.rel_mults.items():
        n = table.rel_arity[name]
        for col, mult in enumerate(mults, start=1):
            facts.extend(col_mult_facts(name, n, col, mult))
    return facts
