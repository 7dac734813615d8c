"""Computations on the nonzero entries of an algebra's structure table: the
associativity check run when a presentation is loaded, and the generating
set that `hom_space` imposes its intertwining equations for.

Neither forms a matrix.  A subalgebra is grown as the span of the words in
its generators applied to the unit, kept in reduced row echelon form on
sparse rows by the package's one elimination step (`linalg.insert_row`), so
a vector is reduced against it in one pass over the pivots it holds
(`linalg.reduce_by_pivots`).

Lemma: A's checks of a multiplicative identity may take the first factor
among the generators only.  The a for which it holds against all other
factors form a subspace V.  It contains 1 once 1 is checked to be a unit
on both sides (and rho(1) = 1, t(1) = 1), and it is closed under left
multiplication by each generator g in V (the last three by associativity):
  associativity: ((gu)b)c = (g(ub))c = g((ub)c) = g(u(bc)) = (gu)(bc);
  a module rho: rho(gu) rho(b) = rho(g) rho(ub) = rho(g(ub)) = rho((gu)b);
  an anti-involution t: t((gu)b) = t(ub) t(g) = t(b) t(u) t(g) = t(b) t(gu);
  an intertwiner X: the a with X rho(a) = rho'(a) X form a subalgebra;
  a submodule S, an ideal N: so do the a with rho(a)S in S, aN in N, Na in N.
`_Closure` spans A by the right-normed words g_1 (g_2 (... (g_k . 1))), so
V = A.

So do End(T)'s Du-Rui rules (`standard_basis.verify_standard_axioms`): the
phi with phi c_ij = sum_k r(phi)_ki c_kj, c_ij phi = sum_l r'(phi)_lj c_il
modulo End(<lam) at every cell c_ij of every label lam (r, r' its structure
coefficients) form a subspace W holding 1; each g in W keeps End(<lam) on
either side, and r(g phi) = r(g) r(phi), r'(g phi) = r'(phi) r'(g), so
  (g phi) c_ij = g (sum_k r(phi)_ki c_kj + x) = sum_m (r(g) r(phi))_mi c_mj + g x
for x in End(<lam), c_ij (g phi) likewise: W is a subalgebra.  The walk runs
from the top fiber down, as the cells at and below a label span an ideal I
and probes in I generate only K 1 + I: at the Auslander algebra of K[x]/x^3
a bottom-up walk probes 13 of the 14 cells, the top-down one 6.
"""

from __future__ import annotations

from .linalg import insert_row, reduce_by_pivots


def sparse_table(algebra):
    """sparse[i][j]: the nonzero (k, c) of b_i b_j."""
    return [[[(k, c) for k, c in enumerate(v) if c] for v in row] for row in algebra.table]


def first_nonassociative_pair(algebra) -> tuple[int, int] | None:
    """The first basis pair (i, j), i a generator (the lemma above), with
    b_i (b_j b_k) != (b_i b_j) b_k for some k (where L_i L_j and L_{b_i b_j}
    differ), or None.  Every such triple is checked exactly."""
    p = algebra.field.p
    sparse = algebra.sparse_table()
    for i in algebra.generators():
        row_i = sparse[i]
        for j, ij in enumerate(row_i):
            row_j = sparse[j]
            for k in range(algebra.dim):
                acc = {}
                for l, c in row_j[k]:
                    for t, x in row_i[l]:
                        acc[t] = acc.get(t, 0) + c * x
                for l, c in ij:
                    for t, x in sparse[l][k]:
                        acc[t] = acc.get(t, 0) - c * x
                if any(acc.values()) if p is None else any(x % p for x in acc.values()):
                    return i, j
    return None


def generating_set(algebra) -> tuple[int, ...]:
    """Basis indices that generate the algebra together with the unit.

    Chosen greedily in basis order (b_i joins when it lies outside the
    subalgebra the earlier choices generate), then pruned in one pass: a
    generator is dropped when the others still generate.  No generator can
    then be dropped, since each kept one was needed by a superset of the
    rest.  The choice depends only on which sets generate, and a subspace
    closed under the product is closed under the opposite product, so A and
    A^op get the same indices.  The pruning pass grows the closure of the
    generators it has kept and tests each one on a copy of it.
    """
    sparse = algebra.sparse_table()
    closure = _Closure(algebra.field, algebra.dim, algebra.unit, sparse)
    gens = []
    for i in range(algebra.dim):
        if not closure.full() and not closure.contains(i):
            closure.add_generator(i)
            gens.append(i)
    kept = _Closure(algebra.field, algebra.dim, algebra.unit, sparse)
    for k, g in enumerate(gens):
        if not kept.extended(gens[k + 1:]).full():
            kept.add_generator(g)
    return tuple(kept.gens)


class _Closure:
    """The subalgebra generated by the unit and a growing set of basis elements:
    the span of the words g_1 ... g_k . 1, kept closed under left multiplication
    by every generator as generators are added; on an empty unit, the left
    ideal of the vectors added (`add_vector`).  Rows are sparse dicts in
    reduced row echelon form, keyed by their pivots (leading 1s), so a vector
    lies in the span exactly when reducing it at its pivots leaves nothing.
    `linalg.insert_row` adds a row and replaces the rows it clears, never
    changing a row in place, so `extended` copies share rows.  sparse[g][j]
    lists the nonzero (k, c) of b_g b_j, read for the generators g only, when
    g is first used; a row whose support misses every j with b_g b_j != 0 is
    not multiplied by g."""

    def __init__(self, field, dim, unit, sparse):
        self.field = field
        self.dim = dim
        self.sparse = sparse
        self.support = {}     # generator g -> the j with b_g b_j != 0
        self.rows = {}        # pivot -> row
        self.gens = []
        insert_row(field, {k: c for k, c in enumerate(unit) if c}, self.rows)

    def full(self) -> bool:
        return len(self.rows) == self.dim

    def contains(self, i: int) -> bool:
        return not reduce_by_pivots(self.field.p, {i: self.field.one()}, self.rows)

    def extended(self, gens) -> _Closure:
        """A copy closed under gens as well, sharing the rows."""
        new = object.__new__(_Closure)
        new.__dict__.update(vars(self), rows=dict(self.rows), gens=list(self.gens))
        for g in gens:
            new.add_generator(g)
        return new

    def add_generator(self, g: int):
        """Close the span under g: every row owes a product by g, and every
        new row a product by each generator."""
        self.gens.append(g)
        self._close([(g, row) for row in self.rows.values()])

    def add_vector(self, v) -> bool:
        """Add v and close again; False if v lay in the span."""
        row = insert_row(self.field, {k: c for k, c in enumerate(v) if c}, self.rows)
        self._close([(g, row) for g in self.gens] if row else [])
        return bool(row)

    def _close(self, work):
        support = self.support
        while work and not self.full():
            h, v = work.pop()
            if h not in support:
                support[h] = frozenset(j for j, r in enumerate(self.sparse[h]) if r)
            if support[h].isdisjoint(v):
                continue
            row = insert_row(self.field, self._left_mult(h, v), self.rows)
            if row is not None:
                work.extend((k, row) for k in self.gens)

    def _left_mult(self, g: int, v: dict) -> dict:
        p, row = self.field.p, self.sparse[g]
        acc = {}
        for j, c in v.items():
            for t, x in row[j]:
                acc[t] = acc.get(t, 0) + c * x
        if p is not None:
            acc = {t: x % p for t, x in acc.items()}
        return {t: x for t, x in acc.items() if x}
