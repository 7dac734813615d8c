"""Finite-dimensional algebras by structure constants, their modules and
morphisms, and the structural toolbox: hom spaces, radicals, socles and
heads, Krull-Schmidt decomposition, isomorphism of indecomposables.

Hom spaces impose the intertwining equations for a generating set of A
alone; Hom out of a projective cover A.e is read off e.N, and Hom into or
out of a `direct_sum` block by block.  Associativity, the module axioms,
intertwining, a submodule's invariance and the radical's right-ideal test
take their first factor among the generators alone (the lemma in
`structure`).  An endomorphism phi splits a module in one step: it is an
idempotent, or its Fitting projection is, at 0 or at an eigenvalue in K,
read off the trace when it is phi's only one.  A local ring has no
nontrivial idempotent, so a piece whose End basis does not split is
certified local by those eigenvalues: the phi - chi(phi).1 span a
nilpotent ideal of codimension 1.

A's radical is read off the heads of its projective summands, certified,
and shared with the opposite algebra.  Indecomposables are matched
without randomness, by an invertible element of a hom basis.  All
arithmetic is exact, and the idempotent hunt seeds its own PRNG on every
call.
"""

from __future__ import annotations

import functools
import itertools
import random

from . import poly
from .errors import (
    AlgebraMismatch,
    DimensionMismatch,
    InputError,
    NotComputable,
    NotSplit,
    TheoremViolation,
)
from .linalg import (Field, Matrix, Subspace, block_diag, coordinates, linear_combination,
                     sole_eigenvalue, sparse_kernel, sum_basis, unflatten, vstack)
from .structure import _Closure, first_nonassociative_pair, generating_set, sparse_table


class AlgebraPresentation:
    """An associative unital algebra given by structure constants.

    table[i][j] is the coefficient vector of b_i * b_j in the basis
    b_0, ..., b_{n-1}; unit is the coefficient vector of 1.
    """

    def __init__(self, field: Field, dim: int, table, unit, name: str = "", check: bool = True):
        self.field = field
        self.dim = dim
        self.table = tuple(tuple(tuple(v) for v in row) for row in table)
        self.unit = tuple(unit)
        self.name = name
        self._left_mults = None
        self._sparse_table = None
        self._invariants = {}   # generators and radical, shared with the opposite algebra
        self._summands = None   # the regular module's split (`_regular_summands`), not shared
        self._homs = {}         # hom-space bases by module content (`hom_space`), not shared
        self._projectives = {}  # content of P = A.e -> its inclusion into A, not shared
        self._radicals = {}     # module radicals by module content (`module_radical`), not shared
        if len(self.table) != dim or any(len(r) != dim for r in self.table):
            raise InputError("structure constant table has wrong shape")
        if len(self.unit) != dim:
            raise InputError("unit vector has wrong length")
        if check:
            self._check_axioms()

    @classmethod
    def from_struct_consts(cls, field, dim, entries, unit, name="", check=True):
        """entries: iterable of (i, j, k, scalar) meaning b_i b_j = sum_k c * b_k."""
        z = field.zero()
        table = [[[z] * dim for _ in range(dim)] for _ in range(dim)]
        for (i, j, k, val) in entries:
            if not (0 <= i < dim and 0 <= j < dim and 0 <= k < dim):
                raise InputError(f"structure constant index ({i},{j},{k}) out of range")
            if isinstance(val, (int, str)):
                val = field.parse(val)
            table[i][j][k] = field.add(table[i][j][k], val)
        unit_vec = [field.parse(u) if isinstance(u, (int, str)) else u for u in unit]
        return cls(field, dim, table, unit_vec, name=name, check=check)

    # -- multiplication -------------------------------------------------------

    def multiply(self, a, b):
        """Product of two coefficient vectors, read off `sparse_table`."""
        p, sparse, acc = self.field.p, self.sparse_table(), {}
        nz_b = [(j, y) for j, y in enumerate(b) if y]
        for i, x in enumerate(a):
            if x:
                row = sparse[i]
                for j, y in nz_b:
                    c = x * y
                    for k, t in row[j]:
                        acc[k] = acc.get(k, 0) + c * t
        out = [0] * self.dim
        for k, v in acc.items():
            out[k] = v if p is None else v % p
        return tuple(out)

    def sparse_table(self):
        """`structure.sparse_table`, listed once."""
        if self._sparse_table is None:
            self._sparse_table = sparse_table(self)
        return self._sparse_table

    def left_mult_basis(self):
        """Matrices of left multiplication by each basis element."""
        if self._left_mults is None:  # column j of the i-th is b_i b_j
            self._left_mults = tuple(Matrix(self.field, list(zip(*row))) for row in self.table)
        return self._left_mults

    def left_mult(self, a) -> Matrix:
        return linear_combination(self.field, a, self.left_mult_basis(), self.dim, self.dim)

    def _check_axioms(self):
        if self.left_mult(self.unit) != Matrix.identity(self.field, self.dim):
            raise InputError("unit is not a left identity")
        if any(self.multiply(e, self.unit) != e for e in map(self.basis_vector, range(self.dim))):
            raise InputError("unit is not a right identity")
        pair = first_nonassociative_pair(self)
        if pair is not None:
            raise InputError("multiplication not associative at basis pair ({},{})".format(*pair))

    def generators(self) -> tuple[int, ...]:
        """Basis indices that generate the algebra together with the unit
        (`structure.generating_set`), computed once and shared with the
        opposite algebra, which the same indices generate."""
        if "generators" not in self._invariants:
            self._invariants["generators"] = generating_set(self)
        return self._invariants["generators"]

    def opposite(self) -> "AlgebraPresentation":
        op = AlgebraPresentation(self.field, self.dim, list(zip(*self.table)), self.unit,
                                 name=self.name + "^op", check=False)
        op._invariants = self._invariants
        return op

    def regular_module(self) -> "ModuleRep":
        return ModuleRep(self, self.dim, self.left_mult_basis(), check=False)

    def basis_vector(self, i):
        F = self.field
        return tuple(F.one() if t == i else F.zero() for t in range(self.dim))


class _Content(tuple):
    """A module's action matrices, hashed once: the memos keyed on module
    content (hom spaces, radicals, syzygies, Ext groups) hash it per lookup.
    A `direct_sum`'s content lists its summands in `parts`, for `hom_space`."""

    _hash = None
    parts = ()

    def __hash__(self):
        if self._hash is None:
            self._hash = tuple.__hash__(self)
        return self._hash


class ModuleRep:
    """A finite-dimensional left module: one action matrix per algebra basis element."""

    def __init__(self, algebra: AlgebraPresentation, dim: int, action, check: bool = True):
        self.algebra = algebra
        self.dim = dim
        self.action = _Content(action)
        if len(self.action) != algebra.dim:
            raise InputError("need one action matrix per algebra basis element")
        for m in self.action:
            if m.rows != dim or m.cols != dim:
                raise InputError("action matrix has wrong shape")
        if check:
            self.check_axioms()

    def check_axioms(self):
        F = self.algebra.field
        if self.act(self.algebra.unit) != Matrix.identity(F, self.dim):
            raise InputError("unit does not act as the identity")
        for i in self.algebra.generators():  # enough by `structure`'s lemma
            for j in range(self.algebra.dim):
                if self.action[i] @ self.action[j] != self.act(self.algebra.table[i][j]):
                    raise InputError(f"module axiom fails at basis pair ({i},{j})")

    def act(self, coeffs) -> Matrix:
        return linear_combination(self.algebra.field, coeffs, self.action, self.dim, self.dim)

    def __repr__(self):
        return f"ModuleRep(dim {self.dim} over {self.algebra.name or 'A'})"


class Morphism:
    """An intertwiner source -> target, stored as a (target.dim x source.dim) matrix."""

    __slots__ = ("source", "target", "matrix")

    def __init__(self, source: ModuleRep, target: ModuleRep, matrix: Matrix, check: bool = False):
        if source.algebra is not target.algebra and source.algebra.table != target.algebra.table:
            raise AlgebraMismatch("morphism between modules over different algebras")
        if matrix.rows != target.dim or matrix.cols != source.dim:
            raise DimensionMismatch("morphism matrix has wrong shape")
        self.source = source
        self.target = target
        self.matrix = matrix
        if check:
            self.check_intertwines()

    def check_intertwines(self):
        for i in self.source.algebra.generators():  # enough by `structure`'s lemma
            if self.matrix @ self.source.action[i] != self.target.action[i] @ self.matrix:
                raise InputError(f"matrix does not intertwine basis element {i}")

    def __matmul__(self, other: "Morphism") -> "Morphism":
        if other.target.dim != self.source.dim:
            raise DimensionMismatch("composition shape mismatch")
        return Morphism(other.source, self.target, self.matrix @ other.matrix)

    def __add__(self, other):
        return Morphism(self.source, self.target, self.matrix + other.matrix)

    def __sub__(self, other):
        return Morphism(self.source, self.target, self.matrix - other.matrix)

    def scale(self, c):
        return Morphism(self.source, self.target, self.matrix.scale(c))

    def is_zero(self):
        return self.matrix.is_zero()

    def is_injective(self):
        return self.matrix.rank() == self.source.dim

    def is_surjective(self):
        return self.matrix.rank() == self.target.dim

    def is_invertible(self):
        return self.source.dim == self.target.dim and self.matrix.is_invertible()

    def inverse(self) -> "Morphism":
        return Morphism(self.target, self.source, self.matrix.inverse())

    def kernel(self) -> Subspace:
        return Subspace(self.source.dim, self.matrix.kernel())

    @classmethod
    def identity(cls, m: ModuleRep):
        return cls(m, m, Matrix.identity(m.algebra.field, m.dim))

    @classmethod
    def zero(cls, source: ModuleRep, target: ModuleRep):
        return cls(source, target, Matrix.zeros(source.algebra.field, target.dim, source.dim))

    def __repr__(self):
        return f"Morphism({self.source.dim} -> {self.target.dim})"


# -- submodules, quotients, sums -----------------------------------------------


def submodule_rep(m: ModuleRep, space: Subspace):
    """(module on the subspace, inclusion morphism).  space must be invariant:
    checked for the generators alone (`structure`'s lemma); the other
    actions are read at its pivot rows."""
    gens = m.algebra.generators()
    incl = space.basis.transpose()  # dim x r, columns are basis vectors
    pivots = [srow[0][0] for srow in space.basis.sparse_rows()]
    action = [space.coordinates(a @ incl) if i in gens else
              Matrix._of(a.field, tuple([a.entries[c] for c in pivots]), m.dim) @ incl
              for i, a in enumerate(m.action)]
    sub = ModuleRep(m.algebra, space.dim, action, check=False)
    return sub, Morphism(sub, m, incl)


def quotient_rep(m: ModuleRep, space: Subspace):
    """(quotient module, projection morphism, section matrix) by an invariant
    subspace; each action is proj @ a at the free columns the section picks."""
    proj, section = space.complement_projection()
    free = [r for r, srow in enumerate(section.sparse_rows()) if srow]
    action = [Matrix._of(a.field, tuple([tuple([r[c] for c in free]) for r in (proj @ a).entries]),
                         len(free)) for a in m.action]
    quot = ModuleRep(m.algebra, m.dim - space.dim, action, check=False)
    return quot, Morphism(m, quot, proj), section


def direct_sum(mods):
    """(sum module, inclusions, projections); the content of a sum of two or
    more nonzero modules lists them (`_Content.parts`)."""
    mods = list(mods)
    alg = mods[0].algebra
    F = alg.field
    action = [block_diag([m.action[i] for m in mods]) for i in range(alg.dim)]
    total = ModuleRep(alg, sum(m.dim for m in mods), action, check=False)
    if sum(m.dim > 0 for m in mods) > 1:
        total.action.parts = mods
    incls, projs = [], []
    offset = 0
    for m in mods:
        pr = block_diag([Matrix.zeros(F, 0, offset), Matrix.identity(F, m.dim),
                         Matrix.zeros(F, 0, total.dim - offset - m.dim)])
        incls.append(Morphism(m, total, pr.transpose()))
        projs.append(Morphism(total, m, pr))
        offset += m.dim
    return total, incls, projs


def submodule_generated(m: ModuleRep, vectors) -> Subspace:
    """Smallest invariant subspace containing the given vectors, in one step:
    A.S is the span of every b_j v, which contains S (the unit is a
    combination of the b_j) and is invariant (so is every b_i b_j)."""
    F = m.algebra.field
    space = Subspace.from_rows(F, m.dim, vectors)
    if space.dim == 0:
        return space
    incl = space.basis.transpose()
    return Subspace.from_rows(F, m.dim, [r for a in m.action
                                         for r in (a @ incl).transpose().entries])


# -- hom spaces ------------------------------------------------------------------


def hom_space(m: ModuleRep, n: ModuleRep) -> list[Morphism]:
    """Canonical basis of the space of intertwiners m -> n: the RREF basis
    in row-major matrix coordinates, which depends on the space alone.  It
    is found once per presentation and content (m.action, n.action), kept
    on m's presentation (A and A^op keep their own), and returned on the
    caller's m and n.  Hom out of a projective cover P = A.e that
    `simples_and_split_check` found is read off e.N (`_yoneda_basis`), Hom
    into or out of a `direct_sum` off its blocks (`linalg.sum_basis`), and
    any other is solved (`_hom_basis`): the same basis entry for entry.
    """
    if m.algebra is not n.algebra and m.algebra.table != n.algebra.table:
        raise AlgebraMismatch("hom between modules over different algebras")
    if m.dim == 0 or n.dim == 0:
        return []
    key = (m.action, n.action)
    memo = m.algebra._homs
    if key not in memo:
        incl, F = m.algebra._projectives.get(m.action), m.algebra.field
        if incl is not None:
            memo[key] = _yoneda_basis(n, incl)
        elif n.action.parts:
            memo[key] = sum_basis(F, [(x.dim, [f.matrix for f in hom_space(m, x)])
                                      for x in n.action.parts], m.dim, True)
        elif m.action.parts:
            memo[key] = sum_basis(F, [(x.dim, [f.matrix for f in hom_space(x, n)])
                                      for x in m.action.parts], n.dim, False)
        else:
            memo[key] = _hom_basis(m, n)
    return [Morphism(m, n, mat) for mat in memo[key]]


def _yoneda_basis(n: ModuleRep, incl: Matrix) -> tuple[Matrix, ...]:
    """The matrices of `hom_space`'s basis of Hom(P, n) for P = A.e, whose
    basis vectors are the columns u_j of incl in A.  A map f: P -> n is
    x -> x.f(e) (Yoneda), so the maps x -> x.d_t for n's basis vectors d_t
    span Hom(P, n); column j of the t-th is u_j.d_t, column t of u_j's
    action."""
    F = n.algebra.field
    dn, dp = n.dim, incl.cols
    acts = [n.act(u).entries for u in incl.transpose().entries]
    maps = Matrix(F, [[acts[j][i][t] for i in range(dn) for j in range(dp)] for t in range(dn)])
    red, _, rank = maps.rref()
    return unflatten(F, red.entries[:rank], dp)


def _hom_basis(m: ModuleRep, n: ModuleRep) -> tuple[Matrix, ...]:
    """`hom_space`'s basis solved from X a_M(g) = a_N(g) X for A's
    generators g, enough as every module's action is a unital algebra
    homomorphism (checked on load or built from A's operations).  Entry
    (r, c) of an equation reads 0 = 0 unless row r of a_N(g) or column c of
    a_M(g) is nonzero, and only those entries are formed."""
    F = m.algebra.field
    p = F.p
    dm, dn = m.dim, n.dim
    rows = []
    # unknown X is dn x dm, flattened row-major: index (r, c) -> r * dm + c
    for b in m.algebra.generators():
        # (X am)[r, c] = sum_k X[r, k] am[k, c]
        am_cols = [[] for _ in range(dm)]
        for k, srow in enumerate(m.action[b].sparse_rows()):
            for c, x in srow:
                am_cols[c].append((k, x))
        live = [c for c in range(dm) if am_cols[c]]
        # (an X)[r, c] = sum_k an[r, k] X[k, c]
        an_rows = n.action[b].sparse_rows()
        for r in range(dn):
            an_r = an_rows[r]
            for c in range(dm) if an_r else live:
                row = {r * dm + k: x for k, x in am_cols[c]}
                for k, x in an_r:
                    t = k * dm + c
                    v = row.pop(t, 0) - x
                    if p is not None:
                        v %= p
                    if v:
                        row[t] = v
                if row:
                    rows.append(row)
    return unflatten(F, sparse_kernel(F, rows, dn * dm).entries, dm)


class EndAlgebra:
    """End(M) as an abstract algebra: `basis` is hom_space(M, M)'s canonical basis
    unless passed in; coordinates and `presentation` are formed on first use,
    and `product` reads the coordinates of a product of two basis elements;
    `find_splitting_idempotent` records `radical` when End(M) is local."""

    def __init__(self, module: ModuleRep, basis: list[Morphism] | None = None):
        self.module = module
        self.basis = hom_space(module, module) if basis is None else basis
        self.field = module.algebra.field
        self.radical = None

    @functools.cached_property
    def _coords(self):
        return coordinates(self.field, [f.matrix.flat() for f in self.basis], self.module.dim**2)

    @functools.cached_property
    def presentation(self) -> AlgebraPresentation:
        table = [[self.product(a, b) for b in range(self.dim)] for a in range(self.dim)]
        unit = self.coords(Matrix.identity(self.field, self.module.dim))
        return AlgebraPresentation(self.field, len(self.basis), table, unit, check=False)

    def coords(self, matrix: Matrix):
        return self._coords(matrix.flat())

    def product(self, a: int, b: int):
        """The coordinates of basis[a] . basis[b], read at the pivots
        (`linalg.coordinates`) with no product formed and no membership
        check.  In its stead: each basis element is an intertwiner (a
        `hom_space` solution, or a composite of linear combinations of such,
        as a cell is), so the product lies in End(M); and the basis spans
        End(M), being the whole hom basis, or cells that `finalize_datum`
        certified by count and independence."""
        return self._coords.of_product(self.basis[a].matrix, self.basis[b].matrix)

    def from_coords(self, coeffs) -> Morphism:
        n = self.module.dim
        return Morphism(self.module, self.module, linear_combination(
            self.field, coeffs, [f.matrix for f in self.basis], n, n))

    @property
    def dim(self):
        return len(self.basis)


# -- radical machinery -------------------------------------------------------------


def algebra_radical(algebra: AlgebraPresentation) -> Subspace:
    """The Jacobson radical of a split algebra as a subspace of it, in every
    characteristic read off the heads of its projective summands
    (`_radical_from_projectives`); raises NotSplit on a non-split algebra.
    The result is certified a nilpotent ideal; that it is not too small is
    the Wedderburn count of `simples_and_split_check`.  It is computed once
    per presentation and shared with the opposite algebra, whose radical is
    the same subspace.
    """
    shared = algebra._invariants
    if "radical" not in shared:
        rad = _radical_from_projectives(algebra)
        defect = _ideal_defect(algebra, rad)
        if defect:
            raise NotComputable(f"radical candidate is {defect}")
        shared["radical"] = rad
    return shared["radical"]


def _radical_from_projectives(algebra: AlgebraPresentation) -> Subspace:
    """J(A) as the sum of rad P = J.P over the summands P = A.e of the
    regular module.  rad P is generated by the images of the radical maps
    into P: e_k.P for the idempotents e_k of the other isomorphism classes,
    and the images of rad End(P), which the split recorded when it certified
    End(P) local (`_local_radical`)."""
    F = algebra.field
    vectors = []
    for cls in _regular_summands(algebra):
        # f.P is the sum of the e_k.P, for f = 1 - the class's idempotents
        f = list(algebra.unit)
        for e_vec, *_ in cls:
            f = [F.sub(x, y) for x, y in zip(f, e_vec)]
        left = algebra.left_mult(f)
        for _, _, incl, _, E in cls:
            gens = [left @ incl.matrix] + [incl.matrix @ E.from_coords(r).matrix
                                           for r in E.radical.basis.entries]
            vectors.extend(r for g in gens for r in g.transpose().entries)
    return submodule_generated(algebra.regular_module(), vectors)


def _ideal_defect(algebra: AlgebraPresentation, rad: Subspace) -> str | None:
    """Why rad is not a nilpotent two-sided ideal of the algebra, or None.
    The right-ideal test takes g from the generators (`structure`'s lemma);
    A.rad = A.{v_i} for its rows v_i outside the left ideal of the earlier
    ones holds rad, so rad is a left ideal when the two have one dimension."""
    F = algebra.field
    n = algebra.dim
    for g in algebra.generators():
        e_g = algebra.basis_vector(g)
        if not all(rad.contains_vector(algebra.multiply(v, e_g)) for v in rad.basis.entries):
            return "not a right ideal"
    ideal = _Closure(F, n, (), algebra.sparse_table())
    for g in algebra.generators():
        ideal.add_generator(g)
    gens = [v for v in rad.basis.entries if ideal.add_vector(v)]
    if len(ideal.rows) != rad.dim:
        return "not a left ideal"
    # nilpotency: R^{k+1} = R^k.A.{v_i} is spanned by the u.v_i.  The powers
    # of an ideal are nested, so they reach zero unless one step keeps the
    # dimension, where they stay for good
    current = rad
    while current.dim:
        nxt = Subspace.from_rows(F, n, [algebra.multiply(u, v) for u in current.basis.entries
                                        for v in gens])
        if nxt.dim == current.dim:
            return "not nilpotent"
        current = nxt
    return None


def module_radical(m: ModuleRep) -> Subspace:
    """(rad A) M as a subspace of M, found once per presentation and module
    content, as `hom_space` is."""
    memo = m.algebra._radicals
    if m.action not in memo:
        rows = []
        for r in algebra_radical(m.algebra).basis.entries:
            rows.extend(m.act(r).transpose().entries)  # columns of r's action span r.M
        memo[m.action] = Subspace.from_rows(m.algebra.field, m.dim, rows)
    return memo[m.action]


def module_socle(m: ModuleRep) -> Subspace:
    """Annihilator of rad A in M."""
    F = m.algebra.field
    rad = algebra_radical(m.algebra)
    if rad.dim == 0:
        return Subspace.full(F, m.dim)
    stacked = vstack([m.act(r) for r in rad.basis.entries])
    return Subspace(m.dim, stacked.kernel())


def module_head(m: ModuleRep):
    """(head module, projection morphism)."""
    sub = module_radical(m)
    quot, proj, _ = quotient_rep(m, sub)
    return quot, proj


# -- idempotents and Krull-Schmidt ----------------------------------------------


def _fitting_projection(m: Matrix) -> Matrix | None:
    """The projection onto im(M^n) along ker(M^n), M n x n: the Fitting
    decomposition K^n = im(M^n) + ker(M^n), whose summands are M-invariant
    since the ranks of the powers of M are constant from n on.  None when
    M is invertible or nilpotent, where one summand is all of K^n."""
    F = m.field
    n = m.rows
    power = m.power(n)
    img = Subspace.from_rows(F, n, power.transpose().entries)
    if not 0 < img.dim < n:
        return None
    basis = vstack([img.basis, power.kernel()]).transpose()
    # columns of basis: im then ker; keep the image coordinates only
    return img.basis.transpose() @ Matrix(F, basis.inverse().entries[:img.dim])


def _idempotent_from_element(E: EndAlgebra, phi: Morphism):
    """(idempotent, eigenvalue): a nontrivial exact idempotent made from phi,
    namely phi itself, or the Fitting projection of phi, or that of phi - r.1
    at the str-least linear root r of phi's characteristic polynomial (onto
    the generalized eigenspaces of the other eigenvalues); else None, with
    r, phi's one eigenvalue (phi - r.1 nilpotent), or None if r is not in K."""
    F = E.field
    n = phi.matrix.rows
    ident = Matrix.identity(F, n)
    if phi.matrix == ident:
        return None, F.one()
    if (phi @ phi).matrix == phi.matrix and not phi.matrix.is_zero():
        return phi, None
    proj = _fitting_projection(phi.matrix)
    if proj is not None:
        return Morphism(phi.source, phi.source, proj), None
    r = sole_eigenvalue(phi.matrix)
    if r is not None:
        return None, r
    roots = poly.linear_roots(F, poly.charpoly(phi.matrix))[0]
    if not roots:
        return None, None
    root = min(roots, key=str)
    proj = _fitting_projection(phi.matrix - ident.scale(root))
    return (None, root) if proj is None else (Morphism(phi.source, phi.source, proj), None)


def _local_radical(E: EndAlgebra, eigenvalues) -> Subspace | None:
    """N = span{phi - chi(phi).1 : phi in E's basis}, the eigenvalues chi the
    sweep read (None where not in K), when it is a nilpotent ideal of
    codimension 1, so that E/N = K and N = rad E certifies E local; else None."""
    if None in eigenvalues:
        return None
    F, pres = E.field, E.presentation
    N = Subspace.from_rows(F, E.dim, [
        [F.sub(x, F.mul(chi, u)) for x, u in zip(pres.basis_vector(i), pres.unit)]
        for i, chi in enumerate(eigenvalues)])
    return N if N.dim == E.dim - 1 and _ideal_defect(pres, N) is None else None


def find_splitting_idempotent(E: EndAlgebra) -> Morphism | None:
    """A nontrivial idempotent endomorphism, or None if End(M) is local.

    A deterministic sweep over the basis, its pairwise sums and products,
    then 400 random combinations with growing coefficient spans from a PRNG
    seeded afresh on each call, so two calls on the same End return the
    same idempotent.  Once no basis element splits, the eigenvalues the
    sweep read certify the module indecomposable (`_local_radical`), and
    the radical they give is recorded as `E.radical`.
    """
    F = E.field
    if E.dim == 1:
        E.radical = Subspace.zero(F, 1)
        return None
    # basis elements, then pairwise sums, then products, each formed only
    # when the sweep reaches it
    candidates = itertools.chain(
        E.basis,
        (f + g for f, g in itertools.combinations(E.basis, 2)),
        (f @ g for f in E.basis for g in E.basis))
    eigenvalues = []
    for count, phi in enumerate(candidates):
        if count == E.dim:
            E.radical = _local_radical(E, eigenvalues)
            if E.radical is not None:
                return None
        e, chi = _idempotent_from_element(E, phi)
        if e is not None:
            return e
        eigenvalues.append(chi)
    # seeded random probes over growing coefficient pools
    rng = random.Random(0)
    for attempt in range(400):
        coeffs = [F.sample(rng, span=2 + attempt // 50) for _ in range(E.dim)]
        phi = E.from_coords(coeffs)
        if phi.matrix.is_zero():
            continue
        e = _idempotent_from_element(E, phi)[0]
        if e is not None:
            return e
    raise NotComputable(
        "End(M)/rad has dimension > 1 but no splitting idempotent was found "
        "(is the residue algebra a division algebra over a non-split input?)"
    )


def split_by_idempotent(m: ModuleRep, e: Morphism):
    """M = im(e) + im(1-e) as (module, inclusion, projection) pairs."""
    F = m.algebra.field
    ident = Morphism.identity(m)
    pieces = []
    for endo in (e, ident - e):
        img = Subspace.from_rows(F, m.dim, endo.matrix.transpose().entries)
        sub, incl = submodule_rep(m, img)
        # projection: incl . proj = endo (endo acts as identity on its image)
        pieces.append((sub, incl, Morphism(m, sub, img.coordinates(endo.matrix))))
    return pieces


def _decompose(m: ModuleRep, endomorphisms):
    """Split m by idempotents until every piece has a local End, where
    endomorphisms(piece, incl into m) gives End(piece) as an `EndAlgebra` on
    its canonical basis.  Each leaf is (piece, incl, proj, End(piece)), its
    End carrying the radical that certified it local."""
    def split(piece, incl, proj):
        E = endomorphisms(piece, incl)
        e = find_splitting_idempotent(E)
        if e is None:
            return [(piece, incl, proj, E)]
        return [leaf for sub, sub_incl, sub_proj in split_by_idempotent(piece, e) if sub.dim
                for leaf in split(sub, incl @ sub_incl, sub_proj @ proj)]

    return split(m, Morphism.identity(m), Morphism.identity(m)) if m.dim else []


def krull_schmidt(m: ModuleRep):
    """Indecomposable summands as a list of (module, inclusion, projection).

    Each piece's End is solved by `hom_space`, and each returned summand
    carries the local-endomorphism-ring certificate.  Inclusions and
    projections compose to idempotents of m summing to 1.
    """
    return [leaf[:3] for leaf in _decompose(m, lambda piece, _incl: EndAlgebra(piece))]


def _indec_isomorphism(m: ModuleRep, n: ModuleRep) -> Morphism | None:
    """The first invertible element of hom_space(m, n), or None.  When m or
    n is indecomposable, one exists exactly when m and n are isomorphic.

    Say m and n are isomorphic, with f_i the basis of Hom(m, n) and g_j one
    of Hom(n, m).  Both are indecomposable, so End(m) is local.  An
    isomorphism sum a_i f_i with inverse sum b_j g_j gives
    1 = sum a_i b_j g_j f_i in End(m); a sum of non-units of a local ring is
    a non-unit, so some g_j f_i is a unit.  That f_i is injective between
    spaces of one dimension, hence invertible.
    """
    if m.dim != n.dim:
        return None
    return next((f for f in hom_space(m, n) if f.is_invertible()), None)


# -- simples of the algebra ------------------------------------------------------


class SimpleDatum:
    """One isomorphism class of simple modules with its projective cover data."""

    __slots__ = ("idempotent", "simple", "projective", "head_proj")

    def __init__(self, idempotent, simple, projective, head_proj):
        self.idempotent = idempotent      # coefficient vector in A
        self.simple = simple              # ModuleRep L
        self.projective = projective      # ModuleRep P = A e
        self.head_proj = head_proj        # Morphism P ->> L


def _regular_summands(algebra: AlgebraPresentation):
    """The regular module's indecomposable summands P = A.e in isomorphism
    classes of (idempotent, P, inclusion, projection, End(P) with its radical),
    split as `krull_schmidt` splits and grouped as `_indec_isomorphism` does,
    every End and Hom read off A's product and none off the radical.  Computed
    once per presentation (A^op's summands are not A's); raises NotSplit when
    the regular module resists splitting."""
    if algebra._summands is not None:
        return algebra._summands
    F = algebra.field
    try:
        summands = _decompose(algebra.regular_module(), lambda piece, incl: EndAlgebra(
            piece, [Morphism(piece, piece, x) for x in _yoneda_basis(piece, incl.matrix)]))
    except NotComputable as exc:
        # the regular module resisted splitting: a division endomorphism
        # algebra beyond K, i.e. a non-split input
        raise NotSplit(f"algebra appears not to be split over {F!r}: {exc}") from exc
    unit_col = Matrix.column(F, algebra.unit)
    classes: list[list] = []
    for (p_mod, incl, proj, E) in summands:
        e_vec = tuple(r[0] for r in ((incl @ proj).matrix @ unit_col).entries)
        ent = (e_vec, p_mod, incl, proj, E)
        for cls in classes:
            q_mod = cls[0][1]
            if p_mod.dim == q_mod.dim and any(
                    x.is_invertible() for x in _yoneda_basis(q_mod, incl.matrix)):
                cls.append(ent)
                break
        else:
            classes.append([ent])
    algebra._summands = classes
    return classes


def simples_and_split_check(algebra: AlgebraPresentation) -> list[SimpleDatum]:
    """Primitive idempotents, projectives and simples of a split algebra.

    One projective per class of `_regular_summands`, with its head through
    A's certified radical (`algebra_radical`).  Each head L has End(L) = K,
    as the split certified End(P)/rad End(P) = K for its projective cover P
    (`_local_radical`).  The grouping does not depend on the radical, so
    Wedderburn's count can check the radical against it: dim A - dim rad A
    is the sum of the squared simple dimensions, which a nilpotent ideal
    smaller than the radical fails.  Each projective is kept on the
    presentation with its inclusion into A, for `hom_space` to read Hom out
    of it off e.N.  Raises NotSplit when the split fails
    (`_regular_summands`), and TheoremViolation when the count fails.
    Output order is canonical: by the idempotent's first supported
    coordinate, then lexicographically.
    """
    def support_key(vec):
        first = next((i for i, x in enumerate(vec) if x), len(vec))
        return (first, tuple(str(x) for x in vec))

    reps = [min(cls, key=lambda ent: support_key(ent[0])) for cls in _regular_summands(algebra)]
    reps.sort(key=lambda ent: support_key(ent[0]))
    out = []
    for (e_vec, p_mod, incl, *_) in reps:
        head, head_proj = module_head(p_mod)
        out.append(SimpleDatum(e_vec, head, p_mod, head_proj))
        algebra._projectives[p_mod.action] = incl.matrix
    quotient = algebra.dim - algebra_radical(algebra).dim
    squares = sum(d.simple.dim ** 2 for d in out)
    if quotient != squares:
        raise TheoremViolation(f"Wedderburn count fails: dim - dim rad = {quotient} but "
                               f"the simples' squared dimensions sum to {squares}")
    return out
