import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tiltcell import poly
from tiltcell.errors import DependentFamily, DimensionMismatch, InconsistentSystem, InputError
from tiltcell.linalg import (
    Field,
    Matrix,
    Subspace,
    block_diag,
    coordinates,
    linear_combination,
    sparse_kernel,
    vstack,
)

from oracles import from_int_rows, hstack, intersect, span_sum
from test_algebra import minpoly

Q = Field()
F5 = Field(5)


def test_field_validation():
    with pytest.raises(InputError):
        Field(6)
    assert Field(7).characteristic == 7
    assert Q.characteristic == 0


def test_parse_scalars():
    assert Q.parse("3/4") == Fraction(3, 4)
    assert Q.parse(-2) == Fraction(-2)
    assert F5.parse("3/4") == (3 * pow(4, 3, 5)) % 5
    with pytest.raises(InputError):
        Q.parse(1.5)
    with pytest.raises(InputError):
        Q.parse("1/0")
    # a denominator divisible by p is 0 in F_p, not invertible
    assert Q.parse("1/5") == Fraction(1, 5)
    for text in ("1/5", "2/10", "0/-5"):
        with pytest.raises(InputError, match="denominator"):
            F5.parse(text)
    assert F5.parse("1/6") == 1


def test_rref_identity():
    m = Matrix.identity(Q, 2)
    red, pivots, rank = m.rref()
    assert red == m and pivots == (0, 1) and rank == 2


def test_rref_zero():
    m = Matrix.zeros(Q, 3, 3)
    red, pivots, rank = m.rref()
    assert red == m and pivots == () and rank == 0


def test_rref_rank_one():
    m = from_int_rows(Q, [[2, 4], [1, 2]])
    red, _, rank = m.rref()
    assert red == from_int_rows(Q, [[1, 2], [0, 0]])
    assert rank == 1


def test_solve_identity():
    b = from_int_rows(Q, [[3], [7]])
    part = Matrix.identity(Q, 2).solve(b)
    assert part == b and Matrix.identity(Q, 2).kernel().rows == 0


def test_solve_zero_full_nullspace():
    a = Matrix.zeros(Q, 2, 2)
    part = a.solve(Matrix.zeros(Q, 2, 1))
    assert part.is_zero() and a.kernel().rows == 2


def test_solve_f5_matches_enumeration():
    # oracle: enumerate all 25 vectors over F_5
    a = from_int_rows(F5, [[1, 1]])
    b = from_int_rows(F5, [[2]])
    solutions = {(x, y) for x in range(5) for y in range(5) if (x + y) % 5 == 2}
    part = a.solve(b)
    assert (part.entries[0][0], part.entries[1][0]) in solutions
    assert part.entries == ((2,), (0,))
    assert a.kernel().entries == ((1, 4),)
    # every particular + multiple of the kernel vector is a solution
    for t in range(5):
        x = (2 + t * 1) % 5
        y = (0 + t * 4) % 5
        assert (x, y) in solutions
    assert len(solutions) == 5


def test_solve_inconsistent():
    a = from_int_rows(Q, [[1], [1]])
    with pytest.raises(InconsistentSystem):
        a.solve(from_int_rows(Q, [[1], [2]]))


def test_subspace_lattice_q3():
    v12 = Subspace.from_rows(Q, 3, [[1, 0, 0], [0, 1, 0]])
    v23 = Subspace.from_rows(Q, 3, [[0, 1, 0], [0, 0, 1]])
    inter = intersect(v12, v23)
    assert inter == Subspace.from_rows(Q, 3, [[0, 1, 0]])
    assert intersect(v12, v12) == v12
    zero = Subspace.zero(Q, 3)
    assert span_sum(v12, zero) == v12
    assert span_sum(v12, v23).dim == 3


def test_subspace_canonical_equality():
    a = Subspace.from_rows(Q, 2, [[1, 1], [0, 1]])
    b = Subspace.from_rows(Q, 2, [[2, 3], [1, 1]])
    assert a == b
    assert a.basis == b.basis


@pytest.mark.parametrize("field", [Q, F5], ids=repr)
def test_contains_vector_checks_length_on_every_subspace(field):
    # a vector of the wrong length is refused by the zero subspace as by any
    # other, and Subspace.from_rows refuses a row of the wrong length
    for space in (Subspace.zero(field, 3), Subspace.from_rows(field, 3, [[0, 0, 0]]),
                  Subspace.from_rows(field, 3, [[1, 0, 2]]), Subspace.full(field, 3)):
        for vec in ((0, 0), (0, 0, 0, 0), (1, 0)):
            with pytest.raises(DimensionMismatch):
                space.contains_vector(vec)
        assert space.contains_vector((0, 0, 0))
    with pytest.raises(DimensionMismatch):
        Subspace.from_rows(field, 3, [[1, 0, 2], [0, 0]])


@pytest.mark.parametrize("field", [Q, F5], ids=repr)
def test_equal_matrices_hash_equal_however_built(field):
    # the hash is cached on first use; a matrix from __init__, from _of and
    # from transpose must still hash as the equal matrices do
    rows = [[field.of(x) for x in r] for r in [[1, 0, 2], [3, 4, 0]]]
    built = [Matrix(field, rows), Matrix._of(field, tuple(map(tuple, rows)), 3),
             Matrix(field, list(zip(*rows))).transpose(), Matrix(field, rows).transpose().transpose()]
    for m in built:
        assert m == built[0]
        assert hash(m) == hash(m) == hash(built[0])
    assert len(set(built)) == 1
    assert {built[0]: 1}[built[2]] == 1
    assert hash(Matrix(field, rows).transpose()) == hash(Matrix(field, list(zip(*rows))))


def test_matrix_equality_contract():
    m = Matrix(Q, [[1, 0], [Fraction(1, 2), 3]])
    assert m == m
    for p in (None, 5):
        x, y = Matrix(Field(p), [[1, 0, 2]]), Matrix(Field(p), [[1, 0, 2]])
        assert x.field is not y.field
        assert x == y and hash(x) == hash(y)
    assert Matrix(Q, [[1, 0, 2]]) != Matrix(F5, [[1, 0, 2]])
    assert Matrix.identity(Q, 2) != Matrix.identity(F5, 2)
    assert Matrix(Q, [], cols=3) != Matrix(Q, [], cols=4)
    assert Matrix.zeros(Q, 3, 0) != Matrix.zeros(Q, 4, 0)
    assert Matrix.zeros(Q, 3, 0) == Matrix(Q, [[], [], []])
    assert hash(Matrix.zeros(Q, 3, 0)) == hash(Matrix(Q, [[], [], []]))
    assert m != m.entries


def test_declared_width_binds():
    assert Matrix(Q, [[1, 2]], cols=2).cols == 2
    assert Matrix(Q, [], cols=3).cols == 3
    for rows, cols in [([[1, 2]], 3), ([[1, 2]], 0), ([[], []], 1)]:
        with pytest.raises(DimensionMismatch):
            Matrix(Q, rows, cols=cols)
    with pytest.raises(DimensionMismatch):
        Matrix(Q, [[1, 2], [3]])


def test_complement_projection_roundtrip():
    s = Subspace.from_rows(Q, 3, [[1, 2, 0]])
    proj, section = s.complement_projection()
    assert proj.rows == 2 and section.cols == 2
    assert proj @ section == Matrix.identity(Q, 2)
    for row in s.basis.entries:
        assert (proj @ Matrix.column(Q, row)).is_zero()


def test_quotient_by_full_space():
    s = Subspace.full(Q, 2)
    proj, section = s.complement_projection()
    assert proj.rows == 0 and section.cols == 0


small_entries = st.integers(min_value=-4, max_value=4)


def matrices(field, rows, cols):
    return st.lists(st.lists(small_entries, min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows).map(
        lambda ent: from_int_rows(field, ent))


def reference_complement_projection(s):
    """complement_projection as it was: the pivots by a fresh elimination of
    the basis, then the identity on the free coordinates minus a correction."""
    F = s.field
    pivots = s.basis.rref()[1]
    free = [c for c in range(s.ambient) if c not in pivots]
    q = len(free)
    proj_rows = []
    for c in free:
        row = [F.zero()] * s.ambient
        row[c] = F.one()
        proj_rows.append(row)
    proj = Matrix(F, proj_rows, cols=s.ambient)
    if s.dim:
        corr = [[F.zero()] * s.ambient for _ in range(q)]
        for fi, c in enumerate(free):
            for bi, pc in enumerate(pivots):
                corr[fi][pc] = s.basis.entries[bi][c]
        proj = proj - Matrix(F, corr, cols=s.ambient)
    section = Matrix(F, [[F.one() if free[i] == r else F.zero() for i in range(q)]
                         for r in range(s.ambient)], cols=q)
    return proj, section


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([Q, F5]).flatmap(lambda F: st.integers(1, 5).flatmap(
    lambda n: st.integers(0, n + 1).flatmap(lambda k: matrices(F, k, n)))))
def test_complement_projection_matches_reference(m):
    s = Subspace.from_rows(m.field, m.cols, m.entries) if m.rows else Subspace.zero(m.field, m.cols)
    got, want = s.complement_projection(), reference_complement_projection(s)
    for a, b in zip(got, want):
        assert (a.rows, a.cols) == (b.rows, b.cols)
        assert a == b and [list(map(str, r)) for r in a.entries] == [list(map(str, r)) for r in b.entries]


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 4).flatmap(lambda n: matrices(Q, n, n)))
def test_rref_idempotent(m):
    red = m.rref()[0]
    assert red.rref()[0] == red


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 4).flatmap(lambda n: st.tuples(matrices(Q, n, n), matrices(Q, n, 1))))
def test_solve_recovers_consistent_rhs(pair):
    a, x0 = pair
    b = a @ x0
    part = a.solve(b)
    assert a @ part == b


@settings(max_examples=30, deadline=None)
@given(st.tuples(matrices(F5, 3, 4), matrices(F5, 2, 4)))
def test_dim_formula_intersection_sum(pair):
    ma, mb = pair
    v = Subspace.from_rows(F5, 4, ma.entries)
    w = Subspace.from_rows(F5, 4, mb.entries)
    assert intersect(v, w).dim + span_sum(v, w).dim == v.dim + w.dim


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([Q, F5]).flatmap(lambda F: st.tuples(
    st.just(F), st.integers(1, 5).flatmap(lambda n: st.tuples(
        matrices(F, n, n), matrices(F, 1, n))))))
def test_coordinates_in_independent_family(case):
    F, (square, c_row) = case
    n = square.cols
    rank = square.rank()
    k = max(rank, 1)
    fam = Matrix(F, square.entries[:k])
    assume(fam.rank() == k)
    c = c_row.entries[0][:k]
    vec = (Matrix(F, [c]) @ fam).entries[0]
    coords = coordinates(F, fam.entries, n)
    assert coords(vec) == tuple(c)
    assert coords(vec) == tuple(r[0] for r in fam.transpose().solve(Matrix.column(F, vec)).entries)
    # a vector outside the span is refused
    outside = next((t for t in range(n)
                    if Matrix(F, list(fam.entries) + [[F.of(int(t == s)) for s in range(n)]]).rank() > k),
                   None)
    if outside is not None:
        bumped = list(vec)
        bumped[outside] = F.add(bumped[outside], F.one())
        with pytest.raises(InconsistentSystem):
            coords(bumped)
    # a vector of another length is refused, even one that reads as a
    # combination of the family followed by more entries
    for other in (tuple(vec) + (F.one(),), tuple(vec)[:-1]):
        with pytest.raises(DimensionMismatch):
            coords(other)
    # a dependent family is refused
    with pytest.raises(DependentFamily):
        coordinates(F, list(fam.entries) + [vec], n)


def test_coordinates_of_empty_family():
    for F in (Q, F5):
        coords = coordinates(F, [], 3)
        assert coords((F.zero(),) * 3) == ()
        with pytest.raises(InconsistentSystem):
            coords((F.zero(), F.one(), F.zero()))


def test_block_helpers():
    a = Matrix.identity(Q, 2)
    b = from_int_rows(Q, [[5]])
    d = block_diag([a, b])
    assert d.rows == 3 and d.entries[2][2] == 5
    assert hstack([a, a]).cols == 4
    assert vstack([a, a]).rows == 4


# -- polynomial layer ---------------------------------------------------------

def test_charpoly_and_minpoly():
    m = from_int_rows(Q, [[2, 1], [0, 3]])
    assert poly.charpoly(m) == (Fraction(6), Fraction(-5), Fraction(1))
    assert minpoly(m) == (Fraction(6), Fraction(-5), Fraction(1))
    # nilpotent Jordan block: charpoly x^3, minpoly x^3
    n = from_int_rows(Q, [[0, 1, 0], [0, 0, 1], [0, 0, 0]])
    assert poly.charpoly(n) == (Fraction(0), Fraction(0), Fraction(0), Fraction(1))
    assert minpoly(n) == (Fraction(0), Fraction(0), Fraction(0), Fraction(1))
    # the identity: charpoly (x - 1)^2, minpoly x - 1
    ident = Matrix.identity(Q, 2)
    assert poly.charpoly(ident) == (Fraction(1), Fraction(-2), Fraction(1))
    assert minpoly(ident) == (Fraction(-1), Fraction(1))


def test_linear_roots_with_multiplicity():
    # (x - 2)^3 (x + 3)^2 (x^2 + 1), and the same over F_5 and F_10007
    f = (Fraction(1),)
    for factor in [(-2, 1)] * 3 + [(3, 1)] * 2 + [(1, 0, 1)]:
        f = poly.mul(Q, f, tuple(Fraction(c) for c in factor))
    roots, rest = poly.linear_roots(Q, f)
    assert sorted(roots) == [-3, -3, 2, 2, 2] and rest == (1, 0, 1)
    # over F_5, x + 3 = x - 2 and x^2 + 1 = (x - 2)(x - 3); over F_10007
    # (= 3 mod 4) x^2 + 1 has no root
    for field, extra, rest_degree in [(F5, [2, 3], 0), (Field(10007), [], 2)]:
        roots, rest = poly.linear_roots(field, tuple(field.of(int(c)) for c in f))
        assert sorted(roots) == sorted(field.of(c) for c in [-3, -3, 2, 2, 2] + extra)
        assert poly.degree(rest) == rest_degree


def test_charpoly_matches_eigenvalue_product_f5():
    rnd = random.Random(7)
    for _ in range(10):
        m = from_int_rows(F5, [[rnd.randrange(5) for _ in range(3)] for _ in range(3)])
        cp = poly.charpoly(m)
        # det(xI - m) at x = t equals evaluated charpoly
        for t in range(5):
            xt = Matrix.identity(F5, 3).scale(t) - m
            det = _det3(F5, xt)
            assert poly.evaluate(F5, cp, t) == det


def _det3(field, m):
    e = m.entries
    total = field.zero()
    for perm, sign in [((0, 1, 2), 1), ((1, 2, 0), 1), ((2, 0, 1), 1),
                       ((0, 2, 1), -1), ((2, 1, 0), -1), ((1, 0, 2), -1)]:
        prod = field.one()
        for r, c in enumerate(perm):
            prod = field.mul(prod, e[r][c])
        total = field.add(total, field.mul(field.of(sign), prod))
    return total


def test_linear_roots_q():
    # (x-1)^2 (x+3)
    f = poly.mul(Q, poly.mul(Q, (-1, 1), (-1, 1)), (3, 1))
    roots, leftover = poly.linear_roots(Q, f)
    assert sorted(roots) == [Fraction(-3), Fraction(1), Fraction(1)]
    assert poly.degree(leftover) == 0
    # irreducible leftover
    g = poly.mul(Q, (-1, 1), (1, 0, 1))
    roots, leftover = poly.linear_roots(Q, g)
    assert roots == [Fraction(1)] and poly.degree(leftover) == 2


def test_rational_roots_divide_exactly():
    # integral coefficients are ints over Q, so an int / int would be a float
    assert [(r, type(r)) for r in poly.linear_roots(Q, (-3, 1))[0]] == [(3, int)]
    assert [(r, type(r)) for r in poly.linear_roots(Q, (1, 2))[0]] == [(Fraction(-1, 2), Fraction)]
    # x (x - 3) (2x + 1)^2 (x^2 + 1), through the candidate search
    f = (0, 1)
    for factor in [(-3, 1), (1, 2), (1, 2), (1, 0, 1)]:
        f = poly.mul(Q, f, factor)
    roots, leftover = poly.linear_roots(Q, f)
    assert sorted(roots) == [Fraction(-1, 2), Fraction(-1, 2), 0, 3]
    assert {type(r) for r in roots} <= {int, Fraction}
    assert poly.degree(leftover) == 2


def test_linear_roots_f5():
    f = (1, 0, 1)  # x^2 + 1 = (x-2)(x-3) over F_5
    roots, leftover = poly.linear_roots(F5, f)
    assert sorted(roots) == [2, 3] and poly.degree(leftover) == 0



def brute_force_roots(field, f):
    """Every root of f over F_p by evaluation at each residue, each divided
    out to its full multiplicity: the reference for linear_roots."""
    roots = []
    for a in range(field.p):
        while poly.degree(f) >= 1 and poly.evaluate(field, f, a) == 0:
            roots.append(a)
            f = poly.deflate_root(field, f, a)
    return roots, f


def seeded_root_poly(field, rng):
    """A nonzero multiple c * x^k * prod (x - r)^m * prod g, with repeated
    roots and with monic quadratic or cubic factors g that have no root."""
    p = field.p
    f = (field.of(rng.randrange(1, p)),) + (field.zero(),) * rng.randrange(3)
    for _ in range(rng.randrange(1, 4)):
        r = field.of(rng.randrange(p))
        for _ in range(rng.randrange(1, 4)):
            f = poly.mul(field, f, (field.neg(r), field.one()))
    for _ in range(rng.randrange(3)):
        while True:
            g = tuple(field.of(rng.randrange(p)) for _ in range(rng.choice((2, 3)))) + (field.one(),)
            if not brute_force_roots(field, g)[0]:
                break
        f = poly.mul(field, f, g)
    return f


@pytest.mark.parametrize("p", [2, 3, 5, 7, 4093, 10007])
def test_linear_roots_match_brute_force_enumeration(p):
    field = Field(p)
    rng = random.Random(p)
    for _ in range(6):
        f = seeded_root_poly(field, rng)
        roots, leftover = poly.linear_roots(field, f)
        want, want_leftover = brute_force_roots(field, f)
        assert sorted(roots) == sorted(want)
        assert poly.degree(leftover) == poly.degree(want_leftover)


# -- sparse kernels against the dense loops ------------------------------------
#
# The dense elimination and product below are the loops that Matrix.rref and
# Matrix.__matmul__ replaced; they test and rewrite every entry through the
# Field methods.  The sparse kernels must return the same values, and the same
# printed strings, on every input.

F10007 = Field(10007)


def dense_rref(m):
    F = m.field
    a = [list(r) for r in m.entries]
    nrows, ncols = m.rows, m.cols
    pivots = []
    prow = 0
    for col in range(ncols):
        sel = None
        for r in range(prow, nrows):
            if a[r][col] != F.zero():
                sel = r
                break
        if sel is None:
            continue
        a[prow], a[sel] = a[sel], a[prow]
        inv = F.inv(a[prow][col])
        a[prow] = [F.mul(inv, x) for x in a[prow]]
        for r in range(nrows):
            if r != prow and a[r][col] != F.zero():
                c = a[r][col]
                a[r] = [F.sub(x, F.mul(c, y)) for x, y in zip(a[r], a[prow])]
        pivots.append(col)
        prow += 1
        if prow == nrows:
            break
    return Matrix(F, a, cols=ncols), tuple(pivots), len(pivots)


def dense_matmul(x, y):
    F = x.field
    zero = F.zero()
    out = []
    for ra in x.entries:
        row = []
        for j in range(y.cols):
            acc = zero
            for k, a in enumerate(ra):
                if a:
                    acc = F.add(acc, F.mul(a, y.entries[k][j]))
            row.append(acc)
        out.append(row)
    return Matrix(F, out, cols=y.cols)


def printed(m):
    return [[str(x) for x in r] for r in m.entries]


def sparse_scalars(field):
    """Mostly zero, with repeated small values so that updates cancel; over
    Q ints, integral Fractions and proper fractions."""
    ints = st.sampled_from([0, 0, 0, 0, 0, 1, 1, -1, 2, -2, 3])
    if field.p is None:
        return st.one_of(ints, ints.map(Fraction),
                         st.tuples(st.integers(-3, 3), st.integers(1, 3)).map(
                             lambda t: Fraction(*t)))
    return st.one_of(ints, st.integers(0, field.p - 1)).map(field.of)


def nonzero_scalars(field):
    """1, as an int or an integral Fraction, or another nonzero value."""
    ones = st.sampled_from([1, Fraction(1)] if field.p is None else [1])
    return st.one_of(ones, sparse_scalars(field).filter(bool))


@st.composite
def sparse_matrices(draw, field, rows=None, cols=None):
    rows = draw(st.integers(0, 7)) if rows is None else rows
    cols = draw(st.integers(0, 7)) if cols is None else cols
    ent = [[draw(sparse_scalars(field)) for _ in range(cols)] for _ in range(rows)]
    # rows with a single nonzero entry, 1 or another value
    for r in draw(st.sets(st.integers(0, max(rows - 1, 0)), max_size=3)):
        if r < rows and cols:
            ent[r] = [field.zero()] * cols
            ent[r][draw(st.integers(0, cols - 1))] = draw(nonzero_scalars(field))
    # whole zero rows and columns, and rows repeated up to a scalar
    for r in draw(st.sets(st.integers(0, max(rows - 1, 0)), max_size=2)):
        if r < rows:
            ent[r] = [field.zero()] * cols
    for c in draw(st.sets(st.integers(0, max(cols - 1, 0)), max_size=2)):
        for r in ent:
            if c < cols:
                r[c] = field.zero()
    if rows >= 2 and draw(st.booleans()):
        s = draw(sparse_scalars(field))
        ent[rows - 1] = [field.mul(s, x) for x in ent[0]]
    return Matrix(field, ent, cols=cols)


kernel_fields = st.sampled_from([Q, Field(2), F5, F10007])


@settings(max_examples=150, deadline=None)
@given(kernel_fields.flatmap(sparse_matrices))
def test_rref_matches_dense_reference(m):
    red, pivots, rank = m.rref()
    ref, ref_pivots, ref_rank = dense_rref(m)
    assert (red, pivots, rank) == (ref, ref_pivots, ref_rank)
    assert (red.rows, red.cols) == (m.rows, m.cols)
    assert printed(red) == printed(ref)


@st.composite
def presolve_systems(draw, field):
    """(width, rows): {column: nonzero coefficient} rows as hom_space builds
    them, summing terms and dropping the ones that cancel.  Chains of
    one-unknown rows force further rows down to one unknown; a chain may run
    through every unknown, and a system may have no row at all."""
    width = draw(st.integers(0, 8))
    scalar = sparse_scalars(field).filter(bool)
    if field.p is None:
        scalar = st.one_of(scalar, st.integers(-3, 3).filter(bool))
    order = draw(st.permutations(range(width)))
    chain = order[:draw(st.integers(0, width))]
    terms = [[(j, draw(scalar))] + ([(chain[i - 1], draw(scalar))] if i else [])
             for i, j in enumerate(chain)]
    for _ in range(draw(st.integers(0, 5)) if width else 0):
        cols = draw(st.lists(st.integers(0, width - 1), min_size=1, max_size=4))
        terms.append([(j, draw(scalar)) for j in cols])
        if draw(st.booleans()):  # a term and its negative
            x = draw(scalar)
            terms[-1] += [(cols[0], x), (cols[0], field.neg(x))]
    rows = []
    for t in draw(st.permutations(terms)):
        row = {}
        for j, x in t:
            x = field.add(row.pop(j, field.zero()), x)
            if x:
                row[j] = x
        if row:
            rows.append(row)
    return width, rows


@settings(max_examples=300, deadline=None)
@given(kernel_fields.flatmap(lambda F: presolve_systems(F).map(lambda s: (F, *s))))
def test_sparse_kernel_matches_dense_kernel(case):
    F, width, rows = case
    dense = Matrix(F, [[r.get(j, F.zero()) for j in range(width)] for r in rows], cols=width)
    got = sparse_kernel(F, rows, width)
    want = dense.kernel()
    assert got == want and (got.rows, got.cols) == (want.rows, want.cols)
    assert printed(got) == printed(want)
    ref = dense_kernel(dense)
    assert want == ref and (want.rows, want.cols) == (ref.rows, ref.cols)
    assert printed(want) == printed(ref)


def dense_kernel(m):
    """The null space read off `dense_rref`: one vector per free column c,
    1 at c and minus column c of the reduced rows at their pivots, put in
    RREF by the dense loop."""
    F = m.field
    red, pivots, _ = dense_rref(m)
    vecs = []
    for c in range(m.cols):
        if c not in pivots:
            v = [F.zero()] * m.cols
            v[c] = F.one()
            for i, pc in enumerate(pivots):
                v[pc] = F.neg(red.entries[i][c])
            vecs.append(v)
    return dense_rref(Matrix(F, vecs, cols=m.cols))[0]


@settings(max_examples=200, deadline=None)
@given(kernel_fields.flatmap(sparse_matrices))
def test_kernel_matches_dense_reference(m):
    got, ref = m.kernel(), dense_kernel(m)
    assert got == ref and (got.rows, got.cols) == (ref.rows, ref.cols)
    assert printed(got) == printed(ref)


def reference_inverse(m):
    """The [A | I] elimination `Matrix.inverse` ran before it went through
    `solve`: the right block of the RREF, or None when a pivot falls in the
    identity block (A singular)."""
    n = m.rows
    ident = Matrix.identity(m.field, n)
    red, pivots, _ = Matrix(m.field, [list(r) + list(e) for r, e in zip(m.entries, ident.entries)],
                            cols=2 * n).rref()
    if pivots != tuple(range(n)):
        return None
    return Matrix(m.field, [r[n:] for r in red.entries], cols=n)


@st.composite
def square_matrices(draw, field):
    """Square sparse matrices, singular more often than not, and invertible
    ones: the rows of L U, L unit lower and U upper triangular with a
    nonzero diagonal, rotated."""
    n = draw(st.integers(0, 5))
    if draw(st.booleans()):
        return draw(sparse_matrices(field, n, n))
    low, up = draw(sparse_matrices(field, n, n)), draw(sparse_matrices(field, n, n))
    L = [[field.one() if i == j else (x if j < i else field.zero())
          for j, x in enumerate(r)] for i, r in enumerate(low.entries)]
    U = [[x if j > i else draw(sparse_scalars(field).filter(bool)) if j == i else field.zero()
          for j, x in enumerate(r)] for i, r in enumerate(up.entries)]
    prod = (Matrix(field, L, cols=n) @ Matrix(field, U, cols=n)).entries
    k = draw(st.integers(0, max(n - 1, 0)))
    return Matrix(field, prod[k:] + prod[:k], cols=n)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([Q, F5]).flatmap(square_matrices))
def test_inverse_matches_identity_block_reference(m):
    ref = reference_inverse(m)
    if ref is None:
        with pytest.raises(InconsistentSystem, match="matrix is singular"):
            m.inverse()
        assert not m.is_invertible()
        return
    inv = m.inverse()
    assert inv == ref and printed(inv) == printed(ref)
    assert m @ inv == Matrix.identity(m.field, m.rows) == inv @ m


def test_inverse_rejects_non_square():
    with pytest.raises(DimensionMismatch):
        Matrix(Q, [[1, 2]]).inverse()


@st.composite
def factor_pairs(draw, field):
    """a (n x k) and b (k x m); sometimes single-entry rows of a meet a zero row of b."""
    n, k, m = (draw(st.integers(0, 6)) for _ in range(3))
    a, b = draw(sparse_matrices(field, n, k)), draw(sparse_matrices(field, k, m))
    if n and k and draw(st.booleans()):
        j = draw(st.integers(0, k - 1))
        arows, brows = [list(r) for r in a.entries], [list(r) for r in b.entries]
        brows[j] = [field.zero()] * m
        for i in draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=2)):
            arows[i] = [field.zero()] * k
            arows[i][j] = draw(nonzero_scalars(field))
        a, b = Matrix(field, arows, cols=k), Matrix(field, brows, cols=m)
    return a, b


@settings(max_examples=200, deadline=None)
@given(kernel_fields.flatmap(factor_pairs))
def test_matmul_matches_dense_reference(pair):
    a, b = pair
    prod = a @ b
    ref = dense_matmul(a, b)
    assert prod == ref and (prod.rows, prod.cols) == (a.rows, b.cols)
    assert printed(prod) == printed(ref)


@settings(max_examples=150, deadline=None)
@given(kernel_fields.flatmap(lambda F: st.integers(1, 6).flatmap(lambda n: st.tuples(
    sparse_matrices(F, None, n), sparse_matrices(F, 1, n), st.booleans()))))
def test_contains_vector_matches_rank_test(case):
    rows, noise, in_span = case
    F, n = rows.field, rows.cols
    space = Subspace.from_rows(F, n, rows.entries)
    vec = list(noise.entries[0])
    if in_span and space.dim:
        coeffs = [F.of(t - 1) for t in range(space.dim)]
        vec = list((Matrix(F, [coeffs]) @ space.basis).entries[0])
    if space.dim:
        expected = dense_rref(Matrix(F, list(space.basis.entries) + [vec]))[2] == space.dim
    else:
        expected = all(x == F.zero() for x in vec)
    assert space.contains_vector(vec) == expected
    assert space.contains_vector(vec) == expected  # the cached sparse rows agree
    if in_span and space.dim:
        assert expected


# coordinates in an RREF basis read at its pivots, against solving for them
@settings(max_examples=150, deadline=None)
@given(st.data())
def test_subspace_coordinates_match_solve(data):
    F = data.draw(kernel_fields)
    n = data.draw(st.integers(1, 6))
    k = data.draw(st.integers(0, 3))
    space = Subspace.from_rows(F, n, data.draw(sparse_matrices(F, None, n)).entries)
    incl = space.basis.transpose()
    if data.draw(st.booleans()):
        m = incl @ data.draw(sparse_matrices(F, space.dim, k))
    else:
        m = data.draw(sparse_matrices(F, n, k))
    try:
        expected = incl.solve(m)
    except InconsistentSystem:
        with pytest.raises(InconsistentSystem):
            space.coordinates(m)
    else:
        assert space.coordinates(m) == expected
        assert printed(space.coordinates(m)) == printed(expected)


def dense_coordinates(field, rows, width):
    """coordinates() with a dense transform: every pivot rebuilds the whole
    coordinate list through the field operations."""
    F = field
    k = len(rows)
    z, o = F.zero(), F.one()
    red, pivots, _ = dense_rref(Matrix(F, [list(r) + [o if t == i else z for t in range(k)]
                                           for i, r in enumerate(rows)], cols=width + k))
    if pivots and pivots[-1] >= width:
        raise DependentFamily("dependent")
    free = sorted(set(range(width)).difference(pivots))
    sparse = [[(c, r[c]) for c in free if r[c]] for r in red.entries]
    transform = [r[width:] for r in red.entries]

    def coords(vec):
        resid = list(vec)
        out = [z] * k
        for p, srow, trow in zip(pivots, sparse, transform):
            di = resid[p]
            if di:
                resid[p] = z
                for c, x in srow:
                    resid[c] = F.sub(resid[c], F.mul(di, x))
                out = [F.add(a, F.mul(di, t)) for a, t in zip(out, trow)]
        if any(resid):
            raise InconsistentSystem("outside")
        return tuple(out)

    return coords


def read_coords(coords, vec):
    try:
        out = coords(vec)
    except InconsistentSystem:
        return "outside"
    return out, [str(x) for x in out]


@settings(max_examples=150, deadline=None)
@given(kernel_fields.flatmap(lambda F: st.integers(0, 7).flatmap(lambda n: st.tuples(
    sparse_matrices(F, None, n), sparse_matrices(F, 1, 7), sparse_matrices(F, 1, n)))))
def test_coordinates_match_dense_transform_reference(case):
    rows, c_row, noise = case
    F, n = rows.field, rows.cols
    # the independent rows of a sparse family, in their order
    fam = []
    for r in rows.entries:
        if dense_rref(Matrix(F, fam + [r], cols=n))[2] > len(fam):
            fam.append(r)
    coords = coordinates(F, fam, n)
    ref = dense_coordinates(F, fam, n)
    c = c_row.entries[0][:len(fam)]
    inside = [F.zero()] * n
    for a, r in zip(c, fam):
        inside = [F.add(x, F.mul(a, y)) for x, y in zip(inside, r)]
    got = read_coords(coords, inside)
    assert got == read_coords(ref, inside) and got[0] == tuple(c)
    assert read_coords(coords, noise.entries[0]) == read_coords(ref, noise.entries[0])
    if len(rows.entries) > len(fam):
        with pytest.raises(DependentFamily):
            coordinates(F, rows.entries, n)


def looped_linear_combination(field, coeffs, mats, rows, cols):
    """linear_combination through the field operations, one reduction and
    one new scalar per term."""
    F = field
    acc = [[F.zero()] * cols for _ in range(rows)]
    for c, m in zip(coeffs, mats):
        if c:
            for arow, mrow in zip(acc, m.entries):
                for t, x in enumerate(mrow):
                    if x:
                        arow[t] = F.add(arow[t], F.mul(c, x))
    return Matrix(F, acc, cols=cols)


@settings(max_examples=150, deadline=None)
@given(kernel_fields.flatmap(lambda F: st.tuples(
    st.integers(0, 5), st.integers(0, 5), st.integers(0, 5)).flatmap(lambda s: st.tuples(
        sparse_matrices(F, 1, s[0]),
        st.lists(sparse_matrices(F, s[1], s[2]), min_size=s[0], max_size=s[0])))))
def test_linear_combination_matches_looped_reference(case):
    c_row, mats = case
    F = c_row.field
    rows, cols = (mats[0].rows, mats[0].cols) if mats else (2, 3)
    coeffs = c_row.entries[0] if c_row.rows else ()
    got = linear_combination(F, coeffs, mats, rows, cols)
    ref = looped_linear_combination(F, coeffs, mats, rows, cols)
    assert got == ref and (got.rows, got.cols) == (rows, cols)
    assert printed(got) == printed(ref)


def test_linear_combination_of_a_basis_vector_is_its_matrix():
    # one coefficient 1 among zeros: the stored matrix itself, formed by no sum
    for F in (Q, F5):
        mats = [from_int_rows(F, [[1, 2], [0, 3]]), from_int_rows(F, [[0, 4], [7, 6]])]
        for coeffs in ((1, 0), (0, 1)):
            got = linear_combination(F, coeffs, mats, 2, 2)
            assert got is mats[coeffs.index(1)]
            assert got == looped_linear_combination(F, coeffs, mats, 2, 2)
        for coeffs in ((2, 0), (1, 1)):
            got = linear_combination(F, coeffs, mats, 2, 2)
            assert got not in mats and got == looped_linear_combination(F, coeffs, mats, 2, 2)


@settings(max_examples=120, deadline=None)
@given(kernel_fields.flatmap(lambda F: st.integers(0, 6).flatmap(lambda n: st.tuples(
    sparse_matrices(F, cols=n), sparse_matrices(F, rows=n)))))
def test_solve_with_kernel_is_solve_and_kernel(case):
    # the kernel read from the elimination of [a | b] is a's own kernel
    a, x0 = case
    b = a @ x0
    part, null = a.solve(b, with_kernel=True)
    assert part == a.solve(b) and printed(part) == printed(a.solve(b))
    assert null == a.kernel() and (null.rows, null.cols) == (a.kernel().rows, a.cols)


# Over Q an integral scalar is an int and any other value a Fraction, while
# arithmetic can still leave an integral Fraction behind: the kernels must
# give the same values on any mix of the three as on all-Fraction inputs.
def mixed_scalars():
    small = st.sampled_from([0, 0, 0, 0, 1, 1, -1, 2, -2, 3])
    return st.one_of(small, small.map(Fraction),
                     st.tuples(st.integers(-3, 3), st.integers(1, 3)).map(lambda t: Fraction(*t)))


@st.composite
def mixed_matrices(draw, rows, cols):
    return Matrix(Q, [[draw(mixed_scalars()) for _ in range(cols)] for _ in range(rows)],
                  cols=cols)


def all_fraction(m):
    return Matrix(Q, [[Fraction(x) for x in r] for r in m.entries], cols=m.cols)


def kernel_results(a, b, rhs, c):
    """rref, @, kernel, solve, coordinates, linear_combination and
    Subspace.from_rows on an m x n matrix a, an n x k matrix b, an m x 1
    right-hand side and a row of at least max(m, 2) coefficients."""
    red, pivots, rank = a.rref()
    fam = list(red.entries[:rank])
    coeffs = c.entries[0][:rank]
    inside = linear_combination(Q, coeffs, [Matrix(Q, [r]) for r in fam], 1, a.cols)
    coords = coordinates(Q, fam, a.cols)
    out = [red, pivots, rank, a @ b, a.kernel(), a.solve(a @ b),
           read_coords(coords, inside.entries[0]),
           linear_combination(Q, c.entries[0][:2], [a, red], a.rows, a.cols),
           Subspace.from_rows(Q, a.cols, a.entries).basis]
    try:
        out.append(a.solve(rhs))
    except InconsistentSystem:
        out.append("inconsistent")
    if b.cols:
        out.append(read_coords(coords, b.transpose().entries[0]))
    return out


def shown(v):
    """A result with every scalar as its str (a float would show as '3.0')."""
    if isinstance(v, Matrix):
        return (v.rows, v.cols, printed(v))
    if isinstance(v, (tuple, list)):
        return tuple(shown(x) for x in v)
    return str(v)


def scalar_types(v):
    if isinstance(v, Matrix):
        return {type(x) for r in v.entries for x in r}
    if isinstance(v, (tuple, list)):
        return set().union(*map(scalar_types, v))
    return {type(v)} - {str}


@settings(max_examples=150, deadline=None)
@given(st.tuples(st.integers(0, 6), st.integers(0, 6), st.integers(0, 4)).flatmap(
    lambda s: st.tuples(mixed_matrices(s[0], s[1]), mixed_matrices(s[1], s[2]),
                        mixed_matrices(s[0], 1), mixed_matrices(1, max(s[0], 2)))))
def test_mixed_int_fraction_entries_match_all_fraction_copy(case):
    got = kernel_results(*case)
    ref = kernel_results(*map(all_fraction, case))
    assert got == ref
    assert shown(got) == shown(ref)
    assert scalar_types(got) <= {int, Fraction}


# Every matrix lists its nonzero entries once (`Matrix.sparse_rows`) and every
# product, combination and subspace test reads that list: a factor reused
# across many of them must give what the dense references give each time.
@st.composite
def reused_factor_cases(draw):
    """(field, shared, lefts, rights, others): a shared n x k matrix, left
    factors m x n, right factors k x l and more n x k matrices; over Q the
    entries mix ints, integral Fractions and proper Fractions."""
    F = draw(kernel_fields)
    scalar = mixed_scalars() if F.p is None else sparse_scalars(F)

    def mat(rows, cols):
        return Matrix(F, [[draw(scalar) for _ in range(cols)] for _ in range(rows)], cols=cols)

    n, k = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    count = st.integers(1, 4)
    return (F, mat(n, k), [mat(draw(st.integers(0, 5)), n) for _ in range(draw(count))],
            [mat(k, draw(st.integers(0, 5))) for _ in range(draw(count))],
            [mat(n, k) for _ in range(draw(count))])


@settings(max_examples=150, deadline=None)
@given(reused_factor_cases())
def test_sparse_rows_list_the_nonzero_entries_in_column_order(case):
    _, shared, lefts, rights, _ = case
    for m in [shared, *lefts, *rights]:
        rows = m.sparse_rows()
        assert len(rows) == m.rows
        for srow, r in zip(rows, m.entries):
            assert [j for j, _ in srow] == [j for j, x in enumerate(r) if x]
            assert all(x is r[j] for j, x in srow)
        assert m.sparse_rows() is rows


@settings(max_examples=150, deadline=None)
@given(reused_factor_cases())
def test_reused_factor_products_and_combinations_match_dense_references(case):
    F, shared, lefts, rights, others = case
    for _ in range(2):
        for a in lefts:
            got, ref = a @ shared, dense_matmul(a, shared)
            assert got == ref and printed(got) == printed(ref)
        for b in rights:
            got, ref = shared @ b, dense_matmul(shared, b)
            assert got == ref and printed(got) == printed(ref)
        mats = [shared, *others, shared]
        coeffs = [F.of(t - 1) for t in range(len(mats))]
        got = linear_combination(F, coeffs, mats, shared.rows, shared.cols)
        ref = looped_linear_combination(F, coeffs, mats, shared.rows, shared.cols)
        assert got == ref and printed(got) == printed(ref)


@settings(max_examples=150, deadline=None)
@given(reused_factor_cases())
def test_reused_subspace_basis_matches_dense_references(case):
    F, shared, _, rights, others = case
    k = shared.cols
    space = Subspace.from_rows(F, k, shared.entries) if shared.rows else Subspace.zero(F, k)
    incl = space.basis.transpose()
    # rows of the shared matrix and of the others: inside and outside the span
    vectors = [r for m in [shared, *others] for r in m.entries]
    for _ in range(2):
        for vec in vectors:
            if space.dim:
                expected = dense_rref(Matrix(F, list(space.basis.entries) + [vec]))[2] == space.dim
            else:
                expected = not any(vec)
            assert space.contains_vector(vec) == expected
        for m in rights:
            try:
                expected = incl.solve(m)
            except InconsistentSystem:
                with pytest.raises(InconsistentSystem):
                    space.coordinates(m)
            else:
                got = space.coordinates(m)
                assert got == expected and printed(got) == printed(expected)
        inside = incl @ Matrix(F, [[F.of(t + i) for t in range(2)] for i in range(space.dim)],
                               cols=2)
        got = space.coordinates(inside)
        assert got == incl.solve(inside) and printed(got) == printed(incl.solve(inside))
        for a, b in zip(space.complement_projection(), reference_complement_projection(space)):
            assert (a.rows, a.cols) == (b.rows, b.cols)
            assert a == b and printed(a) == printed(b)


# An all-zero row costs one `any()` in every kernel: products and
# combinations give it the shared (zero,) * ncols tuple, elimination moves it
# below the rows it reduces, and Subspace.from_rows drops it.  The results
# must still be the dense references' entry for entry, whatever the shape.
def zero_scalars(field):
    """Zero as the kernels meet it: over Q also a Fraction that cancelled."""
    if field.p is None:
        return st.one_of(st.just(0), st.just(Fraction(0)),
                         st.tuples(st.integers(-3, 3), st.integers(1, 3)).map(
                             lambda t: Fraction(*t) - Fraction(*t)))
    return st.just(0)


@st.composite
def zero_row_matrices(draw, field, rows, cols):
    """rows x cols, all zero or with each row zero at even odds."""
    all_zero = draw(st.booleans())
    ent = [[draw(zero_scalars(field) if all_zero or zero_row else sparse_scalars(field))
            for _ in range(cols)] for zero_row in (draw(st.booleans()) for _ in range(rows))]
    return Matrix(field, ent, cols=cols)


@settings(max_examples=200, deadline=None)
@given(kernel_fields.flatmap(lambda F: st.tuples(
    st.integers(0, 6), st.integers(0, 6), st.integers(0, 6)).flatmap(lambda s: st.tuples(
        zero_row_matrices(F, s[0], s[1]), zero_row_matrices(F, s[1], s[2]),
        zero_row_matrices(F, s[0], s[1]), st.lists(sparse_scalars(F), min_size=2, max_size=2)))))
def test_zero_row_kernels_match_dense_references(case):
    a, b, c, coeffs = case
    F = a.field

    def same(got, ref):
        assert got == ref and hash(got) == hash(ref) and printed(got) == printed(ref)
        assert (got.rows, got.cols) == (ref.rows, ref.cols)

    same(a @ b, dense_matmul(a, b))
    red, pivots, rank = a.rref()
    ref, ref_pivots, ref_rank = dense_rref(a)
    same(red, ref)
    assert (pivots, rank) == (ref_pivots, ref_rank)
    same(linear_combination(F, coeffs, [a, c], a.rows, a.cols),
         looped_linear_combination(F, coeffs, [a, c], a.rows, a.cols))
    space = Subspace.from_rows(F, a.cols, a.entries)
    assert (space.ambient, space.dim) == (a.cols, ref_rank)
    same(space.basis, Matrix(F, ref.entries[:ref_rank], cols=a.cols))
    for m in (a, b, c):
        assert m.sparse_rows() == tuple([(j, x) for j, x in enumerate(r) if x] for r in m.entries)


def test_zero_rows_keep_their_place_in_shapes_and_ranks():
    for F in (Q, F5, F10007):
        z = F.zero()
        # interleaved zero rows: RREF keeps the row count, pivots and rank
        m = from_int_rows(F, [[0, 0, 0], [1, 2, 3], [0, 0, 0], [2, 4, 7], [0, 0, 0]])
        red, pivots, rank = m.rref()
        assert (red.rows, red.cols, pivots, rank) == (5, 3, (0, 2), 2)
        assert red == dense_rref(m)[0] and red.entries[2:] == ((z,) * 3,) * 3
        # a product's zero rows are (zero,) * ncols tuples
        prod = from_int_rows(F, [[0, 0], [1, 2], [0, 0]]) @ from_int_rows(
            F, [[1, 0, 3], [4, 5, 6]])
        for r in (prod.entries[0], prod.entries[2]):
            assert type(r) is tuple and r == (z,) * 3 and all(type(x) is int for x in r)
        assert prod.entries[1] == (F.of(9), F.of(10), F.of(15))
        # only zero rows span the zero subspace of the given ambient dimension
        space = Subspace.from_rows(F, 4, [[z] * 4, [z] * 4])
        assert space == Subspace.zero(F, 4)
        assert (space.ambient, space.dim, space.basis.cols) == (4, 0, 4)
    cancelled = [Fraction(1, 3) - Fraction(1, 3)] * 2
    assert Subspace.from_rows(Q, 2, [cancelled]) == Subspace.zero(Q, 2)
