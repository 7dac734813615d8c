import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tiltcell import poly
from tiltcell.errors import DependentFamily, InconsistentSystem, InputError
from tiltcell.linalg import (
    Field,
    Matrix,
    Subspace,
    block_diag,
    coordinates,
    hstack,
    vstack,
)

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


def test_rref_identity():
    m = Matrix.identity(Q, 2)
    red, pivots, rank = m.rref()
    assert red == m and pivots == (0, 1) and rank == 2


def test_rref_zero():
    m = Matrix.zeros(Q, 3, 3)
    red, pivots, rank = m.rref()
    assert red == m and pivots == () and rank == 0


def test_rref_rank_one():
    m = Matrix.from_int_rows(Q, [[2, 4], [1, 2]])
    red, _, rank = m.rref()
    assert red == Matrix.from_int_rows(Q, [[1, 2], [0, 0]])
    assert rank == 1


def test_solve_identity():
    b = Matrix.from_int_rows(Q, [[3], [7]])
    part = Matrix.identity(Q, 2).solve(b)
    assert part == b and Matrix.identity(Q, 2).kernel().rows == 0


def test_solve_zero_full_nullspace():
    a = Matrix.zeros(Q, 2, 2)
    part = a.solve(Matrix.zeros(Q, 2, 1))
    assert part.is_zero() and a.kernel().rows == 2


def test_solve_f5_matches_enumeration():
    # oracle: enumerate all 25 vectors over F_5
    a = Matrix.from_int_rows(F5, [[1, 1]])
    b = Matrix.from_int_rows(F5, [[2]])
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
    a = Matrix.from_int_rows(Q, [[1], [1]])
    with pytest.raises(InconsistentSystem):
        a.solve(Matrix.from_int_rows(Q, [[1], [2]]))


def test_subspace_lattice_q3():
    v12 = Subspace.from_rows(Q, 3, [[1, 0, 0], [0, 1, 0]])
    v23 = Subspace.from_rows(Q, 3, [[0, 1, 0], [0, 0, 1]])
    inter = v12.intersect(v23)
    assert inter == Subspace.from_rows(Q, 3, [[0, 1, 0]])
    assert v12.intersect(v12) == v12
    zero = Subspace.zero(Q, 3)
    assert v12.plus(zero) == v12
    assert v12.plus(v23).dim == 3


def test_subspace_canonical_equality():
    a = Subspace.from_rows(Q, 2, [[1, 1], [0, 1]])
    b = Subspace.from_rows(Q, 2, [[2, 3], [1, 1]])
    assert a == b
    assert a.basis == b.basis


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
        lambda ent: Matrix.from_int_rows(field, ent))


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
    assert v.intersect(w).dim + v.plus(w).dim == v.dim + w.dim


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
    vec = (Matrix.row(F, c) @ fam).entries[0]
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
    b = Matrix.from_int_rows(Q, [[5]])
    d = block_diag([a, b])
    assert d.rows == 3 and d.entries[2][2] == 5
    assert hstack([a, a]).cols == 4
    assert vstack([a, a]).rows == 4


# -- polynomial layer ---------------------------------------------------------

def test_charpoly_and_minpoly():
    m = Matrix.from_int_rows(Q, [[2, 1], [0, 3]])
    assert poly.charpoly(m) == (Fraction(6), Fraction(-5), Fraction(1))
    assert poly.minpoly(m) == (Fraction(6), Fraction(-5), Fraction(1))
    # nilpotent Jordan block: charpoly x^3, minpoly x^3
    n = Matrix.from_int_rows(Q, [[0, 1, 0], [0, 0, 1], [0, 0, 0]])
    assert poly.charpoly(n) == (Fraction(0), Fraction(0), Fraction(0), Fraction(1))
    assert poly.minpoly(n) == (Fraction(0), Fraction(0), Fraction(0), Fraction(1))


def test_charpoly_matches_eigenvalue_product_f5():
    rnd = random.Random(7)
    for _ in range(10):
        m = Matrix.from_int_rows(F5, [[rnd.randrange(5) for _ in range(3)] for _ in range(3)])
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


def test_linear_roots_f5():
    f = (1, 0, 1)  # x^2 + 1 = (x-2)(x-3) over F_5
    roots, leftover = poly.linear_roots(F5, f)
    assert sorted(roots) == [2, 3] and poly.degree(leftover) == 0


def test_coprime_split_idempotent():
    f = poly.mul(Q, (-1, 1), (-2, 1))  # (x-1)(x-2)
    e = poly.coprime_split_idempotent(Q, f)
    assert e is not None
    sq = poly.divmod_poly(Q, poly.mul(Q, e, e), f)[1]
    assert sq == poly.divmod_poly(Q, e, f)[1]
    # power of a single irreducible yields nothing
    assert poly.coprime_split_idempotent(Q, (1, 2, 1)) is None  # (x+1)^2
    assert poly.coprime_split_idempotent(Q, (1, 0, 1)) is None  # x^2 + 1
