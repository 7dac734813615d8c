"""The paper's guiding example (Andersen-Stroppel-Tubbenhauer): the Schur
algebra S(2, r) = End_{K S_r}(V^{⊗r}), dim V = 2, with V^{⊗r} as its tilting
module, so End(T) is the Temperley-Lieb algebra TL_r.  S(2, r) is not basic:
its simples have dimension above 1, and the idempotent sweep needs the
eigenvalue split here, which no catalog algebra reaches.

The closed forms: dim S(2, r) = C(r + 3, 3); dim End(V^{⊗r}) is the Catalan
number; the fiber at label k (k boxes in the second row) is square of side
the ballot number C(r, k) - C(r, k - 1) in every characteristic."""

import functools
import itertools
from math import comb

import pytest

from tiltcell.algebra import AlgebraPresentation, ModuleRep, algebra_radical, hom_space
from tiltcell.cells import CellData, classify_simples, end_presentation, is_semisimple_endalgebra
from tiltcell.duality import AntiInvolution, build_cellular_basis
from tiltcell.highest_weight import Registry, WeightPoset, verify_standard_category
from tiltcell.linalg import Field, Matrix
from tiltcell.standard_basis import build_standard_basis, verify_standard_axioms
from tiltcell.tilting import TiltingRegistry, tilting_support

Q = Field()
F2 = Field(2)
F3 = Field(3)


def _pair_orbit(i, j):
    """The S_r-orbit of (i, j) under place permutations: the counts of the
    column pairs (0,0), (0,1), (1,0), (1,1)."""
    pairs = list(zip(i, j))
    return tuple(pairs.count(c) for c in ((0, 0), (0, 1), (1, 0), (1, 1)))


@functools.cache
def schur_algebra(field, r):
    """(S(2, r), V^{⊗r}, the transpose anti-involution, the weight poset).

    The basis is the orbit sums of the matrix units E_{i,j}, i, j in {0,1}^r
    (J. A. Green, Polynomial Representations of GL_n, LNM 830, §2.3): the
    identity orbits (i = j) first, by the number of 1s in i, then the rest.
    b_A b_B has coefficient #{j : (i, j) in A, (j, k) in B} at the orbit C of
    a representative (i, k).  V^{⊗r} is the module whose action matrices are
    the orbit sums themselves; the transpose permutes the orbits.  Label "k"
    is the simple of highest weight (r - k, k), with "k + 1" < "k"."""
    seqs = list(itertools.product((0, 1), repeat=r))
    orbits = sorted({_pair_orbit(i, j) for i in seqs for j in seqs},
                    key=lambda c: (c[1] + c[2] > 0, c))
    index = {c: a for a, c in enumerate(orbits)}
    orb = [[index[_pair_orbit(i, j)] for j in seqs] for i in seqs]
    n = len(orbits)
    table = [[[0] * n for _ in range(n)] for _ in range(n)]
    for c in range(n):
        i, k = next((i, k) for i in range(len(seqs)) for k in range(len(seqs))
                    if orb[i][k] == c)
        for j in range(len(seqs)):
            table[orb[i][j]][orb[j][k]][c] += 1
    ents = [(a, b, c, x) for a in range(n) for b in range(n)
            for c, x in enumerate(table[a][b]) if x]
    unit = [int(not (c[1] or c[2])) for c in orbits]
    algebra = AlgebraPresentation.from_struct_consts(field, n, ents, unit, name=f"S(2,{r})")
    action = [Matrix.from_int_rows(field, [[int(x == a) for x in row] for row in orb])
              for a in range(n)]
    tensor = ModuleRep(algebra, len(seqs), action)
    transpose = [index[(c[0], c[2], c[1], c[3])] for c in orbits]
    tau = AntiInvolution(algebra, Matrix.from_int_rows(
        field, [[int(transpose[b] == a) for b in range(n)] for a in range(n)]))
    poset = WeightPoset([str(k) for k in range(r // 2 + 1)],
                        [(str(k + 1), str(k)) for k in range(r // 2)])
    return algebra, tensor, tau, poset


@functools.cache
def schur_pipeline(field, r):
    """(Registry, TiltingRegistry, standard basis datum of End(V^{⊗r}))."""
    algebra, tensor, _, poset = schur_algebra(field, r)
    reg = Registry(algebra, poset)
    tilt = TiltingRegistry(reg)
    return reg, tilt, build_standard_basis(tilt, tensor, seed=0)


# (r, field, fibers, Gram ranks by label or None where not asserted)
CLOSED_FORMS = [
    pytest.param(3, Q, {"0": (1, 1), "1": (2, 2)}, {"0": 1, "1": 2}, id="r3-Q"),
    pytest.param(3, F3, {"0": (1, 1), "1": (2, 2)}, {"0": 1, "1": 1}, id="r3-F3"),
    pytest.param(3, F2, {"0": (1, 1), "1": (2, 2)}, None, id="r3-F2"),
    pytest.param(4, Q, {"0": (1, 1), "1": (3, 3), "2": (2, 2)}, {"0": 1, "1": 3, "2": 2},
                 id="r4-Q"),
    pytest.param(4, F3, {"0": (1, 1), "1": (3, 3), "2": (2, 2)}, {"0": 1, "1": 3, "2": 1},
                 id="r4-F3"),
    # the ranks of the Temperley-Lieb TL_4 link-state Gram matrices at
    # delta = 2 = 0 (Graham-Lehrer 1996): [1] on 4 through-strands,
    # [[0,1,0],[1,0,1],[0,1,0]] on 2 and the zero 2x2 matrix on 0
    pytest.param(4, F2, {"0": (1, 1), "1": (3, 3), "2": (2, 2)}, {"0": 1, "1": 2, "2": 0},
                 id="r4-F2"),
    pytest.param(5, F3, {"0": (1, 1), "1": (4, 4), "2": (5, 5)}, {"0": 1, "1": 4, "2": 1},
                 id="r5-F3"),
]


@pytest.mark.parametrize("r, field, fibers, gram_ranks", CLOSED_FORMS)
def test_schur_closed_forms(r, field, fibers, gram_ranks):
    algebra, tensor, _, _ = schur_algebra(field, r)
    assert algebra.dim == comb(r + 3, 3)
    reg, tilt, datum = schur_pipeline(field, r)
    assert verify_standard_category(reg).ok
    catalan = comb(2 * r, r) // (r + 1)
    assert len(hom_space(tensor, tensor)) == datum.dim() == catalan
    assert datum.fiber_sizes() == fibers == {
        str(k): (ballot, ballot) for k in range(r // 2 + 1)
        for ballot in [comb(r, k) - (comb(r, k - 1) if k else 0)]}
    assert verify_standard_axioms(datum, trials=6)["ok"]
    if gram_ranks is not None:
        cd = CellData(datum)
        assert cd.gram_rank == gram_ranks
        # End(T) has a simple at each label of nonzero rank
        assert (classify_simples(cd, tilting_support(tilt, tensor))
                == {lam: rank for lam, rank in gram_ranks.items() if rank})
        # the reference: Graham-Lehrer's count against End(T)'s own radical
        rad = algebra_radical(end_presentation(datum))
        assert datum.dim() - rad.dim == sum(k * k for k in gram_ranks.values())
        assert is_semisimple_endalgebra(cd) == (rad.dim == 0)


@pytest.mark.parametrize("r, field", [(3, Q), (3, F3), (4, Q), (4, F3)],
                         ids=["r3-Q", "r3-F3", "r4-Q", "r4-F3"])
def test_schur_cellular_basis_certified(r, field):
    _, tensor, tau, _ = schur_algebra(field, r)
    _, tilt, _ = schur_pipeline(field, r)
    datum, _, _, cert = build_cellular_basis(tilt, tensor, tau)
    assert datum.dim() == comb(2 * r, r) // (r + 1)
    assert all(cert.values())
