"""Highest-weight structure over a finite-dimensional split algebra.

Builds, for a user-supplied partial order on the simples, the standard
modules (largest quotients of the projective covers with lower composition
factors), the costandard modules (dually, through the opposite algebra),
extension groups from minimal projective presentations, the axiom
verifier that certifies the quasi-hereditary structure: Hom(Delta, Nabla)
one-dimensional on the diagonal and Ext^1 = Ext^2 = 0 throughout, and the
(co)standard filtration multiplicities of a module by hom dimensions.
"""

from __future__ import annotations

import heapq

from .algebra import (
    AlgebraPresentation,
    ModuleRep,
    Morphism,
    direct_sum,
    hom_space,
    module_head,
    module_radical,
    module_socle,
    quotient_rep,
    simples_and_split_check,
    submodule_generated,
    submodule_rep,
)
from .errors import AxiomViolation, InconsistentSystem, InputError, TheoremViolation
from .linalg import Matrix, Subspace


class WeightPoset:
    """Finite poset of weight labels: cover relations plus derived data.

    The linear extension is the lexicographically smallest topological sort
    of the cover DAG and is the tie-break order used everywhere downstream.
    """

    def __init__(self, labels, covers):
        self.labels = tuple(str(x) for x in labels)
        if len(set(self.labels)) != len(self.labels):
            raise InputError("duplicate poset labels")
        index = {x: i for i, x in enumerate(self.labels)}
        self.covers = tuple((str(a), str(b)) for a, b in covers)
        for a, b in self.covers:
            if a not in index or b not in index:
                raise InputError(f"cover ({a!r}, {b!r}) mentions unknown label")
            if a == b:
                raise InputError(f"reflexive cover at {a!r}")
        adj = {x: set() for x in self.labels}
        for a, b in self.covers:                  # a < b
            adj[a].add(b)
        self.linear_extension = self._smallest_topological_sort(adj)
        # strictly smaller labels, complete for a before it is pushed up its covers
        below = {x: set() for x in self.labels}
        for a in self.linear_extension:
            for b in adj[a]:
                below[b] |= below[a] | {a}
        self._below = below

    def _smallest_topological_sort(self, adj):
        indeg = {x: 0 for x in self.labels}
        for a, outs in adj.items():
            for b in outs:
                indeg[b] += 1
        heap = sorted(x for x in self.labels if indeg[x] == 0)
        heapq.heapify(heap)
        out = []
        while heap:
            x = heapq.heappop(heap)
            out.append(x)
            for b in sorted(adj[x]):
                indeg[b] -= 1
                if indeg[b] == 0:
                    heapq.heappush(heap, b)
        if len(out) != len(self.labels):
            raise InputError("cover relations contain a cycle")
        return tuple(out)

    def lt(self, a, b) -> bool:
        return a in self._below[b]

    def leq(self, a, b) -> bool:
        return a == b or self.lt(a, b)

    def not_below(self, b):
        """Labels mu with mu < b false (including b itself)."""
        return [x for x in self.labels if not self.lt(x, b)]


class StandardData:
    """Per-label bundle: simple, projective, standard, costandard."""

    __slots__ = ("idempotent", "simple", "projective", "head_proj",
                 "standard", "standard_proj", "costandard")

    def __init__(self, **kw):
        for k in self.__slots__:
            setattr(self, k, kw.get(k))


class Registry:
    """All per-label structure for one algebra and one weight poset.

    Labels are matched to simples in the canonical discovery order of
    `simples_and_split_check` (idempotents sorted by first supported
    coordinate), so the i-th poset label names the i-th simple found.

    `hom_space` reads Hom(P(label), N) off e_label.N, through P(label)'s
    inclusion into A.  The covers of Delta(label) and L(label) by P(label)
    are kept by content, with their kernels, for `syzygy` to read.
    """

    def __init__(self, algebra: AlgebraPresentation, poset: WeightPoset):
        self.algebra = algebra
        self.poset = poset
        self._syzygies = {}   # action matrices of a module -> its syzygy data
        self._ext1 = {}       # action matrices of (m, n) -> Ext^1 cocycles, or None
        self._covers = {}     # action matrices of Delta or L -> (label, cover, its kernel)
        simples = simples_and_split_check(algebra)
        if len(simples) != len(poset.labels):
            raise InputError(
                f"poset has {len(poset.labels)} labels but the algebra has "
                f"{len(simples)} simple modules")
        self.opposite = algebra.opposite()
        self.data: dict[str, StandardData] = {}
        for label, sd in zip(poset.labels, simples):
            self.data[label] = StandardData(
                idempotent=sd.idempotent, simple=sd.simple,
                projective=sd.projective, head_proj=sd.head_proj)
        self._build_standard_modules()
        self._build_costandard_modules()

    # -- multiplicities via primitive idempotents --------------------------------

    def mult(self, m: ModuleRep, label: str) -> int:
        """[m : L(label)]: the rank of the primitive idempotent's action."""
        return m.act(self.data[label].idempotent).rank()

    def factor_labels(self, m: ModuleRep):
        return [x for x in self.poset.labels if self.mult(m, x) > 0]

    # -- construction -------------------------------------------------------------

    def _standardize(self, P, label):
        """Largest quotient of P = P(label) whose lower factors sit below
        label: divide by the trace of all P(mu), mu not below label, inside
        rad P.

        The trace is A.e_mu.rad P (Dlab and Ringel 1992), generated by the
        vectors e_mu.rad P, so no hom system is solved: a map f: A.e_mu -> N
        is a -> a.v for v = f(e_mu) in e_mu.N, and every v in e_mu.N gives
        one, so the images A.v of all such maps span A.e_mu.N.  P may be a
        projective of A or of A^op; the idempotents act through P's action.
        Returns the quotient, the projection and the trace.
        """
        rad = module_radical(P).basis
        gens = [r for mu in self.poset.not_below(label)
                for r in (rad @ P.act(self.data[mu].idempotent).transpose()).entries]
        trace = submodule_generated(P, gens)
        quot, proj_morph, _ = quotient_rep(P, trace)
        return quot, proj_morph, trace

    def _build_standard_modules(self):
        for label in self.poset.labels:
            dat = self.data[label]
            dat.standard, dat.standard_proj, trace = self._standardize(dat.projective, label)
            self._covers[dat.simple.action] = (label, dat.head_proj, module_radical(dat.projective))
            self._covers[dat.standard.action] = (label, dat.standard_proj, trace)

    def _build_costandard_modules(self):
        """Dualize standard modules of the opposite algebra.

        The opposite algebra shares the basis, the radical subspace (the
        presentation from `opposite()` reads A's memoized radical, computed
        once for both), and the primitive idempotents; P^op(label) is
        generated by the same idempotent.
        """
        reg_op = self.opposite.regular_module()
        for label in self.poset.labels:
            space = submodule_generated(reg_op, [self.data[label].idempotent])
            delta_op = self._standardize(submodule_rep(reg_op, space)[0], label)[0]
            self.data[label].costandard = dualize_plain(self.algebra, delta_op)

    # -- simple accessors ----------------------------------------------------------

    def simple(self, label):
        return self.data[label].simple

    def standard(self, label):
        return self.data[label].standard

    def costandard(self, label):
        return self.data[label].costandard

    def projective(self, label):
        return self.data[label].projective


def dualize_plain(algebra: AlgebraPresentation, m_op: ModuleRep) -> ModuleRep:
    """Vector-space dual of a module over the opposite algebra, as a module
    over `algebra` (no twisting): action of b is the transpose of b's
    opposite action."""
    action = [a.transpose() for a in m_op.action]
    return ModuleRep(algebra, m_op.dim, action, check=False)


# -- projective presentations and Ext ---------------------------------------------


def projective_cover(reg: Registry, m: ModuleRep):
    """Minimal projective cover (P0, epi P0 -> m, list of labels used).

    The candidates are the bases of Hom(P(label), m) in label order, read
    off e_label.m.  The image of P(label) in the semisimple head is 0 or
    L(label), so a map is chosen when its block of columns holds a pivot of
    one elimination of all the candidates' head images, as in
    `_ext1_cocycles`.  Raises TheoremViolation unless the chosen maps cover
    the whole head, so that the epimorphism is onto.
    """
    F = reg.algebra.field
    head, head_proj = module_head(m)
    maps = [(label, f) for label in reg.poset.labels
            for f in hom_space(reg.data[label].projective, m)]
    images = [(k, col) for k, (_, f) in enumerate(maps)
              for col in (head_proj.matrix @ f.matrix).transpose().entries]
    pivots = Matrix(F, [col for _, col in images], cols=head.dim).transpose().rref()[1]
    chosen = [maps[k] for k in dict.fromkeys(images[c][0] for c in pivots)]
    labels_used = [label for label, _ in chosen]
    if len(pivots) != head.dim:
        raise TheoremViolation(
            f"projective cover of a module of dimension {m.dim} covers {len(pivots)} of its "
            f"{head.dim}-dimensional head (labels used: {labels_used})")
    if not chosen:
        zero_mod = ModuleRep(reg.algebra, 0, [Matrix.zeros(F, 0, 0)] * reg.algebra.dim, check=False)
        return zero_mod, Morphism(zero_mod, m, Matrix.zeros(F, m.dim, 0)), []
    P0 = direct_sum([f.source for _, f in chosen])[0]
    pi = Matrix(F, [sum((f.matrix.entries[i] for _, f in chosen), ()) for i in range(m.dim)],
                cols=P0.dim)
    return P0, Morphism(P0, m, pi), labels_used


def syzygy(reg: Registry, m: ModuleRep):
    """(Omega, inclusion Omega -> P0, P0, epi P0 -> m), computed once per
    module content (the action matrices) in the registry, with the
    epimorphism returned onto m itself.

    Delta(label) and L(label) are covered by P(label) as the Registry knows:
    the kernel is the trace `_standardize` divided by, or rad P(label).
    Both lie in rad P(label), so these are projective covers, and e_label.m
    is one-dimensional for both (the trace holds e_label.rad P), so the
    epimorphism, scaled to Hom(P(label), m)'s canonical element, is the one
    `projective_cover` would choose.  Other modules are covered by
    `projective_cover`, which draws no randomness.
    """
    key = m.action
    if key not in reg._syzygies:
        known = reg._covers.get(key)
        if known is None:
            P0, pi, _ = projective_cover(reg, m)
            kernel = pi.kernel()
        else:
            label, cover, kernel = known
            P0 = reg.projective(label)
            if not module_radical(P0).contains(kernel):
                raise TheoremViolation(f"the kernel of the cover at {label!r} is not in rad P")
            first = next(x for row in cover.matrix.entries for x in row if x)
            pi = Morphism(P0, m, cover.matrix.scale(reg.algebra.field.inv(first)))
        reg._syzygies[key] = (*submodule_rep(P0, kernel), P0, pi)
    omega, incl, P0, pi = reg._syzygies[key]
    if pi.target is not m:
        pi = Morphism(P0, m, pi.matrix)
    return omega, incl, P0, pi


def ext1_with_classes(reg: Registry, m: ModuleRep, n: ModuleRep):
    """(dimension, cocycle basis, builder) of Ext^1(m, n).

    Cocycles are morphisms Omega(m) -> n modulo restrictions of morphisms
    P0 -> n; builder(cocycle) materializes the middle term with its
    inclusion and projection.  The cocycles are found once per content of
    (m, n) in the registry, as `syzygy` is, and returned onto the caller's n,
    with a builder bound to the caller's m and n.
    """
    key = (m.action, n.action)
    if key not in reg._ext1:
        reg._ext1[key] = _ext1_cocycles(reg, m, n)
    chosen = reg._ext1[key]
    if chosen is None:
        return 0, [], None
    chosen = [c if c.target is n else Morphism(c.source, n, c.matrix) for c in chosen]
    _, incl_omega, P0, pi = syzygy(reg, m)

    def build(cocycles):
        return _extension_middle(reg, m, n, incl_omega, P0, pi, cocycles)

    return len(chosen), chosen, build


def _ext1_cocycles(reg: Registry, m: ModuleRep, n: ModuleRep):
    """The cocycles Omega(m) -> n chosen for Ext^1(m, n), or None when
    Hom(Omega(m), n) = 0.  The coboundaries, whose span alone matters,
    restrict Hom(P0, n), which `hom_space` reads block by block off the
    e_label.n: P0 is a direct sum of projective covers."""
    F = reg.algebra.field
    omega, incl_omega, P0, _ = syzygy(reg, m)
    homs_omega = hom_space(omega, n)
    if not homs_omega:
        return None
    restricted = [(h.matrix @ incl_omega.matrix).flat() for h in hom_space(P0, n)]
    # columns: the coboundaries, then the cocycles; a cocycle is chosen when
    # it leaves the span of every column before it, i.e. at a pivot column
    vecs = restricted + [h.matrix.flat() for h in homs_omega]
    pivots = Matrix(F, vecs).transpose().rref()[1]
    return [homs_omega[c - len(restricted)] for c in pivots if c >= len(restricted)]


def ext1_dim(reg: Registry, m: ModuleRep, n: ModuleRep) -> int:
    return ext1_with_classes(reg, m, n)[0]


def ext2_dim(reg: Registry, m: ModuleRep, n: ModuleRep) -> int:
    omega, _, _, _ = syzygy(reg, m)
    if omega.dim == 0:
        return 0
    return ext1_dim(reg, omega, n)


def _extension_middle(reg, m, n, incl_omega, P0, pi, cocycles):
    """Middle term of 0 -> n -> E -> m^d -> 0 realizing the given cocycles,
    glued as a pushout of (Omega)^d -> P0^d along (psi_1, ..., psi_d)."""
    F = reg.algebra.field
    d = len(cocycles)
    big, incls, projs = direct_sum([n] + [P0] * d)
    # the graph of (psi, -incl_omega) inside n + P0^d, one block per cocycle
    rows = []
    for idx, psi in enumerate(cocycles):
        col_n = incls[0].matrix @ psi.matrix        # big.dim x omega.dim
        col_p = incls[idx + 1].matrix @ incl_omega.matrix
        graph = col_n - col_p
        rows.extend(graph.transpose().entries)
    W = Subspace.from_rows(F, big.dim, rows)
    E, proj_w, section = quotient_rep(big, W)
    incl_n = proj_w @ incls[0]
    # projection E -> m^d induced by pi on each block
    msum, m_incls, _ = direct_sum([m] * d)
    to_m = Matrix.zeros(F, msum.dim, big.dim)
    for idx in range(d):
        to_m = to_m + m_incls[idx].matrix @ pi.matrix @ projs[idx + 1].matrix
    # factor through the quotient: proj_w . section = 1, so proj_m = to_m . section
    # whenever to_m vanishes on W
    proj_m = Morphism(E, msum, to_m @ section)
    if proj_m.matrix @ proj_w.matrix != to_m:
        raise InconsistentSystem("the projection does not factor through the quotient")
    return E, incl_n, proj_m, msum


# -- axiom verification -------------------------------------------------------------


class VerificationReport:
    def __init__(self):
        self.checks = []          # (name, label, other, ok, detail)
        self.first_violation = None

    def record(self, name, label, other, ok, detail=""):
        self.checks.append((name, label, other, ok, detail))
        if not ok and self.first_violation is None:
            self.first_violation = (name, label, other, detail)

    @property
    def ok(self):
        return self.first_violation is None

    def raise_if_failed(self):
        if not self.ok:
            name, label, other, detail = self.first_violation
            raise AxiomViolation(label, other, name, detail)


def verify_standard_category(reg: Registry) -> VerificationReport:
    """Certify the highest-weight axioms with witnesses.

    Checks dim Hom(Delta(l), Nabla(m)) = delta_{lm} and the vanishing of
    Ext^1 and Ext^2 between all standard/costandard pairs, plus structural
    diagnostics: one-dimensional endomorphism rings, highest-weight factor
    bounds, and the directionality of extensions between simples and
    between (co)standard modules.
    """
    rep = VerificationReport()
    poset = reg.poset
    for lam in poset.labels:
        dat = reg.data[lam]
        head = module_head(dat.standard)[0]
        rep.record("head_of_standard", lam, lam,
                   reg.mult(dat.standard, lam) == 1
                   and head.dim == dat.simple.dim
                   and reg.mult(head, lam) == 1)
        soc = submodule_rep(dat.costandard, module_socle(dat.costandard))[0]
        rep.record("socle_of_costandard", lam, lam,
                   reg.mult(dat.costandard, lam) == 1
                   and soc.dim == dat.simple.dim
                   and reg.mult(soc, lam) == 1)
        for mu in reg.factor_labels(dat.standard):
            rep.record("standard_highest_weight", lam, mu, poset.leq(mu, lam))
        for mu in reg.factor_labels(dat.costandard):
            rep.record("costandard_highest_weight", lam, mu, poset.leq(mu, lam))
        for (mod, tag) in ((dat.simple, "simple"), (dat.standard, "standard"),
                           (dat.costandard, "costandard")):
            rep.record(f"endo_{tag}_is_scalar", lam, lam, len(hom_space(mod, mod)) == 1)
    for lam in poset.labels:
        for mu in poset.labels:
            want = 1 if lam == mu else 0
            d = len(hom_space(reg.standard(lam), reg.costandard(mu)))
            rep.record("hom_standard_costandard", lam, mu, d == want,
                       f"dim {d}, expected {want}")
            e1 = ext1_dim(reg, reg.standard(lam), reg.costandard(mu))
            rep.record("ext1_standard_costandard", lam, mu, e1 == 0, f"dim {e1}")
            e2 = ext2_dim(reg, reg.standard(lam), reg.costandard(mu))
            rep.record("ext2_standard_costandard", lam, mu, e2 == 0, f"dim {e2}")
    # diagnostics mirroring the directional extension constraints: extensions
    # between simples need comparable labels; ext from Nabla(mu) to Nabla(lam)
    # forces mu > lam, and (dually) from Delta(mu) to Delta(lam) forces mu < lam
    for lam in poset.labels:
        for mu in poset.labels:
            if ext1_dim(reg, reg.simple(mu), reg.simple(lam)) > 0:
                rep.record("ext1_simples_comparable", lam, mu,
                           poset.lt(mu, lam) or poset.lt(lam, mu))
            if ext1_dim(reg, reg.costandard(mu), reg.costandard(lam)) > 0:
                rep.record("ext1_costandard_direction", lam, mu, poset.lt(lam, mu))
            if ext1_dim(reg, reg.standard(mu), reg.standard(lam)) > 0:
                rep.record("ext1_standard_direction", lam, mu, poset.lt(mu, lam))
    return rep


def filtration_multiplicity(reg: Registry, x: ModuleRep, label: str, kind: str) -> int:
    """(x : Delta(label)) or (x : Nabla(label)) by the hom-dimension formula."""
    if kind == "standard":
        return len(hom_space(x, reg.costandard(label)))
    if kind == "costandard":
        return len(hom_space(reg.standard(label), x))
    raise InputError(f"unknown filtration kind {kind!r}")
