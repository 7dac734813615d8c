"""Exact linear algebra over the rationals and prime fields.

Scalars over Q are Python ints for integral values and `fractions.Fraction`
for the rest; over F_p they are int residues in [0, p).  A `Field` value
mediates scalar arithmetic.  Matrices are stored dense, but elimination,
products, linear combinations, coordinate maps and subspace membership
touch only nonzero entries and do their arithmetic inline (native
operators over Q, one `% p` per update over F_p), with results identical,
entry by entry, to the dense loops the tests keep as the reference.
Matrices and subspaces are immutable, so a matrix lists its rows' nonzero
entries (`Matrix.sparse_rows`) once, on first use, for every later reader.
Zero rows are skipped after one `any()`; in products and combinations
they are one `(zero,) * ncols` tuple, and a product's left row with one
nonzero entry is a row of the right factor, shared when the entry is 1.

Every span is kept in reduced row echelon form (RREF: each row has a
leading 1, its pivot, where every other row is 0), so equal subspaces have
equal basis matrices.  There is one elimination, `insert_row`: it reduces a
sparse row against RREF rows keyed by their pivots, in one pass over the
pivots the row holds (`reduce_by_pivots`), scales what is left to a leading
1 and clears that pivot from the other rows.  `Matrix.rref`, `kernel` and
`solve`, `sparse_kernel`, `coordinates`, `Subspace.from_rows` and
`structure`'s closures all build their rows with it.  `coordinates` inserts
an independent family once and then reads the coordinates of a vector in
its span, refusing vectors outside it, or of a product known to lie there
at its pivots without forming it.
Everything is deterministic: no floats, no hashing order, no randomness.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .errors import DependentFamily, DimensionMismatch, InconsistentSystem, InputError

# The first thirteen primes decide Miller-Rabin exactly below this bound
# (Sorenson and Webster, 2015); larger characteristics are refused.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    if n >= _MR_LIMIT:
        raise InputError(f"field characteristic {n} is too large to certify as prime "
                         f"(limit {_MR_LIMIT})")
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _rational(x: Fraction):
    """x as a field scalar over Q: its numerator when x is integral."""
    return x.numerator if x.denominator == 1 else x


class Field:
    """The rationals (p is None) or the prime field F_p.

    Over Q, `zero`, `one`, `of` and `sample` return ints, and `parse` and
    `inv` return an int when the exact value is integral and a `Fraction`
    otherwise.  Arithmetic may still leave an integral `Fraction` behind;
    the two types mix exactly.  `+`, `-` and `*` of ints and Fractions are
    exact, an int equals and hashes like the Fraction of the same value,
    and both print the same, so matrices, memo keys and reports do not
    depend on which type a scalar has.  The one division is `inv`'s
    `Fraction(1, a)`: `/` on two ints would give a float.
    """

    __slots__ = ("p",)

    def __init__(self, p: int | None = None):
        if p is not None and not _is_prime(p):
            raise InputError(f"field characteristic {p} is not prime")
        self.p = p

    # -- identity ------------------------------------------------------------

    def __eq__(self, other):
        return isinstance(other, Field) and self.p == other.p

    def __hash__(self):
        return hash(("Field", self.p))

    def __repr__(self):
        return "Q" if self.p is None else f"F{self.p}"

    @property
    def characteristic(self) -> int:
        return 0 if self.p is None else self.p

    # -- scalar arithmetic ---------------------------------------------------

    def zero(self):
        return 0

    def one(self):
        return 1

    def of(self, n: int):
        return n if self.p is None else n % self.p

    def add(self, a, b):
        return a + b if self.p is None else (a + b) % self.p

    def sub(self, a, b):
        return a - b if self.p is None else (a - b) % self.p

    def mul(self, a, b):
        return a * b if self.p is None else (a * b) % self.p

    def neg(self, a):
        return -a if self.p is None else (-a) % self.p

    def inv(self, a):
        if self.p is None:
            if a == 0:
                raise ZeroDivisionError("inverse of 0")
            return _rational(Fraction(1, a))
        return pow(a, self.p - 2, self.p)

    # -- parsing and formatting ----------------------------------------------

    def parse(self, s):
        """Exact scalar from an int or a decimal-integer fraction string "a/b"."""
        if isinstance(s, bool) or isinstance(s, float):
            raise InputError(f"scalar {s!r} is not exact")
        if isinstance(s, int):
            return self.of(s)
        if not isinstance(s, str):
            raise InputError(f"cannot parse scalar {s!r}")
        text = s.strip()
        try:
            if "/" in text:
                num, den = text.split("/")
                num, den = int(num), int(den)
            else:
                num, den = int(text), 1
        except ValueError:
            raise InputError(f"cannot parse scalar {s!r}") from None
        if den == 0:
            raise InputError(f"zero denominator in {s!r}")
        if self.p is None:
            return _rational(Fraction(num, den))
        if den % self.p == 0:
            raise InputError(f"denominator of {s!r} is zero in {self!r}")
        return self.mul(self.of(num), self.inv(self.of(den)))

    # -- sampling (for seeded randomized searches) ----------------------------

    def sample(self, rng, span: int = 3):
        """Small scalar from a seeded PRNG (full field when p is small)."""
        if self.p is None:
            return rng.randint(-span, span)
        return rng.randint(0, min(self.p - 1, 2 * span))


class Matrix:
    """Immutable dense matrix with entries in a fixed field.

    Its hash and its sparse rows are computed on first use and kept; nothing
    assigns to a matrix after its constructor, so both stay valid.
    """

    __slots__ = ("field", "rows", "cols", "entries", "_hash", "_sparse")

    def __init__(self, field: Field, entries, cols: int | None = None):
        self.field = field
        rows = tuple(map(tuple, entries))
        self.entries = rows
        self._hash = None
        self._sparse = None
        self.rows = len(rows)
        self.cols = width = len(rows[0]) if rows else (cols or 0)
        if cols is not None and cols != width:
            raise DimensionMismatch(f"rows of width {width}, declared width {cols}")
        if any(len(r) != width for r in rows):
            raise DimensionMismatch("ragged matrix rows")

    @classmethod
    def _of(cls, field: Field, rows: tuple, cols: int) -> "Matrix":
        """A matrix of row tuples already built, all `cols` long; the results
        of elimination and products skip the copy and the ragged-row check."""
        m = object.__new__(cls)
        m.field = field
        m.entries = rows
        m.rows = len(rows)
        m.cols = cols
        m._hash = None
        m._sparse = None
        return m

    # -- constructors ----------------------------------------------------------

    @classmethod
    def zeros(cls, field, rows, cols):
        z = field.zero()
        return cls(field, [[z] * cols for _ in range(rows)], cols=cols)

    @classmethod
    def identity(cls, field, n):
        z, o = field.zero(), field.one()
        return cls(field, [[o if i == j else z for j in range(n)] for i in range(n)])

    @classmethod
    def column(cls, field, vec):
        return cls(field, [[v] for v in vec])

    # -- identity / hashing ------------------------------------------------------

    def __eq__(self, other):
        """The same matrix at once; else width and rows, then the
        characteristic, read directly rather than through `Field.__eq__`."""
        return other is self or (
            isinstance(other, Matrix)
            and self.cols == other.cols
            and self.entries == other.entries
            and self.field.p == other.field.p
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.field, self.rows, self.cols, self.entries))
        return self._hash

    def sparse_rows(self):
        """Each row's nonzero (column, value) pairs in column order, listed
        once per matrix and shared by every later reader."""
        if self._sparse is None:
            self._sparse = tuple([[(j, x) for j, x in enumerate(r) if x] if any(r) else []
                                  for r in self.entries])
        return self._sparse

    def __repr__(self):
        body = "; ".join(" ".join(map(str, r)) for r in self.entries)
        return f"Matrix({self.rows}x{self.cols}: {body})"

    # -- arithmetic ---------------------------------------------------------------

    def _check_same_shape(self, other):
        if self.rows != other.rows or self.cols != other.cols:
            raise DimensionMismatch(f"{self.rows}x{self.cols} vs {other.rows}x{other.cols}")

    def __add__(self, other):
        self._check_same_shape(other)
        add = self.field.add
        return Matrix._of(self.field, tuple(
            tuple([add(a, b) for a, b in zip(ra, rb)]) for ra, rb in zip(self.entries, other.entries)
        ), self.cols)

    def __sub__(self, other):
        self._check_same_shape(other)
        sub = self.field.sub
        return Matrix._of(self.field, tuple(
            tuple([sub(a, b) for a, b in zip(ra, rb)]) for ra, rb in zip(self.entries, other.entries)
        ), self.cols)

    def __neg__(self):
        neg = self.field.neg
        return Matrix._of(self.field, tuple(tuple([neg(a) for a in r]) for r in self.entries),
                          self.cols)

    def scale(self, c):
        mul = self.field.mul
        return Matrix._of(self.field, tuple(tuple([mul(c, a) for a in r]) for r in self.entries),
                          self.cols)

    def __matmul__(self, other):
        """Matrix product, touching only the nonzero entries of both factors.

        Both factors are read through `sparse_rows`, formed once per matrix,
        so a factor used in many products is scanned for its nonzero
        entries once.  A left row with one nonzero entry a, at k, gives row
        k of the right factor: that row itself when a = 1, else its nonzero
        entries times a.  Any other row accumulates a * b over nonzero a and
        nonzero b, in increasing column order of a, and is reduced mod p
        once.  Zero rows are one shared tuple.  The result equals the dense
        triple loop's entry by entry (the tests keep that loop as the
        reference).
        """
        if self.cols != other.rows:
            raise DimensionMismatch(f"{self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        F = self.field
        p = F.p
        zero = F.zero()
        ncols = other.cols
        sparse, brows = other.sparse_rows(), other.entries
        zero_row = (zero,) * ncols
        out = []
        for srow_a in self.sparse_rows():
            if not srow_a:
                out.append(zero_row)
                continue
            if len(srow_a) == 1:
                k, a = srow_a[0]
                if not sparse[k]:
                    out.append(zero_row)
                elif a == 1:
                    out.append(brows[k])
                else:
                    row = [zero] * ncols
                    for j, b in sparse[k]:
                        row[j] = a * b if p is None else a * b % p
                    out.append(tuple(row))
                continue
            row = [zero] * ncols
            for k, a in srow_a:
                for j, b in sparse[k]:
                    row[j] += a * b
            out.append(tuple(row) if p is None else tuple([x % p for x in row]))
        return Matrix._of(F, tuple(out), ncols)

    def transpose(self):
        if self.rows == 0:
            return Matrix._of(self.field, ((),) * self.cols, 0)
        return Matrix._of(self.field, tuple(zip(*self.entries)), self.rows)

    def is_zero(self):
        return not any(a for r in self.entries for a in r)

    def flat(self):
        return tuple(itertools.chain.from_iterable(self.entries))

    def power(self, k: int):
        if self.rows != self.cols:
            raise DimensionMismatch("power of non-square matrix")
        acc = Matrix.identity(self.field, self.rows)
        base = self
        while k:
            if k & 1:
                acc = acc @ base
            k >>= 1
            if k:
                base = base @ base
        return acc

    # -- elimination -----------------------------------------------------------------

    def _echelon(self) -> dict:
        """The RREF rows of the row space, keyed by their pivots."""
        return _insert_rows(self.field, [{j: x for j, x in enumerate(r) if x}
                                         for r in self.entries if any(r)])

    def rref(self):
        """Reduced row echelon form: (matrix, pivot column tuple, rank).

        The rows of `_echelon` in pivot order, then the zero rows.  A row
        space has one RREF, so the result equals the dense elimination's
        entry by entry (the tests keep that loop as the reference)."""
        rows, ncols = self._echelon(), self.cols
        out = _dense_rows(self.field, rows, ncols)
        out += [(self.field.zero(),) * ncols] * (self.rows - len(out))
        return Matrix._of(self.field, tuple(out), ncols), tuple(sorted(rows)), len(rows)

    def rank(self) -> int:
        return len(self._echelon())

    def kernel(self):
        """Canonical (RREF) basis of the right null space, as matrix rows."""
        return _null_space(self.field, self._echelon(), self.cols)

    def solve(self, b: "Matrix", with_kernel: bool = False):
        """A particular solution X of self @ X = b, every free variable zero.

        Raises InconsistentSystem when some column of b is outside the column
        space; the solutions differ from X by columns in kernel().  With
        with_kernel, returns (X, kernel()) from the one elimination: the rows
        of [self | b] are inserted, and the left block of their RREF is the
        RREF of self.
        """
        if b.rows != self.rows:
            raise DimensionMismatch("solve: row counts differ")
        F, n = self.field, self.cols
        rows = _insert_rows(F, ({j: x for j, x in enumerate(ra + rb) if x}
                                for ra, rb in zip(self.entries, b.entries)))
        if any(pc >= n for pc in rows):
            raise InconsistentSystem("right-hand side outside column space")
        zero = F.zero()
        part = [[zero] * b.cols for _ in range(n)]
        for pc, r in rows.items():
            for j, x in r.items():
                if j >= n:
                    part[pc][j - n] = x
        part = Matrix(F, part, cols=b.cols)
        return (part, _null_space(F, rows, n)) if with_kernel else part

    def inverse(self):
        """The solution X of self @ X = I.  A singular matrix raises
        InconsistentSystem: some pivot of [self | I] falls in the I block."""
        if self.rows != self.cols:
            raise DimensionMismatch("inverse of non-square matrix")
        try:
            return self.solve(Matrix.identity(self.field, self.rows))
        except InconsistentSystem:
            raise InconsistentSystem("matrix is singular") from None

    def is_invertible(self):
        return self.rows == self.cols and self.rank() == self.rows


def insert_row(field: Field, v: dict, rows: dict) -> dict | None:
    """The one elimination step: reduce v, a {column: nonzero value} dict,
    in place against `rows`, RREF rows keyed by their pivots; a remainder
    joins them, scaled to a leading 1 and cleared from the other rows at
    its pivot.  A cleared row is replaced, never changed in place, so
    copies of `rows` share rows.  Returns the new row, or None when v lay
    in the span."""
    p = field.p
    if not v or rows and not reduce_by_pivots(p, v, rows):
        return None
    lead = min(v)
    s = 1 if v[lead] == 1 else field.inv(v[lead])
    row = v if s == 1 else {t: x * s if p is None else x * s % p for t, x in v.items()}
    for c, r in rows.items():
        d = r.get(lead)
        if d:
            r = dict(r)
            for t, x in row.items():
                y = r.get(t, 0) - d * x
                if p is not None:
                    y %= p
                if y:
                    r[t] = y
                else:
                    del r[t]
            rows[c] = r
    rows[lead] = row
    return row


def _insert_rows(F: Field, vecs) -> dict:
    """The RREF rows, keyed by their pivots, of the span of `vecs`,
    {column: nonzero value} dicts, each inserted by `insert_row`."""
    rows = {}
    for v in vecs:
        insert_row(F, v, rows)
    return rows


def _dense_rows(F: Field, rows: dict, cols: int) -> list:
    """RREF rows keyed by their pivots as `cols`-long tuples, in pivot order."""
    zero = F.zero()
    out = []
    for _, r in sorted(rows.items()):
        row = [zero] * cols
        for j, x in r.items():
            row[j] = x
        out.append(tuple(row))
    return out


def _null_space(F: Field, rows: dict, cols: int) -> Matrix:
    """Canonical (RREF) basis of the null space of the first `cols` columns
    of the RREF rows `rows`, keyed by their pivots (all below cols): the
    vector of each free column, inserted by `insert_row`."""
    one = F.one()
    vecs = {fc: {fc: one} for fc in range(cols) if fc not in rows}
    for pc, r in rows.items():
        for j, x in r.items():
            if j in vecs:
                vecs[j][pc] = F.neg(x)
    return Matrix._of(F, tuple(_dense_rows(F, _insert_rows(F, vecs.values()), cols)), cols)


def sparse_kernel(F: Field, rows, width: int) -> Matrix:
    """Matrix.kernel() of the rows, {column: nonzero coefficient} dicts on
    `width` unknowns, inserted by `insert_row` in the order given."""
    return _null_space(F, _insert_rows(F, map(dict, rows)), width)


# -- coordinates and linear combinations ---------------------------------------


def reduce_by_pivots(p, v: dict, rows: dict) -> dict:
    """v minus its multiples of RREF rows, in place: v and each row are
    {column: nonzero value} dicts, rows keyed by their pivots (entry 1), p
    the characteristic or None.  A row is 0 at every other pivot, so v's
    entry at each pivot it holds is its multiple of that row, and one pass
    over those pivots leaves what lies outside the span."""
    for c in [c for c in v if c in rows]:
        d = v[c]
        for t, x in rows[c].items():
            y = v.get(t, 0) - d * x
            if p is not None:
                y %= p
            if y:
                v[t] = y
            else:
                del v[t]
    return v


def coordinates(field: Field, rows, width: int):
    """Coordinate map of an independent family of vectors in K^width.

    Inserts each vector v_i, with a 1 beside it at column width + i, by
    `insert_row`: the RREF rows of [family | I], whose pivots all fall in
    the family block.  Reducing a vector against them leaves 0 in that block
    exactly when it lies in the span (InconsistentSystem if not), and minus
    its coordinates in the identity block, since each row is the
    combination of the family its identity block gives.  The pivot reader
    `of_product(a, b)` reads a @ b, flattened row-major, of one shape at
    every call and known to lie in the span, at the pivots alone: its entry
    there is its multiple of that row, and entry (r, c) is row r of a times
    column c of b, whose columns are listed once per b.  A dependent family
    raises DependentFamily, and a vector of another length
    DimensionMismatch.
    """
    F = field
    p = F.p
    k = len(rows)
    z, o = F.zero(), F.one()
    ech = _insert_rows(F, ({**{c: x for c, x in enumerate(r) if x}, width + i: o}
                       for i, r in enumerate(rows)))
    if any(pc >= width for pc in ech):
        raise DependentFamily(f"family of {k} vectors in K^{width} is linearly dependent")
    columns, places = {}, []

    def coords(vec):
        if len(vec) != width:
            raise DimensionMismatch(f"vector of length {len(vec)} in K^{width}")
        v = reduce_by_pivots(p, {c: x for c, x in enumerate(vec) if x}, ech)
        if min(v, default=width) < width:
            raise InconsistentSystem("vector outside the span of the family")
        out = [z] * k
        for t, x in v.items():
            out[t - width] = -x if p is None else -x % p
        return tuple(out)

    def of_product(a: Matrix, b: Matrix):
        if not places:
            places.extend((pc, *divmod(pc, b.cols)) for pc in sorted(ech))
        if b not in columns:
            columns[b] = [dict(c) for c in b.transpose().sparse_rows()]
        cols, arows = columns[b], a.sparse_rows()
        out = [z] * k
        for pc, r, c in places:
            if arows[r] and (d := sum([x * cols[c][j] for j, x in arows[r] if j in cols[c]])):
                for t, x in ech[pc].items():
                    if t >= width:
                        out[t - width] += d * x
        return tuple(out) if p is None else tuple([x % p for x in out])

    coords.of_product = of_product
    return coords


def sole_eigenvalue(m: Matrix):
    """r when m - r.1 is nilpotent, so that r is m's one eigenvalue and
    tr(m) = n.r for m n x n; else None, as it is when char K divides n."""
    F, n = m.field, m.rows
    if F.p is not None and n % F.p == 0:
        return None
    r = _rational(F.mul(sum(row[i] for i, row in enumerate(m.entries)), F.inv(F.of(n))))
    return r if (m - Matrix.identity(F, n).scale(r)).power(n).is_zero() else None


def linear_combination(field: Field, coeffs, mats, rows: int, cols: int) -> Matrix:
    """sum c * M over the pairs with nonzero c, as a rows x cols matrix,
    touching only nonzero entries; over F_p each entry is reduced once.
    One coefficient 1 among zeros returns its M itself."""
    p = field.p
    z = field.zero()
    terms = [(c, m) for c, m in zip(coeffs, mats) if c]
    if len(terms) == 1 and terms[0][0] == 1:
        return terms[0][1]
    acc = [None] * rows
    for c, m in terms:
        for i, srow in enumerate(m.sparse_rows()):
            if srow:
                arow = acc[i] = acc[i] or [z] * cols
                for t, x in srow:
                    arow[t] += c * x
    zero_row = (z,) * cols
    return Matrix._of(field, tuple(zero_row if r is None else tuple(r) if p is None
                                   else tuple([x % p for x in r]) for r in acc), cols)


# -- block assembly ------------------------------------------------------------


def vstack(mats):
    mats = list(mats)
    F = mats[0].field
    cols = mats[0].cols
    if any(m.cols != cols for m in mats):
        raise DimensionMismatch("vstack: column counts differ")
    out = []
    for m in mats:
        out.extend(list(r) for r in m.entries)
    return Matrix(F, out, cols=cols)


def block_diag(mats):
    """The block-diagonal matrix of `mats`, each row one tuple."""
    mats = list(mats)
    F = mats[0].field
    z = F.zero()
    total_c = sum(m.cols for m in mats)
    rows, c0 = [], 0
    for m in mats:
        before, after = (z,) * c0, (z,) * (total_c - c0 - m.cols)
        rows.extend(before + row + after for row in m.entries)
        c0 += m.cols
    return Matrix._of(F, tuple(rows), total_c)


def sum_basis(field: Field, blocks, width: int, by_rows: bool) -> tuple:
    """The RREF basis, in row-major coordinates, of a direct sum of spaces
    of matrices: `blocks` lists (size, RREF basis), each matrix size x width
    set in its row block (by_rows) or width x size in its column block.
    The blocks' supports are disjoint and each matrix keeps its pivot where
    it is set, so the family ordered by pivot is already reduced."""
    z = field.zero()
    total = sum(size for size, _ in blocks)
    out, off = [], 0
    for size, basis in blocks:
        left, right = (z,) * off, (z,) * (total - off - size)
        out += [left * width + m.flat() + right * width if by_rows else
                tuple(itertools.chain.from_iterable(left + r + right for r in m.entries))
                for m in basis]
        off += size
    out.sort(key=lambda v: next(i for i, x in enumerate(v) if x))
    return unflatten(field, out, width if by_rows else total)


def unflatten(field: Field, vecs, cols: int) -> tuple:
    """The matrices, `cols` columns wide, of row-major flat tuples."""
    return tuple(Matrix._of(field, tuple([v[i:i + cols] for i in range(0, len(v), cols)]), cols)
                 for v in vecs)


class Subspace:
    """A subspace of K^ambient with a canonical RREF row basis.

    Equal subspaces have literally equal basis matrices, which makes
    deduplication and equality checks trivial.
    """

    __slots__ = ("ambient", "basis", "_pivot_rows")

    def __init__(self, ambient: int, basis: Matrix):
        self.ambient = ambient
        self.basis = basis
        self._pivot_rows = None
        if basis.cols not in (ambient, 0):
            raise DimensionMismatch("basis width differs from ambient dimension")

    @classmethod
    def from_rows(cls, field: Field, ambient: int, rows) -> "Subspace":
        """The span of the rows, keeping its pivot-keyed RREF rows for
        `contains_vector`."""
        ech = Matrix(field, rows, cols=ambient)._echelon()
        space = cls(ambient, Matrix._of(field, tuple(_dense_rows(field, ech, ambient)), ambient))
        space._pivot_rows = ech
        return space

    @classmethod
    def zero(cls, field: Field, ambient: int) -> "Subspace":
        return cls(ambient, Matrix(field, [], cols=ambient))

    @classmethod
    def full(cls, field: Field, ambient: int) -> "Subspace":
        return cls(ambient, Matrix.identity(field, ambient))

    @property
    def field(self):
        return self.basis.field

    @property
    def dim(self) -> int:
        return self.basis.rows

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.ambient == other.ambient
            and self.basis == other.basis
        )

    def __hash__(self):
        return hash((self.ambient, self.basis))

    def __repr__(self):
        return f"Subspace(dim {self.dim} of K^{self.ambient})"

    def contains_vector(self, vec) -> bool:
        """Membership by reducing vec against the RREF basis, whose rows are
        listed by pivot once per subspace; no elimination is run."""
        if len(vec) != self.ambient:
            raise DimensionMismatch("vector length differs from ambient dimension")
        if not any(vec):
            return True
        if self._pivot_rows is None:
            self._pivot_rows = {srow[0][0]: dict(srow) for srow in self.basis.sparse_rows()}
        return not reduce_by_pivots(self.field.p, {j: x for j, x in enumerate(vec) if x},
                                    self._pivot_rows)

    def coordinates(self, m: Matrix) -> Matrix:
        """X with basis^T @ X = m: an RREF basis row is the only one nonzero
        at its pivot, so row i of X is m's row at the i-th pivot.  A column
        of m outside the subspace raises InconsistentSystem."""
        if not all(self.contains_vector(col) for col in m.transpose().entries):
            raise InconsistentSystem("column outside the subspace")
        return Matrix._of(m.field, tuple(m.entries[srow[0][0]]
                                         for srow in self.basis.sparse_rows()), m.cols)

    def contains(self, other: "Subspace") -> bool:
        return all(self.contains_vector(r) for r in other.basis.entries)

    def complement_projection(self):
        """Projection onto non-pivot coordinates and its section.

        Returns (proj, section) with proj @ section = identity on the
        quotient and kernel(proj) = self; the quotient has dimension
        ambient - dim.
        """
        F = self.field
        z, o = F.zero(), F.one()
        sparse = self.basis.sparse_rows()
        free = sorted(set(range(self.ambient)).difference(srow[0][0] for srow in sparse))
        row_of = {c: fi for fi, c in enumerate(free)}
        # e_c reduced modulo the RREF basis: a basis row with entry x at the
        # free column c contributes -x at its pivot
        proj = [[o if t == c else z for t in range(self.ambient)] for c in free]
        for srow in sparse:
            pc = srow[0][0]
            for c, x in srow[1:]:
                proj[row_of[c]][pc] = F.neg(x)
        section = [[o if c == r else z for c in free] for r in range(self.ambient)]
        return Matrix(F, proj, cols=self.ambient), Matrix(F, section, cols=len(free))
