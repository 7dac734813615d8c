"""Univariate polynomial helpers over an exact field.

Polynomials are tuples of coefficients in ascending degree with no trailing
zeros (the zero polynomial is the empty tuple).  Only what the structure
computations need lives here: characteristic polynomials via Hessenberg
reduction, and their roots in the base field with the division and gcd
arithmetic that finds them (the eigenvalue at which the idempotent sweep
takes a Fitting projection, and which certifies a local End).  Over Q the roots
are found among the rational-root candidates; over F_p, for every p, by
splitting gcd(f, x^p - x) into its linear factors.
"""

from __future__ import annotations

import math
import random

from .linalg import Field, Matrix


def normalize(coeffs):
    cs = list(coeffs)
    while cs and not cs[-1]:
        cs.pop()
    return tuple(cs)


def degree(f) -> int:
    return len(f) - 1  # -1 for the zero polynomial


def add(field, f, g):
    n = max(len(f), len(g))
    fz = list(f) + [field.zero()] * (n - len(f))
    gz = list(g) + [field.zero()] * (n - len(g))
    return normalize([field.add(a, b) for a, b in zip(fz, gz)])


def scale(field, c, f):
    return normalize([field.mul(c, a) for a in f])


def mul(field, f, g):
    if not f or not g:
        return ()
    out = [field.zero()] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if not a:
            continue
        for j, b in enumerate(g):
            out[i + j] = field.add(out[i + j], field.mul(a, b))
    return normalize(out)


def divmod_poly(field, f, g):
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    f = list(f)
    q = [field.zero()] * max(0, len(f) - len(g) + 1)
    inv_lead = field.inv(g[-1])
    while len(f) >= len(g) and normalize(f):
        f = list(normalize(f))
        if len(f) < len(g):
            break
        shift = len(f) - len(g)
        c = field.mul(f[-1], inv_lead)
        q[shift] = c
        for i, b in enumerate(g):
            f[shift + i] = field.sub(f[shift + i], field.mul(c, b))
    return normalize(q), normalize(f)


def monic(field, f):
    if not f:
        return f
    return scale(field, field.inv(f[-1]), f)


def gcd(field, f, g):
    a, b = f, g
    while b:
        a, b = b, divmod_poly(field, a, b)[1]
    return monic(field, a)


def evaluate(field, f, x):
    acc = field.zero()
    for c in reversed(f):
        acc = field.add(field.mul(acc, x), c)
    return acc


def deflate_root(field, f, r):
    """Divide out (x - r); the remainder must be zero."""
    q, rem = divmod_poly(field, f, (field.neg(r), field.one()))
    assert not rem
    return q


def pow_mod(field, base, e: int, modulus):
    result = (field.one(),)
    base = divmod_poly(field, base, modulus)[1]
    while e:
        if e & 1:
            result = divmod_poly(field, mul(field, result, base), modulus)[1]
        e >>= 1
        if e:
            base = divmod_poly(field, mul(field, base, base), modulus)[1]
    return result


# -- root extraction ----------------------------------------------------------


def _int_divisors(n: int):
    n = abs(n)
    out = set()
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.add(d)
            out.add(n // d)
        d += 1
    return sorted(out)


def _rational_roots(f):
    """Roots in Q of a polynomial with rational coefficients, with multiplicity."""
    field = Field()
    roots = []
    # strip powers of x
    while f and f[0] == 0:
        roots.append(field.zero())
        f = f[1:]
    while degree(f) >= 1:
        if degree(f) == 1:
            roots.append(field.mul(field.neg(f[0]), field.inv(f[1])))
            f = (f[1],)
            break
        denom_lcm = math.lcm(*(c.denominator for c in f))
        zf = [int(c * denom_lcm) for c in f]
        found = None
        for pnum in _int_divisors(zf[0]) or [0]:
            for qden in _int_divisors(zf[-1]):
                for sign in (1, -1):
                    cand = field.mul(field.of(sign * pnum), field.inv(field.of(qden)))
                    if evaluate(field, f, cand) == 0:
                        found = cand
                        break
                if found is not None:
                    break
            if found is not None:
                break
        if found is None:
            break
        # divide out the root's full multiplicity before searching again
        while degree(f) >= 1 and evaluate(field, f, found) == 0:
            roots.append(found)
            f = deflate_root(field, f, found)
    return roots, f


def _prime_field_roots(field, f):
    """Roots in F_p with multiplicity; the monic leftover has no roots in F_p.

    After the zero roots are stripped, gcd(f, x^p - x) is the product of
    f's distinct linear factors; an equal-degree split finds them, and each
    is divided out of f to its full multiplicity.  For p = 2 that gcd has
    degree at most 1, so the split draws nothing.
    """
    roots = []
    while f and not f[0]:
        roots.append(field.zero())
        f = f[1:]
    if degree(f) < 1:
        return roots, f
    fm = monic(field, f)
    x = (field.zero(), field.one())
    xp = pow_mod(field, x, field.p, fm)
    lin = gcd(field, fm, add(field, xp, scale(field, field.neg(field.one()), x)))
    for r in _split_linear(field, lin, random.Random(0)):
        while degree(fm) >= 1 and not evaluate(field, fm, r):
            roots.append(r)
            fm = deflate_root(field, fm, r)
    return roots, fm


def _split_linear(field, f, rng):
    """All roots of a monic product of distinct linear factors over F_p."""
    p = field.p
    if degree(f) == 0:
        return []
    if degree(f) == 1:
        return [field.neg(f[0])]
    while True:
        a = field.of(rng.randrange(p))
        shifted = (a, field.one())
        g = pow_mod(field, shifted, (p - 1) // 2, f)
        g = add(field, g, (field.neg(field.one()),))
        d = gcd(field, f, g)
        if 0 < degree(d) < degree(f):
            rest = divmod_poly(field, f, d)[0]
            return _split_linear(field, d, rng) + _split_linear(field, rest, rng)


def linear_roots(field, f):
    """(roots with multiplicity, non-split leftover factor) of f over the field."""
    f = normalize(f)
    if not f or degree(f) == 0:
        return [], f
    if field.p is None:
        return _rational_roots(f)
    return _prime_field_roots(field, f)


# -- matrix polynomials --------------------------------------------------------


def charpoly(m: Matrix):
    """Characteristic polynomial det(xI - m) via Hessenberg reduction.

    Returns monic coefficients in ascending degree, length n + 1.
    """
    F = m.field
    n = m.rows
    if n == 0:
        return (F.one(),)
    h = [list(r) for r in m.entries]
    # similarity reduction to upper Hessenberg form
    for col in range(n - 2):
        pivot = None
        for r in range(col + 1, n):
            if h[r][col]:
                pivot = r
                break
        if pivot is None:
            continue
        if pivot != col + 1:
            h[pivot], h[col + 1] = h[col + 1], h[pivot]
            for r in range(n):
                h[r][pivot], h[r][col + 1] = h[r][col + 1], h[r][pivot]
        inv = F.inv(h[col + 1][col])
        for r in range(col + 2, n):
            if not h[r][col]:
                continue
            factor = F.mul(h[r][col], inv)
            h[r] = [F.sub(x, F.mul(factor, y)) for x, y in zip(h[r], h[col + 1])]
            for rr in range(n):
                h[rr][col + 1] = F.add(h[rr][col + 1], F.mul(factor, h[rr][r]))
    # recurrence over leading principal minors of the Hessenberg form
    polys = [(F.one(),)]
    for k in range(1, n + 1):
        # p_k = (x - h[k-1][k-1]) p_{k-1} - sum_i (prod subdiag) h[i-1][k-1] p_{i-1}
        term = mul(F, (F.neg(h[k - 1][k - 1]), F.one()), polys[k - 1])
        prod = F.one()
        for i in range(k - 1, 0, -1):
            prod = F.mul(prod, h[i][i - 1])
            coeff = F.mul(prod, h[i - 1][k - 1])
            term = add(F, term, scale(F, F.neg(coeff), polys[i - 1]))
        polys.append(term)
    out = list(polys[n]) + [F.zero()] * (n + 1 - len(polys[n]))
    return tuple(out[: n + 1])

