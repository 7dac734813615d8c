"""Input documents for the benchmark: the Auslander algebra of K[x]/x^n.

The Auslander algebra is End(M_1 + ... + M_n) for the indecomposable
K[x]/x^n-modules M_k = K[x]/x^k.  It is written down in closed form, with
no call into tiltcell, so the program under test only ever sees the
finished document and loads it through its own parser.

Basis: b(j, k, s) is the map M_j -> M_k sending 1 to x^s, for
max(0, k - j) <= s < k.  The identities b(k, k, 0) come first, in order of
k, so poset label "k" names the simple at M_k.  The product is composition,
b(k, l, t) b(j, k, s) = b(j, l, s + t) (zero when s + t >= l), matching the
convention of `EndAlgebra`: b_a b_b applies b_b first.  The order is the
chain n < n-1 < ... < 1, under which the algebra is quasi-hereditary.
"""

from __future__ import annotations


def auslander_basis(n: int):
    """Basis triples (j, k, s), identities first."""
    if n < 1:
        raise ValueError("n must be at least 1")
    identities = [(k, k, 0) for k in range(1, n + 1)]
    return identities + [(j, k, s) for j in range(1, n + 1) for k in range(1, n + 1)
                         for s in range(max(0, k - j), k) if (j, k, s) != (k, k, 0)]


def auslander_document(n: int, field: str = "Q") -> dict:
    """Input document for the Auslander algebra of K[x]/x^n over `field`
    ("Q" or "Fp <p>"), with the chain order n < ... < 1."""
    basis = auslander_basis(n)
    index = {b: i for i, b in enumerate(basis)}
    struct_consts = []
    for a, (k2, l, t) in enumerate(basis):
        for b, (j, k, s) in enumerate(basis):
            if k2 == k and s + t < l:
                struct_consts.append([a, b, index[(j, l, s + t)], 1])
    unit = [1 if j == k and s == 0 else 0 for (j, k, s) in basis]
    labels = [str(k) for k in range(1, n + 1)]
    return {
        "name": f"auslander-x{n}",
        "field": field,
        "algebra": {"dim": len(basis), "struct_consts": struct_consts, "unit": unit},
        "poset": {"labels": labels,
                  "covers": [[str(k + 1), str(k)] for k in range(1, n)]},
    }
