"""Exception hierarchy.

Split into three families so the CLI can map them to exit codes:
input problems (exit 2), violations of the mathematical contracts the
pipeline certifies (exit 1), and internal limitations.
"""


class TiltcellError(Exception):
    """Base class for all errors raised by this package."""


class InputError(TiltcellError):
    """Malformed input document, unknown keys, bad scalars, bad poset."""


# -- exact linear algebra ----------------------------------------------------

class DimensionMismatch(TiltcellError):
    pass


class InconsistentSystem(TiltcellError):
    """A linear system A x = b with b outside the column space of A."""


class DependentFamily(TiltcellError):
    """A coordinate map was asked for a linearly dependent family."""


# -- algebra / module layer --------------------------------------------------

class AlgebraMismatch(TiltcellError):
    """Operands live over different algebras."""


class NotSplit(TiltcellError):
    """Some simple module has endomorphism ring larger than the base field."""


class NotComputable(TiltcellError):
    """A structural computation exhausted its (complete-in-theory) search."""


# -- structural certificates -------------------------------------------------

class AxiomViolation(TiltcellError):
    """A highest-weight axiom failed; carries the offending pair and check."""

    def __init__(self, label, other, which, detail=""):
        self.label = label
        self.other = other
        self.which = which
        self.detail = detail
        msg = f"axiom {which!r} violated at ({label}, {other})"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)


class TheoremViolation(TiltcellError):
    """Two independent computations of the same invariant disagree."""


class NoLift(TiltcellError):
    """A factorization through an indecomposable tilting module failed."""


class NothingToDo(TiltcellError):
    """Universal extension requested where the extension group vanishes."""


class ConstructionDiverged(TiltcellError):
    """Tilting construction exceeded the configured dimension bound."""


class BasisFailure(TiltcellError):
    """Assembled basis candidate is not a basis; carries the offending label."""

    def __init__(self, label, detail=""):
        self.label = label
        super().__init__(f"basis assembly failed at {label!r}: {detail}")


class UnidentifiedSummand(TiltcellError):
    """A tilting summand matches no indecomposable tilting in the registry."""


class LabelNotInSupport(TiltcellError):
    pass


# -- duality layer -----------------------------------------------------------

class NotStandardDuality(TiltcellError):
    def __init__(self, label, which, detail=""):
        self.label = label
        self.which = which
        super().__init__(f"duality check {which!r} failed at {label!r} {detail}".rstrip())


class SymmetrizationDegenerate(TiltcellError):
    """Symmetrized form is nilpotent; carries skewness diagnostics."""

    def __init__(self, detail):
        self.detail = detail
        super().__init__(detail)


class NotInvolutive(TiltcellError):
    """Induced anti-automorphism fails to square to the identity."""

    def __init__(self, a_element, detail=""):
        self.a_element = a_element
        super().__init__(f"induced map is not an involution {detail}".rstrip())


class CellularityFailure(TiltcellError):
    def __init__(self, label, i, j, detail=""):
        self.label = label
        self.i = i
        self.j = j
        super().__init__(f"cellularity certificate failed at c[{i},{j}]^{label!r} {detail}".rstrip())
