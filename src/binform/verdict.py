"""Case classification and the identity-component dichotomy.

The stabilizer of f in the plane diffeomorphisms carries a nested family of
identity components StabId^r, one per smoothness grade r of the allowed
isotopies.  All grades from infinity down to 1 always coincide; the C^1 and
C^0 components differ exactly when f is a product of at least two distinct
definite quadratics, which is the factor-count case D.  Everything here is
exact integer bookkeeping on the counts (l, k) of the factorization,
exact from Descartes' rule of signs; no enclosure is read.
"""

from __future__ import annotations

from typing import Optional

from .errors import DegreeZeroError, InvariantError, UnclassifiableCountsError
from .polyring import HomogeneousForm
from .realfactor import FactorizationStructure, factor_form

_CHAIN_EQUAL = "StabId^inf = ... = StabId^1 = StabId^0"
_CHAIN_SPLIT = "StabId^inf = ... = StabId^1 != StabId^0"


def classify_case(fs: FactorizationStructure) -> str:
    """Map the exact counts (l, k) to the case letter."""
    l, k = fs.l, fs.k
    if (l, k) == (1, 0):
        return "A"
    if (l, k) == (2, 0):
        return "B"
    if (l, k) == (0, 1):
        return "C"
    if l == 0 and k >= 2:
        return "D"
    if l >= 1 and l + 2 * k >= 3:
        return "E"
    raise UnclassifiableCountsError(
        f"counts (l, k) = ({l}, {k}) fit no case; degree {fs.degree}")


class TheoremVerdict:
    __slots__ = ("case", "p", "l", "k", "stab1_ne_stab0", "chain")

    def __init__(self, case: str, p: int, l: int, k: int, stab1_ne_stab0: bool, chain: str):
        if stab1_ne_stab0 != (case == "D"):
            raise InvariantError(f"case {case} with stab1_ne_stab0 = {stab1_ne_stab0}")
        if not chain.startswith("StabId^inf = ... = StabId^1"):
            raise InvariantError(f"malformed chain {chain!r}")
        self.case, self.p, self.l, self.k = case, p, l, k
        self.stab1_ne_stab0, self.chain = stab1_ne_stab0, chain


def decide_theorem(f: HomogeneousForm,
                   fs: Optional[FactorizationStructure] = None) -> TheoremVerdict:
    """Decide whether the C^1 and C^0 identity components differ for f.

    They differ iff f is (a scalar multiple of) a product of k >= 2 distinct
    definite quadratic powers with no linear factor.
    """
    if f.degree < 1 or f.is_zero:
        raise DegreeZeroError("need a nonzero form of degree >= 1")
    if fs is None:
        fs = factor_form(f)
    case = classify_case(fs)
    split = case == "D"
    return TheoremVerdict(
        case=case,
        p=f.degree,
        l=fs.l,
        k=fs.k,
        stab1_ne_stab0=split,
        chain=_CHAIN_SPLIT if split else _CHAIN_EQUAL,
    )
