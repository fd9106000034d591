"""The family A(gamma): quadratic algebras on four generators.

A(gamma) is defined by six relations, bilinear forms on XY_VARS in the
grammar of `multipoly.parse_poly` (the word x_a x_b is x_a*y_b); the
relation matrix, the Koszul dual relations and their matrix are read off
them.  With gamma None the family parameter stays a variable g, last on
each ring (`with_g`), so the same builders give A over Q(i)[g] and its
dual there.  The module also hosts the coordinate variable sets of the whole
pipeline and the symmetry maps psi1, psi2 on Pluecker coordinates.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

from .gaussian import GaussianRational, ONE, ZERO, _Frozen, gr
from .multipoly import Polynomial, VarSet, parse_poly, substitute
from .polylinalg import PolyMatrix, kernel_vector, nullspace
from .groebner import MEMO_SIZE

X_VARS = VarSet(["x1", "x2", "x3", "x4"])
Z_VARS = VarSet(["z1", "z2", "z3", "z4"])
# the left and right factors x_i y_j of a word, and z_i w_j of a dual word
XY_VARS = X_VARS.extend(["y1", "y2", "y3", "y4"])
ZW_VARS = Z_VARS.extend(["w1", "w2", "w3", "w4"])
UV_VARS = VarSet(["u1", "u2", "u3", "u4", "v1", "v2", "v3", "v4"])
M_VARS = VarSet(["M12", "M13", "M14", "M23", "M24", "M34"])
MG_VARS = VarSet([*M_VARS.names, "g"])
CHART_VARS = VarSet(["x2", "x3", "x4"])


def with_g(vs: VarSet, gamma) -> VarSet:
    """vs, or vs with the parameter g appended last when gamma is None."""
    return vs if gamma is not None else vs.extend(["g"])


class ZeroGammaError(ValueError):
    pass


def nonzero_gamma(gamma) -> GaussianRational:
    """gamma as a Gaussian rational; the family needs it nonzero."""
    gamma = gr(gamma)
    if gamma.is_zero():
        raise ZeroGammaError("gamma must be nonzero")
    return gamma


class RankDeficiencyError(ValueError):
    pass


# The relations as the paper writes them, each stored as (left side) -
# (right side) with the word x_a x_b written x_a*y_b.
A_RELATIONS = (
    "x4*y1 - i*x1*y4",             # x4 x1 = i x1 x4
    "x3*y3 - x1*y1",               # x3^2 = x1^2
    "x3*y1 - x1*y3 + x2*y2",       # x3 x1 = x1 x3 - x2^2
    "x3*y2 - i*x2*y3",             # x3 x2 = i x2 x3
    "x4*y4 - x2*y2",               # x4^2 = x2^2
    "x4*y2 - x2*y4 + g*x1*y1",     # x4 x2 = x2 x4 - g x1^2
)
# The 16 words x_i*y_j as exponent tuples on XY_VARS or ZW_VARS: (i, j)
# is at 4i + j in the "left" order, at 4j + i in the "right" one.
_WORDS = {"left": tuple(tuple(int(k in (i, 4 + j)) for k in range(8))
                        for i in range(4) for j in range(4))}
_WORDS["right"] = tuple(_WORDS["left"][4 * i + j] for j in range(4) for i in range(4))
# the pivot columns of the relations' echelon form in either word order:
# at every gamma the 6x6 minor of A's relations on them is 1 ("left") or -1
_PIVOTS = (0, 2, 3, 5, 6, 7)


def _coefficients(f: Polynomial, tensor_order: str) -> List:
    """The 16 coefficients of the bilinear form f, in that word order:
    scalars, or with g kept polynomials in g on f's VarSet."""
    if tensor_order not in _WORDS:
        raise ValueError("tensor_order must be 'left' or 'right'")
    terms = f.terms
    if "g" not in f.varset:
        return [terms.get(w, ZERO) for w in _WORDS[tensor_order]]
    parts = {w: {} for w in _WORDS[tensor_order]}
    for m, c in terms.items():
        parts[m[:8]][(0,) * 8 + m[8:]] = c
    return [Polynomial(f.varset, t) for t in parts.values()]


def _dual_forms(relations: Sequence[Polynomial], varset: VarSet,
                tensor_order: str) -> List[Polynomial]:
    """The canonical basis (`nullspace`) of the right kernel of the six
    relations' coefficient rows in that word order, each vector as a
    bilinear form on `varset`; fewer than ten vectors, a rank below six,
    raise RankDeficiencyError.

    Over Q(i)[g] (polynomial rows) it is Cramer's rule on `_PIVOTS`: the
    vector of free column c is the `kernel_vector` of the seven columns
    `_PIVOTS` + (c,), divided by its entry c.  That divisor is a nonzero
    constant, so each entry lies in Q(i)[g], and the vector specialises to
    the one `nullspace` finds at every gamma."""
    rows = [_coefficients(f, tensor_order) for f in relations]
    words = _WORDS[tensor_order]
    if "g" not in varset:
        forms = [Polynomial(varset, dict(zip(words, v))) for v in nullspace(rows)]
    else:
        forms = []
        for c in sorted(set(range(16)) - set(_PIVOTS)):
            cols = sorted((*_PIVOTS, c))
            v = kernel_vector(PolyMatrix([[row[j] for j in cols] for row in rows]))
            pivot = v[cols.index(c)]
            if pivot.is_zero() or pivot.degree() != 0:
                raise RankDeficiencyError("the pivot minor is not a nonzero constant")
            scale = pivot.constant_value().inverse()
            forms.append(Polynomial(varset, {words[j] + m[8:]: a * scale
                                             for j, x in zip(cols, v)
                                             for m, a in x.terms.items()}))
    if len(forms) != 10:
        raise RankDeficiencyError("relations are linearly dependent")
    return forms


class QuadraticAlgebra(_Frozen):
    """Six linearly independent quadratic relations, bilinear forms on
    XY_VARS (with g last where gamma is None), and the ten forms of the
    Koszul dual in the "left" order (`koszul_dual_relations`) that the
    rank check finds on the way."""

    __slots__ = ("gamma", "relations", "dual")

    def __init__(self, gamma: Optional[GaussianRational],
                 relations: Tuple[Polynomial, ...]):
        if len(relations) != 6:
            raise ValueError("exactly six relations expected")
        vs = with_g(XY_VARS, gamma)
        for f in relations:
            if (not isinstance(f, Polynomial) or f.varset != vs
                    or not {m[:8] for m in f.terms} <= set(_WORDS["left"])):
                raise ValueError(f"not a bilinear form x_i*y_j on {vs!r}: {f!r}")
        object.__setattr__(self, "gamma", gamma)
        object.__setattr__(self, "relations", relations)
        object.__setattr__(self, "dual", tuple(_dual_forms(
            relations, with_g(ZW_VARS, gamma), "left")))

    def __eq__(self, other):
        return (isinstance(other, QuadraticAlgebra) and self.gamma == other.gamma
                and self.relations == other.relations)

    def __hash__(self):  # equal algebras share gamma; cheap for cache keys
        return hash(self.gamma)

    def __repr__(self):
        return f"QuadraticAlgebra(gamma={self.gamma!r}, relations={self.relations!r})"


@lru_cache(maxsize=MEMO_SIZE)
def make_A(gamma: Optional[GaussianRational]) -> QuadraticAlgebra:
    """The algebra A(gamma), read from its six relations; gamma must be
    nonzero, or None to keep g a variable.  Cached: the algebra is
    immutable."""
    if gamma is not None:
        gamma = nonzero_gamma(gamma)
    vs = with_g(XY_VARS, gamma)
    return QuadraticAlgebra(gamma, tuple(parse_poly(t, vs, gamma=gamma)
                                         for t in A_RELATIONS))


def _matrix(forms: Sequence[Polynomial], left: VarSet) -> PolyMatrix:
    """Entry (r, j) is the part of form r paired with the (j+1)-th right-hand
    variable, a linear form on `left` (its g kept, if any): times those
    variables, the forms."""
    rows = []
    for f in forms:
        row = [{} for _ in range(4)]
        for m, c in f.terms.items():
            row[m.index(1, 4) - 4][m[:4] + m[8:]] = c
        rows.append([Polynomial(left, t) for t in row])
    return PolyMatrix(rows)


@lru_cache(maxsize=MEMO_SIZE)
def relation_matrix(A: QuadraticAlgebra) -> PolyMatrix:
    """The 6x4 matrix M with M x = 0 encoding the relations, rows in the
    order the presentation lists them.  Cached: sigma reads it at each point."""
    return _matrix(A.relations, with_g(X_VARS, A.gamma))


def bilinear_value(f: Polynomial, p: Sequence, q: Sequence) -> Polynomial:
    """The form f at the pair of points (p, q), x_i -> p[i] and y_i -> q[i]:
    on the VarSet of the coordinates if they are polynomials, else f's."""
    images = dict(zip(f.varset.names, (*p, *q)))
    target = p[0].varset if isinstance(p[0], Polynomial) else f.varset
    return substitute(f, images, target)


def koszul_dual_relations(A: QuadraticAlgebra,
                          tensor_order: str = "left") -> List[Polynomial]:
    """The ten relations of the Koszul dual, bilinear forms on ZW_VARS: the
    canonical nullspace basis (`nullspace`) of the relations' coefficient
    rows, which makes the output deterministic.  Either factor can be the
    major index of the words (tensor_order "left" or "right"): both give
    bases of the same space, but different representatives and minors.
    "left" reproduces the displayed dual matrix."""
    if tensor_order == "left":
        return list(A.dual)
    return _dual_forms(A.relations, with_g(ZW_VARS, A.gamma), tensor_order)


def m_hat(A: QuadraticAlgebra, tensor_order: str = "left") -> PolyMatrix:
    """10x4 matrix of linear forms in the z_i with M^ z = 0 giving the
    Koszul dual relations, rows ordered as koszul_dual_relations."""
    return _matrix(koszul_dual_relations(A, tensor_order), with_g(Z_VARS, A.gamma))


# ---------------------------------------------------------------------------
# the symmetry maps on Pluecker coordinates
# ---------------------------------------------------------------------------


def _substitution_images(table: Dict[str, Tuple[object, str]],
                         varset: VarSet) -> Dict[str, Polynomial]:
    """The `substitute` assignment of a signed variable table: each source
    name goes to c times the named variable of `varset`."""
    return {src: Polynomial(varset, {varset.var_monomial(dst): c})
            for src, (c, dst) in table.items()}


# psi1, the antiautomorphism x1 <-> x3, x2 <-> x4, on the Pluecker
# coordinates: index swap 1<->3, 2<->4 with M_ji = -M_ij sign normalization.
# `fixtures` applies it to table rows as a signed permutation
_PSI1_TABLE = {
    "M12": (ONE, "M34"),
    "M13": (-ONE, "M13"),
    "M14": (-ONE, "M23"),
    "M23": (-ONE, "M14"),
    "M24": (-ONE, "M24"),
    "M34": (ONE, "M12"),
}


def psi2_on_pluecker(f: Polynomial, s: GaussianRational) -> Polynomial:
    """Action of psi2 (x2 <-> lambda*x3, x4 <-> lambda*x1, lambda^4 = gamma)
    on Pluecker coordinates, given s = lambda^2, a square root of gamma:
    only lambda^2 enters the induced map on lines."""
    if f.varset != M_VARS:
        raise ValueError("psi2_on_pluecker expects a polynomial in the M variables")
    table = {
        "M12": (ONE, "M34"),
        "M13": (s.inverse(), "M24"),
        "M14": (ONE, "M14"),
        "M23": (ONE, "M23"),
        "M24": (s, "M13"),
        "M34": (ONE, "M12"),
    }
    return substitute(f, _substitution_images(table, M_VARS))


def gamma_sign_on_pluecker(f: Polynomial) -> Polynomial:
    """Pluecker action of x2 -> -x2, the isomorphism A(g) ~ A(-g): it
    negates each M_ij with 2 in {i, j}."""
    if f.varset != M_VARS:
        raise ValueError("expects a polynomial in the M variables")
    table = {n: (-ONE if "2" in n else ONE, n) for n in M_VARS.names}
    return substitute(f, _substitution_images(table, M_VARS))
