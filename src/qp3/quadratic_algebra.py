"""The family A(gamma): quadratic algebras on four generators.

A(gamma) is defined by its 6x4 relation matrix, written in the polynomial
grammar of `multipoly.parse_poly`.  Relations are stored as 4x4
coefficient tensors on the tensor square (entry (i, j) is the coefficient
of x_i (x) x_j, zero-indexed), which is the form Koszul duality needs.
This module also hosts the coordinate variable sets shared by the whole
pipeline and the symmetry maps psi1, psi2 acting on Pluecker coordinates.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, List, Sequence, Tuple

from .gaussian import GaussianRational, ONE, ZERO, gr
from .multipoly import Polynomial, VarSet, parse_poly, substitute
from .polylinalg import PolyMatrix, nullspace, rank
from .groebner import MEMO_SIZE

X_VARS = VarSet(["x1", "x2", "x3", "x4"])
Z_VARS = VarSet(["z1", "z2", "z3", "z4"])
UV_VARS = VarSet(["u1", "u2", "u3", "u4", "v1", "v2", "v3", "v4"])
M_VARS = VarSet(["M12", "M13", "M14", "M23", "M24", "M34"])
MG_VARS = VarSet([*M_VARS.names, "g"])
CHART_VARS = VarSet(["x2", "x3", "x4"])


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


Tensor = Tuple[Tuple[GaussianRational, ...], ...]


def _zero_grid() -> List[List[GaussianRational]]:
    return [[ZERO] * 4 for _ in range(4)]


def _freeze(grid) -> Tensor:
    return tuple(tuple(row) for row in grid)


# Entry (r, j) is the linear form that multiplies x_j from the left in
# relation r, stored as (left side) - (right side).  In order the relations
# are x4 x1 = i x1 x4, x3^2 = x1^2, x3 x1 = x1 x3 - x2^2, x3 x2 = i x2 x3,
# x4^2 = x2^2 and x4 x2 = x2 x4 - g x1^2.
A_RELATION_ROWS = (
    ("x4", "0", "0", "-i*x1"),
    ("-x1", "0", "x3", "0"),
    ("x3", "x2", "-x1", "0"),
    ("0", "x3", "-i*x2", "0"),
    ("0", "-x2", "0", "x4"),
    ("g*x1", "x4", "0", "-x2"),
)


class QuadraticAlgebra:
    """Presentation with six linearly independent quadratic relations."""

    __slots__ = ("gamma", "relations")

    def __init__(self, gamma: GaussianRational, relations: Tuple[Tensor, ...]):
        if len(relations) != 6:
            raise ValueError("exactly six relations expected")
        if rank([[c for row in t for c in row] for t in relations]) != 6:
            raise RankDeficiencyError("relation tensors are linearly dependent")
        object.__setattr__(self, "gamma", gamma)
        object.__setattr__(self, "relations", relations)

    def __setattr__(self, name, value):
        raise AttributeError("QuadraticAlgebra is immutable")

    def __eq__(self, other):
        return (isinstance(other, QuadraticAlgebra) and self.gamma == other.gamma
                and self.relations == other.relations)

    def __hash__(self):  # equal algebras share gamma; cheap for cache keys
        return hash(self.gamma)

    def __repr__(self):
        return f"QuadraticAlgebra(gamma={self.gamma!r}, relations={self.relations!r})"


@lru_cache(maxsize=MEMO_SIZE)
def make_A(gamma: GaussianRational) -> QuadraticAlgebra:
    """The algebra A(gamma), read from its relation matrix; gamma must be
    nonzero.  Cached: the algebra is immutable."""
    gamma = nonzero_gamma(gamma)
    rows = PolyMatrix([[parse_poly(t, X_VARS, gamma=gamma) for t in row]
                       for row in A_RELATION_ROWS])
    return QuadraticAlgebra(gamma, tuple(expand_matrix_rows(rows)))


def tensor_to_rows(tensors: Sequence[Tensor], varset: VarSet) -> PolyMatrix:
    """Matrix with row r, column j equal to sum_i T_ij * var_i, so that
    (matrix) . (vars)^T expands back to each tensor."""
    rows = []
    for t in tensors:
        row = []
        for j in range(4):
            terms = {}
            for i in range(4):
                c = t[i][j]
                if not c.is_zero():
                    terms[varset.var_monomial(varset.names[i])] = c
            row.append(Polynomial(varset, terms))
        rows.append(row)
    return PolyMatrix(rows)


def relation_matrix(A: QuadraticAlgebra) -> PolyMatrix:
    """The 6x4 matrix M with M x = 0 encoding the relations, rows in the
    order the presentation lists them."""
    return tensor_to_rows(A.relations, X_VARS)


def expand_matrix_rows(m: PolyMatrix) -> List[Tensor]:
    """Inverse of tensor_to_rows: read each row of (m . vars) as a tensor,
    vars the four variables of the entries' VarSet."""
    out = []
    for r in range(m.rows):
        grid = _zero_grid()
        for j in range(4):
            entry = m.entries[r][j]
            for mono, c in entry.terms.items():
                i = next(k for k, e in enumerate(mono) if e)
                grid[i][j] = grid[i][j] + c
        out.append(_freeze(grid))
    return out


def tensor_bilinear(t: Tensor, p: Sequence, q: Sequence):
    """Evaluate the tensor as a bilinear form at a pair of points."""
    acc = None
    for i in range(4):
        for j in range(4):
            c = t[i][j]
            if c.is_zero():
                continue
            term = c * p[i] * q[j]
            acc = term if acc is None else acc + term
    return ZERO if acc is None else acc


def koszul_dual_relations(A: QuadraticAlgebra,
                          tensor_order: str = "left") -> List[Tensor]:
    """The ten relations of the Koszul dual: a canonical basis of the
    orthogonal complement of the relation span in the tensor square.

    The basis comes from the reduced row echelon form of the relation
    coefficient matrix (one vector per free coordinate, in increasing
    coordinate order), which makes the output deterministic.  The tensor
    coordinates can be enumerated with either factor as the major index
    (tensor_order "left" or "right"); both give canonical bases of the
    same space but different representatives, hence different minors
    downstream.  "left" reproduces the displayed dual matrix.
    """
    if tensor_order not in ("left", "right"):
        raise ValueError("tensor_order must be 'left' or 'right'")
    right = tensor_order == "right"
    rows = [[c for row in (zip(*t) if right else t) for c in row] for t in A.relations]
    # rank 6, which every QuadraticAlgebra has, leaves a nullspace of ten
    duals = []
    for vec in nullspace(rows):
        grid = [vec[k:k + 4] for k in range(0, 16, 4)]
        duals.append(_freeze(zip(*grid) if right else grid))
    return duals


def m_hat(A: QuadraticAlgebra, tensor_order: str = "left") -> PolyMatrix:
    """10x4 matrix of linear forms in the z_i with M^ z = 0 giving the
    Koszul dual relations, rows ordered as koszul_dual_relations."""
    return tensor_to_rows(koszul_dual_relations(A, tensor_order), Z_VARS)


# ---------------------------------------------------------------------------
# the symmetry maps on Pluecker coordinates
# ---------------------------------------------------------------------------


def substitution_images(table: Dict[str, Tuple[object, str]],
                        varset: VarSet) -> Dict[str, Polynomial]:
    """The `substitute` assignment of a signed variable table: each source
    name goes to c times the named variable of `varset`."""
    return {src: Polynomial(varset, {varset.var_monomial(dst): c})
            for src, (c, dst) in table.items()}


# index swap 1<->3, 2<->4 with M_ji = -M_ij sign normalization
_PSI1_TABLE = {
    "M12": (ONE, "M34"),
    "M13": (-ONE, "M13"),
    "M14": (-ONE, "M23"),
    "M23": (-ONE, "M14"),
    "M24": (-ONE, "M24"),
    "M34": (ONE, "M12"),
}
# its substitution images, built once for each VarSet it acts on
_PSI1_IMAGES = {vs: substitution_images(_PSI1_TABLE, vs) for vs in (M_VARS, MG_VARS)}


def psi1_on_pluecker(f: Polynomial) -> Polynomial:
    """Action of the antiautomorphism x1 <-> x3, x2 <-> x4 on the Pluecker
    coordinates, of f on M_VARS or MG_VARS (g kept); an involution."""
    if f.varset not in _PSI1_IMAGES:
        raise ValueError("psi1_on_pluecker expects a polynomial in the M variables")
    return substitute(f, _PSI1_IMAGES[f.varset])


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
    return substitute(f, substitution_images(table, M_VARS))


def gamma_sign_on_pluecker(f: Polynomial) -> Polynomial:
    """Pluecker action of x2 -> -x2, the isomorphism A(g) ~ A(-g): it
    negates each M_ij with 2 in {i, j}."""
    if f.varset != M_VARS:
        raise ValueError("expects a polynomial in the M variables")
    table = {n: (-ONE if "2" in n else ONE, n) for n in M_VARS.names}
    return substitute(f, substitution_images(table, M_VARS))
