"""Finite-dimensional Hom-Lie algebras from structure constants.

A Hom-Lie algebra here is a triple (𝔤, [,], α): a rational vector space
with a chosen basis, a skew bracket given by structure constants, and a
linear endomorphism α satisfying the α-twisted Jacobi identity

    [α(x),[y,z]] + [α(y),[z,x]] + [α(z),[x,y]] = 0

together with multiplicativity α[x,y] = [α(x),α(y)].

Structure constants are supplied for i < j only; skew-symmetry is
synthesized.  The α matrix is stored row-per-image: row i holds the
coordinates of α(e_i).

Elements are plain tuples of exact coefficients (ints, and Fractions
where a value is not integral) in basis coordinates; as text
they are ±-sums of `[coef*] symbol` terms, read over trees.Reader by
parse_element and, inside a U𝔤 decoration, by read_element.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence, Union

from .linalg import LinComb, RowSpace, frac
from .trees import Reader

Coords = tuple


class NotEndomorphism(ValueError):
    """The twisting map fails to be an endomorphism of the input bracket."""

    def __init__(self, witness: tuple):
        super().__init__("alpha is not an endomorphism of the bracket; witness basis pair %r" % (witness,))
        self.witness = witness


class HomLieAlgebra(NamedTuple):
    name: str
    basis: tuple          # basis symbols
    brackets: tuple       # brackets[i][j] = coords of [e_i, e_j], full skew table
    alpha: tuple          # alpha[i] = coords of α(e_i)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def index_of(self, symbol: str) -> int:
        try:
            return self.basis.index(symbol)
        except ValueError:
            raise KeyError("unknown basis symbol %r (basis: %s)" % (symbol, ", ".join(self.basis))) from None

    def zero(self) -> Coords:
        return (0,) * self.dim

    def basis_vector(self, i: int) -> Coords:
        return tuple(1 if j == i else 0 for j in range(self.dim))

    def bracket(self, x: Coords, y: Coords) -> Coords:
        out = [0] * self.dim
        for i, xi in enumerate(x):
            if not xi:
                continue
            for j, yj in enumerate(y):
                if not yj:
                    continue
                for k, c in enumerate(self.brackets[i][j]):
                    if c:
                        out[k] += xi * yj * c
        return tuple(out)

    def apply_alpha(self, x: Coords, times: int = 1) -> Coords:
        for _ in range(times):
            out = [0] * self.dim
            for i, xi in enumerate(x):
                if xi:
                    for k, c in enumerate(self.alpha[i]):
                        if c:
                            out[k] += xi * c
            x = tuple(out)
        return tuple(x)


def make_algebra(name: str, basis: Sequence[str], brackets_upper: dict, alpha_rows: Sequence[Sequence]) -> HomLieAlgebra:
    """Build an algebra from i<j structure constants and the α matrix.

    brackets_upper maps (i, j) with i < j to the coordinate list of
    [e_i, e_j].  Diagonal or duplicate (including transposed) entries
    are rejected.
    """
    names = tuple(basis)
    dim = len(names)
    if len(set(names)) != dim or dim == 0:
        raise ValueError("basis symbols must be distinct and non-empty")
    table = [[(0,) * dim for _ in range(dim)] for _ in range(dim)]
    seen = set()
    for (i, j), coords in brackets_upper.items():
        if not (0 <= i < dim and 0 <= j < dim):
            raise ValueError("bracket indices (%d,%d) out of range" % (i, j))
        if i == j:
            raise ValueError("diagonal bracket [e_%d, e_%d] must not be specified (it is zero)" % (i, j))
        if i > j:
            raise ValueError("bracket key (%d,%d) must have i < j; skew part is synthesized" % (i, j))
        if (i, j) in seen:
            raise ValueError("duplicate bracket entry (%d,%d)" % (i, j))
        seen.add((i, j))
        vec = tuple(frac(c) for c in coords)
        if len(vec) != dim:
            raise ValueError("bracket value for (%d,%d) has %d coordinates, expected %d" % (i, j, len(vec), dim))
        table[i][j] = vec
        table[j][i] = tuple(-c for c in vec)
    rows = tuple(tuple(frac(c) for c in row) for row in alpha_rows)
    if len(rows) != dim or any(len(r) != dim for r in rows):
        raise ValueError("alpha must be a %dx%d matrix" % (dim, dim))
    return HomLieAlgebra(name, names, tuple(tuple(r) for r in table), rows)


class Validation(NamedTuple):
    ok: bool
    law: Optional[str] = None
    witness: Optional[tuple] = None
    residual: Optional[tuple] = None

    def __bool__(self):
        return self.ok


def validate(g: HomLieAlgebra) -> Validation:
    """Check skew-symmetry, Hom-Jacobi, and multiplicativity exhaustively."""
    dim = g.dim
    for i in range(dim):
        if any(g.brackets[i][i]):
            return Validation(False, "skew-symmetry", (i, i), g.brackets[i][i])
        for j in range(dim):
            anti = tuple(a + b for a, b in zip(g.brackets[i][j], g.brackets[j][i]))
            if any(anti):
                return Validation(False, "skew-symmetry", (i, j), anti)
    basis = [g.basis_vector(i) for i in range(dim)]
    for i in range(dim):
        for j in range(i + 1, dim):
            lhs = g.apply_alpha(g.brackets[i][j])
            rhs = g.bracket(g.apply_alpha(basis[i]), g.apply_alpha(basis[j]))
            diff = tuple(a - b for a, b in zip(lhs, rhs))
            if any(diff):
                return Validation(False, "multiplicativity", (i, j), diff)
    for i in range(dim):
        for j in range(dim):
            for k in range(dim):
                x, y, z = basis[i], basis[j], basis[k]
                total = [0] * dim
                for a, b, c in ((x, y, z), (y, z, x), (z, x, y)):
                    term = g.bracket(g.apply_alpha(a), g.bracket(b, c))
                    total = [t + s for t, s in zip(total, term)]
                if any(total):
                    return Validation(False, "hom-jacobi", (i, j, k), tuple(total))
    return Validation(True)


def twist(g: HomLieAlgebra, alpha_rows: Sequence[Sequence], name: Optional[str] = None) -> HomLieAlgebra:
    """Compose the bracket with α: the twisted algebra (𝔤, α∘[,], α).

    α must be an endomorphism of the *input* bracket; when the input is
    a Lie algebra this produces a multiplicative Hom-Lie algebra.
    """
    rows = tuple(tuple(frac(c) for c in row) for row in alpha_rows)
    candidate = HomLieAlgebra(name or (g.name + "-twist"), g.basis, g.brackets, rows)
    for i in range(g.dim):
        for j in range(i + 1, g.dim):
            lhs = candidate.apply_alpha(g.brackets[i][j])
            rhs = g.bracket(candidate.apply_alpha(g.basis_vector(i)), candidate.apply_alpha(g.basis_vector(j)))
            if lhs != rhs:
                raise NotEndomorphism((g.basis[i], g.basis[j]))
    dim = g.dim
    table = tuple(
        tuple(candidate.apply_alpha(g.brackets[i][j]) for j in range(dim))
        for i in range(dim)
    )
    return HomLieAlgebra(candidate.name, g.basis, table, rows)


class HomLieMorphism(NamedTuple):
    source: HomLieAlgebra
    target: HomLieAlgebra
    matrix: tuple  # matrix[i] = coords of ψ(e_i) in the target basis

    def apply(self, x: Coords) -> Coords:
        out = [0] * self.target.dim
        for i, xi in enumerate(x):
            if xi:
                for k, c in enumerate(self.matrix[i]):
                    if c:
                        out[k] += xi * c
        return tuple(out)


def validate_morphism(m: HomLieMorphism) -> Validation:
    """ψ[x,y] = [ψx,ψy] and ψ∘α = α'∘ψ, checked on all basis pairs."""
    g, h = m.source, m.target
    for i in range(g.dim):
        for j in range(i + 1, g.dim):
            lhs = m.apply(g.brackets[i][j])
            rhs = h.bracket(m.matrix[i], m.matrix[j])
            diff = tuple(a - b for a, b in zip(lhs, rhs))
            if any(diff):
                return Validation(False, "bracket-compatibility", (i, j), diff)
    for i in range(g.dim):
        lhs = m.apply(g.apply_alpha(g.basis_vector(i)))
        rhs = h.apply_alpha(m.matrix[i])
        diff = tuple(a - b for a, b in zip(lhs, rhs))
        if any(diff):
            return Validation(False, "alpha-compatibility", (i,), diff)
    return Validation(True)


def nilpotent_kernel(g: HomLieAlgebra):
    """The ideal 𝔨 of eventually-α-killed elements, with quotient and projection.

    𝔨 = ker(α^dim): kernels of powers stabilize within dim steps.  The
    quotient keeps the basis coordinates that are independent modulo 𝔨
    and carries the induced bracket and an invertible induced α.
    Returns (kernel basis vectors, quotient algebra, projection).
    """
    dim = g.dim
    # rows of the equation system: coordinates of alpha^dim applied to e_i
    power = [g.apply_alpha(g.basis_vector(i), dim) for i in range(dim)]
    system = RowSpace(
        (LinComb({i: power[i][j] for i in range(dim)}) for j in range(dim)),
        track=False,
    )
    pivots = set(system.pivots())
    free = [i for i in range(dim) if i not in pivots]
    kernel = []
    reduced = {min(row.support()): row for row in system.rows()}
    for f in free:
        vec = [0] * dim
        vec[f] = 1
        for p, row in reduced.items():
            vec[p] = -row.coeff(f)
        kernel.append(tuple(vec))

    # quotient coordinates: reduce x against the kernel span, keep coords
    # outside the kernel pivots
    kspace = RowSpace((LinComb({i: v for i, v in enumerate(vec) if v}) for vec in kernel), track=False)
    kpivots = kspace.pivots()
    survivors = [i for i in range(dim) if i not in set(kpivots)]

    def project(x: Coords) -> Coords:
        lc = kspace.reduce(LinComb({i: c for i, c in enumerate(x) if c}))
        return tuple(lc.coeff(i) for i in survivors)

    qdim = len(survivors)
    qbasis = tuple(g.basis[i] for i in survivors)
    qbrackets = tuple(
        tuple(project(g.bracket(g.basis_vector(survivors[a]), g.basis_vector(survivors[b]))) for b in range(qdim))
        for a in range(qdim)
    )
    qalpha = tuple(project(g.apply_alpha(g.basis_vector(survivors[a]))) for a in range(qdim))
    quotient = HomLieAlgebra(g.name + "/ker", qbasis, qbrackets, qalpha)
    projection = HomLieMorphism(g, quotient, tuple(project(g.basis_vector(i)) for i in range(dim)))
    return kernel, quotient, projection


# --------------------------------------------------------------------------
# parsing


def read_symbol(g: HomLieAlgebra, r: Reader) -> int:
    """The basis index of the name at the cursor; KeyError (cursor on the name) if unknown."""
    start = r.pos
    name = r.name()
    if not name:
        r.error("expected a basis symbol")
    if name not in g.basis:
        r.pos = start
    return g.index_of(name)


def read_element(g: HomLieAlgebra, r: Reader) -> Coords:
    """A ±-sum of `[coef*] symbol` terms, up to the end of the text or a ')'."""
    out = [0] * g.dim
    for coeff, i in r.sum(lambda r, sign: (sign * r.coefficient(), read_symbol(g, r))):
        out[i] += coeff
    return tuple(out)


def parse_element(g: HomLieAlgebra, text: str) -> Coords:
    """Read a rational combination of basis symbols: "E + 2*H - 1/2*F".

    Malformed text raises ParseError; an unknown symbol raises KeyError.
    """
    r = Reader(text)
    out = read_element(g, r)
    r.end()
    return out


def load_algebra(source: Union[str, dict]) -> HomLieAlgebra:
    """Load from JSON: {"name","basis","bracket":{"i,j":{"k":"p/q"}},"alpha":[[...]]}.

    The name is an optional string.  Bracket keys may use 0-based indices
    or basis names on both levels; rationals are strings (or JSON
    integers).  Row i of alpha gives the coordinates of α(e_i).  A file of
    any other form raises ValueError.
    """
    if isinstance(source, str):
        with open(source, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    else:
        data = source
    if not isinstance(data, dict) or not {"basis", "alpha"} <= data.keys():
        raise ValueError("an algebra needs a 'basis' and an 'alpha'")
    name, basis, bracket, alpha = (data.get("name", "algebra"), data["basis"], data.get("bracket", {}),
                                   data["alpha"])
    if not isinstance(name, str):
        raise ValueError("'name' must be a string")
    if not isinstance(basis, list) or not all(isinstance(b, str) and b and Reader(b).name() == b
                                              for b in basis):
        raise ValueError("'basis' must be a list of basis names")
    if not isinstance(bracket, dict) or not all(isinstance(value, dict) for value in bracket.values()):
        raise ValueError("'bracket' must be an object of objects")
    if not isinstance(alpha, list) or not all(isinstance(row, list) for row in alpha):
        raise ValueError("'alpha' must be a list of lists")
    dim = len(basis)

    # JSON true and false load as bool, an int subclass; neither is a number here
    def coefficient(c) -> int | Fraction:
        if not isinstance(c, (int, str)) or isinstance(c, bool):
            raise ValueError("a coefficient must be a rational string or an integer, got %s" % json.dumps(c))
        return frac(c)

    def coord_index(token) -> int:
        token = token.strip() if isinstance(token, str) else token
        if (isinstance(token, int) and not isinstance(token, bool)
                or isinstance(token, str) and token.lstrip("-").isdigit()):
            idx = int(token)
            if not 0 <= idx < dim:
                raise ValueError("basis index %d out of range" % idx)
            return idx
        if token in basis:
            return basis.index(token)
        raise ValueError("unknown basis reference %r" % token)

    upper = {}
    for key, value in bracket.items():
        parts = key.split(",")
        if len(parts) != 2:
            raise ValueError("bracket key %r is not of the form 'i,j'" % key)
        i, j = coord_index(parts[0]), coord_index(parts[1])
        coords = [0] * dim
        for k, c in value.items():
            coords[coord_index(k)] = coefficient(c)
        upper[(i, j)] = coords
    rows = [[coefficient(c) for c in row] for row in alpha]
    return make_algebra(name, basis, upper, rows)
