"""Universal enveloping algebra of a Hom-Lie algebra.

Trees now carry decorations: each leaf names a basis element of a fixed
Hom-Lie algebra.  Weights never survive construction; a leaf of weight
w decorated by x is absorbed into weight 0 decorated by α^w(x),
expanded multilinearly over the algebra basis, so every stored key is a
zero-weight decorated tree (or the unit).  That absorption
(AlphaTable.settle) is what UEAmbient's α and Δ hooks end in; UEAmbient
carries the Hom-Hopf structure of ambient.Ambient over U𝔤, and its ∨
and S are Ambient's, on stored keys.  parse_u_poly reads U𝔤
expressions over trees.Reader: the polynomial grammar of freehom with
leaves WEIGHT:NAME or WEIGHT:(element), the element read by homlie at
the same cursor.

The enveloping quotient divides by two row families:

  R1 (Hom-associativity): for a basis tree t and an internal node whose
     left child is internal, carrying (A∨B)∨C, the row is
     t[v → (A∨B)∨C^α] − t[v → A^α∨(B∨C)], where X^α pushes every
     decoration of X through the α matrix.
  R2 (bracket): for a node with two leaf children decorated x and y,
     the row is t − t[v → leaves swapped] − t[v → leaf([x,y])], the
     bracket expanded in the basis.  These rows mix leaf counts.

Because R2 lowers leaf counts there is no finite grading, so equality
is a level-bounded semi-decision: membership of a difference in the row
span over all basis trees with at most N leaves.  A positive answer is
a proof (the certificate recombines the difference from relation rows);
a negative answer only says "not provable at level N".  The level
policy is fixed: start at the largest leaf count + 1 (DEFAULT_SLACK),
escalate to escalation_cap, and build no level of more than 8000 basis
trees (DEFAULT_BASIS_CAP; ResourceLimit beyond it).

A level's span W keeps no history, since verdicts, residuals and normal
forms need none.  When α is diagonal with every entry λᵢ nonzero it is
held by WordSpace: R1 is then plain associativity twisted by α, and its
quotient is spanned by leaf words in closed form, so no R1 row is made.
For any other α, one RowSpace eliminates all of the level's rows.

  1. The R1 quotient.  Let φ(t) be the product over t's leaves of
     λ_dec^depth.  An R1 row at (A∨B)∨C is c_C·k₁ − c_A·k₂, c_S the
     product of λ over the leaves of S, and φ(k₁)/φ(k₂) = c_A/c_C, so in
     the coordinates u_t = t/φ(t) the row is a multiple of u_{k₁} − u_{k₂}.
     Rotations join all bracketings of one leaf word (the Tamari lattice
     is connected), so the R1 span B identifies u_t over each word w and
     nothing more: dim B is the number of basis trees minus the number of
     words.  The projection onto V/B is π(t) = (φ(t)/φ(rc w))·rc(w), rc(w)
     the right comb over t's word, which is the largest text of its class
     since "(" < "0".  𝟙 and keys with more leaves than the level stay.
  2. The R2 rows.  In word coordinates the R2 row at siblings x < y at
     leaf positions i, i+1, their parent at depth p, is
     u_w − u_w′ − Σ_k c_k·λ_k^p/(λ_x·λ_y)^(p+1)·u_{w_k}, w′ the word with x
     and y swapped and w_k the word with e_k in their place.  It depends
     only on (w, i, p), so a level makes one row per word, position and
     parent depth that some shape has (a non-multiplicative α gives
     different rows at different p), and eliminates them by one RowSpace
     keyed by rc texts.  reduce(v) maps v to word coordinates, reduces
     it, and divides the coefficient at each rc(w) by φ(rc w).

Why WordSpace's residuals are RowSpace's over all the rows.  Elimination
with smallest-key pivots gives the reduced residual of v: the unique
vector of v + W supported on the keys that are not pivots of W (a key p
is a pivot when some vector of W has p as its smallest key).  π(v) − v
and π(W) both lie in W, since t − π(t) ∈ B ⊆ W, so reduce(v) lies in
v + W.  Every key of the level that is not a right comb is a pivot of W,
because t − π(t) ∈ W and t < rc(w).  Every pivot of the second step is a
right comb and a pivot of W, because π(W) ⊆ W and rescaling each key by
φ moves no pivot.  These pivots are distinct, and their number is
dim B + dim π(W) = dim W, so they are all the pivots of W: reduce(v) is
supported off them, and it is the reduced residual.  For the same reason
rank is dim B plus the rank of the second step.

A level's basis and row_sources, and the certificate of any of its
Equal verdicts, are worked out when first read: the context then
regenerates its rows in build order, and a certificate keeps one
tracked RowSpace over them, the one a tracked build would have given.

Every settled term and every relation row goes through one AlphaTable
per algebra: the supports of α^w(e_i), and shape templates that render
a decorated tree by filling in leaf texts.  A level walk makes the row
pattern of each shape once (_ShapeRows) and fills it in for every
decoration of that shape, every row a LinComb: an R1 row of a diagonal
α is the product of the kept leaves' coefficients times k₁, minus the
product of the moved leaves' coefficients times k₂, in that key order.
"""

from __future__ import annotations

from collections import OrderedDict
from functools import lru_cache
from itertools import product
from math import comb
from typing import Callable, Optional

from .ambient import Ambient, OracleInconclusive, ResourceLimit
from .homlie import HomLieAlgebra, HomLieMorphism, read_element, read_symbol, validate_morphism
from .linalg import LinComb, Membership, RowSpace, divide, frac
from .trees import (
    Leaf,
    Node,
    ParseError,
    Reader,
    alpha_shift,
    decorations_of,
    enumerate_shapes,
    is_unit,
    leaf_count,
    parse,
    splits,
    with_weights,
)

UPoly = LinComb

DEFAULT_BASIS_CAP = 8000
DEFAULT_SLACK = 1
DEFAULT_ESCALATION_CAP = 6
LEVEL_CACHE_SIZE = 128  # level contexts kept; the least recently used goes first

class MorphismInvalid(ValueError):
    """ue_map requires a valid Hom-Lie morphism."""


def unit_upoly() -> UPoly:
    return LinComb.single("1")


def _template(t, leaves: list) -> str:
    """The codec text of t's shape with one %s per leaf; its leaves go to `leaves`."""
    if isinstance(t, Leaf):
        leaves.append(t)
        return "%s"
    return "(%s %s)" % (_template(t.left, leaves), _template(t.right, leaves))


class AlphaTable:
    """The α powers of one algebra's basis, for settling trees into keys.

    power(w)[i] holds the nonzero coordinates of α^w(e_i) as (leaf text,
    coefficient) pairs, the coefficient None where it is 1, so that a
    product of coordinates skips it.  A zero-weight decorated tree is
    rendered by filling its shape template with the leaf texts "0:name".
    alpha_table keeps the tables of the 16 most recently used algebras.
    """

    def __init__(self, g: HomLieAlgebra):
        self.g = g
        self.index = {name: i for i, name in enumerate(g.basis)}
        self.leaf_texts = tuple("0:%s" % name for name in g.basis)
        self._powers: dict = {}
        # diagonal: every α^w(e_i) is a multiple of e_i, so an R1 row has at most two terms
        self.diagonal = all(not c for i, row in enumerate(g.alpha) for j, c in enumerate(row) if i != j)

    def power(self, w: int) -> tuple:
        hit = self._powers.get(w)
        if hit is None:
            g = self.g
            hit = self._powers[w] = tuple(self.support(g.apply_alpha(g.basis_vector(i), w))
                                          for i in range(g.dim))
        return hit

    def support(self, vector) -> tuple:
        texts = self.leaf_texts
        return tuple((texts[i], None if c == 1 else c) for i, c in enumerate(vector) if c)

    def leaf_index(self, name) -> int:
        i = self.index.get(name)
        if i is None:
            if name is None:
                raise ValueError("absorb_weights needs a decoration on every leaf")
            self.g.index_of(name)  # raises KeyError naming the symbol
        return i

    def expand(self, template: str, supports, coeff) -> list:
        """coeff·(template filled per leaf support), multilinearly, as (key, coeff) pairs."""
        out = []
        for combo in product(*supports):
            c = coeff
            for _, ci in combo:
                if ci is not None:
                    c = c * ci
            out.append((template % tuple(text for text, _ in combo), c))
        return out

    def settle(self, t, coeff) -> list:
        """coeff·t with its weights absorbed, as (key, coeff) pairs; 𝟙 stays 𝟙."""
        if is_unit(t):
            return [("1", coeff)]
        leaves: list = []
        template = _template(t, leaves)
        return self.expand(template, [self.power(lf.weight)[self.leaf_index(lf.name)] for lf in leaves],
                           coeff)


@lru_cache(maxsize=16)
def alpha_table(g: HomLieAlgebra) -> AlphaTable:
    return AlphaTable(g)


def _expand(g: HomLieAlgebra, t, vectors, coeff) -> list:
    """coeff·t with per-leaf coordinate vectors, as (key, coeff) pairs.

    Each leaf of weight w contributes α^w of its vector; the product
    runs over the nonzero coordinates only.
    """
    leaves: list = []
    template = _template(t, leaves)
    if len(vectors) != len(leaves):
        raise ValueError("expected %d leaf vectors, got %d" % (len(leaves), len(vectors)))
    table = alpha_table(g)
    supports = [table.support(g.apply_alpha(tuple(v), lf.weight)) for v, lf in zip(vectors, leaves)]
    return table.expand(template, supports, coeff)


def decorate_expand(g: HomLieAlgebra, t, vectors) -> UPoly:
    """Decorated tree from per-leaf coordinate vectors, weights absorbed.

    t is a tree whose shape is used; vectors is one coordinate tuple per
    leaf (left to right).  Each leaf of weight w contributes α^w of its
    vector, and the whole thing expands multilinearly into basis-named
    zero-weight trees.
    """
    if is_unit(t):
        return unit_upoly()
    return LinComb(_expand(g, t, vectors, 1))


def absorb_weights(g: HomLieAlgebra, t) -> UPoly:
    """Weighted decorated tree → UPoly with all weights pushed into α powers."""
    return LinComb(alpha_table(g).settle(t, 1))


def coproduct_U(g: HomLieAlgebra, p: UPoly) -> LinComb:
    return UEAmbient(g).coproduct(p)


# --------------------------------------------------------------------------
# level contexts


def _replace(t, path, replacement):
    if not path:
        return replacement
    if path[0] == 0:
        return Node(_replace(t.left, path[1:], replacement), t.right)
    return Node(t.left, _replace(t.right, path[1:], replacement))


class _ShapeRows:
    """The relation rows of one tree shape, shared by all its decorations.

    Entries follow the internal nodes in preorder.  R1 at a node carrying
    (A∨B)∨C keeps the shape with C's weights raised by one, against the
    rotation A∨(B∨C) with A's weights raised; leaf order is the same in
    both, so the row is two template expansions over leaf ranges.  R2 at
    a node over leaves i, i+1 swaps two leaf texts, or collapses the two
    leaves into one.
    """

    def __init__(self, shape):
        self.template = _template(shape, [])
        self.entries: list = []
        self._walk(shape, shape, (), 0)

    def _walk(self, shape, node, path, start):
        if isinstance(node, Leaf):
            return
        left, right = node.left, node.right
        if isinstance(left, Node):
            rotated = _template(_replace(shape, path, Node(left.left, Node(left.right, right))), [])
            c_start = start + leaf_count(left)
            self.entries.append(("R1", path, start, start + leaf_count(left.left),
                                 c_start, c_start + leaf_count(right), rotated))
        elif isinstance(right, Leaf):
            self.entries.append(("R2", path, start, _template(_replace(shape, path, Leaf(0)), [])))
        self._walk(shape, left, path + (0,), start)
        self._walk(shape, right, path + (1,), start + leaf_count(left))

    def rows(self, table: AlphaTable, text: str, texts: tuple, weights, indices) -> list:
        """(row, source) pairs of the decorated tree with these leaves.

        text is the tree's codec text, texts its leaf texts; weights and
        indices give each leaf's weight and basis index.
        """
        brackets = table.g.brackets
        base = raised = None
        out = []
        for entry in self.entries:
            if entry[0] == "R1":
                _, path, a_start, a_end, c_start, c_end, rotated = entry
                if base is None:
                    base = [table.power(w)[i] for w, i in zip(weights, indices)]
                    raised = [table.power(w + 1)[i] for w, i in zip(weights, indices)]
                kept = base[:c_start] + raised[c_start:c_end] + base[c_end:]
                moved = base[:a_start] + raised[a_start:a_end] + base[a_end:]
                row = LinComb(table.expand(self.template, kept, 1) + table.expand(rotated, moved, -1))
                if row:
                    out.append((row, ("R1", text, path)))
                continue
            _, path, i, collapsed = entry
            x, y = indices[i], indices[i + 1]
            if x >= y:
                continue  # the swapped tree contributes the same row
            pairs = [(text, 1), (self.template % (texts[:i] + (texts[i + 1], texts[i]) + texts[i + 2:]), -1)]
            for k, coeff in enumerate(brackets[x][y]):
                if coeff:
                    pairs.append((collapsed % (texts[:i] + (table.leaf_texts[k],) + texts[i + 2:]), -coeff))
            out.append((LinComb(pairs), ("R2", text, path)))
        return out


def relation_rows_for(g: HomLieAlgebra, t):
    """All (row, source) relation instances anchored at nodes of one tree.

    Sources are ("R1"|"R2", tree text, node path) triples; feeding the
    same tree back in regenerates identical rows, which is what lets a
    membership certificate be replayed against its level context.
    """
    if isinstance(t, Leaf):
        return []
    table = alpha_table(g)
    leaves: list = []
    template = _template(t, leaves)
    indices = [table.leaf_index(lf.name) for lf in leaves]
    texts = tuple("%d:%s" % (lf.weight, lf.name) for lf in leaves)
    return _ShapeRows(t).rows(table, template % texts, texts, [lf.weight for lf in leaves], indices)


def _level_trees(table: AlphaTable, level: int):
    """(text, relation rows) per basis tree with at most `level` leaves, in build order."""
    dim = table.g.dim
    for n in range(1, level + 1):
        weights = (0,) * n
        for shape in enumerate_shapes(n):
            plan = _ShapeRows(shape)
            for indices in product(range(dim), repeat=n):
                texts = tuple(table.leaf_texts[i] for i in indices)
                text = plan.template % texts
                yield text, plan.rows(table, text, texts, weights, indices)


def _cherry_depths(n: int, i: int) -> range:
    """The depths of a node over leaves i and i+1 in the shapes of n leaves.

    With that node as one leaf, an (n−1)-leaf tree has its leaf i at depth
    at most n − 2, and at least 2 when leaves lie on both sides of it.
    """
    if n == 2:
        return range(1)
    return range(1 if i == 0 or i == n - 2 else 2, n - 1)


class WordSpace:
    """The span of one level's relation rows for an invertible diagonal α (see the module docstring).

    A key of the level is held in word coordinates, keyed by the text of
    the right comb over its word; the R2 rows in those coordinates are
    eliminated by one RowSpace without history.  The interface is
    RowSpace's without certificates: rank, reduce and membership (verdict
    and residual).
    """

    def __init__(self, table: AlphaTable, level: int, size: int):
        g = table.g
        lam = [1 if c is None else frac(c) for ((_, c),) in table.power(1)]
        # powers[i][d] = λᵢ^d, the factor of φ for a leaf e_i at depth d
        self._powers = powers = [[c ** d for d in range(level + 1)] for c in lam]
        self._index = {text: i for i, text in enumerate(table.leaf_texts)}
        self._level = level
        self._texts = texts = {}  # word -> text of its right comb
        self._phi = phi = {}  # right comb text -> φ(right comb)
        for n in range(1, level + 1):
            template = "(%s " * (n - 1) + "%s" + ")" * (n - 1)
            depths = tuple(range(1, n)) + (n - 1,) if n > 1 else (0,)
            for word in product(range(g.dim), repeat=n):
                text = texts[word] = template % tuple(table.leaf_texts[i] for i in word)
                value = 1
                for i, d in zip(word, depths):
                    value = value * powers[i][d]
                phi[text] = value
        # (x, y, p) -> the (k, −c_k·λ_k^p/(λ_x·λ_y)^(p+1)) over the support of [e_x, e_y]
        scaled = {(x, y, p): tuple((k, -divide(c * powers[k][p], (lam[x] * lam[y]) ** (p + 1)))
                                   for k, c in enumerate(g.brackets[x][y]) if c)
                  for x in range(g.dim) for y in range(x + 1, g.dim) for p in range(level - 1)}
        rows = []
        for n in range(2, level + 1):
            for word in product(range(g.dim), repeat=n):
                for i in range(n - 1):
                    x, y = word[i], word[i + 1]
                    if x >= y:
                        continue  # the swapped word gives the same row, negated
                    head = ((texts[word], 1), (texts[word[:i] + (y, x) + word[i + 2:]], -1))
                    # a multiplicative α gives one row at every depth
                    for terms in dict.fromkeys(scaled[x, y, p] for p in _cherry_depths(n, i)):
                        rows.append(LinComb(head + tuple((texts[word[:i] + (k,) + word[i + 2:]], c)
                                                         for k, c in terms)))
        self._space = RowSpace(rows, track=False)
        self.rank = size - len(texts) + self._space.rank

    def _word_of(self, key: str):
        """(right comb text, φ(key)) for a key of the level; None for 𝟙 and longer keys."""
        pieces = key.split(" ")
        if len(pieces) > self._level:
            return None
        index, powers = self._index, self._powers
        depth = 0
        word = []
        factor = 1
        for piece in pieces:
            leaf = piece.lstrip("(")
            depth += len(piece) - len(leaf)
            closes = len(leaf)
            leaf = leaf.rstrip(")")
            i = index.get(leaf)
            if i is None:
                return None
            word.append(i)
            factor = factor * powers[i][depth]
            depth -= closes - len(leaf)
        return self._texts[tuple(word)], factor

    def reduce(self, v: LinComb) -> LinComb:
        words = []
        for key, coeff in v.terms.items():
            hit = self._word_of(key)
            words.append((key, coeff) if hit is None else (hit[0], coeff * hit[1]))
        residual = self._space.reduce(LinComb(words))
        phi = self._phi
        out = LinComb()
        out.terms = {key: divide(c, phi[key]) if key in phi else c for key, c in residual.terms.items()}
        return out

    def membership(self, v: LinComb) -> Membership:
        residual = self.reduce(v)
        if residual:
            return Membership(False, None, residual)
        return Membership(True, None, None)


class LevelContext:
    """Every relation row over basis trees with at most `level` leaves.

    space is the span without history, a WordSpace or a RowSpace with
    track=False, and reduce and membership verdicts come from it.  basis
    and row_sources (row i comes from row_sources[i]) are walked on first
    read.  certificate(p) recombines p from relation rows; its first call
    regenerates the rows from the basis in build order and keeps one
    tracked RowSpace over all of them, so each later call is a query.
    """

    __slots__ = ("g", "level", "space", "_layout", "_tracked")

    def __init__(self, g: HomLieAlgebra, level: int, space: WordSpace | RowSpace):
        self.g = g
        self.level = level
        self.space = space
        self._layout: Optional[tuple] = None  # (basis, row_sources)
        self._tracked: Optional[RowSpace] = None

    def _walk(self) -> tuple:
        if self._layout is None:
            basis, sources = [], []
            for text, rows in _level_trees(alpha_table(self.g), self.level):
                basis.append(text)
                sources.extend(source for _, source in rows)
            self._layout = tuple(basis), tuple(sources)
        return self._layout

    @property
    def basis(self) -> tuple:
        return self._walk()[0]

    @property
    def row_sources(self) -> tuple:
        """("R1"|"R2", base tree text, node path) per row."""
        return self._walk()[1]

    def certificate(self, p: UPoly) -> Optional[LinComb]:
        """p as a combination of relation rows (row_sources indices), None outside the span."""
        if self._tracked is None:
            self._tracked = RowSpace(row for _, rows in _level_trees(alpha_table(self.g), self.level)
                                     for row, _ in rows)
        return self._tracked.membership(p).certificate


_level_cache: OrderedDict = OrderedDict()  # (g, level) -> LevelContext, oldest use first


def build_level(g: HomLieAlgebra, level: int) -> LevelContext:
    """All relation rows over decorated trees with at most `level` leaves."""
    if level < 1:
        raise ValueError("level must be at least 1")
    cached = _level_cache.get((g, level))
    if cached is not None:
        _level_cache.move_to_end((g, level))
        return cached
    # a tree of n leaves has Catalan(n − 1) shapes, counted without building them
    size = sum(comb(2 * n - 2, n - 1) // n * g.dim ** n for n in range(1, level + 1))
    if size > DEFAULT_BASIS_CAP:
        raise ResourceLimit(
            "level %d over a %d-dimensional algebra needs %d basis trees (cap %d)"
            % (level, g.dim, size, DEFAULT_BASIS_CAP)
        )
    table = alpha_table(g)
    if table.diagonal and all(table.power(1)):
        space = WordSpace(table, level, size)
    else:
        space = RowSpace((row for _, rows in _level_trees(table, level) for row, _ in rows), track=False)
    ctx = _level_cache[(g, level)] = LevelContext(g, level, space)
    if len(_level_cache) > LEVEL_CACHE_SIZE:
        _level_cache.popitem(last=False)
    return ctx


class UEquality:
    """Level-stamped verdict: Equal is a proof, the negative is bounded.

    An Equal verdict's certificate, the difference as a LinComb over the
    level context's row_sources indices, is worked out on first read and
    kept; a NotProvable verdict has none and keeps its residual.
    """

    __slots__ = ("equal", "level", "residual", "context", "difference", "_certificate")

    def __init__(self, equal: bool, level: int, residual: Optional[LinComb] = None,
                 context: Optional[LevelContext] = None, difference: Optional[UPoly] = None):
        self.equal = equal
        self.level = level
        self.residual = residual
        self.context = context
        self.difference = difference
        self._certificate: Optional[LinComb] = None

    @property
    def certificate(self) -> Optional[LinComb]:
        if self._certificate is None and self.equal:
            self._certificate = self.context.certificate(self.difference)
        return self._certificate


def max_leaves(p: UPoly) -> int:
    worst = 0
    for key in p.terms:
        t = parse(key)
        if not is_unit(t):
            worst = max(worst, leaf_count(t))
    return worst


def equal_mod_U(g: HomLieAlgebra, a: UPoly, b: UPoly, level: int) -> UEquality:
    if level < 1:
        raise ValueError("level must be at least 1")
    diff = a - b
    need = max_leaves(diff)
    if need > level:
        raise ValueError("operands have %d-leaf terms, above level %d" % (need, level))
    ctx = build_level(g, level)
    answer = ctx.space.membership(diff)
    if answer.inside:
        return UEquality(True, level, context=ctx, difference=diff)
    return UEquality(False, level, residual=answer.residual)


def equal_mod_U_auto(g: HomLieAlgebra, a: UPoly, b: UPoly,
                     escalation_cap: int = DEFAULT_ESCALATION_CAP) -> UEquality:
    """Start at (max leaf count + DEFAULT_SLACK) and escalate on negative verdicts."""
    level = max(1, max_leaves(a - b)) + DEFAULT_SLACK
    verdict = equal_mod_U(g, a, b, level)
    while not verdict.equal and level < escalation_cap:
        level += 1
        verdict = equal_mod_U(g, a, b, level)
    return verdict


def is_zero_mod_U(g: HomLieAlgebra, p: UPoly, level: int) -> bool:
    if not p:
        return True
    return equal_mod_U(g, p, LinComb.zero(), level).equal


# --------------------------------------------------------------------------
# the ambient


class UEAmbient(Ambient):
    """U𝔤 of a fixed Hom-Lie algebra: equality is a level-bounded semi-decision.

    An element is decided at its largest leaf count (at least 1) + 1;
    equal() escalates up to escalation_cap, and no level context holds
    more than 8000 basis trees (DEFAULT_BASIS_CAP).  Its two hooks work
    on trees: α^k shifts the parsed key, Δ takes trees.splits of it, and
    AlphaTable.settle absorbs the weights that either one moves.
    """

    exact = False

    def __init__(self, g: HomLieAlgebra, x=None, escalation_cap: int = DEFAULT_ESCALATION_CAP):
        self.g = g
        self.x = tuple(x) if x is not None else None  # default exp direction
        self.escalation_cap = escalation_cap
        self._table = alpha_table(g)

    def _shift_key(self, key: str, k: int, coeff) -> list:
        return self._table.settle(alpha_shift(parse(key), k), coeff)

    def _split_tree(self, t, coeff, memo: dict) -> list:
        settle = self._table.settle
        out = []
        for left, right in splits(t):
            settled = settle(right, 1)
            for lk, lc in settle(left, coeff):
                for rk, rc in settled:
                    out.append(((lk, rk), lc * rc))
        return out

    def _level_of(self, keys) -> int:
        trees = [parse(key) for key in keys]
        return max([1] + [leaf_count(t) for t in trees if not is_unit(t)]) + DEFAULT_SLACK

    def _key_reducer(self, level: int) -> Callable:
        ctx = build_level(self.g, level)
        reduced: dict = {}

        def nf(key: str) -> UPoly:
            hit = reduced.get(key)
            if hit is None:
                hit = reduced[key] = ctx.space.reduce(LinComb.single(key))
            return hit

        return nf

    def is_zero(self, p: UPoly, level: Optional[int] = None) -> bool:
        if level is None:
            level = self._level_of(p.terms)
        return is_zero_mod_U(self.g, p, level)

    def equal(self, a: UPoly, b: UPoly) -> bool:
        if a == b:
            return True
        verdict = equal_mod_U_auto(self.g, a, b, escalation_cap=self.escalation_cap)
        if verdict.equal:
            return True
        raise OracleInconclusive(
            "not provably equal at level %d" % verdict.level, verdict)

    def power_product(self, i: int, p: int) -> UPoly:
        if self.x is None:
            raise ValueError("this ambient has no exponential direction; pass x")
        return u_power_product(self.g, self.x, i, p)

    def parse(self, text: str) -> UPoly:
        return parse_u_poly(self.g, text)

    # one U𝔤 whatever its exp direction or escalation cap: the Hom-group
    # multiplies sequences of different directions
    def __eq__(self, other):
        return isinstance(other, UEAmbient) and other.g == self.g

    def __hash__(self):
        return hash(self.g)


def reduce_tensor_U(g: HomLieAlgebra, t: LinComb, level: int) -> LinComb:
    return UEAmbient(g).reduce_tensor(t, level)


def is_primitive_U(g: HomLieAlgebra, p: UPoly) -> bool:
    return UEAmbient(g).is_primitive(p)


# --------------------------------------------------------------------------
# functoriality and exponentials


def ue_map(m: HomLieMorphism) -> Callable:
    """Lift a Hom-Lie morphism to decorated trees: apply it to every leaf."""
    check = validate_morphism(m)
    if not check.ok:
        raise MorphismInvalid("not a Hom-Lie morphism: %s at %r" % (check.law, check.witness))
    target = m.target

    def mapped(p: UPoly) -> UPoly:
        out = []
        for key, coeff in p.items():
            t = parse(key)
            if is_unit(t):
                out.append(("1", coeff))
            else:
                vectors = [m.matrix[m.source.index_of(n)] for n in decorations_of(t)]
                out.extend(_expand(target, t, vectors, coeff))
        return LinComb(out)

    return mapped



def parse_u_poly(g: HomLieAlgebra, text: str) -> UPoly:
    """A ±-sum of `[coef*] ('1' | tree)` terms whose leaves are `WEIGHT ':' decoration`.

    A decoration is a basis name or a parenthesised element of 𝔤
    (`0:(E + 2*H)`); it is expanded multilinearly and the leaf weight is
    absorbed through α, so the result is a plain UPoly.  Malformed text
    and unknown symbols raise ParseError.
    """

    def term(r: Reader, sign: int) -> list:
        coeff = sign * r.coefficient()
        if r.at_unit():
            r.pos += 1
            return [("1", coeff)]
        vectors: list = []

        def leaf(r: Reader) -> Leaf:
            weight = r.number()
            if weight is None or r.peek() != ":":
                r.error("expected a leaf WEIGHT:decoration (the unit 1 is a term of its own)")
            r.pos += 1
            if r.peek() == "(":
                r.pos += 1
                vectors.append(read_element(g, r))
                if r.peek() != ")":
                    r.error("expected ')'")
                r.pos += 1
            else:
                vectors.append(g.basis_vector(read_symbol(g, r)))
            return Leaf(weight)

        return _expand(g, r.tree(leaf), vectors, coeff)

    r = Reader(text)
    try:
        terms = r.sum(term)
    except KeyError as exc:
        raise ParseError(exc.args[0], r.pos) from None
    r.end()
    return LinComb(pair for pairs in terms for pair in pairs)


def u_power_product(g: HomLieAlgebra, x, i: int, p: int) -> UPoly:
    """⌊x^i⌋_p: the right fern with p-calibrated weights, every leaf x."""
    from .freehom import DomainError, right_fern
    from .trees import depths

    if i < 0:
        raise DomainError("power must be non-negative")
    if i > p:
        raise DomainError("the p-weighted power needs i <= p, got i=%d > p=%d" % (i, p))
    if i == 0:
        return unit_upoly()
    if i == 1:
        shape = Leaf(0)
    else:
        shape = right_fern(i)
    d = depths(shape)
    weighted = with_weights(shape, [p - 1 - di for di in d])
    return decorate_expand(g, weighted, [tuple(x)] * i)
