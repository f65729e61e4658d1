"""The free Hom-associative algebra on one generator.

The ambient space 𝕋 is spanned by the unit 𝟙 and all leaf-weighted
trees; grafting is the product and adding one to every weight is the
structure map α.  Dividing by the two-sided ideal I generated by

    (φ∨ψ)∨α(χ) − α(φ)∨(ψ∨χ)

yields the free Hom-associative algebra with one generator.  This
module holds a complete equality oracle for the quotient and
FreeAmbient, which carries the Hom-Hopf structure of ambient.Ambient
(coproduct by splitting the leaf set, counit, antipode by signed
mirror) over it; the module-level maps delegate to that ambient.  parse_poly and
format_poly read and write elements of 𝕋 as ±-sums of `[coef*] tree`
terms over the codec's trees.Reader.

A stored key of 𝕋 is its canonical codec text, so class_of reads a
key's graded class off its text, and FreeAmbient answers Ambient's two
per-quotient hooks, α and Δ, on texts and builds no tree per term.  α^k
adds k to every weight in the text.  Δ walks the key's parsed tree once
and builds each subtree's splits as pairs of texts by
Δ(a∨b) = Δa ∨ Δb, in trees.splits order; the α shifts it repeats are
memoised for one coproduct call only.  ∨ and S are Ambient's, as for
both quotients: ∨ of two texts is "(a b)" and with 𝟙 the α shift of the
other text, and S mirrors each key's tree once.  Inside a text the
weight-1 leaf is "1", as a key it is "01" (trees.KEY_OF_INNER); the key
"1" is 𝟙.

The oracle rests on a grading.  Assign each leaf the value s_i =
weight_i + depth_i.  Both sides of the ideal generator have the same
per-leaf s-values, and every grafting context and every application of
α preserves that homogeneity, so I splits as a direct sum over the
classes (leaf count, s-signature).  Each class is finite dimensional:
its basis trees are the shapes whose depths fit under the signature,
with the weights then forced.  Membership of a class component in the
span of the in-class relation rows is therefore a complete decision
procedure, no escalation involved.

The relation rows themselves are the single-node rewrites: for a basis
tree t and an internal node carrying (A∨B)∨C with every weight of C at
least 1, the row is t minus the tree where that subtree is replaced by
α(A)∨(B∨C↓), C↓ lowering each weight by one.  Spanning the whole ideal
with these rows is exactly the statement that contexts map generator
instances to such pairs and that α maps generator instances to
generator instances.

A class is built from its signature alone.  A root split at k hands
s[:k] − 1 and s[k:] − 1 to the two subtrees, so every weight is forced,
and only splits whose halves both fit are followed (trees.build_class).
Each row is a rotation that stays inside the class: α(A)∨(B∨C↓) keeps
every leaf's s-value of (A∨B)∨C.  A subtree over a sub-signature, a
piece, is made once and shared by all the trees of the class that hold
it, together with its text, the texts of its shifts α(A) and C↓ and its
rewrite texts, so a class is built as texts without a tree value.

Every row is a ±1 binomial t − t′, so no elimination is needed: read
the rows as the edges of a graph on the class's basis trees, and the
span of the rows is exactly the set of vectors whose coefficients sum
to zero on every connected component (a path t₀ … t_m gives t₀ − t_m
as a signed sum of rows; conversely every row sums to zero on the one
component it touches).  The quotient of a class is thus the free space
on its components.  ClassComponents finds them by union-find, each row
an edge between two keys, and takes each component's largest key in
string order as its representative (the normal form of every key in
it); it adds a breadth-first spanning forest rooted at the
representatives, built by the first membership that comes back
inside.  An Equal certificate is
Σ c_k·(forest path from k to its representative), a signed combination
of relation-row indices that replays against row_sources; a NotEqual
residual is the vector with every key replaced by its representative.
"""

from __future__ import annotations

import re
from functools import lru_cache
from typing import Callable, NamedTuple, Optional

from .ambient import Ambient, IndexSearch, identity_op  # noqa: F401 (re-exported for convolve)
from .linalg import LinComb, Membership
from .trees import (
    INNER_OF_KEY,
    KEY_OF_INNER,
    Leaf,
    Node,
    Reader,
    build_class,
    codec_leaf,
    is_unit,
    parse,
    to_text,
)

# A TreePoly is a LinComb whose keys are canonical codec strings.
TreePoly = LinComb

# entries kept in the class and normal-form caches, the least recently used
# going first: over 4× the 1,340 classes and 3,087 normal forms that a whole
# `verify --suite all` run keeps
CLASS_CACHE_SIZE = 8192
NF_CACHE_SIZE = 16384


class DomainError(ValueError):
    """An argument outside the defined domain of an algebraic operation."""


def unit_poly() -> TreePoly:
    return LinComb.single("1")


def tree_poly(element) -> TreePoly:
    """Wrap a single tree (or the unit, or a codec string) as a TreePoly."""
    if isinstance(element, str):
        return LinComb.single(to_text(parse(element)))
    return LinComb.single(to_text(element))


def class_of(key: str) -> tuple:
    """Grading key of a stored key: (leaf count, s-signature); 𝟙 ↦ (0, ()).

    One scan of the text, no tree: a leaf is a space-separated piece
    without its parentheses, and its depth is the number of parentheses
    open before it, so sᵢ = weightᵢ + depthᵢ.
    """
    if key == "1":
        return (0, ())
    depth = 0
    signature = []
    for piece in key.split(" "):
        leaf = piece.lstrip("(")
        depth += len(piece) - len(leaf)
        weight = leaf.rstrip(")")
        signature.append(int(weight) + depth)
        depth -= len(leaf) - len(weight)
    return (len(signature), tuple(signature))


def graded_decompose(p: TreePoly) -> dict:
    """Partition the terms of p by (leaf count, s-signature)."""
    buckets: dict = {}
    for key, coeff in p.items():
        cls = class_of(key)
        bucket = buckets.setdefault(cls, [])
        bucket.append((key, coeff))
    return {cls: LinComb(pairs) for cls, pairs in buckets.items()}


class ClassComponents:
    """The span of one graded class's relation rows, as components of
    its rewrite graph (see the module docstring).

    A union-find joins the basis keys, each row t − t′ an edge, and makes
    each component's largest key its root, the representative that
    reduce puts in place of every key of it.  The breadth-first spanning
    forest that membership certificates walk is read only by a
    membership that comes back inside, so it is built then, the first
    time, and kept.  The interface is RowSpace's: rank, reduce and
    membership.
    """

    def __init__(self, basis: tuple, row_sources: tuple):
        self._basis = basis
        self._row_sources = row_sources
        link: dict = {}  # key -> a key nearer its root; roots are absent

        def find(key):
            """key's root; path halving relinks every other key on the way to its grandparent."""
            up = link.get(key)
            while up is not None:
                above = link.get(up)
                if above is None:
                    return up
                link[key] = key = above
                up = link.get(key)
            return key

        for source, target in row_sources:
            root1, root2 = find(source), find(target)
            if root1 != root2:
                if root1 > root2:
                    root1, root2 = root2, root1
                link[root1] = root2
        # every key that is not a representative -> its representative
        self._rep = {key: find(key) for key in link}
        self.rank = len(self._rep)
        self._forest: Optional[dict] = None

    def _spanning_forest(self) -> dict:
        """key -> (parent key, row index, sign) with key − parent = sign·row."""
        adjacent = {key: [] for key in self._basis}
        for index, (source, target) in enumerate(self._row_sources):
            adjacent[source].append((target, index, 1))
            adjacent[target].append((source, index, -1))
        forest: dict = {}
        for root in (key for key in self._basis if key not in self._rep):
            frontier = [root]
            for key in frontier:
                for other, index, sign in adjacent[key]:
                    if other != root and other not in forest:
                        forest[other] = (key, index, -sign)
                        frontier.append(other)
        return forest

    def reduce(self, v: LinComb) -> LinComb:
        """Replace every key by its representative; keys outside the class stay."""
        rep = self._rep
        return v.map_keys(lambda key: rep.get(key, key))

    def membership(self, v: LinComb) -> Membership:
        residual = self.reduce(v)
        if residual:
            return Membership(False, None, residual)
        if self._forest is None:
            self._forest = self._spanning_forest()
        forest = self._forest
        certificate: dict = {}
        for key, coeff in v.items():
            while key in forest:
                key, index, sign = forest[key]
                certificate[index] = certificate.get(index, 0) + sign * coeff
        return Membership(True, LinComb(certificate), None)


class GradedClassContext(NamedTuple):
    """Everything needed to decide equality within one graded class.

    row_sources holds (tree text, rewritten text) per relation row, in
    input order.
    """

    n: int
    signature: tuple
    basis: tuple
    row_sources: tuple
    space: ClassComponents


def _leaf_piece(weight: int) -> tuple:
    return (str(weight), None, None, weight)


def _node_piece(left: tuple, right: tuple) -> tuple:
    return ("(%s %s)" % (left[0], right[0]), left, right, min(left[3], right[3]))


def _class_rows(n: int, signature: tuple) -> tuple:
    """The basis texts of the class (n ≥ 1) and its rows as (text, rewritten text).

    A piece is (text, left piece, right piece, least weight), with None
    children for a leaf; build_class makes each one once per
    sub-signature.  The texts of α(A) and C↓ and the rewrite texts of a
    piece are worked out once and composed into every tree holding it.
    A tree's rewrites come in preorder: the root's rotation, then the
    left child's rewrites, then the right child's.
    """
    pieces = sorted(build_class(n, signature, _leaf_piece, _node_piece), key=lambda piece: piece[0])
    raised: dict = {}
    lowered: dict = {}
    rewritten: dict = {}

    def shift(piece: tuple, k: int, memo: dict) -> str:
        text, left, right, least = piece
        out = memo.get(text)
        if out is None:
            out = str(least + k) if left is None else "(%s %s)" % (shift(left, k, memo), shift(right, k, memo))
            memo[text] = out
        return out

    def rewrites(piece: tuple) -> list:
        text, left, right, _ = piece
        if left is None:
            return []
        out = rewritten.get(text)
        if out is None:
            out = []
            if left[1] is not None and right[3] >= 1:
                out.append("(%s (%s %s))" % (shift(left[1], 1, raised), left[2][0], shift(right, -1, lowered)))
            right_text = right[0]
            for r in rewrites(left):
                out.append("(%s %s)" % (r, right_text))
            left_text = left[0]
            for r in rewrites(right):
                out.append("(%s %s)" % (left_text, r))
            rewritten[text] = out
        return out

    basis = tuple(piece[0] for piece in pieces)
    if n == 1:  # one leaf: its key is not always its inner text
        basis = tuple(KEY_OF_INNER.get(text, text) for text in basis)
    return basis, tuple((piece[0], r) for piece in pieces for r in rewrites(piece))


@lru_cache(maxsize=CLASS_CACHE_SIZE)
def class_context(n: int, signature: tuple) -> GradedClassContext:
    if n == 0:
        if signature != ():
            raise ValueError("the unit class has the empty signature")
        basis, sources = ("1",), ()
    else:
        basis, sources = _class_rows(n, signature)
    return GradedClassContext(n, tuple(signature), basis, sources, ClassComponents(basis, sources))


@lru_cache(maxsize=NF_CACHE_SIZE)
def _nf_key(key: str) -> LinComb:
    cls = class_of(key)
    ctx = class_context(*cls)
    return ctx.space.reduce(LinComb.single(key))


def normal_form(p: TreePoly) -> TreePoly:
    """Canonical representative modulo I: per-class reduced residual."""
    return LinComb((nkey, coeff * c) for key, coeff in p.items() for nkey, c in _nf_key(key).items())


class TreeEquality(NamedTuple):
    """Verdict of the quotient oracle.

    When equal, certificates maps each graded class of the difference to
    a LinComb over that class's relation-row indices (see
    GradedClassContext.row_sources) recombining the component exactly.
    When not equal, witness_class and residual exhibit one class where
    the difference falls outside the relation span.
    """

    equal: bool
    certificates: Optional[dict] = None
    witness_class: Optional[tuple] = None
    residual: Optional[LinComb] = None


def equal_mod_I(a: TreePoly, b: TreePoly) -> TreeEquality:
    """Decide a = b in the quotient.  Complete: classes are finite."""
    certificates: dict = {}
    for cls, comp in sorted(graded_decompose(a - b).items()):
        ctx = class_context(*cls)
        answer = ctx.space.membership(comp)
        if not answer.inside:
            return TreeEquality(False, None, cls, answer.residual)
        certificates[cls] = answer.certificate
    return TreeEquality(True, certificates)


def is_zero_mod_I(p: TreePoly) -> bool:
    return not normal_form(p)


# A map on texts works with inner texts (trees.INNER_OF_KEY); None stands
# for the unit 𝟙.
_KEY = {None: "1", **KEY_OF_INNER}
_WEIGHT = re.compile(r"[0-9]+")


def _shift_text(text: str, k: int) -> str:
    """α^k of an inner text: k added to every leaf weight.

    A weight driven below zero raises trees.alpha_shift's ValueError.
    """
    def shifted(match) -> str:
        weight = int(match.group())
        if weight + k < 0:
            raise ValueError("weight shift by %d would make leaf weight %d negative" % (k, weight))
        return str(weight + k)

    return _WEIGHT.sub(shifted, text)


def _raise_text(text: str, memo: dict) -> str:
    """α of an inner text, memoised in memo under (text, 1)."""
    out = memo.get((text, 1))
    if out is None:
        out = memo[(text, 1)] = _shift_text(text, 1)
    return out


def _graft_column(column: list, b, memo: dict) -> list:
    """[a ∨ b for a in column] on inner texts, None standing for 𝟙."""
    if b is None:
        return [None if a is None else _raise_text(a, memo) for a in column]
    raised = _raise_text(b, memo)
    return [raised if a is None else "(%s %s)" % (a, b) for a in column]


def _text_splits(t, memo: dict) -> tuple:
    """(inner text of t, its splits as pairs of inner texts), in trees.splits order.

    Δ(a∨b) = Δa ∨ Δb: the right child's pairs in the outer loop, the
    left child's in the inner one.  memo holds the α shifts.
    """
    if t.__class__ is Leaf:
        text = str(t.weight)
        return text, [(None, text), (text, None)]
    left_text, left = _text_splits(t.left, memo)
    right_text, right = _text_splits(t.right, memo)
    firsts = [a for a, _ in left]
    seconds = [b for _, b in left]
    pairs = []
    for b1, b2 in right:
        pairs.extend(zip(_graft_column(firsts, b1, memo), _graft_column(seconds, b2, memo)))
    return "(%s %s)" % (left_text, right_text), pairs


class FreeAmbient(Ambient):
    """The one-generator quotient 𝕋/I: every check here is decidable.

    Its two hooks work on codec texts, so a term of α or Δ is never built
    as a tree: a key is parsed (a cached lookup) and walked once for Δ,
    and α acts on the key text itself.  Its keys are undecorated, as
    parse_poly reads them.
    """

    exact = True

    def _shift_key(self, key: str, k: int, coeff) -> list:
        if key == "1":
            return [("1", coeff)]
        text = _shift_text(INNER_OF_KEY.get(key, key), k)
        return [(KEY_OF_INNER.get(text, text), coeff)]

    def _split_tree(self, t, coeff, memo: dict) -> list:
        if is_unit(t):
            return [(("1", "1"), coeff)]
        key = _KEY.get
        return [((key(a, a), key(b, b)), coeff) for a, b in _text_splits(t, memo)[1]]

    def _level_of(self, keys) -> None:
        return None  # the graded classes are finite: no level to pick

    def _key_reducer(self, level):
        return _nf_key

    def is_zero(self, p: TreePoly, level=None) -> bool:
        return is_zero_mod_I(p)

    def equal(self, a: TreePoly, b: TreePoly) -> bool:
        return equal_mod_I(a, b).equal

    def power_product(self, i: int, p: int) -> TreePoly:
        return nary_product(i, p)

    def parse(self, text: str) -> TreePoly:
        return parse_poly(text)

    def __eq__(self, other):
        return isinstance(other, FreeAmbient)

    def __hash__(self):
        return hash("free-ambient")


FREE = FreeAmbient()


def alpha_poly(p: TreePoly, k: int = 1) -> TreePoly:
    return FREE.alpha(p, k)


def coproduct(p: TreePoly) -> LinComb:
    return FREE.coproduct(p)


def antipode(p: TreePoly) -> TreePoly:
    return FREE.antipode(p)


def convolve(f: Callable, g: Callable) -> Callable:
    return FREE.convolve(f, g)


def reduce_tensor(t: LinComb) -> LinComb:
    return FREE.reduce_tensor(t)


def is_primitive(p: TreePoly) -> bool:
    return FREE.is_primitive(p)


def invertibility_index(g, max_k: int = 8) -> IndexSearch:
    return FREE.invertibility_index(g, max_k)


# --------------------------------------------------------------------------
# k-weighted products


def k_weighted(t, k: int) -> TreePoly:
    """φ[k]: put weight k−1−depth_i on leaf i.  Needs k > max depth."""
    if is_unit(t):
        return unit_poly()
    from .trees import depths, with_weights

    d = depths(t)
    if k - 1 < max(d):
        raise DomainError("k=%d is too small for a tree of depth %d" % (k, max(d)))
    return tree_poly(with_weights(t, [k - 1 - di for di in d]))


def right_fern(n: int) -> Node:
    if n < 2:
        raise ValueError("a fern needs at least 2 leaves")
    t = Leaf(0)
    for _ in range(n - 1):
        t = Node(Leaf(0), t)
    return t


def left_fern(n: int) -> Node:
    if n < 2:
        raise ValueError("a fern needs at least 2 leaves")
    t = Leaf(0)
    for _ in range(n - 1):
        t = Node(t, Leaf(0))
    return t


def nary_product(n: int, k: int) -> TreePoly:
    """⌊e^n⌋_k as its right-fern representative; ⌊e^0⌋_k is 𝟙.

    Every other n-tree weighted the same way is equal to it modulo I
    (the indifference property), so a single representative suffices.
    """
    if n < 0:
        raise DomainError("n must be non-negative, got %d" % n)
    if n > k:
        raise DomainError("the k-weighted n-ary product needs n <= k, got n=%d > k=%d" % (n, k))
    if n == 0:
        return unit_poly()
    if n == 1:
        return tree_poly(Leaf(k - 1))
    return k_weighted(right_fern(n), k)


def u_element() -> TreePoly:
    """A primitive element killed by α but itself nonzero in the quotient."""
    return LinComb({"((0 1) (1 0))": 1, "(1 ((0 0) 0))": -1})


# --------------------------------------------------------------------------
# linear-combination text format


def format_poly(p: TreePoly) -> str:
    """`coef*tree` terms joined by +/-; coefficient omitted when 1.

    The zero polynomial prints as "0*1" (a bare "0" already denotes the
    weight-0 one-leaf tree).
    """
    if not p:
        return "0*1"
    parts = []
    for key in p.support():
        coeff = p.coeff(key)
        mag = abs(coeff)
        body = key if mag == 1 else "%s*%s" % (mag, key)
        if not parts:
            parts.append(body if coeff > 0 else "-" + body)
        else:
            parts.append(("+ " if coeff > 0 else "- ") + body)
    return " ".join(parts)


def _plain_leaf(r: Reader) -> Leaf:
    """A codec leaf with no decoration: 𝕋/I has one undecorated generator."""
    start = r.pos
    leaf = codec_leaf(r)
    if leaf.name is not None:
        r.pos = r.text.index(":", start)
        r.error("a leaf of the free algebra takes no decoration")
    return leaf


def parse_poly(text: str) -> TreePoly:
    """Inverse of format_poly: a ±-sum of `[coef*] ('1' | tree)` terms.

    Leaves are plain weights; a decorated leaf is a ParseError at its
    ':'.  A leading '-' negates the first term; ParseError positions are
    offsets into the whole text.
    """

    def term(r: Reader, sign: int) -> tuple:
        coeff = sign * r.coefficient()
        if r.at_unit():
            r.pos += 1
            return "1", coeff
        return to_text(r.tree(_plain_leaf)), coeff

    r = Reader(text)
    out = LinComb(r.sum(term))
    r.end()
    return out
