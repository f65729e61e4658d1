"""Leaf-weighted planar binary trees.

A tree is either a Leaf carrying a non-negative integer weight (and an
optional decoration naming a Lie algebra basis element) or a Node with a
left and a right subtree; planarity means left/right order matters.  The
distinguished unit 𝟙 lives alongside the trees but is *not* the weight-0
one-leaf tree.

Core operations: grafting (with the unit rule φ∨𝟙 = 𝟙∨φ = α(φ)), the
weight shift α that adds one to every leaf weight, the restriction of a
tree to a subset of its leaves, the per-leaf s-signature s_i = weight_i
+ depth_i used as the grading for the quotient oracle, shape and class
enumeration, and a canonical text codec.

Codec grammar:

    t    := "1" | leaf | "(" t " " t ")"
    leaf := weight (":" name)?

with weight a base-10 non-negative integer and name an identifier.  A
bare "1" always denotes the unit, so the undecorated weight-1 one-leaf
tree is written "01" (the parser accepts leading zeros in any weight).
Inside parentheses "1" is an ordinary leaf.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Optional, Union


class DecorationMismatch(ValueError):
    """Grafting a decorated tree onto an undecorated one (or vice versa)."""


class ParseError(ValueError):
    """Codec input rejected; .position is the 0-based offset of the fault."""

    def __init__(self, message: str, position: int):
        super().__init__("%s (at position %d)" % (message, position))
        self.position = position


@dataclass(frozen=True)
class Leaf:
    weight: int
    name: Optional[str] = None

    def __post_init__(self):
        if self.weight < 0:
            raise ValueError("leaf weight must be non-negative, got %d" % self.weight)


@dataclass(frozen=True)
class Node:
    left: "Tree"
    right: "Tree"


Tree = Union[Leaf, Node]


class UnitSymbol:
    """The unit 𝟙.  A singleton; compare with `is` or ==, both work."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "UNIT"


UNIT = UnitSymbol()

Element = Union[Tree, UnitSymbol]

# A Shape is a weighted tree with all weights zero and no decorations;
# we reuse the same node classes rather than duplicating the structure.
Shape = Tree

SSignature = tuple


def is_unit(x: Element) -> bool:
    return isinstance(x, UnitSymbol)


def leaf_count(t: Tree) -> int:
    if isinstance(t, Leaf):
        return 1
    return leaf_count(t.left) + leaf_count(t.right)


def leaves(t: Tree) -> list[Leaf]:
    """The leaves of t, left to right."""
    if isinstance(t, Leaf):
        return [t]
    return leaves(t.left) + leaves(t.right)


def weights_of(t: Tree) -> tuple[int, ...]:
    return tuple(leaf.weight for leaf in leaves(t))


def decorations_of(t: Tree) -> tuple[Optional[str], ...]:
    return tuple(leaf.name for leaf in leaves(t))


def _decoration_state(t: Tree) -> str:
    names = decorations_of(t)
    if all(n is None for n in names):
        return "plain"
    if all(n is not None for n in names):
        return "decorated"
    return "mixed"


def depths(t: Tree) -> tuple[int, ...]:
    """Number of grafting nodes strictly above each leaf; the 1-tree has depth 0."""
    if isinstance(t, Leaf):
        return (0,)
    return tuple(d + 1 for d in depths(t.left) + depths(t.right))


def s_signature(t: Tree) -> SSignature:
    return tuple(w + d for w, d in zip(weights_of(t), depths(t)))


def alpha_shift(t: Element, k: int = 1) -> Element:
    """Add k to every leaf weight; α(𝟙)=𝟙.

    k may be negative (used by the quotient rewrite, which lowers a
    subtree's weights by one); a shift that would drive a weight below
    zero raises ValueError.
    """
    if is_unit(t):
        return t
    if isinstance(t, Leaf):
        if t.weight + k < 0:
            raise ValueError("weight shift by %d would make leaf weight %d negative" % (k, t.weight))
        return Leaf(t.weight + k, t.name)
    return Node(alpha_shift(t.left, k), alpha_shift(t.right, k))


def graft(l: Element, r: Element) -> Element:
    """φ∨ψ.  Grafting with the unit shifts the other side: φ∨𝟙 = 𝟙∨φ = α(φ).

    Both sides must agree on whether their leaves are decorated; whether
    two decorated trees refer to the same algebra is checked upstream,
    where the algebra is actually known.
    """
    if is_unit(l) and is_unit(r):
        return UNIT
    if is_unit(l):
        return alpha_shift(r)
    if is_unit(r):
        return alpha_shift(l)
    if _decoration_state(l) != _decoration_state(r):
        raise DecorationMismatch("cannot graft decorated and undecorated trees")
    return Node(l, r)


def restrict(t: Tree, keep: Iterable[int]) -> Element:
    """φ_I: replace the leaves outside I (1-based positions) by 𝟙 and simplify.

    The unit rule inside graft performs the weight shifts, so every
    retained leaf keeps its s-signature value.
    """
    n = leaf_count(t)
    keepset = set(keep)
    bad = [i for i in keepset if not 1 <= i <= n]
    if bad:
        raise ValueError("leaf positions out of range 1..%d: %r" % (n, sorted(bad)))

    def go(node: Tree, start: int) -> tuple[Element, int]:
        if isinstance(node, Leaf):
            return (node if start in keepset else UNIT), start + 1
        left, mid = go(node.left, start)
        right, end = go(node.right, mid)
        return graft(left, right), end

    out, _ = go(t, 1)
    return out


def mirror(t: Element) -> Element:
    """Swap left and right recursively; weights and decorations ride along."""
    if is_unit(t) or isinstance(t, Leaf):
        return t
    return Node(mirror(t.right), mirror(t.left))


def with_weights(shape: Shape, weights: Iterable[int], names: Optional[Iterable[Optional[str]]] = None) -> Tree:
    """Rebuild shape with the given left-to-right weights (and decorations)."""
    ws = list(weights)
    ns = list(names) if names is not None else [None] * len(ws)
    if len(ws) != leaf_count(shape) or len(ns) != len(ws):
        raise ValueError("expected %d weights/decorations, got %d/%d" % (leaf_count(shape), len(ws), len(ns)))
    pos = 0

    def go(node: Tree) -> Tree:
        nonlocal pos
        if isinstance(node, Leaf):
            out = Leaf(ws[pos], ns[pos])
            pos += 1
            return out
        return Node(go(node.left), go(node.right))

    return go(shape)


def shape_of(t: Tree) -> Shape:
    if isinstance(t, Leaf):
        return Leaf(0)
    return Node(shape_of(t.left), shape_of(t.right))


@lru_cache(maxsize=None)
def enumerate_shapes(n: int) -> tuple[Shape, ...]:
    """All planar binary shapes with n leaves (C_{n-1} of them), weight 0."""
    if n < 1:
        raise ValueError("a tree has at least one leaf")
    if n == 1:
        return (Leaf(0),)
    out = []
    for k in range(1, n):
        for left in enumerate_shapes(k):
            for right in enumerate_shapes(n - k):
                out.append(Node(left, right))
    return tuple(out)


def enumerate_class(n: int, s: SSignature) -> list[Tree]:
    """All weighted n-trees with the given s-signature, sorted by codec text.

    A shape contributes iff every leaf satisfies depth_i <= s_i, in which
    case the weights are forced: a_i = s_i - depth_i.  The trees are
    built straight from the signature: a root split at k puts s[:k] − 1
    on the left subtree and s[k:] − 1 on the right.  Only splits whose
    halves both have trees are followed, so the work stays proportional
    to the class even when a half alone would hold many trees.
    """
    s = tuple(s)
    if len(s) != n:
        raise ValueError("signature length %d does not match leaf count %d" % (len(s), n))

    @lru_cache(maxsize=None)
    def fits(sig: tuple) -> bool:
        if min(sig) < 0:
            return False
        return len(sig) == 1 or any(True for _ in halves(sig))

    def halves(sig: tuple):
        for k in range(1, len(sig)):
            left = tuple(x - 1 for x in sig[:k])
            right = tuple(x - 1 for x in sig[k:])
            if fits(left) and fits(right):
                yield left, right

    @lru_cache(maxsize=None)
    def build(sig: tuple) -> tuple:
        if len(sig) == 1:
            return (Leaf(sig[0]),)
        return tuple(Node(a, b) for left, right in halves(sig) for a in build(left) for b in build(right))

    return sorted(build(s), key=to_text) if fits(s) else []


# --------------------------------------------------------------------------
# codec


def _render(t: Tree) -> str:
    if isinstance(t, Leaf):
        if t.name is None:
            return str(t.weight)
        return "%d:%s" % (t.weight, t.name)
    return "(%s %s)" % (_render(t.left), _render(t.right))


def to_text(t: Element) -> str:
    """Canonical text for a tree or the unit.

    The undecorated weight-1 one-leaf tree renders as "01" so that the
    bare string "1" is reserved for the unit.
    """
    if is_unit(t):
        return "1"
    if isinstance(t, Leaf) and t.name is None and t.weight == 1:
        return "01"
    return _render(t)


def _is_name_start(c: str) -> bool:
    return c.isalpha() or c == "_"


def _is_name_char(c: str) -> bool:
    return c.isalnum() or c == "_"


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, message: str):
        raise ParseError(message, self.pos)

    def skip_spaces(self) -> int:
        count = 0
        while self.pos < len(self.text) and self.text[self.pos] == " ":
            self.pos += 1
            count += 1
        return count

    def parse_term(self) -> Tree:
        if self.pos >= len(self.text):
            self.error("unexpected end of input")
        c = self.text[self.pos]
        if c == "(":
            self.pos += 1
            self.skip_spaces()
            left = self.parse_term()
            if self.skip_spaces() == 0:
                self.error("expected space between subtrees")
            right = self.parse_term()
            self.skip_spaces()
            if self.pos >= len(self.text) or self.text[self.pos] != ")":
                self.error("expected ')'")
            self.pos += 1
            return Node(left, right)
        if c.isdigit():
            return self.parse_leaf()
        self.error("expected '(' or a leaf weight")

    def parse_leaf(self) -> Leaf:
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        weight = int(self.text[start:self.pos])
        name = None
        if self.pos < len(self.text) and self.text[self.pos] == ":":
            self.pos += 1
            if self.pos >= len(self.text) or not _is_name_start(self.text[self.pos]):
                self.error("expected a decoration name after ':'")
            nstart = self.pos
            while self.pos < len(self.text) and _is_name_char(self.text[self.pos]):
                self.pos += 1
            name = self.text[nstart:self.pos]
        return Leaf(weight, name)


@lru_cache(maxsize=None)
def parse(text: str) -> Element:
    """Inverse of to_text.  Raises ParseError (with .position) on bad input."""
    stripped = text.strip(" ")
    if stripped == "1":
        return UNIT
    p = _Parser(text)
    p.skip_spaces()
    term = p.parse_term()
    p.skip_spaces()
    if p.pos != len(text):
        p.error("unexpected trailing input")
    return term
