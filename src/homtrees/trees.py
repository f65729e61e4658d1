"""Leaf-weighted planar binary trees.

A tree is either a Leaf carrying a non-negative integer weight (and an
optional decoration naming a Lie algebra basis element) or a Node with a
left and a right subtree; planarity means left/right order matters.  The
distinguished unit 𝟙 lives alongside the trees but is *not* the weight-0
one-leaf tree.

Core operations: grafting (with the unit rule φ∨𝟙 = 𝟙∨φ = α(φ)), the
weight shift α that adds one to every leaf weight, the splits (φ_I, φ_J)
of a tree over the subsets I of its leaves, the per-leaf s-signature
s_i = weight_i + depth_i used as the grading for the quotient oracle,
shape and class enumeration, and a canonical text codec.

Codec grammar:

    t    := "1" | leaf | "(" t " " t ")"
    leaf := weight (":" name)?

with weight a run of decimal digits and name an identifier.  A bare "1"
always denotes the unit, so the undecorated weight-1 one-leaf tree is
written "01" (the parser accepts leading zeros in any weight).  Inside
parentheses "1" is an ordinary leaf.

Reader is the one cursor that every expression of the package is read
with: this codec and the readers of freehom, ueg and homlie.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Callable, Iterable, Optional, Union

from .linalg import frac


class DecorationMismatch(ValueError):
    """Grafting a decorated tree onto an undecorated one (or vice versa)."""


class ParseError(ValueError):
    """Codec input rejected; .position is the 0-based offset of the fault."""

    def __init__(self, message: str, position: int):
        super().__init__("%s (at position %d)" % (message, position))
        self.position = position


_set = object.__setattr__


def _frozen(self, *args):
    raise AttributeError("%s is immutable" % type(self).__name__)


class Leaf:
    """A leaf of weight ≥ 0, decorated by a basis name or undecorated (name None).

    Leaf and Node are immutable values: equal when their fields are, with
    the hash of their field tuple, computed when asked for.
    """

    __slots__ = ("weight", "name")

    def __init__(self, weight: int, name: Optional[str] = None):
        if weight < 0:
            raise ValueError("leaf weight must be non-negative, got %d" % weight)
        _set(self, "weight", weight)
        _set(self, "name", name)

    def __eq__(self, other):
        if other.__class__ is not Leaf:
            return NotImplemented
        return (self.weight, self.name) == (other.weight, other.name)

    def __hash__(self):
        return hash((self.weight, self.name))

    def __repr__(self):
        return "Leaf(weight=%r, name=%r)" % (self.weight, self.name)

    def __reduce__(self):
        return Leaf, (self.weight, self.name)

    __setattr__ = __delattr__ = _frozen


class Node:
    """The graft of a left and a right subtree."""

    __slots__ = ("left", "right")

    def __init__(self, left: "Tree", right: "Tree"):
        _set(self, "left", left)
        _set(self, "right", right)

    def __eq__(self, other):
        if other.__class__ is not Node:
            return NotImplemented
        return (self.left, self.right) == (other.left, other.right)

    def __hash__(self):
        return hash((self.left, self.right))

    def __repr__(self):
        return "Node(left=%r, right=%r)" % (self.left, self.right)

    def __reduce__(self):
        return Node, (self.left, self.right)

    __setattr__ = __delattr__ = _frozen


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
    """"plain", "decorated" or "mixed" (some leaves decorated, some not)."""
    if isinstance(t, Leaf):
        return "plain" if t.name is None else "decorated"
    left = _decoration_state(t.left)
    return left if left == _decoration_state(t.right) else "mixed"


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

    Both sides must agree on whether their leaves are decorated, and
    neither may mix decorated and undecorated leaves; whether two
    decorated trees refer to the same algebra is checked upstream, where
    the algebra is actually known.
    """
    if is_unit(l) and is_unit(r):
        return UNIT
    if is_unit(l):
        return alpha_shift(r)
    if is_unit(r):
        return alpha_shift(l)
    state = _decoration_state(l)
    if state == "mixed" or state != _decoration_state(r):
        raise DecorationMismatch("cannot graft decorated and undecorated trees")
    return Node(l, r)


def splits(t: Element) -> list:
    """The pairs (φ_I, φ_J) over the subsets I of t's leaves, J the rest.

    φ_I replaces the leaves outside I by 𝟙 and simplifies; the unit rule
    inside graft performs the weight shifts, so every retained leaf keeps
    its s-signature value.  Pairs come in mask order, leaf i being bit
    i−1 of I: a node grafts its children's splits, the right child's in
    the outer loop.
    """
    if is_unit(t):
        return [(UNIT, UNIT)]
    if isinstance(t, Leaf):
        return [(UNIT, t), (t, UNIT)]
    left = splits(t.left)
    return [(graft(li, ri), graft(lj, rj)) for ri, rj in splits(t.right) for li, lj in left]


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


def build_class(n: int, s: SSignature, leaf: Callable, node: Callable) -> tuple:
    """The weighted n-trees with s-signature s, made by leaf(weight) and node(left, right).

    A shape contributes iff every leaf satisfies depth_i <= s_i, in which
    case the weights are forced: a_i = s_i - depth_i.  The trees are
    built straight from the signature: a root split at k puts s[:k] − 1
    on the left subtree and s[k:] − 1 on the right.  Only splits whose
    halves both have trees are followed, so the work stays proportional
    to the class even when a half alone would hold many trees.  Each
    sub-signature's fitting splits are found once and its trees built
    once, so trees share the values made for their common subtrees.
    Trees come by root split, then left subtree, then right subtree; the
    class is empty when no shape fits.
    """
    s = tuple(s)
    if len(s) != n:
        raise ValueError("signature length %d does not match leaf count %d" % (len(s), n))
    fitting: dict = {}  # signature -> its root splits whose halves both fit, in split order
    built: dict = {}

    def fits(sig: tuple) -> bool:
        return sig[0] >= 0 if len(sig) == 1 else bool(halves(sig))

    def halves(sig: tuple) -> list:
        out = fitting.get(sig)
        if out is None:
            out = fitting[sig] = []
            if min(sig) >= 1:  # every leaf lies below the root
                low = tuple([x - 1 for x in sig])
                for k in range(1, len(sig)):
                    left, right = low[:k], low[k:]
                    if fits(left) and fits(right):
                        out.append((left, right))
        return out

    def build(sig: tuple) -> tuple:
        out = built.get(sig)
        if out is None:
            if len(sig) == 1:
                out = (leaf(sig[0]),)
            else:
                out = tuple(node(a, b) for left, right in halves(sig) for a in build(left) for b in build(right))
            built[sig] = out
        return out

    return build(s) if fits(s) else ()


def enumerate_class(n: int, s: SSignature) -> list[Tree]:
    """All weighted n-trees with the given s-signature, sorted by codec text (see build_class)."""
    return sorted(build_class(n, s, Leaf, Node), key=to_text)


# --------------------------------------------------------------------------
# codec


def _render(t: Tree) -> str:
    if isinstance(t, Leaf):
        if t.name is None:
            return str(t.weight)
        return "%d:%s" % (t.weight, t.name)
    return "(%s %s)" % (_render(t.left), _render(t.right))


# A stored key is the codec text of a tree, or "1" for the unit.  Inside
# parentheses a tree is written by its inner text, which differs from its
# key only for the undecorated weight-1 leaf: key "01", inner text "1".
KEY_OF_INNER = {"1": "01"}
INNER_OF_KEY = {"01": "1"}


def to_text(t: Element) -> str:
    """Canonical text for a tree or the unit: the stored key.

    The undecorated weight-1 one-leaf tree renders as "01" so that the
    bare string "1" is reserved for the unit.
    """
    if is_unit(t):
        return "1"
    text = _render(t)
    return KEY_OF_INNER.get(text, text)


class Reader:
    """A cursor over one text, holding the tokens every expression reader shares.

    Each reader in the package is a short grammar over these methods:
    tree(leaf) reads the grafting structure and hands each leaf to the
    callback, sum(term) reads ±-separated terms.  Only spaces separate
    tokens, and every ParseError position is an offset into the text.
    """

    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, message: str):
        raise ParseError(message, self.pos)

    def peek(self) -> str:
        """The next character, or "" at the end of the text."""
        return self.text[self.pos:self.pos + 1]

    def spaces(self) -> int:
        """Step over spaces; return how many there were."""
        text, start = self.text, self.pos
        pos = start
        while pos < len(text) and text[pos] == " ":
            pos += 1
        self.pos = pos
        return pos - start

    def name(self) -> str:
        """An identifier (a letter or '_', then letters, digits or '_'), or "" if none starts here."""
        text, start = self.text, self.pos
        if not (self.peek().isalpha() or self.peek() == "_"):
            return ""
        while self.pos < len(text) and (text[self.pos].isalnum() or text[self.pos] == "_"):
            self.pos += 1
        return text[start:self.pos]

    def number(self) -> Optional[int]:
        """A run of decimal digits as an int, or None if none starts here."""
        text, start = self.text, self.pos
        pos = start
        while pos < len(text) and text[pos].isdecimal():
            pos += 1
        if pos == start:
            return None
        self.pos = pos
        return int(text[start:pos])

    def rational(self) -> Optional[int | Fraction]:
        """A `N`, `N/D` or `N.D` number, or None if no digit starts here.

        The value is an int when it is integral (always for `N`), else a Fraction.
        """
        start = self.pos
        value = self.number()
        if value is None:
            return None
        mark = self.peek()
        if mark not in ("/", "."):
            return value
        self.pos += 1
        digits = self.pos
        low = self.number()
        if low is None or low == 0 and mark == "/":
            self.pos = digits
            self.error("expected %s after %r" % ("a nonzero denominator" if mark == "/" else "digits", mark))
        return frac(self.text[start:self.pos])

    def coefficient(self) -> int | Fraction:
        """A `N*`, `N/D*` or `N.D*` prefix, spaces allowed around '*', or 1 if there is none.

        Without a '*' after the number the cursor stays put, so the
        digits are read again as a leaf weight or the unit.
        """
        start = self.pos
        value = self.rational()
        if value is None:
            return 1
        self.spaces()
        if self.peek() != "*":
            self.pos = start
            return 1
        self.pos += 1
        self.spaces()
        return value

    def at_unit(self) -> bool:
        """Whether a bare "1", the unit 𝟙, starts here rather than a leaf."""
        return self.peek() == "1" and self.text[self.pos + 1:self.pos + 2] in ("", " ", "+", "-", ")")

    def tree(self, leaf: Callable) -> Tree:
        """t := leaf | "(" t " "+ t ")", with spaces allowed inside the parentheses.

        leaf(self) reads one leaf.  This takes one frame per nesting
        level, so the recursion limit bounds how deep a text may nest.
        """
        if self.pos >= len(self.text):
            self.error("unexpected end of input")
        if self.text[self.pos] != "(":
            return leaf(self)
        self.pos += 1
        self.spaces()
        left = self.tree(leaf)
        if not self.spaces():
            self.error("expected space between subtrees")
        right = self.tree(leaf)
        self.spaces()
        if self.pos >= len(self.text) or self.text[self.pos] != ")":
            self.error("expected ')'")
        self.pos += 1
        return Node(left, right)

    def sum(self, term: Callable) -> list:
        """What term(self, sign) returns for each ±-separated term, up to the end or a ')'.

        The sign of the first term may be left out.
        """
        out = []
        self.spaces()
        while self.peek() not in ("", ")"):
            mark = self.peek()
            if mark in ("+", "-"):
                self.pos += 1
                self.spaces()
            elif out:
                self.error("expected '+' or '-' between terms")
            out.append(term(self, -1 if mark == "-" else 1))
            self.spaces()
        if not out:
            self.error("empty expression")
        return out

    def end(self) -> None:
        if self.pos != len(self.text):
            self.error("unexpected trailing input")


def codec_leaf(r: Reader) -> Leaf:
    """leaf := weight (":" name)?"""
    weight = r.number()
    if weight is None:
        r.error("expected '(' or a leaf weight")
    if not r.text.startswith(":", r.pos):
        return Leaf(weight)
    r.pos += 1
    name = r.name()
    if not name:
        r.error("expected a decoration name after ':'")
    return Leaf(weight, name)


# texts whose trees are kept, the least recently used going first: over 4×
# the 4,337 texts that a whole `verify --suite all` run parses
PARSE_CACHE_SIZE = 32768


@lru_cache(maxsize=PARSE_CACHE_SIZE)
def parse(text: str) -> Element:
    """Inverse of to_text.  Raises ParseError (with .position) on bad input."""
    if text.strip(" ") == "1":
        return UNIT
    r = Reader(text)
    r.spaces()
    out = r.tree(codec_leaf)
    r.spaces()
    r.end()
    return out
