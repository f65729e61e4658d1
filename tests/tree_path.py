"""The tree path of 𝕋/I, kept as the reference for freehom's text build and text maps.

rewrites(t) is the tree-valued Hom-associativity rewriter, and
class_rows(n, s) builds a class the tree way: enumerate_class, to_text
on every tree and rewrites on every tree.  TreePathAmbient is 𝕋/I with
∨, α and Δ on tree values: every key is parsed, the trees operation
applied and the result stored by its settle function, by default
rendered with to_text; S and the maps built on these (convolution,
tensor reduction, primitivity, the index search) run through
ambient.Ambient as for freehom.FREE.  Given ueg.alpha_table(g).settle
instead, its ∨ is the tree path that U𝔤's ∨ replaced.
"""

from homtrees.ambient import COPRODUCT_LEAF_CAP, ResourceLimit
from homtrees.freehom import FreeAmbient
from homtrees.linalg import LinComb
from homtrees.trees import (
    Leaf,
    Node,
    alpha_shift,
    enumerate_class,
    graft,
    is_unit,
    leaf_count,
    parse,
    splits,
    to_text,
    weights_of,
)


def rewrites(t) -> list:
    """All single-node Hom-associativity rewrites of t, in preorder.

    A node carrying (A∨B)∨C with min weight of C ≥ 1 may be replaced by
    α(A)∨(B∨C↓).  Returns the full rewritten trees: the root's own
    rewrite, then the left child's rewrites, then the right child's.
    """
    if isinstance(t, Leaf):
        return []
    left, right = t.left, t.right
    out = []
    if isinstance(left, Node) and min(weights_of(right)) >= 1:
        out.append(Node(alpha_shift(left.left), Node(left.right, alpha_shift(right, -1))))
    for r in rewrites(left):
        out.append(Node(r, right))
    for r in rewrites(right):
        out.append(Node(left, r))
    return out


def class_rows(n: int, s: tuple) -> tuple:
    """(basis, row_sources) of the class (n, s), as freehom.class_context holds them."""
    trees = enumerate_class(n, s)
    basis = tuple(to_text(t) for t in trees)
    sources = tuple((text, to_text(r)) for t, text in zip(trees, basis) for r in rewrites(t))
    return basis, sources


def settle(t, coeff) -> list:
    """coeff·t as 𝕋/I stores it: its codec text."""
    return [(to_text(t), coeff)]


class TreePathAmbient(FreeAmbient):
    """𝕋/I whose ∨, α and Δ build every term as a tree and store it with settle."""

    def __init__(self, settle=settle):
        self.settle = settle

    def graft(self, a: LinComb, b: LinComb) -> LinComb:
        out = []
        for ka, ca in a.items():
            ta = parse(ka)
            for kb, cb in b.items():
                out.extend(self.settle(graft(ta, parse(kb)), ca * cb))
        return LinComb(out)

    def alpha(self, p: LinComb, k: int = 1) -> LinComb:
        out = []
        for key, coeff in p.items():
            out.extend(self.settle(alpha_shift(parse(key), k), coeff))
        return LinComb(out)

    def coproduct(self, p: LinComb) -> LinComb:
        out = []
        for key, coeff in p.items():
            t = parse(key)
            n = 0 if is_unit(t) else leaf_count(t)
            if n > COPRODUCT_LEAF_CAP:
                raise ResourceLimit("the coproduct of a %d-leaf tree has 2^%d terms (cap %d leaves)"
                                    % (n, n, COPRODUCT_LEAF_CAP))
            for left, right in splits(t):
                settled = self.settle(right, 1)
                for lk, lc in self.settle(left, coeff):
                    for rk, rc in settled:
                        out.append(((lk, rk), lc * rc))
        return LinComb(out)


TREE_PATH = TreePathAmbient()
