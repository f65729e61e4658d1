"""The tree path of a graded class, kept as the reference for freehom's text build.

rewrites(t) is the tree-valued Hom-associativity rewriter, and
class_rows(n, s) builds a class the tree way: enumerate_class, to_text
on every tree and rewrites on every tree.
"""

from homtrees.trees import Leaf, Node, alpha_shift, enumerate_class, to_text, weights_of


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
