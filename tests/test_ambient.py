"""Δ over trees.splits against the leaf-subset restriction it replaced.

The reference below is the earlier implementation, kept verbatim in
substance: φ_I rebuilt from scratch for each of the 2ⁿ masks, leaf i
being bit i−1.  Both must give the same keys, coefficients and term
order on every input, in 𝕋/I and in U𝔤 alike.
"""

import os
import random
from fractions import Fraction

from homtrees.freehom import FREE
from homtrees.homlie import load_algebra, make_algebra
from homtrees.linalg import LinComb
from homtrees.suites import book3
from homtrees.trees import UNIT, Leaf, enumerate_shapes, graft, is_unit, leaf_count, parse, to_text, with_weights
from homtrees.ueg import UEAmbient

SL2 = os.path.join(os.path.dirname(__file__), "data", "sl2_twisted.json")


def reference_restrict(t, keep):
    """φ_I: replace the leaves outside I (1-based positions) by 𝟙 and simplify."""
    keepset = set(keep)

    def go(node, start):
        if isinstance(node, Leaf):
            return (node if start in keepset else UNIT), start + 1
        left, mid = go(node.left, start)
        right, end = go(node.right, mid)
        return graft(left, right), end

    return go(t, 1)[0]


def reference_coproduct(ambient, p):
    out = []
    for key, coeff in p.items():
        t = parse(key)
        if is_unit(t):
            out.append((("1", "1"), coeff))
            continue
        n = leaf_count(t)
        for mask in range(2 ** n):
            keep = [i for i in range(1, n + 1) if mask & (1 << (i - 1))]
            drop = [i for i in range(1, n + 1) if not mask & (1 << (i - 1))]
            right = ambient._settle(reference_restrict(t, drop), 1)
            for lk, lc in ambient._settle(reference_restrict(t, keep), coeff):
                for rk, rc in right:
                    out.append(((lk, rk), lc * rc))
    return LinComb(out)


def random_poly(rng, names, max_leaves, max_weight, terms):
    pairs = []
    for _ in range(terms):
        if rng.random() < 0.1:
            pairs.append(("1", rng.randint(-3, 3) or 1))
            continue
        n = rng.randint(1, max_leaves)
        shape = rng.choice(enumerate_shapes(n))
        weights = [rng.randint(0, max_weight) for _ in range(n)]
        decorations = [rng.choice(names) for _ in range(n)] if names else None
        key = to_text(with_weights(shape, weights, decorations))
        pairs.append((key, Fraction(rng.randint(-5, 5) or 1, rng.randint(1, 3))))
    return LinComb(pairs)


def assert_same_coproduct(ambient, p):
    assert list(ambient.coproduct(p).items()) == list(reference_coproduct(ambient, p).items()), p


def test_free_coproduct_matches_the_restriction_reference():
    rng = random.Random(20261018)
    assert_same_coproduct(FREE, LinComb.single("1"))
    leaves = set()
    for _ in range(120):
        p = random_poly(rng, None, max_leaves=9, max_weight=3, terms=rng.randint(1, 2))
        leaves.update(leaf_count(parse(key)) for key in p.terms if key != "1")
        assert_same_coproduct(FREE, p)
    assert leaves == set(range(1, 10))


def test_ue_coproduct_matches_the_restriction_reference():
    algebras = [
        make_algebra("aff2", ("x", "y"), {(0, 1): (0, 1)}, ((1, 0), (0, 2))),
        make_algebra("aff2-mixing", ("x", "y"), {(0, 1): (0, 1)}, ((1, 1), (0, 1))),
        load_algebra(SL2),
        book3(),
    ]
    rng = random.Random(20261019)
    for g in algebras:
        ambient = UEAmbient(g)
        assert_same_coproduct(ambient, LinComb.single("1"))
        for _ in range(40):
            assert_same_coproduct(ambient, random_poly(rng, g.basis, max_leaves=5, max_weight=2, terms=2))
