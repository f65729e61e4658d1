"""The Hom-Hopf maps against the references they replaced.

Δ over trees.splits is checked against the leaf-subset restriction:
φ_I rebuilt from scratch for each of the 2ⁿ masks, leaf i being bit
i−1, in 𝕋/I and in U𝔤 alike.  The text maps of freehom.FREE, and U𝔤's
∨ on stored keys, are checked against the tree path of
tests/tree_path.py.  Both must give the same keys, coefficients and term
order on every input.
"""

import os
import random
from fractions import Fraction

import pytest

from homtrees.ambient import ResourceLimit, identity_op
from homtrees.freehom import FREE, normal_form
from homtrees.homlie import load_algebra, make_algebra, twist
from homtrees.linalg import LinComb
from homtrees.suites import book3, nonabelian2
from homtrees.trees import UNIT, Leaf, enumerate_shapes, graft, is_unit, leaf_count, parse, to_text, with_weights
from homtrees.ueg import UEAmbient, alpha_table, build_level
from tree_path import TREE_PATH, TreePathAmbient, settle

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


def reference_coproduct(settle, p):
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
            right = settle(reference_restrict(t, drop), 1)
            for lk, lc in settle(reference_restrict(t, keep), coeff):
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


def assert_same_coproduct(ambient, settle, p):
    assert list(ambient.coproduct(p).items()) == list(reference_coproduct(settle, p).items()), p


def test_free_coproduct_matches_the_restriction_reference():
    rng = random.Random(20261018)
    assert_same_coproduct(FREE, settle, LinComb.single("1"))
    leaves = set()
    for _ in range(120):
        p = random_poly(rng, None, max_leaves=9, max_weight=3, terms=rng.randint(1, 2))
        leaves.update(leaf_count(parse(key)) for key in p.terms if key != "1")
        assert_same_coproduct(FREE, settle, p)
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
        ambient, settle_u = UEAmbient(g), alpha_table(g).settle
        assert_same_coproduct(ambient, settle_u, LinComb.single("1"))
        for _ in range(40):
            assert_same_coproduct(ambient, settle_u, random_poly(rng, g.basis, max_leaves=5, max_weight=2, terms=2))


def test_ue_graft_matches_the_tree_path():
    """U𝔤's ∨ against grafting the parsed keys and settling the tree, term by term.

    A unit factor acts through α, so the α run over the identity,
    diagonal ones with and without a zero entry, and non-diagonal ones.
    """
    sl2 = make_algebra("sl2", ("E", "H", "F"), {(0, 1): (-2, 0, 0), (0, 2): (0, 1, 0), (1, 2): (0, 0, -2)},
                       ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    algebras = [nonabelian2(alpha) for alpha in (((1, 0), (0, 1)), ((1, 0), (0, 2)), ((1, 0), (0, 0)),
                                                 ((1, 1), (0, 1)))]
    algebras += [load_algebra(SL2), twist(sl2, ((0, 0, -1), (0, -1, 0), (-1, 0, 0)), name="sl2-chevalley"),
                 book3()]
    rng = random.Random(20261023)
    for g in algebras:
        ambient, tree_path = UEAmbient(g), TreePathAmbient(alpha_table(g).settle)
        # 𝟙, a leaf, a sum holding 𝟙 and seeded sums, all over stored keys: every leaf of weight 0
        cherry = "(0:%s 0:%s)" % (g.basis[0], g.basis[-1])
        inputs = [LinComb.single("1"), LinComb.single("0:" + g.basis[-1]), LinComb({"1": 2, cherry: Fraction(-1, 2)})]
        inputs += [random_poly(rng, g.basis, max_leaves=4, max_weight=0, terms=rng.randint(1, 3))
                   for _ in range(12)]
        for p in inputs:
            for q in inputs:
                assert same(ambient.graft(p, q), tree_path.graft(p, q)), (g.name, p, q)


def free_inputs(rng, count, max_leaves):
    """𝟙, the weight-1 leaf, sums holding the unit and `count` seeded
    polynomials with 1 to max_leaves leaves and weights 0–3."""
    yield LinComb.single("1")
    yield LinComb.single("01")
    yield LinComb({"1": 2, "01": -1, "(0 1)": Fraction(1, 2)})
    yield LinComb({"((1 0) 1)": 3, "1": Fraction(-2, 3), "(1 (0 1))": 1})
    for _ in range(count):
        yield random_poly(rng, None, max_leaves=max_leaves, max_weight=3, terms=rng.randint(1, 3))


def same(a, b):
    return list(a.items()) == list(b.items())


def largest(p):
    """The leaf count of p's largest tree, 0 for a multiple of 𝟙."""
    return max([0] + [leaf_count(parse(key)) for key in p.terms if key != "1"])


def test_free_text_maps_match_the_tree_path():
    """∨, α^k, Δ, S⋆id and id⋆S of FREE against the tree path, term by term.

    S itself is Ambient's body on both sides, so it is not compared here.
    """
    rng = random.Random(20261020)
    inputs = list(free_inputs(rng, 40, max_leaves=9))
    assert {largest(p) for p in inputs} == set(range(10))
    for p, q in zip(inputs, inputs[1:] + inputs[:1]):
        assert same(FREE.graft(p, q), TREE_PATH.graft(p, q)), (p, q)
        assert same(FREE.coproduct(p), TREE_PATH.coproduct(p)), p
        for k in (1, 2, 3):
            assert same(FREE.alpha(p, k), TREE_PATH.alpha(p, k)), (p, k)
        assert all(same(a, b) for a, b in zip(convolutions(FREE, p), convolutions(TREE_PATH, p))), p


def convolutions(ambient, p):
    """(S⋆id)p and (id⋆S)p."""
    return (ambient.convolve(ambient.antipode, identity_op)(p),
            ambient.convolve(identity_op, ambient.antipode)(p))


def test_free_quotient_maps_match_the_tree_path():
    """reduce_tensor(Δp), is_primitive and the index search run on the text maps as on the tree path."""
    rng = random.Random(20261021)
    for p in free_inputs(rng, 20, max_leaves=9):
        assert same(FREE.reduce_tensor(FREE.coproduct(p)), TREE_PATH.reduce_tensor(TREE_PATH.coproduct(p))), p
        assert FREE.is_primitive(p) == TREE_PATH.is_primitive(p), p
        # the defects of larger trees fall in classes too large to build quickly
        if largest(p) <= 6:
            assert FREE.invertibility_index(p, 3) == TREE_PATH.invertibility_index(p, 3), p


def test_free_text_map_limits():
    """A negative shift below weight 0 and a coproduct over the leaf cap fail as on the tree path."""
    p = LinComb({"(2 (1 1))": 1, "(0 3)": 2})
    for ambient in (FREE, TREE_PATH):
        with pytest.raises(ValueError, match="weight shift by -1 would make leaf weight 0 negative"):
            ambient.alpha(p, -1)
        with pytest.raises(ValueError, match="weight shift by -2 would make leaf weight 1 negative"):
            ambient.alpha(LinComb.single("(2 (1 1))"), -2)
    assert same(FREE.alpha(LinComb({"(2 (1 1))": 1, "01": 3}), -1),
                TREE_PATH.alpha(LinComb({"(2 (1 1))": 1, "01": 3}), -1))
    comb = "0"
    for _ in range(16):
        comb = "(0 %s)" % comb
    for ambient in (FREE, TREE_PATH):
        with pytest.raises(ResourceLimit, match="17-leaf"):
            ambient.coproduct(LinComb({"01": 1, comb: 1}))


def test_integral_inputs_give_int_coefficients():
    """Every coefficient of the free maps and quotients, and of U(aff2) reduce, stays an int.

    A Fraction here would still give the right answers; it would only show
    as lost time, so the int path is pinned term by term.
    """
    rng = random.Random(20261022)

    def integral(p):
        return LinComb((key, rng.choice((-3, -2, -1, 1, 2, 5))) for key in p.terms)

    def ints(p):
        return all(c.__class__ is int for c in p.terms.values())

    def tree(n):
        return to_text(with_weights(rng.choice(enumerate_shapes(n)), [rng.randint(0, 3) for _ in range(n)]))

    # per leaf count 1–9, four polynomials whose largest tree has that many leaves
    inputs = [integral(LinComb.single(tree(n)) + random_poly(rng, None, max_leaves=n, max_weight=3,
                                                             terms=rng.randint(0, 2)))
              for n in range(1, 10) for _ in range(4)]
    for p, q in zip(inputs, inputs[1:] + inputs[:1]):
        delta = FREE.coproduct(p)
        maps = [FREE.graft(p, q), delta, FREE.antipode(p), FREE.convolve(FREE.antipode, identity_op)(p),
                FREE.reduce_tensor(delta), normal_form(p)]
        maps += [FREE.alpha(p, k) for k in (1, 2, 3)]
        assert all(ints(image) for image in maps), p
    aff2 = nonabelian2()
    space = build_level(aff2, 4).space
    for _ in range(40):
        p = integral(random_poly(rng, aff2.basis, max_leaves=4, max_weight=0, terms=3))
        assert ints(space.reduce(p)), p
