import copy
import pickle
import random
from dataclasses import field, make_dataclass
from typing import Optional

import pytest

from homtrees.trees import (
    UNIT,
    DecorationMismatch,
    Leaf,
    Node,
    ParseError,
    alpha_shift,
    depths,
    enumerate_class,
    enumerate_shapes,
    graft,
    is_unit,
    leaf_count,
    mirror,
    parse,
    s_signature,
    splits,
    to_text,
    weights_of,
    with_weights,
)


def random_tree(rng, max_leaves=3, max_weight=2):
    n = rng.randint(1, max_leaves)
    shape = rng.choice(enumerate_shapes(n))
    return with_weights(shape, [rng.randint(0, max_weight) for _ in range(n)])


def _check_weight(self):
    if self.weight < 0:
        raise ValueError("leaf weight must be non-negative, got %d" % self.weight)


# the frozen dataclasses Leaf and Node were, kept as the reference for
# the __slots__ classes that replaced them
RefLeaf = make_dataclass("Leaf", [("weight", int), ("name", Optional[str], field(default=None))],
                         frozen=True, namespace={"__post_init__": _check_weight})
RefNode = make_dataclass("Node", [("left", object), ("right", object)], frozen=True)


def as_reference(t):
    if isinstance(t, Leaf):
        return RefLeaf(t.weight, t.name)
    return RefNode(as_reference(t.left), as_reference(t.right))


def test_leaf_and_node_behave_as_the_frozen_dataclasses():
    rng = random.Random(17)
    names = [None, None, "x", "y"]
    pool = [with_weights(rng.choice(enumerate_shapes(n)), [rng.randint(0, 2) for _ in range(n)],
                         [rng.choice(names) for _ in range(n)])
            for n in [rng.randint(1, 4) for _ in range(300)]]
    pool += [parse(to_text(t)) for t in pool[:50]]  # equal values built apart
    refs = [as_reference(t) for t in pool]
    assert [repr(t) for t in pool] == [repr(r) for r in refs]
    assert [hash(t) for t in pool] == [hash(r) for r in refs]
    for i in range(0, len(pool), 7):
        for j in range(len(pool)):
            assert (pool[i] == pool[j]) == (refs[i] == refs[j])
            assert (pool[i] != pool[j]) == (refs[i] != refs[j])
    # same hashes, same insertion order: a set iterates in the same order
    assert [as_reference(t) for t in set(pool)] == list(set(refs))
    assert Leaf(0) != (0, None) and RefLeaf(0) != (0, None)
    assert Leaf(0) != UNIT and RefLeaf(0) != UNIT
    for t, r in [(Leaf(1, "x"), RefLeaf(1, "x")), (Node(Leaf(0), Leaf(1)), RefNode(RefLeaf(0), RefLeaf(1)))]:
        for obj in (t, r):
            field_name = "weight" if isinstance(obj, (Leaf, RefLeaf)) else "left"
            with pytest.raises(AttributeError):
                setattr(obj, field_name, Leaf(3))
            with pytest.raises(AttributeError):
                setattr(obj, "other", 1)
            with pytest.raises(AttributeError):
                delattr(obj, field_name)
    for make in (Leaf, RefLeaf):
        with pytest.raises(ValueError) as err:
            make(-1, "x")
        assert str(err.value) == "leaf weight must be non-negative, got -1"
    assert Leaf(2).name is None and Leaf(weight=2, name="x") == Leaf(2, "x")
    for t in pool[:20]:
        assert copy.deepcopy(t) == t == pickle.loads(pickle.dumps(t))


def test_catalan_counts():
    assert [len(enumerate_shapes(n)) for n in range(1, 9)] == [1, 1, 2, 5, 14, 42, 132, 429]


def test_graft_example_from_alpha_figure():
    left = parse("((0 2) 1)")
    right = parse("(0 (1 0))")
    assert to_text(graft(left, right)) == "(((0 2) 1) (0 (1 0)))"


def test_graft_unit_rules():
    t = parse("((0 2) 1)")
    assert to_text(graft(UNIT, t)) == "((1 3) 2)"
    assert to_text(graft(t, UNIT)) == "((1 3) 2)"
    assert graft(UNIT, UNIT) is UNIT


def test_graft_is_not_associative_or_commutative():
    a, b, c = Leaf(0), Leaf(1), Leaf(0)
    assert graft(graft(a, b), c) != graft(a, graft(b, c))
    assert graft(Leaf(0), Leaf(1)) != graft(Leaf(1), Leaf(0))


def test_graft_decoration_mismatch():
    with pytest.raises(DecorationMismatch):
        graft(Leaf(0, "x"), Leaf(0))
    # a mixed side is refused against a decorated, a plain or a mixed one,
    # wherever its plain leaf sits
    for left, right in [("(0:x 0)", "(0:y 0:z)"), ("(0:y 0:z)", "(0:x 0)"), ("(0:x (0:y 0))", "0:z"),
                        ("(0:x 0)", "(0 0:y)"), ("(0 0:y)", "(0:x 0)"), ("(0:x 0)", "0"),
                        ("(0 0)", "(0 0:y)")]:
        with pytest.raises(DecorationMismatch):
            graft(parse(left), parse(right))


def test_alpha_shift():
    assert to_text(alpha_shift(parse("((0 2) 1)"))) == "((1 3) 2)"
    assert alpha_shift(UNIT) is UNIT
    t = Leaf(0)
    for k in range(1, 4):
        t = alpha_shift(t)
        assert t == Leaf(k)
    assert alpha_shift(Leaf(2), -2) == Leaf(0)
    with pytest.raises(ValueError):
        alpha_shift(Leaf(0), -1)


def test_unit_is_not_the_weight_zero_leaf():
    assert UNIT != Leaf(0)
    assert not is_unit(Leaf(0))


def restrict(t, keep):
    """φ_I as the mask-th first half of splits(t), leaf i being bit i−1."""
    return splits(t)[sum(1 << (i - 1) for i in keep)][0]


def test_restrict_worked_example():
    # shape ((1 v 2) v 3) v (4 v (5 v 6)), weights (2,4,0,3,1,2)
    t = Node(Node(Node(Leaf(2), Leaf(4)), Leaf(0)), Node(Leaf(3), Node(Leaf(1), Leaf(2))))
    assert to_text(restrict(t, {3, 5, 6})) == "(1 (2 3))"
    assert restrict(t, set()) is UNIT
    assert restrict(t, {1, 2, 3, 4, 5, 6}) == t


def test_restrict_preserves_retained_s_values():
    rng = random.Random(20260818)
    for _ in range(60):
        n = rng.randint(1, 5)
        shape = rng.choice(enumerate_shapes(n))
        t = with_weights(shape, [rng.randint(0, 3) for _ in range(n)])
        full = s_signature(t)
        for mask in range(1, 2 ** n):
            keep = [i + 1 for i in range(n) if mask & (1 << i)]
            out = restrict(t, keep)
            assert s_signature(out) == tuple(full[i - 1] for i in keep)


def test_splits_pair_each_subset_with_its_complement():
    # s-values (2, 4, 2): each kept leaf keeps its value in both halves
    t = parse("((0 2) 1)")
    assert [(to_text(a), to_text(b)) for a, b in splits(t)] == [
        ("1", "((0 2) 1)"), ("2", "(3 1)"), ("4", "(1 1)"), ("(1 3)", "2"),
        ("2", "(1 3)"), ("(1 1)", "4"), ("(3 1)", "2"), ("((0 2) 1)", "1"),
    ]
    assert splits(UNIT) == [(UNIT, UNIT)]
    assert splits(Leaf(4)) == [(UNIT, Leaf(4)), (Leaf(4), UNIT)]


def test_s_signature_examples():
    assert s_signature(parse("((0 1) (1 0))")) == (2, 3, 3, 2)
    assert s_signature(parse("(01 ((0 0) 0))")) == (2, 3, 3, 2)
    assert s_signature(Leaf(7)) == (7,)


def test_s_signature_of_graft_and_alpha():
    rng = random.Random(7)
    for _ in range(40):
        a = random_tree(rng)
        b = random_tree(rng)
        expected = tuple(x + 1 for x in s_signature(a) + s_signature(b))
        assert s_signature(graft(a, b)) == expected
        assert s_signature(alpha_shift(a)) == tuple(x + 1 for x in s_signature(a))


def test_rewrite_sides_share_signature():
    # (phi v psi) v alpha(chi) and alpha(phi) v (psi v chi) are s-homogeneous
    rng = random.Random(99)
    for _ in range(80):
        phi, psi, chi = (random_tree(rng) for _ in range(3))
        lhs = graft(graft(phi, psi), alpha_shift(chi))
        rhs = graft(alpha_shift(phi), graft(psi, chi))
        assert s_signature(lhs) == s_signature(rhs)


def test_enumerate_class_two_leaves_zero_signature_is_empty():
    assert enumerate_class(2, (0, 0)) == []


def test_enumerate_class_single_leaf():
    assert enumerate_class(1, (3,)) == [Leaf(3)]


def test_enumerate_class_u_signature():
    trees = enumerate_class(4, (2, 3, 3, 2))
    texts = [to_text(t) for t in trees]
    assert texts == sorted(texts)
    assert "((0 1) (1 0))" in texts
    assert "(1 ((0 0) 0))" in texts
    # all five 4-leaf shapes admit weights for this signature except those
    # with a leaf deeper than its target value
    for t in trees:
        assert s_signature(t) == (2, 3, 3, 2)
        assert min(weights_of(t)) >= 0


def test_enumerate_class_validates_length():
    with pytest.raises(ValueError):
        enumerate_class(2, (1,))


def shape_filter_class(n, s):
    """Reference oracle: keep every n-leaf shape whose depths fit under s."""
    found = []
    for shape in enumerate_shapes(n):
        d = depths(shape)
        if all(si >= di for si, di in zip(s, d)):
            found.append(with_weights(shape, [si - di for si, di in zip(s, d)]))
    found.sort(key=to_text)
    return found


def test_enumerate_class_matches_the_shape_filter():
    rng = random.Random(20261018)
    nonempty = 0
    for _ in range(240):
        n = rng.randint(1, 6)
        s = tuple(rng.randint(0, n) for _ in range(n))
        expected = shape_filter_class(n, s)
        assert enumerate_class(n, s) == expected, s
        nonempty += bool(expected)
    # every signature of a real tree lies in its own class
    for _ in range(60):
        t = random_tree(rng, max_leaves=6, max_weight=3)
        n, s = leaf_count(t), s_signature(t)
        assert enumerate_class(n, s) == shape_filter_class(n, s)
        assert t in enumerate_class(n, s)
    assert nonempty > 40


def test_enumerate_class_of_a_long_comb_is_immediate():
    right, left = Leaf(0), Leaf(0)
    for _ in range(15):
        right = Node(Leaf(0), right)
    for _ in range(39):
        left = Node(left, Leaf(0))
    assert enumerate_class(16, s_signature(right)) == [right]
    # every proper left part of this class holds many trees, none completes
    assert enumerate_class(40, s_signature(left)) == [left]
    assert enumerate_class(3, (-1, 2, 2)) == []


def test_mirror():
    t = parse("((0 2) 1)")
    assert to_text(mirror(t)) == "(1 (2 0))"
    assert mirror(mirror(t)) == t
    assert mirror(UNIT) is UNIT


def test_codec_round_trips():
    for text in ["((0 2) 1)", "1", "01", "(0:E (0:H 0:F))", "(10 (0 7))", "0", "3:xy_2"]:
        assert to_text(parse(text)) == text


def test_codec_unit_versus_weight_one_leaf():
    assert parse("1") is UNIT
    assert parse("01") == Leaf(1)
    assert to_text(Leaf(1)) == "01"
    assert to_text(UNIT) == "1"
    # inside a node the numeral 1 is an ordinary leaf
    assert parse("((0 2) 1)") == Node(Node(Leaf(0), Leaf(2)), Leaf(1))


def test_codec_accepts_loose_spacing():
    assert parse("( (0  2)   1 )") == parse("((0 2) 1)")
    assert parse("  1  ") is UNIT


def test_parse_errors_carry_positions():
    with pytest.raises(ParseError) as err:
        parse("bogus(")
    assert err.value.position == 0
    with pytest.raises(ParseError) as err:
        parse("(0 1")
    assert err.value.position == 4
    with pytest.raises(ParseError) as err:
        parse("(0 1) trailing")
    assert err.value.position == 6
    with pytest.raises(ParseError):
        parse("(0:)")
    with pytest.raises(ParseError):
        parse("(01)")


def test_leaf_rejects_negative_weight():
    with pytest.raises(ValueError):
        Leaf(-1)


def test_depths_and_leaf_count():
    t = parse("(01 ((0 0) 0))")
    assert leaf_count(t) == 4
    assert depths(t) == (1, 3, 3, 2)
