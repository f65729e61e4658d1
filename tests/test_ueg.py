"""Enveloping-algebra oracle tests.

The expensive claims (PBW-style counts, classical-oracle agreement,
direct weighted-oracle agreement) were computed once ahead of time and
are asserted as frozen values here; everything else is either a pinned
small example or a seeded random property check.
"""

import math
import os
import random
from fractions import Fraction
from itertools import product

import pytest

from homtrees import ueg
from homtrees.homlie import (
    HomLieMorphism,
    load_algebra,
    make_algebra,
    nilpotent_kernel,
    twist,
)
from homtrees.linalg import LinComb, RowSpace, TruncSeries, series_multiply
from homtrees.trees import (
    Leaf,
    Node,
    ParseError,
    alpha_shift,
    decorations_of,
    enumerate_shapes,
    leaf_count,
    parse,
    to_text,
    weights_of,
    with_weights,
)
from homtrees.ueg import (
    DEFAULT_BASIS_CAP,
    MorphismInvalid,
    ResourceLimit,
    UEAmbient,
    absorb_weights,
    build_level,
    coproduct_U,
    decorate_expand,
    equal_mod_U,
    equal_mod_U_auto,
    is_primitive_U,
    is_zero_mod_U,
    max_leaves,
    parse_u_poly,
    relation_rows_for,
    u_power_product,
    ue_map,
    unit_upoly,
)


def aff2(alpha=((1, 0), (0, 1))):
    """[x,y] = y; alpha defaults to the identity."""
    return make_algebra("aff2", ("x", "y"), {(0, 1): (0, 1)}, alpha)


def abelian(dim, alpha=None):
    names = tuple("abcde"[:dim])
    if alpha is None:
        alpha = tuple(tuple(1 if i == j else 0 for j in range(dim)) for i in range(dim))
    return make_algebra("ab%d" % dim, names, {}, alpha)


def sl2_twisted():
    base = make_algebra(
        "sl2",
        ("E", "H", "F"),
        {(0, 1): (-2, 0, 0), (0, 2): (0, 1, 0), (1, 2): (0, 0, -2)},
        ((1, 0, 0), (0, 1, 0), (0, 0, 1)),
    )
    return twist(base, ((2, 0, 0), (0, 1, 0), (0, 0, Fraction(1, 2))))


def sl2_chevalley():
    """sl2 twisted by the Chevalley involution E ↦ −F, F ↦ −E, H ↦ −H: α monomial, not diagonal."""
    base = make_algebra(
        "sl2",
        ("E", "H", "F"),
        {(0, 1): (-2, 0, 0), (0, 2): (0, 1, 0), (1, 2): (0, 0, -2)},
        ((1, 0, 0), (0, 1, 0), (0, 0, 1)),
    )
    return twist(base, ((0, 0, -1), (0, -1, 0), (-1, 0, 0)), name="sl2-chevalley")


def leaf(g, name):
    return LinComb.single("0:" + name)


def absorb_poly(g, p):
    """A polynomial in weighted decorated trees, weights absorbed term by term."""
    settle = ueg.alpha_table(g).settle
    return LinComb(pair for key, coeff in p.items() for pair in settle(parse(key), coeff))


# ----------------------------------------------------------------- absorption


def test_absorb_weight_examples():
    g = aff2()
    assert absorb_weights(g, Leaf(2, "x")) == LinComb.single("0:x")

    scaled = aff2(((2, 0), (0, 1)))
    assert absorb_weights(scaled, Leaf(1, "x")) == 2 * LinComb.single("0:x")
    assert absorb_weights(scaled, Leaf(3, "x")) == 8 * LinComb.single("0:x")

    t = Node(Leaf(0, "x"), Leaf(0, "y"))
    assert absorb_weights(scaled, t) == LinComb.single("(0:x 0:y)")


def test_absorb_requires_decorations():
    g = aff2()
    with pytest.raises(ValueError):
        absorb_weights(g, Leaf(1))


def test_absorb_mixing_alpha():
    # alpha sends x to x+y, so a weighted x-leaf spreads over the basis
    g = abelian(2, alpha=((1, 1), (0, 1)))
    got = absorb_weights(g, Leaf(1, "a"))
    assert got == LinComb({"0:a": 1, "0:b": 1})
    got2 = absorb_weights(g, Node(Leaf(1, "a"), Leaf(0, "b")))
    assert got2 == LinComb({"(0:a 0:b)": 1, "(0:b 0:b)": 1})


def test_decorate_expand_multilinear():
    g = aff2()
    got = decorate_expand(g, Leaf(0), [(Fraction(1), Fraction(2))])
    assert got == LinComb({"0:x": 1, "0:y": 2})
    shape = Node(Leaf(0), Leaf(0))
    got = decorate_expand(g, shape, [(1, 1), (0, 3)])
    assert got == LinComb({"(0:x 0:y)": 3, "(0:y 0:y)": 3})
    with pytest.raises(ValueError):
        decorate_expand(g, shape, [(1, 0)])


def test_absorb_poly_linear():
    scaled = aff2(((2, 0), (0, 1)))
    p = LinComb({"1:x": 3, "0:y": -1})
    assert absorb_poly(scaled, p) == LinComb({"0:x": 6, "0:y": -1})


# --------------------------------------------------------------------- parser


def test_parse_u_poly_examples():
    g = aff2()
    scaled = aff2(((2, 0), (0, 1)))
    assert parse_u_poly(g, "0:x") == LinComb.single("0:x")
    assert parse_u_poly(g, "(0:x 0:y)") == LinComb.single("(0:x 0:y)")
    assert parse_u_poly(g, "1") == unit_upoly()
    assert parse_u_poly(g, "2*1 - 1/2*0:y") == LinComb({"1": 2, "0:y": Fraction(-1, 2)})
    # weights absorb at parse time
    assert parse_u_poly(scaled, "1:x") == 2 * LinComb.single("0:x")
    # linear-combination decorations expand at parse time
    assert parse_u_poly(scaled, "0:(x + 2*y)") == LinComb({"0:x": 1, "0:y": 2})
    assert parse_u_poly(scaled, "(1:(x+y) 0:y)") == LinComb({"(0:x 0:y)": 2, "(0:y 0:y)": 1})


def test_parse_u_poly_errors():
    g = aff2()
    with pytest.raises(ParseError):
        parse_u_poly(g, "")
    with pytest.raises(ParseError):
        parse_u_poly(g, "(1 0:x)")
    with pytest.raises(ParseError):
        parse_u_poly(g, "0:z")
    with pytest.raises(ParseError):
        parse_u_poly(g, "0x")
    with pytest.raises(ParseError):
        parse_u_poly(g, "0:(x + bogus)")
    with pytest.raises(ParseError):
        parse_u_poly(g, "0:x 0:y")


def test_parse_u_poly_roundtrip():
    from homtrees.freehom import format_poly

    g = aff2()
    p = LinComb({"(0:x (0:y 0:x))": Fraction(3, 2), "0:y": -1, "1": 4})
    assert parse_u_poly(g, format_poly(p)) == p


# ------------------------------------------------------------- level contexts


def test_level_dim1_frozen_counts():
    g = make_algebra("line", ("x",), {}, ((1,),))
    ctx = build_level(g, 3)
    assert len(ctx.basis) == 4
    assert ctx.space.rank == 1
    # 1, x, x∨x, and a single 3-fold product survive
    assert 1 + len(ctx.basis) - ctx.space.rank == 4


def test_level_abelian_symmetric_square():
    for dim in (2, 3):
        ctx = build_level(abelian(dim), 2)
        assert ctx.space.rank == dim * (dim - 1) // 2


def test_level_one_has_no_relations():
    assert build_level(aff2(), 1).space.rank == 0


def test_level_sl2_pbw_count():
    """With invertible alpha the level-4 quotient has the classical PBW size."""
    ctx = build_level(sl2_twisted(), 4)
    assert len(ctx.basis) == 471
    survivors = len(ctx.basis) - ctx.space.rank
    assert survivors == 3 + 6 + 10 + 15  # monomials of degree 1..4 in 3 variables


def test_resource_limit():
    with pytest.raises(ResourceLimit, match="needs 34491 basis trees"):
        build_level(sl2_twisted(), 6)  # needs 34491 > DEFAULT_BASIS_CAP
    # the size counts shapes by the Catalan numbers, the number enumerate_shapes builds
    assert [math.comb(2 * n - 2, n - 1) // n for n in range(1, 11)] == [len(enumerate_shapes(n))
                                                                         for n in range(1, 11)]
    with pytest.raises(ResourceLimit, match="level 60 over a 3-dimensional algebra"):
        build_level(sl2_twisted(), 60)


def test_leaf_counts_read_from_the_key_text():
    """max_leaves and the ambient's level count spaces in each key, as leaf_count of the parsed key would."""
    g = sl2_twisted()
    ambient = UEAmbient(g)
    rng = random.Random(20261031)
    for _ in range(60):
        keys = [random_decorated(g, rng, rng.randint(1, 9)) for _ in range(rng.randint(0, 3))]
        if rng.random() < 0.3:
            keys.append("1")
        p = LinComb((key, 1) for key in keys)
        counts = [0] + [leaf_count(parse(key)) for key in p.terms if key != "1"]
        assert max_leaves(p) == max(counts), keys
        assert ambient._level_of(p.terms) == max(1, max(counts)) + ueg.DEFAULT_SLACK, keys
    assert max_leaves(LinComb.single("1")) == 0 and ambient._level_of(["1"]) == 1 + ueg.DEFAULT_SLACK


def test_level_contexts_memoized():
    a = build_level(aff2(), 2)
    b = build_level(aff2(), 2)
    assert a is b


# ------------------------------------------------------------------- equality


def test_commutator_equals_bracket():
    g = aff2()
    x, y = leaf(g, "x"), leaf(g, "y")
    lhs = UEAmbient(g).graft(x, y) - UEAmbient(g).graft(y, x)
    verdict = equal_mod_U(g, lhs, leaf(g, "y"), 2)
    assert verdict.equal
    assert verdict.level == 2
    assert verdict.certificate is not None


def test_certificate_replays_against_relation_rows():
    g = aff2()
    x, y = leaf(g, "x"), leaf(g, "y")
    diff = UEAmbient(g).graft(x, y) - UEAmbient(g).graft(y, x) - leaf(g, "y")
    verdict = equal_mod_U(g, diff, LinComb.zero(), 2)
    ctx = build_level(g, 2)
    rebuilt = LinComb.zero()
    for idx, coeff in verdict.certificate.items():
        kind, text, path = ctx.row_sources[idx]
        for row, source in relation_rows_for(g, parse(text)):
            if source == (kind, text, path):
                rebuilt = rebuilt + coeff * row
    assert rebuilt == diff


# The relation rows as they were generated before the α-power table:
# every term built as a tree, absorbed leaf by leaf and rendered.


def _reference_expand(g, t, vectors, coeff):
    ws = weights_of(t)
    supports = [[(i, c) for i, c in enumerate(g.apply_alpha(tuple(v), w)) if c]
                for v, w in zip(vectors, ws)]
    zeros = [0] * len(ws)
    out = []
    for combo in product(*supports):
        c = coeff
        for _, ci in combo:
            c = c * ci
        out.append((to_text(with_weights(t, zeros, [g.basis[i] for i, _ in combo])), c))
    return out


def _reference_absorbed(g, t, coeff):
    return _reference_expand(g, t, [g.basis_vector(g.index_of(n)) for n in decorations_of(t)], coeff)


def _reference_rows(g, t):
    text = to_text(t)
    out = []
    for path, node in _walk_nodes(t):
        if isinstance(node.left, Node):
            a, b, c = node.left.left, node.left.right, node.right
            row = LinComb(_reference_absorbed(g, _replace_at(t, path, Node(node.left, alpha_shift(c))), 1)
                          + _reference_absorbed(g, _replace_at(t, path, Node(alpha_shift(a), Node(b, c))), -1))
            if row:
                out.append((row, ("R1", text, path)))
        if isinstance(node.left, Leaf) and isinstance(node.right, Leaf):
            xi, yi = g.index_of(node.left.name), g.index_of(node.right.name)
            if xi >= yi:
                continue
            pairs = [(text, 1), (to_text(_replace_at(t, path, Node(node.right, node.left))), -1)]
            for k, coeff in enumerate(g.brackets[xi][yi]):
                if coeff:
                    pairs.append((to_text(_replace_at(t, path, Leaf(0, g.basis[k]))), -coeff))
            out.append((LinComb(pairs), ("R2", text, path)))
    return out


def _ordered(rows):
    return [(list(row.terms.items()), source) for row, source in rows]


SL2_JSON = os.path.join(os.path.dirname(__file__), "data", "sl2_twisted.json")


def test_relation_rows_and_levels_match_the_tree_by_tree_reference():
    algebras = [
        (aff2(), 4),
        (aff2(((1, 0), (0, Fraction(2, 3)))), 4),
        (aff2(((0, 0), (0, 0))), 4),
        (aff2(((1, 1), (0, 1))), 4),
        (abelian(2, alpha=((1, 1), (0, 1))), 4),
        (load_algebra(SL2_JSON), 3),
        (sl2_chevalley(), 3),
        (abelian(2, alpha=((0, 1), (0, 0))), 4),  # monomial, not diagonal, α(b) = 0
    ]
    rng = random.Random(2718)
    for g, top in algebras:
        trees = []
        for n in range(1, top + 1):
            for shape in enumerate_shapes(n):
                for names in product(g.basis, repeat=n):
                    trees.append(with_weights(shape, [0] * n, names))
        for t in trees:
            assert _ordered(relation_rows_for(g, t)) == _ordered(_reference_rows(g, t))
        # weighted trees take the same path
        for _ in range(20):
            n = rng.randint(2, top)
            t = with_weights(rng.choice(enumerate_shapes(n)), [rng.randint(0, 2) for _ in range(n)],
                             [rng.choice(g.basis) for _ in range(n)])
            assert _ordered(relation_rows_for(g, t)) == _ordered(_reference_rows(g, t))
        # a level walk's rows are the reference rows
        level_rows = list(ueg._level_trees(ueg.alpha_table(g), top))
        assert [text for text, _ in level_rows] == [to_text(t) for t in trees]
        for (text, tree_rows), t in zip(level_rows, trees):
            assert _ordered(tree_rows) == _ordered(_reference_rows(g, t))
        for level in range(1, top + 1):
            ctx = build_level(g, level)
            basis = [to_text(t) for t in trees if len(weights_of(t)) <= level]
            rows = [pair for t in trees if len(weights_of(t)) <= level for pair in _reference_rows(g, t)]
            reference = RowSpace((row for row, _ in rows), track=False)
            assert list(ctx.basis) == basis
            assert list(ctx.row_sources) == [source for _, source in rows]
            assert ctx.space.rank == reference.rank
            # the residual of every basis key pins the reduced echelon form
            for key in basis:
                assert ctx.space.reduce(LinComb.single(key)) == reference.reduce(LinComb.single(key))


def test_certificates_are_built_on_demand(monkeypatch):
    builds = []

    class CountingRowSpace(RowSpace):
        def __init__(self, rows=(), track=True):
            builds.append(track)
            super().__init__(rows, track)

    monkeypatch.setattr(ueg, "RowSpace", CountingRowSpace)
    # fresh names, so that no level context is already cached
    algebras = [make_algebra("aff2-on-demand", ("x", "y"), {(0, 1): (0, 1)}, ((1, 0), (0, 2))),
                load_algebra(SL2_JSON)._replace(name="sl2-on-demand")]
    rng = random.Random(314)
    for g in algebras:
        for level in (2, 3, 4):
            del builds[:]
            ctx = build_level(g, level)
            # the level space eliminates its rows that are not binomials once, without history
            assert builds == [False]
            rows = [pair for text in ctx.basis for pair in relation_rows_for(g, parse(text))]
            assert [source for _, source in rows] == list(ctx.row_sources)
            reference = RowSpace(row for row, _ in rows)
            trees = [text for text in ctx.basis if relation_rows_for(g, parse(text))]
            for reads in range(4):
                text = rng.choice(trees)
                row, _ = rng.choice(relation_rows_for(g, parse(text)))
                lhs = LinComb.single(text)
                rhs = lhs - rng.choice((1, -2, Fraction(1, 3))) * row
                verdict = equal_mod_U(g, lhs, rhs, level)
                assert verdict.equal
                assert builds == [False] + [True] * min(reads, 1)  # a verdict alone builds nothing
                certificate = verdict.certificate
                assert builds == [False, True]  # one tracked space per context, on its first read
                assert certificate == reference.membership(lhs - rhs).certificate
                rebuilt = LinComb.zero()
                for idx, coeff in certificate.items():
                    rebuilt = rebuilt + coeff * rows[idx][0]
                assert rebuilt == lhs - rhs
                assert verdict.certificate is certificate
                assert builds == [False, True]
            # every basis tree is nonzero in U(g)
            lonely = equal_mod_U(g, LinComb.single(rng.choice(ctx.basis)), LinComb.zero(), level)
            assert not lonely.equal
            assert lonely.certificate is None
            assert lonely.residual
            assert builds == [False, True]


# RowSpace over the same rows is the reference engine for every level space


def _assert_same_span(space, reference, keys, rng):
    assert space.rank == reference.rank
    for key in keys:
        v = LinComb.single(key)
        assert space.reduce(v) == reference.reduce(v)
    for _ in range(20):
        v = LinComb((rng.choice(keys), rng.choice((1, -2, Fraction(1, 3)))) for _ in range(rng.randint(1, 4)))
        for w in (v, v - reference.reduce(v)):
            got, want = space.membership(w), reference.membership(w)
            assert (got.inside, got.certificate, got.residual) == (want.inside, None, want.residual)


def _level_rows(g, level):
    """The basis and the relation rows of a level walk."""
    basis, rows = [], []
    for text, tree_rows in ueg._level_trees(ueg.alpha_table(g), level):
        basis.append(text)
        rows.extend(row for row, _ in tree_rows)
    return basis, rows


def _long_keys(g, n, rng, count=3):
    """Random zero-weight keys of n leaves, above the level under test."""
    return [to_text(with_weights(rng.choice(enumerate_shapes(n)), [0] * n, [rng.choice(g.basis) for _ in range(n)]))
            for _ in range(count)]


@pytest.mark.parametrize("g, level, engine", [
    (aff2(), 5, ueg.WordSpace),
    (aff2(((1, 0), (0, -1))), 5, ueg.WordSpace),
    (aff2(((1, 0), (0, Fraction(2, 3)))), 5, ueg.WordSpace),
    (aff2(((1, 0), (0, 3))), 5, ueg.WordSpace),
    (aff2(((0, 0), (0, 0))), 5, RowSpace),
    (aff2(((1, 0), (0, 0))), 5, RowSpace),
    (aff2(((1, 1), (0, 1))), 4, RowSpace),
    (load_algebra(SL2_JSON), 4, ueg.WordSpace),
    (sl2_chevalley(), 4, RowSpace),
    (abelian(2, alpha=((0, 1), (0, 0))), 5, RowSpace),
], ids=["aff2-id", "aff2-minus1", "aff2-2/3", "aff2-3", "aff2-alpha0", "aff2-kills-y", "aff2-mixing",
        "sl2-twisted", "sl2-chevalley", "ab2-shift"])
def test_level_space_matches_row_space_on_level_rows(g, level, engine):
    # a level build takes the word space exactly when α is diagonal with no zero entry, and
    # eliminates all of the level's rows without history otherwise
    invertible_diagonal = all(bool(g.alpha[i][j]) == (i == j) for i in range(g.dim) for j in range(g.dim))
    assert engine is (ueg.WordSpace if invertible_diagonal else RowSpace)
    space = build_level(g, level).space
    assert type(space) is engine
    basis, rows = _level_rows(g, level)
    reference = RowSpace(rows, track=False)
    rng = random.Random(level)
    _assert_same_span(space, reference, basis + ["1"] + _long_keys(g, level + 2, rng), rng)


@pytest.mark.parametrize("g, level", [
    (aff2(), 5),
    (aff2(((1, 0), (0, -1))), 5),
    (aff2(((1, 0), (0, Fraction(2, 3)))), 5),
    (aff2(((1, 0), (0, 3))), 5),
    (make_algebra("aff2-mu", ("x", "y"), {(0, 1): (0, Fraction(1, 2))}, ((1, 0), (0, -2))), 4),
    (load_algebra(SL2_JSON), 4),
    (make_algebra("nm", ("x", "y"), {(0, 1): (0, 1)}, ((2, 0), (0, 3))), 5),  # not multiplicative
], ids=["aff2-id", "aff2-minus1", "aff2-2/3", "aff2-3", "aff2-mu", "sl2-twisted", "nm"])
def test_word_space_matches_row_space_over_all_level_rows(g, level):
    # the reference eliminates every R1 and R2 row of the level; 𝟙 and longer keys stay in both
    space = build_level(g, level).space
    assert isinstance(space, ueg.WordSpace)
    basis, rows = _level_rows(g, level)
    reference = RowSpace(rows, track=False)
    rng = random.Random(level)
    _assert_same_span(space, reference, basis + ["1"] + _long_keys(g, level + 2, rng), rng)


def test_cherry_depths_are_those_of_the_shapes():
    def cherries(t, depth=0, start=0):
        if isinstance(t, Leaf):
            return set()
        found = {(start, depth)} if isinstance(t.left, Leaf) and isinstance(t.right, Leaf) else set()
        return (found | cherries(t.left, depth + 1, start)
                | cherries(t.right, depth + 1, start + len(weights_of(t.left))))

    for n in range(2, 9):
        found = set().union(*(cherries(shape) for shape in enumerate_shapes(n)))
        assert found == {(i, p) for i in range(n - 1) for p in ueg._cherry_depths(n, i)}


def test_the_level_cache_keeps_the_most_recently_used_contexts():
    ueg._level_cache.clear()
    algebras = [make_algebra("fresh-%d" % i, ("x", "y"), {(0, 1): (0, 1)}, ((1, 0), (0, i + 2)))
                for i in range(100)]
    for g in algebras:
        for level in (1, 2):
            build_level(g, level)
    assert len(ueg._level_cache) == ueg.LEVEL_CACHE_SIZE < 200
    kept = build_level(algebras[50], 1)  # a hit makes it the most recent
    build_level(algebras[0], 1)  # evicted before, built again
    assert len(ueg._level_cache) == ueg.LEVEL_CACHE_SIZE
    assert build_level(algebras[50], 1) is kept
    oldest = (200 - ueg.LEVEL_CACHE_SIZE) // 2  # the first algebra whose contexts stayed
    assert (algebras[oldest], 1) not in ueg._level_cache  # made room for the rebuild
    assert (algebras[oldest], 2) in ueg._level_cache
    ueg._level_cache.clear()


def test_equality_needs_matching_level():
    g = aff2()
    big = LinComb.single("((0:x 0:x) 0:x)")
    with pytest.raises(ValueError):
        equal_mod_U(g, big, LinComb.zero(), 2)


def test_alpha_zero_square_does_not_vanish():
    """With alpha = 0 the square of a generator stays visibly non-zero."""
    g = aff2(((0, 0), (0, 0)))
    sq = UEAmbient(g).graft(leaf(g, "x"), leaf(g, "x"))
    for level in (2, 3, 4):
        verdict = equal_mod_U(g, sq, LinComb.zero(), level)
        assert not verdict.equal
        assert verdict.level == level
        assert verdict.residual
    auto = equal_mod_U_auto(g, sq, LinComb.zero(), escalation_cap=4)
    assert not auto.equal
    assert auto.level == 4


def test_escalation_stops_early_on_success():
    g = aff2()
    x, y = leaf(g, "x"), leaf(g, "y")
    lhs = UEAmbient(g).graft(x, y) - UEAmbient(g).graft(y, x)
    verdict = equal_mod_U_auto(g, lhs, leaf(g, "y"))
    assert verdict.equal
    assert verdict.level == 3  # max leaf count 2 plus slack 1, no escalation


def test_classical_oracle_agreement():
    """For alpha = id, level equality matches the classical enveloping algebra."""
    from homtrees.suites import classical_word_nf, embed_word

    g = aff2()
    words = [(i,) for i in range(2)]
    words += [(i, j) for i in range(2) for j in range(2)]
    words += [(i, j, k) for i in range(2) for j in range(2) for k in range(2)]
    cache = {}
    for a in range(len(words)):
        for b in range(a + 1, len(words)):
            classically = classical_word_nf(g, words[a], cache) == classical_word_nf(
                g, words[b], cache
            )
            verdict = equal_mod_U_auto(g, embed_word(g, words[a]), embed_word(g, words[b]))
            assert verdict.equal == classically, (words[a], words[b])


# ----------------------------------------------------------- structure maps


def test_coproduct_examples():
    g = aff2()
    scaled = aff2(((2, 0), (0, 1)))
    assert coproduct_U(g, leaf(g, "x")) == LinComb({("0:x", "1"): 1, ("1", "0:x"): 1})
    assert coproduct_U(g, unit_upoly()) == LinComb({("1", "1"): 1})
    # restriction shifts the surviving leaf once through alpha
    t = LinComb.single("(0:x 0:y)")
    assert coproduct_U(scaled, t) == LinComb(
        {
            ("(0:x 0:y)", "1"): 1,
            ("1", "(0:x 0:y)"): 1,
            ("0:x", "0:y"): 2,
            ("0:y", "0:x"): 2,
        }
    )


def test_counit_and_antipode_examples():
    g = aff2()
    assert UEAmbient(g).counit(unit_upoly()) == 1
    assert UEAmbient(g).counit(leaf(g, "x")) == 0
    assert UEAmbient(g).counit(LinComb({"1": 3, "0:y": 7})) == 3
    assert UEAmbient(g).antipode(leaf(g, "x")) == -leaf(g, "x")
    assert UEAmbient(g).antipode(LinComb.single("(0:x 0:y)")) == LinComb.single("(0:y 0:x)")
    assert UEAmbient(g).antipode(unit_upoly()) == unit_upoly()


def test_antipode_involutive_on_small_trees():
    g = aff2()
    rng = random.Random(20260818)
    for _ in range(20):
        p = random_upoly(g, rng, max_leaves_per_term=3)
        assert UEAmbient(g).antipode(UEAmbient(g).antipode(p)) == p


def random_decorated(g, rng, n):
    from homtrees.trees import enumerate_shapes

    shape = rng.choice(enumerate_shapes(n))
    names = [rng.choice(g.basis) for _ in range(n)]
    return to_text(with_weights(shape, [0] * n, names))


def random_upoly(g, rng, max_leaves_per_term=3, terms=2):
    out = LinComb.zero()
    for _ in range(terms):
        n = rng.randint(1, max_leaves_per_term)
        out = out + LinComb({random_decorated(g, rng, n): rng.randint(-3, 3)})
    return out


def test_bialgebra_axioms_on_random_elements():
    g = aff2(((2, 0), (0, 1)))
    rng = random.Random(7)
    for _ in range(12):
        a = random_upoly(g, rng)
        b = random_upoly(g, rng)
        # multiplicativity of the coproduct holds on the nose
        lhs = coproduct_U(g, UEAmbient(g).graft(a, b))
        rhs = LinComb.zero()
        for (l1, r1), c1 in coproduct_U(g, a).items():
            for (l2, r2), c2 in coproduct_U(g, b).items():
                piece = UEAmbient(g).graft(LinComb.single(l1), LinComb.single(l2))
                piece2 = UEAmbient(g).graft(LinComb.single(r1), LinComb.single(r2))
                for kl, cl in piece.items():
                    for kr, cr in piece2.items():
                        rhs = rhs + LinComb({(kl, kr): c1 * c2 * cl * cr})
        assert lhs == rhs
        # counit rules
        assert UEAmbient(g).counit(UEAmbient(g).graft(a, b)) == UEAmbient(g).counit(a) * UEAmbient(g).counit(b)
        assert UEAmbient(g).counit(UEAmbient(g).alpha(a)) == UEAmbient(g).counit(a)
    assert coproduct_U(g, unit_upoly()) == LinComb({("1", "1"): 1})
    assert UEAmbient(g).counit(unit_upoly()) == 1


def test_hom_counit_law_exact():
    """Grafting the counit leg back in acts exactly as alpha."""
    g = aff2(((2, 0), (0, 1)))
    rng = random.Random(11)
    for _ in range(10):
        p = random_upoly(g, rng)
        left = LinComb.zero()
        right = LinComb.zero()
        for (lk, rk), coeff in coproduct_U(g, p).items():
            left = left + coeff * UEAmbient(g).counit(LinComb.single(rk)) * UEAmbient(g).graft(LinComb.single(lk), unit_upoly())
            right = right + coeff * UEAmbient(g).counit(LinComb.single(lk)) * UEAmbient(g).graft(unit_upoly(), LinComb.single(rk))
        expected = UEAmbient(g).alpha(p)
        assert left == expected
        assert right == expected


def test_coproduct_coassociative_and_cocommutative():
    g = aff2(((2, 0), (0, 1)))
    rng = random.Random(13)
    for _ in range(8):
        p = random_upoly(g, rng, max_leaves_per_term=3, terms=1)
        cop = coproduct_U(g, p)
        flipped = LinComb({(r, l): c for (l, r), c in cop.items()})
        assert cop == flipped
        left = LinComb.zero()
        for (l, r), c in cop.items():
            for (l2, r2), c2 in coproduct_U(g, LinComb.single(l)).items():
                left = left + LinComb({(l2, r2, r): c * c2})
        right = LinComb.zero()
        for (l, r), c in cop.items():
            for (l2, r2), c2 in coproduct_U(g, LinComb.single(r)).items():
                right = right + LinComb({(l, l2, r2): c * c2})
        assert left == right


# ------------------------------------------------------- convolution and index


def identity_op(p):
    return p


def test_convolution_counit_examples():
    g = aff2(((2, 0), (0, 1)))
    amb = UEAmbient(g)
    rng = random.Random(17)
    for _ in range(8):
        p = random_upoly(g, rng)
        assert amb.convolve(amb.eta_eps, amb.eta_eps)(p) == amb.eta_eps(p)
        # f ⋆ ηε = α∘f for f = id, exactly
        assert amb.convolve(identity_op, amb.eta_eps)(p) == amb.alpha(p)
    assert amb.convolve(amb.antipode, identity_op)(leaf(g, "x")) == LinComb.zero()


def test_convolution_hom_associative_mod_U():
    g = aff2()
    rng = random.Random(19)
    amb = UEAmbient(g)
    ops = [identity_op, amb.antipode, amb.eta_eps, lambda p: amb.alpha(p)]
    for _ in range(6):
        p = LinComb.single(random_decorated(g, rng, rng.randint(1, 3)))
        f, h, k = rng.choice(ops), rng.choice(ops), rng.choice(ops)
        lhs = amb.convolve(lambda q: amb.convolve(f, h)(q), lambda q: amb.alpha(k(q)))(p)
        rhs = amb.convolve(lambda q: amb.alpha(f(q)), lambda q: amb.convolve(h, k)(q))(p)
        verdict = equal_mod_U_auto(g, lhs, rhs)
        assert verdict.equal, (to_text(parse(next(iter(p.terms)))), verdict.residual)


def test_index_examples():
    g = aff2()
    unit_result = UEAmbient(g).invertibility_index(unit_upoly())
    assert unit_result.found and unit_result.index == 0
    assert UEAmbient(g).invertibility_index(leaf(g, "x")).index == 0
    fern2 = parse_u_poly(g, "(0:x 0:y)")
    fern3 = parse_u_poly(g, "(0:y (0:x 0:x))")
    assert UEAmbient(g).invertibility_index(fern2).index == 0
    assert UEAmbient(g).invertibility_index(fern3).index == 0


def test_index_of_exponential_series():
    tw = sl2_twisted()
    x = tw.basis_vector(0)
    for p in (1, 2, 3):
        series = TruncSeries(
            [Fraction(1, math.factorial(i)) * u_power_product(tw, x, i, p) for i in range(p + 1)]
        )
        result = UEAmbient(tw).invertibility_index(series, max_k=4)
        assert result.found and result.index == 0, p


def test_index_product_bound():
    """Indices add plus one across a product, per the stability argument."""
    g = aff2()
    a = leaf(g, "x")
    b = parse_u_poly(g, "(0:x 0:y)")
    ia = UEAmbient(g).invertibility_index(a).index
    ib = UEAmbient(g).invertibility_index(b).index
    prod = UEAmbient(g).graft(a, b)
    result = UEAmbient(g).invertibility_index(prod)
    assert result.found
    assert result.index <= ia + ib + 1


# ------------------------------------------------------------------ primitives


def test_primitive_examples():
    g = aff2()
    assert is_primitive_U(g, leaf(g, "x"))
    assert is_primitive_U(g, unit_upoly()) is False
    sq = UEAmbient(g).graft(leaf(g, "x"), leaf(g, "x"))
    assert is_primitive_U(g, sq) is False


def hom_associator(amb, a, b, c):
    """(a∨b)∨α(c) − α(a)∨(b∨c)."""
    return amb.graft(amb.graft(a, b), amb.alpha(c)) - amb.graft(amb.alpha(a), amb.graft(b, c))


def test_commutator_and_associator_of_primitives_are_primitive():
    g = aff2(((2, 0), (0, 1)))
    amb = UEAmbient(g)
    x, y = leaf(g, "x"), leaf(g, "y")
    comm = amb.graft(x, y) - amb.graft(y, x)
    assert is_primitive_U(g, comm)
    assoc = hom_associator(amb, x, y, x)
    assert is_primitive_U(g, assoc)
    # and the commutator is provably the bracket leaf
    assert equal_mod_U_auto(g, comm, leaf(g, "y")).equal


def test_hom_associator_vanishes_mod_U():
    g = aff2(((2, 0), (0, 1)))
    x, y = leaf(g, "x"), leaf(g, "y")
    assoc = hom_associator(UEAmbient(g), x, y, x)
    assert equal_mod_U_auto(g, assoc, LinComb.zero()).equal


# --------------------------------------------------------------- functoriality


def test_ue_map_identity_and_zero():
    g = aff2()
    ident = ue_map(HomLieMorphism(g, g, ((1, 0), (0, 1))))
    zero = ue_map(HomLieMorphism(g, g, ((0, 0), (0, 0))))
    rng = random.Random(23)
    for _ in range(6):
        p = random_upoly(g, rng)
        assert ident(p) == p
        expected = UEAmbient(g).counit(p) * unit_upoly()
        assert zero(p) == expected


def test_ue_map_rejects_non_morphisms():
    g = aff2()
    with pytest.raises(MorphismInvalid):
        ue_map(HomLieMorphism(g, g, ((0, 1), (1, 0))))  # swaps x,y: not bracket-compatible


def quotient_fixture():
    """dim-3 algebra with nilpotent alpha-kernel z and 2-dim quotient."""
    g = make_algebra(
        "book3",
        ("x", "y", "z"),
        {(0, 1): (0, 1, 0), (0, 2): (0, 0, 1)},
        ((1, 0, 0), (0, 1, 0), (0, 0, 0)),
    )
    kernel, quotient, projection = nilpotent_kernel(g)
    return g, kernel, quotient, projection


def test_ue_map_commutes_with_structure_maps():
    g, _, quotient, projection = quotient_fixture()
    mapped = ue_map(projection)
    rng = random.Random(29)
    for _ in range(8):
        a = random_upoly(g, rng, max_leaves_per_term=2, terms=2)
        b = random_upoly(g, rng, max_leaves_per_term=2, terms=1)
        assert mapped(UEAmbient(g).graft(a, b)) == UEAmbient(quotient).graft(mapped(a), mapped(b))
        assert mapped(UEAmbient(g).antipode(a)) == UEAmbient(g).antipode(mapped(a))
        assert mapped(UEAmbient(g).alpha(a)) == UEAmbient(quotient).alpha(mapped(a))
        lhs = LinComb.zero()
        for (l, r), c in coproduct_U(g, a).items():
            for kl, cl in mapped(LinComb.single(l)).items():
                for kr, cr in mapped(LinComb.single(r)).items():
                    lhs = lhs + LinComb({(kl, kr): c * cl * cr})
        assert lhs == coproduct_U(quotient, mapped(a))


def test_ue_map_well_defined_on_relations():
    """Images of source relation rows vanish in the target quotient."""
    g, _, quotient, projection = quotient_fixture()
    mapped = ue_map(projection)
    from homtrees.trees import enumerate_shapes
    from itertools import product as iproduct

    checked = 0
    for n in (2, 3):
        for shape in enumerate_shapes(n):
            for names in iproduct(g.basis, repeat=n):
                t = with_weights(shape, [0] * n, names)
                for row, _ in relation_rows_for(g, t):
                    image = mapped(row)
                    if not image:
                        continue
                    assert is_zero_mod_U(quotient, image, max(2, max_leaves(image) + 1))
                    checked += 1
    assert checked > 0


# ------------------------------------------------------------ weighted powers


def test_u_power_product_values():
    g = aff2()
    scaled = aff2(((2, 0), (0, 1)))
    x = g.basis_vector(0)
    assert u_power_product(g, x, 0, 3) == unit_upoly()
    assert u_power_product(g, x, 1, 3) == LinComb.single("0:x")
    assert u_power_product(g, x, 2, 2) == LinComb.single("(0:x 0:x)")
    # weights 2,1,1 absorb through the doubling alpha: 2^4 = 16
    xs = scaled.basis_vector(0)
    assert u_power_product(scaled, xs, 3, 4) == 16 * LinComb.single("(0:x (0:x 0:x))")

    from homtrees.freehom import DomainError

    with pytest.raises(DomainError):
        u_power_product(g, x, 3, 2)


def test_u_power_bump_is_alpha():
    tw = sl2_twisted()
    x = (Fraction(1), Fraction(2), Fraction(0))
    for i in range(4):
        bumped = u_power_product(tw, x, i, 5)
        assert bumped == UEAmbient(tw).alpha(u_power_product(tw, x, i, 4))


# ------------------------------------------------ direct weighted-tree oracle


def weighted_keys(g, max_n, max_w):
    from homtrees.trees import enumerate_shapes
    from itertools import product as iproduct

    out = []
    for n in range(1, max_n + 1):
        for shape in enumerate_shapes(n):
            for ws in iproduct(range(max_w + 1), repeat=n):
                for names in iproduct(g.basis, repeat=n):
                    out.append(with_weights(shape, list(ws), names))
    return out


def direct_rowspace(g, max_n, max_w):
    """Weighted-tree ideal without absorption: explicit weight-step rows."""
    from tree_path import rewrites

    rows = []
    for t in weighted_keys(g, max_n, max_w):
        text = to_text(t)
        # Hom-associativity moves, reusing the weighted rewriter
        for rewritten in rewrites(t):
            rows.append(LinComb({text: 1, to_text(rewritten): -1}))
        # single alpha steps on any positively weighted leaf
        rows.extend(_weight_step_rows(g, t))
        # commutator at equal-weight leaf pairs
        rows.extend(_bracket_rows(g, t))
    return RowSpace(rows, track=False)


def _walk_nodes(t, path=()):
    if isinstance(t, Leaf):
        return
    yield path, t
    yield from _walk_nodes(t.left, path + (0,))
    yield from _walk_nodes(t.right, path + (1,))


def _replace_at(t, path, sub):
    if not path:
        return sub
    if path[0] == 0:
        return Node(_replace_at(t.left, path[1:], sub), t.right)
    return Node(t.left, _replace_at(t.right, path[1:], sub))


def _walk_leaves(t, path=()):
    if isinstance(t, Leaf):
        yield path, t
        return
    yield from _walk_leaves(t.left, path + (0,))
    yield from _walk_leaves(t.right, path + (1,))


def _weight_step_rows(g, t):
    text = to_text(t)
    for path, lf in _walk_leaves(t):
        if lf.weight < 1:
            continue
        row = LinComb.single(text)
        image = g.apply_alpha(g.basis_vector(g.index_of(lf.name)))
        for k, c in enumerate(image):
            if c:
                row = row - c * LinComb.single(
                    to_text(_replace_at(t, path, Leaf(lf.weight - 1, g.basis[k])))
                )
        yield row


def _bracket_rows(g, t):
    text = to_text(t)
    for path, node in _walk_nodes(t):
        if not (isinstance(node.left, Leaf) and isinstance(node.right, Leaf)):
            continue
        if node.left.weight != node.right.weight:
            continue
        xi, yi = g.index_of(node.left.name), g.index_of(node.right.name)
        if xi >= yi:
            continue
        row = LinComb({text: 1, to_text(_replace_at(t, path, Node(node.right, node.left))): -1})
        for k, c in enumerate(g.brackets[xi][yi]):
            if c:
                row = row - c * LinComb.single(
                    to_text(_replace_at(t, path, Leaf(node.left.weight, g.basis[k])))
                )
        yield row


def test_absorption_agrees_with_direct_weighted_oracle():
    """Membership verdicts match between absorbed and weight-explicit ideals."""
    g = make_algebra("halfaff", ("x", "y"), {(0, 1): (0, 1)}, ((1, 0), (0, 2)))
    # rows go one weight above the sampled keys so that every absorbed
    # relation instance has a weight-explicit preimage in the span
    direct = direct_rowspace(g, 3, 3)
    keys = [to_text(t) for t in weighted_keys(g, 3, 2)]
    rng = random.Random(20260818)
    agree = 0
    for _ in range(40):
        terms = [(rng.choice(keys), rng.randint(-2, 2)) for _ in range(rng.randint(1, 3))]
        a = LinComb(terms)
        b = LinComb([(rng.choice(keys), rng.randint(-2, 2))])
        direct_equal = not direct.reduce(a - b)
        absorbed = equal_mod_U(g, absorb_poly(g, a), absorb_poly(g, b), 3)
        assert absorbed.equal == direct_equal
        agree += 1
    assert agree == 40
    # a pair that is actually equal: absorb a weighted leaf by hand
    a = LinComb.single("(1:y 0:x)")
    b = 2 * LinComb.single("(0:y 0:x)")
    assert not direct.reduce(a - b)
    assert equal_mod_U(g, absorb_poly(g, a), absorb_poly(g, b), 2).equal
