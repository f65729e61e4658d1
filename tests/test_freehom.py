import random
from fractions import Fraction

import pytest

from homtrees.freehom import (
    FREE,
    ClassComponents,
    DomainError,
    alpha_poly,
    antipode,
    class_context,
    class_of,
    convolve,
    coproduct,
    equal_mod_I,
    format_poly,
    graded_decompose,
    identity_op,
    invertibility_index,
    is_primitive,
    is_zero_mod_I,
    k_weighted,
    left_fern,
    nary_product,
    normal_form,
    parse_poly,
    reduce_tensor,
    right_fern,
    tree_poly,
    u_element,
    unit_poly,
)
from homtrees.grouplike import exp_sequence
from homtrees.linalg import LinComb, RowSpace
from homtrees.trees import (
    Leaf,
    Node,
    ParseError,
    alpha_shift,
    enumerate_class,
    enumerate_shapes,
    graft,
    leaf_count,
    parse,
    s_signature,
    to_text,
    weights_of,
    with_weights,
)
from class_components import ClassComponents as ReferenceComponents
from tree_path import class_rows, rewrites


def random_tree(rng, max_leaves=3, max_weight=2):
    n = rng.randint(1, max_leaves)
    shape = rng.choice(enumerate_shapes(n))
    return with_weights(shape, [rng.randint(0, max_weight) for _ in range(n)])


def test_coproduct_of_a_leaf_is_primitive_shape():
    d = coproduct(tree_poly(Leaf(2)))
    assert d == LinComb({("2", "1"): 1, ("1", "2"): 1})


def test_coproduct_of_unit():
    assert coproduct(unit_poly()) == LinComb({("1", "1"): 1})


def test_coproduct_of_two_leaf_tree():
    # restrictions to single leaves produce weight-1 leaves via the unit rule
    d = coproduct(parse_poly("(0 0)"))
    assert d == LinComb(
        {
            ("(0 0)", "1"): 1,
            ("1", "(0 0)"): 1,
            ("01", "01"): 2,
        }
    )


def test_coproduct_is_coassociative_and_cocommutative():
    rng = random.Random(41)
    for _ in range(12):
        t = random_tree(rng, max_leaves=5)
        d = coproduct(tree_poly(t))
        # cocommutativity: swapping the tensor factors fixes Delta
        assert d == d.map_keys(lambda kv: (kv[1], kv[0]))
        # coassociativity as multisets of triples
        left = LinComb(
            (((ll, lr), r), c1 * c2)
            for (l, r), c1 in d.items()
            for (ll, lr), c2 in coproduct(LinComb.single(l)).items()
        )
        right = LinComb(
            ((l, (rl, rr)), c1 * c2)
            for (l, r), c1 in d.items()
            for (rl, rr), c2 in coproduct(LinComb.single(r)).items()
        )
        assert left.map_keys(lambda kv: (kv[0][0], kv[0][1], kv[1])) == right.map_keys(
            lambda kv: (kv[0], kv[1][0], kv[1][1])
        )


def test_coproduct_compatibility_with_grafting_and_alpha():
    rng = random.Random(42)
    for _ in range(15):
        a, b = random_tree(rng), random_tree(rng)
        pa, pb = tree_poly(a), tree_poly(b)
        assert coproduct(FREE.graft(pa, pb)) == tensor_graft(coproduct(pa), coproduct(pb))
        assert coproduct(alpha_poly(pa)) == coproduct(pa).map_keys(
            lambda kv: (to_text(parse(kv[0])) if False else _shift_text(kv[0]), _shift_text(kv[1]))
        )


def tensor_graft(u, v):
    """(x⊗y)∨(x'⊗y') = (x∨x')⊗(y∨y'), extended bilinearly."""
    out = LinComb.zero()
    for (xa, ya), cu in u.items():
        for (xb, yb), cv in v.items():
            left = FREE.graft(LinComb.single(xa), LinComb.single(xb))
            right = FREE.graft(LinComb.single(ya), LinComb.single(yb))
            out = out + (cu * cv) * FREE.tensor(left, right)
    return out


def _shift_text(key):
    from homtrees.trees import alpha_shift

    return to_text(alpha_shift(parse(key)))


def test_counit():
    assert FREE.counit(unit_poly()) == 1
    assert FREE.counit(tree_poly("(0 0)")) == 0
    assert FREE.counit(parse_poly("3*1 - 2*0")) == 3


def test_hom_counit_laws():
    # graft with the unit applies alpha, so both counit composites equal alpha
    rng = random.Random(43)
    for _ in range(15):
        p = tree_poly(random_tree(rng, max_leaves=4))
        left = LinComb.zero()
        right = LinComb.zero()
        for (l, r), c in coproduct(p).items():
            left = left + c * FREE.counit(LinComb.single(r)) * FREE.graft(LinComb.single(l), unit_poly())
            right = right + c * FREE.counit(LinComb.single(l)) * FREE.graft(unit_poly(), LinComb.single(r))
        assert left == alpha_poly(p)
        assert right == alpha_poly(p)


def test_antipode_values():
    assert antipode(tree_poly(Leaf(3))) == LinComb({"3": -1})
    assert antipode(unit_poly()) == unit_poly()
    # 5-leaf example: sign is (-1)^5 and the tree is mirrored
    t = parse("((2 4) ((0 3) 2))")
    s = antipode(tree_poly(t))
    assert s == LinComb({"((2 (3 0)) (4 2))": -1})


def test_antipode_is_an_involution_on_basis_trees():
    rng = random.Random(44)
    for n in range(1, 5):
        for shape in enumerate_shapes(n):
            t = with_weights(shape, [rng.randint(0, 3) for _ in range(n)])
            p = tree_poly(t)
            assert antipode(antipode(p)) == p


def test_antipode_reverses_grafting():
    rng = random.Random(45)
    for _ in range(10):
        a, b = random_tree(rng), random_tree(rng)
        lhs = antipode(FREE.graft(tree_poly(a), tree_poly(b)))
        rhs = FREE.graft(antipode(tree_poly(b)), antipode(tree_poly(a)))
        assert lhs == rhs


def test_graded_decompose():
    u = u_element()
    buckets = graded_decompose(u)
    assert set(buckets) == {(4, (2, 3, 3, 2))}
    assert len(buckets[(4, (2, 3, 3, 2))]) == 2

    two = graded_decompose(parse_poly("0 + (0 0)"))
    assert set(two) == {(1, (0,)), (2, (1, 1))}

    assert graded_decompose(LinComb.zero()) == {}
    assert class_of("1") == (0, ())


def test_class_of_reads_the_key_text_as_the_parsed_tree():
    """class_of scans the key; it must agree with leaf_count and s_signature of the parsed key."""
    rng = random.Random(20261030)

    def bracketing(n):
        """A random tree of n leaves with weights 0–12; a comb's split, two times in three, so some nest deep."""
        if n == 1:
            return Leaf(rng.randint(0, 12))
        k = rng.choice((1, n - 1, rng.randint(1, n - 1)))
        return Node(bracketing(k), bracketing(n - k))

    keys = ["1", "01", "0", "12", "(1 01)"] + [to_text(bracketing(rng.randint(1, 14))) for _ in range(400)]
    assert {leaf_count(parse(key)) for key in keys[1:]} == set(range(1, 15))
    for key in keys:
        t = parse(key)
        expected = (0, ()) if key == "1" else (leaf_count(t), s_signature(t))
        assert class_of(key) == expected, key


def test_class_context_examples():
    assert class_context(2, (1, 1)).space.rank == 0
    assert class_context(1, (5,)).space.rank == 0
    ctx = class_context(4, (3, 4, 4, 3))
    answer = ctx.space.membership(alpha_poly(u_element()))
    assert answer.inside


def _class_rows_of(n, s):
    ctx = class_context(n, s)
    return ctx.basis, ctx.row_sources


def test_class_build_matches_the_tree_path():
    rng = random.Random(20261019)
    seen = set()
    nonempty = rows = 0
    while nonempty < 300:
        # signatures of real trees (never empty), and drawn ones (often empty)
        if rng.random() < 0.75:
            t = random_tree(rng, max_leaves=9, max_weight=2)
            n, s = leaf_count(t), s_signature(t)
        else:
            n = rng.randint(1, 9)
            s = tuple(rng.randint(-1, n) for _ in range(n))
        if s in seen:
            continue
        seen.add(s)
        expected = class_rows(n, s)
        assert _class_rows_of(n, s) == expected, s
        nonempty += bool(expected[0])
        rows += len(expected[1])
    assert len(seen) > nonempty and rows > 10000


def test_class_build_edge_cases():
    assert _class_rows_of(1, (1,)) == (("01",), ())
    assert _class_rows_of(1, (0,)) == (("0",), ())
    assert _class_rows_of(2, (0, 0)) == ((), ())
    assert _class_rows_of(3, (-1, 2, 2)) == ((), ())
    assert _class_rows_of(0, ()) == (("1",), ())
    with pytest.raises(ValueError):
        class_context(0, (1,))
    with pytest.raises(ValueError, match="signature length 1 does not match leaf count 2"):
        class_context(2, (1,))
    right, left = Leaf(0), Leaf(0)
    for _ in range(15):
        right = Node(Leaf(0), right)
    for _ in range(39):
        left = Node(left, Leaf(0))
    # every proper left part of the 40-leaf class holds many trees, none completes
    for comb in (right, left):
        n, s = leaf_count(comb), s_signature(comb)
        assert _class_rows_of(n, s) == class_rows(n, s) == ((to_text(comb),), ())


def _replay(ctx, certificate) -> LinComb:
    out = LinComb.zero()
    for idx, coeff in certificate.items():
        t_text, r_text = ctx.row_sources[idx]
        out = out + coeff * LinComb({t_text: 1, r_text: -1})
    return out


def test_class_components_agree_with_row_space_elimination():
    # RowSpace over the same rows is the reference engine for the graph one
    rng = random.Random(61)
    seen = set()
    while len(seen) < 200:
        n = rng.randint(2, 8)
        t = with_weights(rng.choice(enumerate_shapes(n)), [rng.randint(0, 2) for _ in range(n)])
        cls = class_of(to_text(t))
        if cls in seen:
            continue
        seen.add(cls)
        ctx = class_context(*cls)
        reference = RowSpace((LinComb({a: 1, b: -1}) for a, b in ctx.row_sources), track=False)
        assert ctx.space.rank == reference.rank
        component: dict = {}
        for key in ctx.basis:
            reduced = ctx.space.reduce(LinComb.single(key))
            assert reduced == reference.reduce(LinComb.single(key))
            (rep,) = reduced.terms
            component.setdefault(rep, []).append(key)
        assert all(rep == max(keys) for rep, keys in component.items())
        for _ in range(3):
            keys = rng.sample(ctx.basis, min(3, len(ctx.basis)))
            v = LinComb((key, rng.choice((1, 2, -1, Fraction(1, 2)))) for key in keys)
            for w in (v, v - ctx.space.reduce(v)):
                answer = ctx.space.membership(w)
                expected = reference.membership(w)
                assert answer.inside == expected.inside
                if answer.inside:
                    assert _replay(ctx, answer.certificate) == w
                else:
                    assert answer.residual == expected.residual


def test_class_components_match_the_reference_engine_exactly():
    # the engine with a union-find of its own gives the same ranks, residuals and certificates
    rng = random.Random(19)
    seen = set()
    while len(seen) < 300:
        n = rng.randint(2, 9)
        t = with_weights(rng.choice(enumerate_shapes(n)), [rng.randint(0, 2) for _ in range(n)])
        cls = class_of(to_text(t))
        if cls in seen:
            continue
        seen.add(cls)
        ctx = class_context(*cls)
        reference = ReferenceComponents(ctx.basis, ctx.row_sources)
        assert ctx.space.rank == reference.rank
        for key in ctx.basis:
            v = LinComb.single(key)
            assert ctx.space.reduce(v) == reference.reduce(v)
        for _ in range(4):
            keys = rng.sample(ctx.basis, min(4, len(ctx.basis)))
            v = LinComb((key, rng.choice((1, 3, -1, Fraction(2, 5)))) for key in keys)
            for w in (v, v - ctx.space.reduce(v)):
                got, want = ctx.space.membership(w), reference.membership(w)
                assert (got.inside, got.residual) == (want.inside, want.residual)
                if got.inside:
                    assert list(got.certificate.items()) == list(want.certificate.items())


def test_the_spanning_forest_waits_for_an_inside_membership():
    # normal forms and NotEqual verdicts never walk a certificate
    ctx = class_context(*class_of("((0 0) 1)"))
    space = ClassComponents(ctx.basis, ctx.row_sources)
    source, target = ctx.row_sources[0]
    space.reduce(LinComb.single(source))
    assert not space.membership(LinComb.single(source)).inside
    assert space._forest is None
    answer = space.membership(LinComb({source: 1, target: -1}))
    assert answer.inside and answer.certificate == LinComb.single(0)
    forest = space._forest
    assert forest
    assert space.membership(LinComb({source: 2, target: -2})).certificate == LinComb.single(0, 2)
    assert space._forest is forest


def reference_rewrites(t):
    """The earlier closure-chain rewriter: each hit rebuilds t through its ancestors."""
    results = []

    def walk(node, rebuild):
        if isinstance(node, Leaf):
            return
        if isinstance(node.left, Node) and min(weights_of(node.right)) >= 1:
            a, b = node.left.left, node.left.right
            replacement = Node(alpha_shift(a), Node(b, alpha_shift(node.right, -1)))
            results.append(rebuild(replacement))
        walk(node.left, lambda r, node=node, rebuild=rebuild: rebuild(Node(r, node.right)))
        walk(node.right, lambda r, node=node, rebuild=rebuild: rebuild(Node(node.left, r)))

    walk(t, lambda r: r)
    return results


def test_rewrites_match_the_closure_chain_reference():
    rng = random.Random(20261020)
    seen = set()
    trees = rewritten = 0
    while len(seen) < 300:
        n = rng.randint(1, 7)
        s = tuple(rng.randint(0, n + 1) for _ in range(n))
        if s in seen or not enumerate_class(n, s):
            continue
        seen.add(s)
        for t in enumerate_class(n, s):
            decorated = with_weights(t, weights_of(t), [rng.choice("xyz") for _ in range(n)])
            for tree in (t, decorated):
                assert rewrites(tree) == reference_rewrites(tree), tree
                trees += 1
                rewritten += len(rewrites(tree))
    assert trees > 2000 and rewritten > 2000


def test_equal_mod_I_hom_associativity_small():
    rng = random.Random(46)
    for _ in range(25):
        a, b, c = (random_tree(rng, max_leaves=2, max_weight=1) for _ in range(3))
        lhs = FREE.graft(FREE.graft(tree_poly(a), tree_poly(b)), alpha_poly(tree_poly(c)))
        rhs = FREE.graft(alpha_poly(tree_poly(a)), FREE.graft(tree_poly(b), tree_poly(c)))
        verdict = equal_mod_I(lhs, rhs)
        assert verdict.equal
        # replay every class certificate against the relation rows
        diff = lhs - rhs
        per_class = graded_decompose(diff)
        for cls, cert in verdict.certificates.items():
            assert _replay(class_context(*cls), cert) == per_class.get(cls, LinComb.zero())


def test_u_is_nonzero_but_alpha_u_vanishes():
    u = u_element()
    verdict = equal_mod_I(u, LinComb.zero())
    assert not verdict.equal
    assert verdict.witness_class == (4, (2, 3, 3, 2))
    assert verdict.residual
    assert is_zero_mod_I(alpha_poly(u))


def test_cli_worked_equality():
    verdict = equal_mod_I(parse_poly("((1 2) (2 1))"), parse_poly("(2 (2 (1 0)))"))
    assert verdict.equal


def test_normal_form_is_idempotent_and_sound():
    rng = random.Random(47)
    for _ in range(10):
        p = tree_poly(random_tree(rng, max_leaves=4))
        nf = normal_form(p)
        assert normal_form(nf) == nf
        assert equal_mod_I(p, nf).equal


def test_primitivity():
    assert is_primitive(tree_poly(Leaf(0)))
    assert is_primitive(tree_poly(Leaf(4)))
    u = u_element()
    assert is_primitive(u)
    assert is_primitive(FREE.graft(u, u))
    assert not is_primitive(tree_poly("(0 0)"))
    assert not is_primitive(unit_poly())


def test_nary_product_examples():
    assert nary_product(1, 3) == LinComb({"2": 1})
    assert nary_product(2, 3) == LinComb({"(1 1)": 1})
    assert nary_product(3, 4) == LinComb({"(2 (1 1))": 1})
    assert nary_product(0, 5) == unit_poly()
    with pytest.raises(DomainError):
        nary_product(4, 3)


def test_k_weighted_and_ferns():
    assert k_weighted(right_fern(3), 4) == LinComb({"(2 (1 1))": 1})
    assert k_weighted(left_fern(3), 4) == LinComb({"((1 1) 2)": 1})
    with pytest.raises(DomainError):
        k_weighted(right_fern(3), 2)


def test_indifference_small():
    for n in (2, 3):
        for k in (n, n + 1):
            polys = [k_weighted(shape, k) for shape in enumerate_shapes(n)]
            for other in polys[1:]:
                assert equal_mod_I(polys[0], other).equal


def test_left_and_right_fern_products_agree():
    for n in (2, 3, 4):
        for k in (n, n + 1):
            assert equal_mod_I(k_weighted(left_fern(n), k), k_weighted(right_fern(n), k)).equal


def test_exp_sequence_coefficients_at_one_half():
    s = Fraction(1, 2)
    g = exp_sequence(s, 2, FREE).terms[2]
    assert g.coeffs == (unit_poly(), LinComb({"01": s}), LinComb({"(0 0)": s * s / 2}))
    assert exp_sequence(1, 0, FREE).terms[0].coeffs == (unit_poly(),)


def test_antipode_of_realization_flips_the_parameter():
    p = 3
    g = exp_sequence(1, p, FREE).terms[p]
    h = exp_sequence(-1, p, FREE).terms[p]
    for i in range(p + 1):
        assert equal_mod_I(antipode(g.coeffs[i]), h.coeffs[i]).equal


def test_realization_weight_bump_is_alpha_exactly():
    seq = exp_sequence(Fraction(1, 2), 4, FREE)
    for p in (2, 3):
        low, high = seq.terms[p], seq.terms[p + 1]
        for i in range(p + 1):
            assert high.coeffs[i] == alpha_poly(low.coeffs[i])


def test_invertibility_index_of_small_trees():
    assert invertibility_index(unit_poly()).index == 0
    assert invertibility_index(tree_poly(Leaf(2))).index == 0
    assert invertibility_index(tree_poly("(0 0)")).index == 0
    assert invertibility_index(tree_poly("((0 1) 0)")).index == 0


def test_invertibility_index_of_exp_series():
    result = invertibility_index(exp_sequence(1, 2, FREE).terms[2])
    assert result.found and result.index == 0


def test_convolution_counit_laws():
    rng = random.Random(48)
    for _ in range(8):
        p = tree_poly(random_tree(rng))
        # eta-eps is idempotent under convolution
        assert convolve(FREE.eta_eps, FREE.eta_eps)(p) == FREE.eta_eps(p)
        # f * (eta eps) = alpha o f, here for f = id
        assert convolve(identity_op, FREE.eta_eps)(p) == alpha_poly(p)
        assert convolve(FREE.eta_eps, identity_op)(p) == alpha_poly(p)


def test_convolution_antipode_on_a_leaf():
    p = tree_poly(Leaf(0))
    assert convolve(antipode, identity_op)(p) == LinComb.zero()
    assert FREE.eta_eps(p) == LinComb.zero()


def test_tensor_reduction_kills_ideal_factors():
    u = u_element()
    t = FREE.tensor(alpha_poly(u), tree_poly(Leaf(0)))
    assert reduce_tensor(t) == LinComb.zero()


def test_format_and_parse_poly():
    p = parse_poly("3*1 - 2*0")
    assert p == LinComb({"1": 3, "0": -2})
    # output is canonical: terms sorted by codec key
    assert format_poly(p) == "-2*0 + 3*1"
    assert parse_poly(format_poly(p)) == p
    q = parse_poly("-1/2*(0 0) + 01")
    assert q == LinComb({"(0 0)": Fraction(-1, 2), "01": 1})
    assert parse_poly(format_poly(q)) == q
    assert format_poly(LinComb.zero()) == "0*1"
    assert parse_poly("0*1") == LinComb.zero()
    assert parse_poly("((0 2) 1)") == LinComb({"((0 2) 1)": 1})


def test_parse_poly_errors():
    with pytest.raises(ParseError):
        parse_poly("")
    with pytest.raises(ParseError):
        parse_poly("2**0")
    with pytest.raises(ParseError):
        parse_poly("1 1")
    with pytest.raises(ParseError):
        parse_poly("x*(0 0)")


def test_the_parse_class_and_normal_form_caches_are_bounded():
    from homtrees import freehom, trees

    for fn, bound, fill in (
        (trees.parse, trees.PARSE_CACHE_SIZE, lambda k: trees.parse(str(k))),
        (freehom.class_context, freehom.CLASS_CACHE_SIZE, lambda k: class_context(1, (k,))),
        (freehom._nf_key, freehom.NF_CACHE_SIZE, lambda k: freehom._nf_key(str(k))),
    ):
        for k in range(bound + 10):
            fill(k)
        assert fn.cache_info().currsize == bound
        fn.cache_clear()
