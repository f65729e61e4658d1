"""Group-like sequence and exponential-map tests.

The exponential displays are frozen against the closed forms; Hom-group
laws are checked termwise over both ambient algebras.
"""

import json
from fractions import Fraction

import pytest

from homtrees.ambient import IndexSearch, OracleInconclusive, identity_op
from homtrees.freehom import FreeAmbient, format_poly, parse_poly
from homtrees.grouplike import (
    GroupLikeSequence,
    SeriesElement,
    complete_order2,
    exp_sequence,
    homgroup_inverse,
    homgroup_product,
    is_grouplike_order_p,
    load_sequence,
    unit_sequence,
    validate_sequence,
)
from homtrees.homlie import make_algebra, nilpotent_kernel, twist
from homtrees.linalg import LinComb, TruncSeries
from homtrees.suites import DEEP_COUNTEREXAMPLE, sl2_diagonal_twist
from homtrees.ueg import UEAmbient, u_power_product, ue_map


def scaled2():
    """[x,y] = y with alpha doubling x."""
    return make_algebra("scaled", ("x", "y"), {(0, 1): (0, 1)}, ((2, 0), (0, 1)))


def sl2_twisted():
    base = make_algebra(
        "sl2",
        ("E", "H", "F"),
        {(0, 1): (-2, 0, 0), (0, 2): (0, 1, 0), (1, 2): (0, 0, -2)},
        ((1, 0, 0), (0, 1, 0), (0, 0, 1)),
    )
    return twist(base, ((2, 0, 0), (0, 1, 0), (0, 0, Fraction(1, 2))))


def series_equal(ambient, a, b):
    assert a.order == b.order
    return all(ambient.equal(a.coeffs[m], b.coeffs[m]) for m in range(a.order + 1))


# -------------------------------------------------------------- exponentials


def test_exp_display_frozen():
    seq = exp_sequence(1, 4)
    shows = [[format_poly(c) for c in seq.terms[p].coeffs] for p in range(5)]
    assert shows[0] == ["1"]
    assert shows[1] == ["1", "0"]
    assert shows[2] == ["1", "01", "1/2*(0 0)"]
    assert shows[3] == ["1", "2", "1/2*(1 1)", "1/6*(1 (0 0))"]
    assert shows[4] == ["1", "3", "1/2*(2 2)", "1/6*(2 (1 1))", "1/24*(2 (1 (0 0)))"]


def test_exp_scalar_scales_coefficients():
    s = Fraction(-1, 2)
    seq = exp_sequence(s, 3)
    base = exp_sequence(1, 3)
    for p in range(4):
        for m in range(p + 1):
            assert seq.terms[p].coeffs[m] == s ** m * base.terms[p].coeffs[m]


def test_exp_is_grouplike_every_order():
    for s in (1, -1, Fraction(1, 2)):
        seq = exp_sequence(s, 4)
        for p in range(5):
            assert is_grouplike_order_p(seq.element(p), p).yes, (s, p)


def test_exp_sequence_validates_with_bound_zero():
    seq = exp_sequence(1, 4)
    assert seq.bound == 0
    assert validate_sequence(seq).ok


def test_unit_sequence_validates():
    seq = unit_sequence(FreeAmbient(), 4)
    assert validate_sequence(seq).ok
    assert seq.bound == 0


def test_exp_zero_scalar_is_unit_sequence():
    seq = exp_sequence(0, 3)
    unit = unit_sequence(FreeAmbient(), 3)
    assert all(seq.terms[p].coeffs == unit.terms[p].coeffs for p in range(4))


# ------------------------------------------------------------ order-p checks


def test_grouplike_counit_failure():
    free = FreeAmbient()
    bad = SeriesElement(free, TruncSeries([2 * LinComb.single("1")]))
    result = is_grouplike_order_p(bad, 0)
    assert not result.yes
    assert result.order == 0
    assert result.check == "counit"


def test_grouplike_coproduct_failure_is_witnessed():
    free = FreeAmbient()
    # 1 + nu*(0 0): the 2-leaf tree is not primitive, so order 1 fails
    elem = SeriesElement(free, TruncSeries([LinComb.single("1"), LinComb.single("(0 0)")]))
    result = is_grouplike_order_p(elem, 1)
    assert not result.yes
    assert result.order == 1
    assert result.check == "coproduct"
    assert result.residual


def test_grouplike_needs_enough_orders():
    free = FreeAmbient()
    elem = SeriesElement(free, TruncSeries([LinComb.single("1")]))
    with pytest.raises(ValueError):
        is_grouplike_order_p(elem, 1)


def test_leaf0_is_grouplike_at_order_one():
    free = FreeAmbient()
    elem = SeriesElement(free, TruncSeries([LinComb.single("1"), LinComb.single("0")]))
    assert is_grouplike_order_p(elem, 1).yes


# ------------------------------------------------------------ order-2 solver


def test_completion_infeasible_for_weight_zero_leaf():
    """No series 𝟙 + ν·leaf0 + ν²c is 2-order group-like."""
    free = FreeAmbient()
    elem = SeriesElement(free, TruncSeries([LinComb.single("1"), LinComb.single("0")]))
    out = complete_order2(elem)
    assert not out.feasible
    assert out.candidate_classes == ((2, (0, 0)),)
    assert out.residual
    from homtrees.trees import enumerate_class

    assert enumerate_class(2, (0, 0)) == []


def test_completion_feasible_for_weight_one_leaf():
    free = FreeAmbient()
    elem = SeriesElement(free, TruncSeries([LinComb.single("1"), LinComb.single("01")]))
    out = complete_order2(elem)
    assert out.feasible
    assert out.completion == Fraction(1, 2) * LinComb.single("(0 0)")
    # and the completed series really is 2-order group-like
    completed = SeriesElement(
        free,
        TruncSeries([LinComb.single("1"), LinComb.single("01"), out.completion]),
    )
    assert is_grouplike_order_p(completed, 2).yes


def test_completion_of_the_unit_is_minus_the_unit():
    """q = 𝟙: the candidate 𝟙's cross term is −𝟙⊗𝟙, and c = −𝟙 solves the system."""
    free = FreeAmbient()
    unit = q = free.unit()
    out = complete_order2(SeriesElement(free, TruncSeries([unit, q])))
    assert out.feasible
    assert out.candidate_classes == ((0, ()),)
    c = out.completion
    assert c == -unit
    cross = free.coproduct(c) - free.tensor(c, unit) - free.tensor(unit, c)
    assert not free.reduce_tensor(cross - free.tensor(q, q))


def test_completion_infeasible_for_the_unit_plus_a_leaf():
    free = FreeAmbient()
    elem = SeriesElement(free, TruncSeries([free.unit(), LinComb({"1": 1, "0": 1})]))
    out = complete_order2(elem)
    assert not out.feasible
    assert out.candidate_classes == ((0, ()), (1, (0,)), (2, (0, 0)))
    assert out.residual


def test_completion_rejects_inexact_ambient():
    g = scaled2()
    amb = UEAmbient(g, g.basis_vector(0))
    elem = SeriesElement(amb, TruncSeries([amb.unit(), LinComb.single("0:x")]))
    with pytest.raises(ValueError):
        complete_order2(elem)


# -------------------------------------------------------- sequence validation


def test_validation_flags_broken_compatibility():
    free = FreeAmbient()
    base = exp_sequence(1, 2)
    # replace the order-1 coefficient of g_2 by the unshifted leaf
    tampered = GroupLikeSequence(
        free,
        (
            base.terms[0],
            base.terms[1],
            TruncSeries([base.terms[2].coeffs[0], LinComb.single("0"), base.terms[2].coeffs[2]]),
        ),
        base.bound,
        base.cap,
    )
    outcome = validate_sequence(tampered)
    assert not outcome.ok
    assert outcome.clause in ("a", "b")
    # the tamper breaks compatibility at p=1 before anything else visible at a
    assert outcome.index in (1, 2)


def test_sequence_shape_is_enforced():
    free = FreeAmbient()
    with pytest.raises(ValueError):
        GroupLikeSequence(free, (TruncSeries([free.unit(), free.zero()]),), 0, 0)
    with pytest.raises(ValueError):
        GroupLikeSequence(free, (TruncSeries([free.unit()]),), 0, 2)


# ------------------------------------------------------------- Hom-group laws


def test_product_records_additive_bound():
    a = exp_sequence(1, 3)
    b = exp_sequence(-1, 3)
    ab = homgroup_product(a, b)
    assert ab.bound == a.bound + b.bound + 1
    assert ab.cap == 3


def test_product_requires_matching_ambient_and_cap():
    g = scaled2()
    with pytest.raises(ValueError):
        homgroup_product(exp_sequence(1, 3), exp_sequence(1, 2))
    with pytest.raises(ValueError):
        homgroup_product(
            exp_sequence(1, 2), exp_sequence(1, 2, UEAmbient(g, g.basis_vector(0)))
        )


def test_unit_acts_through_alpha():
    """𝟙-sequence ∨ g equals the alpha-shifted g termwise."""
    free = FreeAmbient()
    g = exp_sequence(1, 3)
    shifted = homgroup_product(unit_sequence(free, 3), g)
    for p in range(4):
        expected = g.terms[p].map(free.alpha)
        assert series_equal(free, shifted.terms[p], expected)
    other = homgroup_product(g, unit_sequence(free, 3))
    for p in range(4):
        expected = g.terms[p].map(free.alpha)
        assert series_equal(free, other.terms[p], expected)


def test_exp_product_theorem_free():
    free = FreeAmbient()
    for s, t in ((1, Fraction(1, 2)), (-1, 1), (Fraction(1, 2), Fraction(1, 2))):
        ab = homgroup_product(exp_sequence(s, 4), exp_sequence(t, 4))
        target = exp_sequence(s + t, 4)
        for p in range(5):
            assert series_equal(free, ab.terms[p], target.terms[p].map(free.alpha)), (s, t, p)


def test_exp_inverse_theorem_free():
    free = FreeAmbient()
    a = exp_sequence(1, 4)
    inv = homgroup_inverse(a)
    neg = exp_sequence(-1, 4)
    for p in range(5):
        assert series_equal(free, inv.terms[p], neg.terms[p])
    strict = homgroup_product(a, inv)
    unit = unit_sequence(free, 4)
    for p in range(5):
        assert series_equal(free, strict.terms[p], unit.terms[p])


def test_product_hom_associative_termwise():
    free = FreeAmbient()
    a = exp_sequence(1, 3)
    b = exp_sequence(Fraction(1, 2), 3)
    c = exp_sequence(-1, 3)
    from homtrees.linalg import series_multiply

    for p in range(4):
        ca = a.terms[p]
        cb = b.terms[p]
        cc = c.terms[p]
        lhs = series_multiply(series_multiply(ca, cb, free.graft), cc.map(free.alpha), free.graft)
        rhs = series_multiply(ca.map(free.alpha), series_multiply(cb, cc, free.graft), free.graft)
        assert series_equal(free, lhs, rhs), p


def test_product_revalidates_ok():
    a = exp_sequence(1, 3)
    b = exp_sequence(-1, 3)
    ab = homgroup_product(a, b)
    assert ab.bound == 1
    assert validate_sequence(ab).ok


# ------------------------------------------------------------------ U𝔤 side


def test_ue_product_of_two_directions_is_one_hom_group():
    """exp(E) ∨ exp(F) over twisted sl2: one U𝔤 whatever the exp direction."""
    tw = sl2_diagonal_twist()
    a = exp_sequence(1, 2, UEAmbient(tw, tw.basis_vector(0)))
    b = exp_sequence(1, 2, UEAmbient(tw, tw.basis_vector(2)))
    ab = homgroup_product(a, b)
    assert ab.bound == 1
    assert validate_sequence(ab).ok


def test_ue_exp_display_frozen():
    g = scaled2()
    amb = UEAmbient(g, g.basis_vector(0))
    seq = exp_sequence(1, 2, amb)
    shows = [[format_poly(c) for c in seq.terms[p].coeffs] for p in range(3)]
    assert shows[0] == ["1"]
    assert shows[1] == ["1", "0:x"]
    # the order-1 leaf of g_2 carries one alpha: alpha(x) = 2x
    assert shows[2] == ["1", "2*0:x", "1/2*(0:x 0:x)"]


def test_ue_exp_validates_over_twisted_sl2():
    tw = sl2_twisted()
    amb = UEAmbient(tw, tw.basis_vector(0))
    seq = exp_sequence(1, 3, amb)
    assert validate_sequence(seq).ok


def test_ue_exp_theorem_items():
    tw = sl2_twisted()
    x = tw.basis_vector(0)
    amb = UEAmbient(tw, x)
    s, t = Fraction(1), Fraction(1, 2)
    a = exp_sequence(s, 3, amb)
    b = exp_sequence(t, 3, amb)
    ab = homgroup_product(a, b)
    target = exp_sequence(s + t, 3, amb)
    # item 2, both displayed forms
    target_alpha_x = exp_sequence(s + t, 3, UEAmbient(tw, tw.apply_alpha(x)))
    for p in range(4):
        assert series_equal(amb, ab.terms[p], target.terms[p].map(amb.alpha))
        assert series_equal(amb, ab.terms[p], target_alpha_x.terms[p])
    # item 3: the antipode inverse is strict
    inv = homgroup_inverse(a)
    neg = exp_sequence(-s, 3, amb)
    unit = unit_sequence(amb, 3)
    strict = homgroup_product(a, inv)
    for p in range(4):
        assert series_equal(amb, inv.terms[p], neg.terms[p])
        assert series_equal(amb, strict.terms[p], unit.terms[p])
    # item 1: zero scalar
    z = exp_sequence(0, 3, amb)
    for p in range(4):
        assert z.terms[p].coeffs == unit.terms[p].coeffs


def test_ue_oracle_inconclusive_path():
    """With alpha = 0 the square's group-like defect cannot be settled."""
    g = make_algebra("flat", ("x", "y"), {(0, 1): (0, 1)}, ((0, 0), (0, 0)))
    amb = UEAmbient(g, g.basis_vector(0))
    elem = SeriesElement(
        amb,
        TruncSeries(
            [
                amb.unit(),
                LinComb.single("0:x"),
                Fraction(1, 2) * LinComb.single("(0:x 0:x)"),
            ]
        ),
    )
    assert is_grouplike_order_p(elem, 1).yes
    with pytest.raises(OracleInconclusive):
        is_grouplike_order_p(elem, 2)


def test_exp_injectivity():
    # two distinct basis vectors give distinct sequences
    tw = sl2_twisted()
    a = exp_sequence(1, 1, UEAmbient(tw, tw.basis_vector(0)))
    b = exp_sequence(1, 1, UEAmbient(tw, tw.basis_vector(1)))
    assert a.terms[1].coeffs[1] != b.terms[1].coeffs[1]


def test_exp_naturality_square():
    """exp then the lifted morphism equals exp of the mapped element."""
    g = make_algebra(
        "book3",
        ("x", "y", "z"),
        {(0, 1): (0, 1, 0), (0, 2): (0, 0, 1)},
        ((1, 0, 0), (0, 1, 0), (0, 0, 0)),
    )
    _, quotient, projection = nilpotent_kernel(g)
    mapped = ue_map(projection)
    for i in range(g.dim):
        upstairs = exp_sequence(1, 3, UEAmbient(g, g.basis_vector(i)))
        downstairs = exp_sequence(1, 3, UEAmbient(quotient, projection.apply(g.basis_vector(i))))
        for p in range(4):
            pushed = upstairs.terms[p].map(mapped)
            assert pushed.coeffs == downstairs.terms[p].coeffs, (i, p)


# ------------------------------------------------------------- sequence files


def test_load_sequence_roundtrip(tmp_path):
    data = {
        "bound": 0,
        "orders": [["1"], ["1", "0"], ["1", "01", "1/2*(0 0)"]],
    }
    path = tmp_path / "seq.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    seq = load_sequence(str(path))
    assert seq.cap == 2
    assert seq.bound == 0
    assert validate_sequence(seq).ok
    assert seq.terms[2].coeffs[2] == Fraction(1, 2) * LinComb.single("(0 0)")


def test_load_sequence_with_algebra():
    data = {
        "bound": 0,
        "algebra": {
            "name": "scaled",
            "basis": ["x", "y"],
            "bracket": {"x,y": {"y": "1"}},
            "alpha": [["2", "0"], ["0", "1"]],
        },
        "orders": [["1"], ["1", "0:x"]],
    }
    seq = load_sequence(data)
    assert isinstance(seq.ambient, UEAmbient)
    assert validate_sequence(seq).ok


def test_load_sequence_errors():
    with pytest.raises(ValueError):
        load_sequence({"bound": 0})
    with pytest.raises(ValueError):
        load_sequence({"orders": []})
    with pytest.raises(ValueError):
        load_sequence({"orders": [["1", "0"]]})  # g_0 must have exactly 1 coefficient


# ------------------------------------------------------------ index search


def index_by_two_convolutions(amb, x, max_k=8):
    """The index search as it was, each defect through its own convolution (so Δ twice)."""
    coeffs = x.coeffs if isinstance(x, TruncSeries) else (x,)
    defects = []
    for p in coeffs:
        target = amb.eta_eps(p)
        defects.append(amb.convolve(amb.antipode, identity_op)(p) - target)
        defects.append(amb.convolve(identity_op, amb.antipode)(p) - target)
    levels = [amb._level_of(d.terms) for d in defects]
    best = 0
    for d, level in zip(defects, levels):
        k = 0
        while not amb.is_zero(d, level):
            if k >= max_k:
                return IndexSearch(False, None, max_k, level)
            d = amb.alpha(d)
            k += 1
        best = max(best, k)
    return IndexSearch(True, best, max_k, None if None in levels else max(levels))


@pytest.mark.parametrize("ambient", ["free", "sl2"])
def test_index_search_takes_one_coproduct_per_coefficient(ambient):
    calls = []
    if ambient == "free":
        base, args = FreeAmbient, ()
        deep = parse_poly(DEEP_COUNTEREXAMPLE)
        cases = [(deep, 0), (deep, 8)]
    else:
        g = sl2_twisted()
        base, args = UEAmbient, (g, g.basis_vector(0))
        cases = []

    class Counting(base):
        def coproduct(self, p):
            calls.append(p)
            return base.coproduct(self, p)

    for series in exp_sequence(Fraction(1, 2), 3, base(*args)).terms:
        cases += [(series, 8)] + [(c, 8) for c in series.coeffs]
    for x, max_k in cases:
        calls.clear()
        found = Counting(*args).invertibility_index(x, max_k=max_k)
        assert len(calls) == len(x.coeffs if isinstance(x, TruncSeries) else [x])
        assert found == index_by_two_convolutions(base(*args), x, max_k)
