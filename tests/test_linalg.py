from fractions import Fraction

import pytest

from homtrees.linalg import (
    LinComb,
    OrderMismatch,
    RowSpace,
    TruncSeries,
    series_multiply,
)


def test_lincomb_prunes_zeros_and_merges_duplicates():
    v = LinComb([("x", 2), ("x", -2), ("y", 1)])
    assert v.terms == {"y": Fraction(1)}
    assert LinComb({"x": 0}) == LinComb.zero()
    assert not LinComb.zero()


def test_lincomb_equality_is_term_map_equality():
    a = LinComb({"x": Fraction(1, 2), "y": 3})
    b = LinComb([("y", 3), ("x", Fraction(1, 2))])
    assert a == b
    assert a != LinComb({"x": Fraction(1, 2)})


def test_lincomb_arithmetic():
    a = LinComb({"x": 1, "y": 2})
    b = LinComb({"y": -2, "z": 5})
    assert (a + b).terms == {"x": Fraction(1), "z": Fraction(5)}
    assert (a - a) == LinComb.zero()
    assert (3 * a).coeff("y") == 6
    assert (-a).coeff("x") == -1
    assert (Fraction(1, 2) * a + 2 * b).terms == {
        "x": Fraction(1, 2),
        "y": Fraction(-3),
        "z": Fraction(10),
    }


def test_lincomb_rejects_floats():
    with pytest.raises(TypeError):
        LinComb({"x": 0.5})


def test_lincomb_map_keys_merges_collisions():
    v = LinComb({"a": 1, "b": -1})
    assert v.map_keys(lambda k: "same") == LinComb.zero()


def test_row_reduce_hand_example():
    # rows x+y and y reduce to the unit rows x, y
    space = RowSpace([LinComb({"x": 1, "y": 1}), LinComb({"y": 1})])
    assert space.rank == 2
    assert space.pivots() == ["x", "y"]
    assert space.rows() == [LinComb({"x": 1}), LinComb({"y": 1})]


def test_row_reduce_is_fully_reduced():
    rows = [
        LinComb({"a": 2, "b": 4, "c": 2}),
        LinComb({"b": 1, "c": 3}),
        LinComb({"a": 1, "b": 2, "c": 1}),  # dependent on the first
    ]
    space = RowSpace(rows)
    assert space.rank == 2
    # every stored row is zero in the other pivot columns
    for row in space.rows():
        pivot_hits = [p for p in space.pivots() if row.coeff(p)]
        assert len(pivot_hits) == 1
        assert row.coeff(pivot_hits[0]) == 1


def test_membership_inside_with_certificate():
    r0 = LinComb({"x": 1, "y": 1})
    r1 = LinComb({"y": 1, "z": 1})
    space = RowSpace([r0, r1])
    query = LinComb({"x": 2, "y": 3, "z": 1})
    answer = space.membership(query)
    assert answer.inside
    assert answer.residual is None
    # replay the certificate against the original input rows
    replay = LinComb.zero()
    inputs = [r0, r1]
    for idx, coeff in answer.certificate.items():
        replay = replay + coeff * inputs[idx]
    assert replay == query


def test_membership_outside_gives_reduced_residual():
    space = RowSpace([LinComb({"x": 1, "y": 1})])
    answer = space.membership(LinComb({"x": 1, "z": 1}))
    assert not answer.inside
    assert answer.certificate is None
    assert answer.residual == LinComb({"y": -1, "z": 1})
    assert space.reduce(LinComb({"x": 1, "z": 1})) == answer.residual


def test_membership_certificates_survive_reduction_order():
    # rows deliberately given in an order that forces eliminations
    rows = [
        LinComb({"b": 1, "c": 1}),
        LinComb({"a": 1, "b": 1}),
        LinComb({"a": 1, "c": -1}),
    ]
    space = RowSpace(rows)
    assert space.rank == 2
    target = LinComb({"a": 3, "b": 1, "c": -2})
    answer = space.membership(target)
    assert answer.inside
    replay = LinComb.zero()
    for idx, coeff in answer.certificate.items():
        replay = replay + coeff * rows[idx]
    assert replay == target


def test_rowspace_without_tracking_still_decides():
    rows = [LinComb({"x": 1, "y": 2}), LinComb({"y": 1})]
    space = RowSpace(rows, track=False)
    answer = space.membership(LinComb({"x": 2, "y": 1}))
    assert answer.inside and answer.certificate is None
    assert not space.membership(LinComb({"z": 1})).inside


def test_trunc_series_basics():
    s = TruncSeries([Fraction(1), Fraction(2), Fraction(3)])
    assert s.order == 2
    assert s.map(lambda c: 2 * c).coeffs == (2, 4, 6)
    t = TruncSeries([Fraction(1), Fraction(0), Fraction(-1)])
    assert s.zip_with(t, lambda a, b: a + b).coeffs == (2, 2, 2)
    assert s.truncate(1).coeffs == (1, 2)


def test_series_multiply_is_cauchy_product():
    # (1 + nu)^2 = 1 + 2 nu + nu^2
    one_plus = TruncSeries([Fraction(1), Fraction(1), Fraction(0)])
    sq = series_multiply(one_plus, one_plus, lambda a, b: a * b)
    assert sq.coeffs == (1, 2, 1)


def test_series_order_mismatch():
    a = TruncSeries([Fraction(1), Fraction(1)])
    b = TruncSeries([Fraction(1)])
    with pytest.raises(OrderMismatch):
        series_multiply(a, b, lambda x, y: x * y)
    with pytest.raises(OrderMismatch):
        a.zip_with(b, lambda x, y: x + y)
