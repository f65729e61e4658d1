import random
from fractions import Fraction

import pytest

from homtrees.linalg import (
    LinComb,
    OrderMismatch,
    RowSpace,
    TruncSeries,
    divide,
    frac,
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
        frac(0.5)
    with pytest.raises(TypeError):
        LinComb({"x": 0.5})
    with pytest.raises(TypeError):
        0.5 * LinComb({"x": 1})


@pytest.mark.parametrize("value", [2, True, Fraction(4, 2), "4/2", "-6/3", "2.0"])
def test_frac_gives_an_int_for_an_integral_value(value):
    assert frac(value).__class__ is int
    assert frac(value) == Fraction(value)


def test_frac_keeps_a_non_integral_rational_a_fraction():
    assert frac("1/2").__class__ is Fraction
    assert frac(Fraction(-3, 2)) == Fraction(-3, 2)


@pytest.mark.parametrize("a, b, quotient", [
    (6, 3, 2), (3, -1, -3), (1, 2, Fraction(1, 2)), (Fraction(3, 2), Fraction(1, 2), 3),
    (-1, Fraction(-1, 4), 4), (Fraction(1, 3), 1, Fraction(1, 3)),
])
def test_divide_is_exact_and_an_int_when_integral(a, b, quotient):
    result = divide(a, b)
    assert result == quotient
    assert result.__class__ is quotient.__class__


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


class FullScanRowSpace:
    """RowSpace as it was before the column index: every stored row is
    scanned for each new pivot, with LinComb arithmetic throughout."""

    def __init__(self, rows, track=True):
        self._rows = {}
        self._history = {}
        self._track = track
        for index, row in enumerate(rows):
            self._insert(index, row)

    def _insert(self, index, row):
        residual, combo = self.split(row)
        if not residual:
            return
        pivot = min(residual.terms)
        lead = residual.terms[pivot]
        normalized = (Fraction(1) / lead) * residual
        if self._track:
            hist = LinComb.single(index)
            for pkey, coeff in combo.items():
                hist = hist - coeff * self._history[pkey]
            hist = (Fraction(1) / lead) * hist
        for pkey in list(self._rows):
            existing = self._rows[pkey]
            coeff = existing.terms.get(pivot)
            if coeff:
                self._rows[pkey] = existing - coeff * normalized
                if self._track:
                    self._history[pkey] = self._history[pkey] - coeff * hist
        self._rows[pivot] = normalized
        if self._track:
            self._history[pivot] = hist

    def split(self, v):
        combo = {}
        out = dict(v.terms)
        for key in [k for k in v.terms if k in self._rows]:
            coeff = out.get(key)
            if not coeff:
                combo.setdefault(key, Fraction(0))
                continue
            combo[key] = coeff
            for rkey, rcoeff in self._rows[key].terms.items():
                acc = out.get(rkey, 0) - coeff * rcoeff
                if acc:
                    out[rkey] = acc
                else:
                    out.pop(rkey, None)
        return LinComb(out), combo

    def certificate(self, v):
        residual, combo = self.split(v)
        if residual or not self._track:
            return None
        certificate = LinComb.zero()
        for pkey, coeff in combo.items():
            certificate = certificate + coeff * self._history[pkey]
        return certificate


def _seeded_rows(rng, n_keys, n_rows):
    coeffs = [Fraction(c) for c in (1, -1, 2, -3, "1/2", "-2/3", "5/4")]
    rows = []
    for _ in range(n_rows):
        pick = rng.random()
        if rows and pick < 0.15:
            rows.append(rng.choice(rows))  # a duplicate
        elif len(rows) > 1 and pick < 0.35:
            a, b = rng.sample(rows, 2)  # a dependent row
            rows.append(rng.choice(coeffs) * a + rng.choice(coeffs) * b)
        else:
            keys = rng.sample(range(n_keys), rng.randint(1, min(4, n_keys)))
            rows.append(LinComb((k, rng.choice(coeffs)) for k in keys))
    return rows


@pytest.mark.parametrize("track", [True, False])
def test_column_index_matches_a_full_scan(track):
    rng = random.Random(4051)
    for trial in range(40):
        n_keys = rng.randint(3, 25)
        rows = _seeded_rows(rng, n_keys, rng.randint(1, 30))
        space = RowSpace(rows, track=track)
        reference = FullScanRowSpace(rows, track=track)
        assert space.pivots() == sorted(reference._rows)
        assert space.rank == len(reference._rows)
        assert list(space._rows) == list(reference._rows)  # insertion order too
        got = space.rows()
        want = [reference._rows[p] for p in sorted(reference._rows)]
        assert [list(r.terms.items()) for r in got] == [list(r.terms.items()) for r in want]
        queries = [rng.choice(rows) + rng.choice(rows) for _ in range(5)]
        queries += [LinComb((k, rng.randint(-2, 2)) for k in rng.sample(range(n_keys), 2)) for _ in range(5)]
        for q in queries:
            residual = reference.split(q)[0]
            assert list(space.reduce(q).terms.items()) == list(residual.terms.items())
            answer = space.membership(q)
            assert answer.inside == (not residual)
            if answer.inside:
                assert answer.certificate == reference.certificate(q)
                if track:
                    replay = LinComb.zero()
                    for idx, coeff in answer.certificate.items():
                        replay = replay + coeff * rows[idx]
                    assert replay == q
            else:
                assert answer.certificate is None
                assert list(answer.residual.terms.items()) == list(residual.terms.items())


def test_trunc_series_basics():
    s = TruncSeries([Fraction(1), Fraction(2), Fraction(3)])
    assert s.order == 2
    assert s.map(lambda c: 2 * c).coeffs == (2, 4, 6)


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
