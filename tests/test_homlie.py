import json
from fractions import Fraction

import pytest

from homtrees.homlie import (
    HomLieMorphism,
    NotEndomorphism,
    load_algebra,
    make_algebra,
    nilpotent_kernel,
    parse_element,
    twist,
    validate,
    validate_morphism,
)


def sl2():
    # [H,E]=2E, [H,F]=-2F, [E,F]=H with basis order E,H,F
    return make_algebra(
        "sl2",
        ["E", "H", "F"],
        {
            (0, 1): [-2, 0, 0],   # [E,H] = -2E
            (0, 2): [0, 1, 0],    # [E,F] = H
            (1, 2): [0, 0, -2],   # [H,F] = -2F
        },
        [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
    )


def abelian(dim, alpha):
    return make_algebra("abelian", [f"a{i}" for i in range(dim)], {}, alpha)


def nonabelian2(alpha):
    # [x,y] = y
    return make_algebra("aff1", ["x", "y"], {(0, 1): [0, 1]}, alpha)


def test_validate_abelian_any_alpha():
    g = abelian(3, [[0, 1, 0], [0, 0, 1], [0, 0, 0]])
    assert validate(g).ok


def test_validate_sl2_identity_alpha():
    assert validate(sl2()).ok


def test_validate_sl2_with_degenerate_alpha_fails_multiplicativity():
    g = sl2()
    bad = make_algebra(
        "sl2-bad",
        ["E", "H", "F"],
        {(0, 1): [-2, 0, 0], (0, 2): [0, 1, 0], (1, 2): [0, 0, -2]},
        [[1, 0, 0], [0, 1, 0], [0, 0, 0]],
    )
    result = validate(bad)
    assert not result.ok
    assert result.law == "multiplicativity"
    # witness must involve E and F: alpha[E,F]=alpha(H)=H but [alpha E, alpha F]=0
    assert result.witness == (0, 2)
    assert result.residual == (0, 1, 0)


def test_validate_detects_hom_jacobi_failure():
    # [x,y]=z, [x,z]=x, [y,z]=x breaks Jacobi on the triple (x,y,z)
    g = make_algebra(
        "bad",
        ["x", "y", "z"],
        {(0, 1): [0, 0, 1], (0, 2): [1, 0, 0], (1, 2): [1, 0, 0]},
        [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
    )
    result = validate(g)
    assert not result.ok
    assert result.law == "hom-jacobi"


def test_bracket_is_bilinear_and_skew():
    g = sl2()
    x = parse_element(g, "E + 2*H")
    y = parse_element(g, "F - H")
    assert g.bracket(x, y) == tuple(-c for c in g.bracket(y, x))
    two_x = tuple(2 * c for c in x)
    assert g.bracket(two_x, y) == tuple(2 * c for c in g.bracket(x, y))


def test_make_algebra_rejects_bad_tables():
    with pytest.raises(ValueError):
        make_algebra("g", ["x", "y"], {(0, 0): [1, 0]}, [[1, 0], [0, 1]])
    with pytest.raises(ValueError):
        make_algebra("g", ["x", "y"], {(1, 0): [0, 1]}, [[1, 0], [0, 1]])
    with pytest.raises(ValueError):
        make_algebra("g", ["x", "x"], {}, [[1, 0], [0, 1]])


def test_twist_sl2_by_diagonal_automorphism():
    lam = Fraction(2)
    g = sl2()
    twisted = twist(g, [[lam, 0, 0], [0, 1, 0], [0, 0, 1 / lam]])
    assert validate(twisted).ok
    # twisted bracket: [H,E]_alpha = alpha(2E) = 4E
    assert twisted.bracket(twisted.basis_vector(1), twisted.basis_vector(0)) == (4, 0, 0)


def test_twist_with_identity_is_the_input():
    g = sl2()
    t = twist(g, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert t.brackets == g.brackets


def test_twist_with_zero_map():
    g = sl2()
    t = twist(g, [[0, 0, 0], [0, 0, 0], [0, 0, 0]])
    assert validate(t).ok
    assert all(not any(v) for row in t.brackets for v in row)


def test_twist_rejects_non_endomorphism():
    g = sl2()
    with pytest.raises(NotEndomorphism) as err:
        twist(g, [[1, 0, 0], [0, 1, 0], [0, 0, 1 - Fraction(1, 2)]])
    assert err.value.witness in {("E", "H"), ("E", "F"), ("H", "F")}


def test_nilpotent_kernel_invertible_alpha():
    g = sl2()
    kernel, quotient, projection = nilpotent_kernel(g)
    assert kernel == []
    assert quotient.dim == 3
    assert validate_morphism(projection).ok


def test_nilpotent_kernel_zero_alpha():
    g = nonabelian2([[0, 0], [0, 0]])
    assert validate(g).ok
    kernel, quotient, projection = nilpotent_kernel(g)
    assert len(kernel) == 2
    assert quotient.dim == 0 or quotient.basis == ()


def test_nilpotent_kernel_nilpotent_alpha_on_abelian():
    g = abelian(3, [[0, 1, 0], [0, 0, 1], [0, 0, 0]])
    kernel, quotient, _ = nilpotent_kernel(g)
    assert len(kernel) == 3
    assert quotient.dim == 0


def test_nilpotent_kernel_mixed_fixture():
    # [x,y]=y, [x,z]=z, alpha kills z and fixes x,y
    g = make_algebra(
        "aff-ext",
        ["x", "y", "z"],
        {(0, 1): [0, 1, 0], (0, 2): [0, 0, 1]},
        [[1, 0, 0], [0, 1, 0], [0, 0, 0]],
    )
    assert validate(g).ok
    kernel, quotient, projection = nilpotent_kernel(g)
    assert kernel == [(0, 0, 1)]
    assert quotient.basis == ("x", "y")
    assert validate(quotient).ok
    assert validate_morphism(projection).ok
    # induced alpha is invertible (here: the identity)
    assert quotient.alpha == ((1, 0), (0, 1))
    # induced bracket is the nonabelian one
    assert quotient.bracket(quotient.basis_vector(0), quotient.basis_vector(1)) == (0, 1)


def test_validate_morphism():
    g = sl2()
    identity = HomLieMorphism(g, g, (g.basis_vector(0), g.basis_vector(1), g.basis_vector(2)))
    assert validate_morphism(identity).ok
    zero = HomLieMorphism(g, g, (g.zero(),) * 3)
    assert validate_morphism(zero).ok
    broken = HomLieMorphism(g, g, (g.basis_vector(1), g.basis_vector(0), g.basis_vector(2)))
    assert not validate_morphism(broken).ok


def test_parse_element():
    g = sl2()
    assert parse_element(g, "E + 2*H - 1/2*F") == (1, 2, Fraction(-1, 2))
    assert parse_element(g, "-E") == (-1, 0, 0)
    assert parse_element(g, "3/2*H") == (0, Fraction(3, 2), 0)
    with pytest.raises(KeyError):
        parse_element(g, "Q")
    with pytest.raises(ValueError):
        parse_element(g, "")
    with pytest.raises(ValueError):
        parse_element(g, "E F")


def test_load_algebra_json(tmp_path):
    data = {
        "name": "sl2",
        "basis": ["E", "H", "F"],
        "bracket": {
            "E,H": {"E": "-2"},
            "E,F": {"H": "1"},
            "H,F": {"F": "-2"},
        },
        "alpha": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
    }
    path = tmp_path / "sl2.json"
    path.write_text(json.dumps(data))
    g = load_algebra(str(path))
    assert g.basis == ("E", "H", "F")
    assert validate(g).ok
    assert g.bracket(g.basis_vector(1), g.basis_vector(0)) == (2, 0, 0)

    # numeric indices and fractions also work
    g2 = load_algebra(
        {
            "name": "half",
            "basis": ["x", "y"],
            "bracket": {"0,1": {"1": "1/2"}},
            "alpha": [["1", "0"], ["0", "1/3"]],
        }
    )
    assert g2.bracket(g2.basis_vector(0), g2.basis_vector(1)) == (0, Fraction(1, 2))
    assert g2.alpha[1][1] == Fraction(1, 3)


def test_load_algebra_rejects_duplicates():
    with pytest.raises(ValueError):
        load_algebra(
            {
                "name": "dup",
                "basis": ["x", "y"],
                "bracket": {"x,y": {"y": "1"}, "y,x": {"y": "-1"}},
                "alpha": [["1", "0"], ["0", "1"]],
            }
        )


@pytest.mark.parametrize("changes", [
    {"bracket": {"x,y": {"y": True}}},
    {"alpha": [[True, False], [False, True]]},
    {"bracket": {"x,y": {True: "1"}}},
    {"bracket": {"x,y": {1: "1"}}, "alpha": [[1, False], [0, 1]]},
])
def test_load_algebra_rejects_booleans(changes):
    # bool is an int subclass, so an unchecked true read as 1 and false as 0
    data = {"name": "aff1", "basis": ["x", "y"], "bracket": {"x,y": {"y": "1"}},
            "alpha": [["1", "0"], ["0", "1"]]}
    with pytest.raises(ValueError):
        load_algebra({**data, **changes})
