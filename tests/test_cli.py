"""End-to-end CLI tests: exit codes, report text, and machine output."""

import json
import os
import random
import signal
import subprocess
import sys
import time

import pytest

import homtrees
from homtrees import cli, suites, ueg

DATA = os.path.join(os.path.dirname(__file__), "data")
SL2 = os.path.join(DATA, "sl2_twisted.json")
BROKEN = os.path.join(DATA, "broken_alpha.json")


def run(capsys, *argv):
    code = cli.run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_no_arguments_is_a_usage_error(capsys):
    code, _, _ = run(capsys)
    assert code == 2


def test_help_exits_zero(capsys):
    code, out, _ = run(capsys, "--help")
    assert code == 0


def test_nf_reduces_and_prints(capsys):
    code, out, _ = run(capsys, "nf", "--expr", "((0 0) 01)")
    assert code == 0
    # the right factor's weight moves across the root: ((φ∨ψ)∨α(χ) form
    assert out.strip() == "(1 (0 0))"


def test_nf_parse_error_reports_position(capsys):
    code, out, err = run(capsys, "nf", "--expr", "bogus(")
    assert code == 2
    assert "position 0" in err


def test_nf_too_deeply_nested_is_inconclusive(capsys):
    deep = "(0 " * 1200 + "0" + ")" * 1200
    code, out, err = run(capsys, "--machine", "nf", "--expr", deep)
    assert code == 3
    assert out == ""
    assert err.startswith("inconclusive:") and err.count("\n") == 1
    assert "Traceback" not in err


def test_coproduct_of_a_25_leaf_comb_is_inconclusive(capsys):
    comb = "0"
    for _ in range(24):
        comb = "(0 %s)" % comb
    code, out, err = run(capsys, "--machine", "coproduct", "--expr", comb)
    assert (code, out) == (3, "")
    assert err == "inconclusive: the coproduct of a 25-leaf tree has 2^25 terms (cap 16 leaves)\n"


def test_nf_of_a_sixteen_leaf_comb_is_the_comb(capsys):
    comb = "(0 " * 15 + "0" + ")" * 15
    code, out, _ = run(capsys, "nf", "--expr", comb)
    assert code == 0
    assert out.strip() == comb


def test_equal_worked_example(capsys):
    code, out, _ = run(capsys, "equal", "--lhs", "((1 2) (2 1))",
                       "--rhs", "(2 (2 (1 0)))")
    assert code == 0
    assert out.splitlines()[0] == "Equal"


def test_equal_failure_names_the_class(capsys):
    code, out, _ = run(capsys, "equal", "--lhs", "0", "--rhs", "01")
    assert code == 1
    assert out.splitlines()[0] == "NotEqual"
    assert "(1, (0,))" in out


def test_equal_machine_output_is_deterministic(capsys):
    args = ("--machine", "equal", "--lhs", "((1 2) (2 1))", "--rhs", "(2 (2 (1 0)))")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    assert json.loads(out1)["verdict"] == "Equal"


def test_equal_in_enveloping_algebra(capsys):
    code, out, _ = run(capsys, "equal", "--algebra", SL2,
                       "--lhs", "(0:E 0:F) - (0:F 0:E)", "--rhs", "0:H")
    assert code == 0
    assert "Equal" in out
    assert "level 3" in out


def test_equal_not_provable_is_inconclusive(capsys):
    code, out, _ = run(capsys, "equal", "--algebra", SL2, "--level", "2",
                       "--lhs", "(0:E 0:E)", "--rhs", "0*1")
    assert code == 3
    assert "NotProvable" in out


def test_equal_level_below_operands_is_a_usage_error(capsys):
    code, _, err = run(capsys, "equal", "--algebra", SL2, "--level", "1",
                       "--lhs", "(0:E 0:E)", "--rhs", "0*1")
    assert code == 2


@pytest.mark.parametrize("level", ["0", "-2"])
def test_equal_refuses_a_level_below_one(capsys, level):
    code, out, err = run(capsys, "equal", "--algebra", SL2, "--lhs", "0:E", "--rhs", "0:F", "--level", level)
    assert code == 2
    assert out == ""
    assert err == "error: level must be at least 1\n"


@pytest.mark.parametrize("suite, level", [("ueg", "0"), ("ueg", "-1"), ("trees", "-1")])
def test_verify_refuses_a_level_below_one(capsys, suite, level):
    code, out, err = run(capsys, "verify", "--suite", suite, "--level", level)
    assert code == 2
    assert out == ""
    assert err == "error: level must be at least 1, got %s\n" % level


def test_a_high_level_hits_the_basis_cap_at_once(capsys):
    # the level is sized by counting shapes, not by building them
    start = time.perf_counter()
    code, out, err = run(capsys, "equal", "--algebra", SL2, "--level", "40",
                         "--lhs", "0:E", "--rhs", "0:E")
    assert time.perf_counter() - start < 1
    assert code == 3
    assert out == ""
    assert err.startswith("inconclusive: level 40 over a 3-dimensional algebra needs ")
    assert err.rstrip().endswith("basis trees (cap 8000)")


def test_validate_accepts_the_twisted_fixture(capsys):
    code, out, _ = run(capsys, "validate", SL2)
    assert code == 0
    assert out.startswith("Ok")


def test_validate_names_the_broken_law(capsys):
    code, out, _ = run(capsys, "validate", BROKEN)
    assert code == 1
    assert "multiplicativity" in out


def test_validate_missing_file(capsys):
    code, _, err = run(capsys, "validate", os.path.join(DATA, "nope.json"))
    assert code == 2


def test_coproduct_output(capsys):
    code, out, _ = run(capsys, "coproduct", "--expr", "(0 0)")
    assert code == 0
    assert out.strip() == "(0 0)⊗1 + 2*01⊗01 + 1⊗(0 0)"


@pytest.mark.parametrize("expr", ["(0:x 0)", "((0:x 0:y) (0 0))"])
def test_coproduct_of_a_mixed_tree_is_a_usage_error(capsys, expr):
    # the free side reads plain leaves only, so the first decoration is refused
    code, out, err = run(capsys, "coproduct", "--expr", expr)
    assert (code, out) == (2, "")
    assert err == "parse error: a leaf of the free algebra takes no decoration (at position %d)\n" % expr.index(":")


@pytest.mark.parametrize("argv", [
    ("nf", "--expr", "(0:x 0)"),
    ("equal", "--lhs", "(0:x 0)", "--rhs", "(0:x 0)"),
])
def test_free_commands_refuse_a_decorated_leaf(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == "parse error: a leaf of the free algebra takes no decoration (at position 2)\n"


def test_a_free_sequence_file_refuses_a_decorated_leaf(capsys, tmp_path):
    path = tmp_path / "seq.json"
    path.write_text(json.dumps({"bound": 0, "orders": [["1"], ["1", "0:x"]]}))
    code, out, err = run(capsys, "grouplike-check", "--file", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("parse error:")


def test_antipode_output(capsys):
    code, out, _ = run(capsys, "antipode", "--expr", "(0 (0 0))")
    assert code == 0
    assert out.strip() == "-((0 0) 0)"


def test_antipode_index_of_a_fern(capsys):
    code, out, _ = run(capsys, "antipode-index", "--expr", "(3 (2 (1 0)))")
    assert code == 0
    assert "index 0" in out


def test_antipode_index_gives_up_within_budget(capsys):
    code, out, _ = run(capsys, "antipode-index", "--max-k", "0",
                       "--expr", "((0 ((0 0) 0)) ((0 0) (0 0)))")
    assert code == 3
    assert "no invertibility index up to k=0" in out


@pytest.mark.parametrize("expr", ["(0 0)", "((0 ((0 0) 0)) ((0 0) (0 0)))"])
def test_antipode_index_refuses_a_negative_max_k(capsys, expr):
    code, out, err = run(capsys, "antipode-index", "--max-k", "-1", "--expr", expr)
    assert code == 2
    assert out == ""
    assert "max_k must be non-negative" in err


def test_exp_free_display(capsys):
    code, out, _ = run(capsys, "exp", "--scalar", "1", "--order", "2")
    assert code == 0
    assert out.splitlines() == [
        "exp_0: 1",
        "exp_1: 1 | 0",
        "exp_2: 1 | 01 | 1/2*(0 0)",
    ]


def test_exp_in_enveloping_algebra(capsys):
    code, out, _ = run(capsys, "exp", "--scalar", "1/2", "--order", "2",
                       "--algebra", SL2, "--element", "E")
    assert code == 0
    assert out.splitlines() == [
        "exp_0: 1",
        "exp_1: 1 | 1/2*0:E",
        "exp_2: 1 | 0:E | 1/8*(0:E 0:E)",
    ]


def test_exp_element_requires_algebra(capsys):
    code, _, err = run(capsys, "exp", "--scalar", "1", "--element", "E")
    assert code == 2


def test_exp_bad_scalar(capsys):
    code, _, err = run(capsys, "exp", "--scalar", "one")
    assert code == 2


@pytest.mark.parametrize("scalar", ["1e2", "1_0", " 1/2 ", "1 / 2"])
def test_exp_scalar_outside_the_coefficient_grammar_is_a_usage_error(capsys, scalar):
    code, out, err = run(capsys, "exp", "--scalar", scalar)
    assert (code, out) == (2, "")
    assert err.startswith("parse error:")


@pytest.mark.parametrize("scalar, first_order", [
    ("-1/2", ["1", "-1/2*0"]),
    ("+1/2", ["1", "1/2*0"]),
    ("0.5", ["1", "1/2*0"]),
    ("3", ["1", "3*0"]),
])
def test_exp_scalar_spellings(capsys, scalar, first_order):
    code, out, _ = run(capsys, "--machine", "exp", "--scalar", scalar, "--order", "1")
    assert code == 0
    assert json.loads(out)["orders"] == [["1"], first_order]


def assert_one_error_line(code, out, err):
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_exp_unknown_element_symbol_is_a_usage_error(capsys):
    code, out, err = run(capsys, "exp", "--scalar", "1", "--algebra", SL2, "--element", "Q")
    assert_one_error_line(code, out, err)
    assert "unknown basis symbol 'Q'" in err


@pytest.mark.parametrize("missing", ["alpha", "basis"])
@pytest.mark.parametrize("command", ["validate", "equal", "grouplike-check"])
def test_an_algebra_without_alpha_or_basis_is_a_usage_error(capsys, tmp_path, command, missing):
    algebra = {"name": "aff1", "basis": ["x", "y"], "bracket": {"x,y": {"y": "1"}},
               "alpha": [["1", "0"], ["0", "1"]]}
    del algebra[missing]
    path = tmp_path / "algebra.json"
    path.write_text(json.dumps(algebra))
    sequence = tmp_path / "sequence.json"
    sequence.write_text(json.dumps({"bound": 0, "orders": [["1"]], "algebra": algebra}))
    argv = {
        "validate": ["validate", str(path)],
        "equal": ["equal", "--algebra", str(path), "--lhs", "0:x", "--rhs", "0:x"],
        "grouplike-check": ["grouplike-check", "--file", str(sequence)],
    }[command]
    assert_one_error_line(*run(capsys, *argv))


@pytest.mark.parametrize("changes", [
    {"bracket": {"x,y": ["y"]}},
    {"bracket": [["x", "y"]]},
    {"alpha": 5},
    {"bracket": {"x,y": {"y": None}}},
    {"alpha": [[1.0, 0], [0, 1]]},
    {"basis": "xy"},
    {"basis": [1, 2], "bracket": {"0,1": {"1": "1"}}},
    {"bracket": {"x,y": {"y": True}}, "alpha": [[True, False], [False, True]]},
])
def test_a_malformed_algebra_file_is_a_usage_error(capsys, tmp_path, changes):
    algebra = {"name": "aff1", "basis": ["x", "y"], "bracket": {"x,y": {"y": "1"}},
               "alpha": [["1", "0"], ["0", "1"]]}
    path = tmp_path / "algebra.json"
    path.write_text(json.dumps({**algebra, **changes}))
    assert_one_error_line(*run(capsys, "validate", str(path)))


@pytest.mark.parametrize("name", [["aff1"], {"aff": 1}, 1])
@pytest.mark.parametrize("command", ["validate", "equal", "exp", "grouplike-check"])
def test_an_algebra_name_that_is_not_a_string_is_a_usage_error(capsys, tmp_path, command, name):
    # a list or dict name made `equal` and `exp` print a TypeError traceback (unhashable type)
    algebra = {"name": name, "basis": ["x", "y"], "bracket": {"x,y": {"y": "1"}},
               "alpha": [["1", "0"], ["0", "1"]]}
    path = tmp_path / "algebra.json"
    path.write_text(json.dumps(algebra))
    sequence = tmp_path / "sequence.json"
    sequence.write_text(json.dumps({"bound": 0, "orders": [["1"]], "algebra": algebra}))
    argv = {
        "validate": ["validate", str(path)],
        "equal": ["equal", "--algebra", str(path), "--lhs", "0:x", "--rhs", "0:x"],
        "exp": ["exp", "--scalar", "1", "--algebra", str(path), "--element", "x"],
        "grouplike-check": ["grouplike-check", "--file", str(sequence)],
    }[command]
    code, out, err = run(capsys, *argv)
    assert_one_error_line(code, out, err)
    assert "'name' must be a string" in err


@pytest.mark.parametrize("joined", [
    ("--machine", "exp", "--scalar=-1/2", "--order", "2"),
    ("--machine", "nf", "--expr=-((0 0) 01)"),
    ("--machine", "equal", "--lhs=-((0 0) 01)", "--rhs=-(1 (0 0))"),
    ("--machine", "equal", "--algebra", SL2, "--lhs", "(0:E 0:H) - (0:H 0:E)", "--rhs=-4*0:E"),
    ("--machine", "exp", "--scalar", "1", "--order", "1", "--algebra", SL2, "--element=-E"),
])
def test_option_values_may_start_with_a_dash(capsys, joined):
    # `--opt -x` answers byte for byte as `--opt=-x`
    split = [part for arg in joined
             for part in (arg.split("=", 1) if arg.startswith("--") and "=" in arg else (arg,))]
    code, out, _ = run(capsys, *joined)
    assert code == 0
    assert run(capsys, *split)[:2] == (code, out)


@pytest.mark.parametrize("argv", [
    ("exp", "--scalar"),
    ("exp", "--scalar", "--order", "2"),
    ("exp", "--scalar", "-h"),
    ("equal", "--lhs", "--rhs", "0"),
])
def test_a_missing_option_value_is_still_a_usage_error(capsys, argv):
    code, out, _ = run(capsys, *argv)
    assert (code, out) == (2, "")


def test_exp_machine_output_feeds_grouplike_check(capsys, tmp_path):
    code, out, _ = run(capsys, "--machine", "exp", "--scalar", "-1", "--order", "3")
    assert code == 0
    path = tmp_path / "seq.json"
    path.write_text(out, encoding="utf-8")
    code, out, _ = run(capsys, "grouplike-check", "--file", str(path))
    assert code == 0
    assert out.startswith("Ok")


def test_exp_machine_output_feeds_grouplike_check_in_ue(capsys, tmp_path):
    code, out, _ = run(capsys, "--machine", "exp", "--scalar", "1", "--order", "2",
                       "--algebra", SL2, "--element", "E + 2*H")
    assert code == 0
    payload = json.loads(out)
    assert payload["algebra"]["name"] == "sl2-twisted"
    path = tmp_path / "ueseq.json"
    path.write_text(out, encoding="utf-8")
    code, out, _ = run(capsys, "grouplike-check", "--file", str(path))
    assert code == 0
    assert out.startswith("Ok")


def test_grouplike_check_flags_incompatible_orders(capsys, tmp_path):
    # g_2's order-1 coefficient must be alpha of g_1's, i.e. 02 not 01
    path = tmp_path / "clauseb.json"
    path.write_text(json.dumps({
        "bound": 0,
        "orders": [["1"], ["1", "01"], ["1", "01", "1/2*(0 0)"]],
    }), encoding="utf-8")
    code, out, _ = run(capsys, "grouplike-check", "--file", str(path))
    assert code == 1
    assert "clause b" in out
    assert "p=1" in out


def test_grouplike_check_flags_coproduct_defect(capsys, tmp_path):
    path = tmp_path / "clausea.json"
    path.write_text(json.dumps({
        "bound": 0,
        "orders": [["1"], ["1", "0"], ["1", "0", "1/2*(0 0)"]],
    }), encoding="utf-8")
    code, out, _ = run(capsys, "grouplike-check", "--file", str(path))
    assert code == 1
    assert "clause a" in out


def test_grouplike_check_malformed_file(capsys, tmp_path):
    path = tmp_path / "junk.json"
    path.write_text("{", encoding="utf-8")
    code, _, err = run(capsys, "grouplike-check", "--file", str(path))
    assert code == 2


@pytest.mark.parametrize("sequence", [
    {"orders": 5},
    {"orders": [[1]]},
    {"bound": True, "orders": [["1"]]},
    {"bound": 1.5, "orders": [["1"]]},
    {"bound": -1, "orders": [["1"]]},
])
def test_a_malformed_sequence_file_is_a_usage_error(capsys, tmp_path, sequence):
    path = tmp_path / "sequence.json"
    path.write_text(json.dumps(sequence))
    assert_one_error_line(*run(capsys, "grouplike-check", "--file", str(path)))


# ------------------------------------------------------------ seeded fuzz

# the algebras the fuzz mutates: α invertible diagonal (the word space), with a
# zero entry, or not diagonal (one RowSpace over all of a level's rows)
FUZZ_ALGEBRAS = [
    {"name": "line0", "basis": ["x"], "alpha": [["0"]]},
    {"name": "line2", "basis": ["x"], "bracket": {}, "alpha": [["2"]]},
    {"name": "aff2", "basis": ["x", "y"], "bracket": {"x,y": {"y": "1"}}, "alpha": [["1", "0"], ["0", "1"]]},
    {"name": "aff2-kills-y", "basis": ["x", "y"], "bracket": {"x,y": {"y": "1"}}, "alpha": [["1", "0"], ["0", "0"]]},
    {"name": "aff2-mixing", "basis": ["x", "y"], "bracket": {"x,y": {"y": "1"}}, "alpha": [["1", "1"], ["0", "1"]]},
    {"name": "ab2-shift", "basis": ["x", "y"], "alpha": [[0, 1], [0, 0]]},
]
FUZZ_JUNK = [None, 0, 1, -1, 1.5, True, "", "x", "1/0", [], {}, [[]], ["x"], ["x", "x"], {"x,y": {"y": "1"}},
             {"x,y": []}, [["1"]], [["1", "0"], ["0", "1"]], [["1", "0"]], "1/2"]
FUZZ_ENTRIES = ["0", "1", "-1", "1/2", "2", "x", "1/0", "", 0, 1, 1.5, True, None, [], "3/0"]
FUZZ_BRACKET_KEYS = ["x,y", "y,x", "x,x", "x,z", "0,1", "1,0", "0,5", "x", "x,y,z", " x , y ", ""]
FUZZ_TOKENS = ["(", ")", " ", "0", "1", "2", "01", " + ", " - ", "*", "2*", "1/2*", "-", "x", "0:x", ":", "/",
               "1/0*", "((", "))", "", "1:y", "0:(x + y)", "  ", "7"]
FUZZ_SCALARS = ["1", "-1/2", "0", "3/4", "0.5", "+2"] * 2 + ["1/0", "x", "", "-", "1e2"]
FUZZ_ELEMENTS = ["x", "y", "x + y", "2*x", "-y", "1/2*x - y"] * 2 + ["z", "", "(x", "0"]


def _fuzz_tree(rng, n, leaf):
    if n == 1:
        return leaf(rng)
    k = rng.randint(1, n - 1)
    return "(%s %s)" % (_fuzz_tree(rng, k, leaf), _fuzz_tree(rng, n - k, leaf))


def _fuzz_expr(rng, leaf, most):
    """A ±-sum of up to three trees of at most `most` leaves, then mutated, or a token string."""
    if rng.random() < 0.15:
        return "".join(rng.choice(FUZZ_TOKENS) for _ in range(rng.randint(0, 10)))
    text = rng.choice(("", "1 + ", "2*", "-")) + _fuzz_tree(rng, rng.randint(1, most), leaf)
    for _ in range(rng.randint(0, 2)):
        text += rng.choice((" + ", " - ")) + rng.choice(("", "2*", "1/2*", "-3*")) + \
            _fuzz_tree(rng, rng.randint(1, most), leaf)
    for _ in range(rng.choice((0, 0, 1, 2))):
        i = rng.randint(0, len(text))
        cut = rng.randrange(3)  # delete, insert or replace one character
        text = text[:i] + ("" if cut == 0 else rng.choice(FUZZ_TOKENS)) + text[i + (cut != 1):]
    return text


def _fuzz_free_argv(rng):
    def expr():
        return _fuzz_expr(rng, lambda rng: rng.choice("0012"), 4)

    command = rng.choice(["nf", "equal", "coproduct", "antipode", "antipode-index", "exp"])
    if command == "equal":
        lhs, rhs = rng.choice([(expr(), expr())] * 2 + [("((0 0) 1)", "(1 (0 0))"), ("(((0 1) 0) 2)", "((1 (1 0)) 1)")])
        return ["equal", "--lhs", lhs, "--rhs", rng.choice([rhs, lhs])]
    if command == "antipode-index":
        return ["antipode-index", "--expr", expr(), "--max-k", rng.choice(["0", "1", "2", "3", "-1", "x"])]
    if command == "exp":
        return ["exp", "--scalar", rng.choice(FUZZ_SCALARS), "--order", rng.choice(["0", "1", "2", "3", "-1", "x"])]
    return [command, "--expr", expr()]


def _fuzz_algebra(rng, algebra):
    """A copy of the algebra with one field replaced by junk, dropped or broken inside."""
    data = json.loads(json.dumps(algebra))
    field = rng.choice(["name", "basis", "bracket", "alpha", "extra"])
    change = rng.randrange(3)
    if change == 0:
        data[field] = rng.choice(FUZZ_JUNK)
    elif change == 1:
        data.pop(field, None)
    elif field == "alpha":
        row = rng.choice(data["alpha"])
        row[rng.randrange(len(row))] = rng.choice(FUZZ_ENTRIES)
    elif field == "bracket":
        value = data.pop("bracket", {}).get("x,y", {"y": "1"})
        data["bracket"] = {rng.choice(FUZZ_BRACKET_KEYS): rng.choice([value, rng.choice(FUZZ_JUNK), {"z": "1"},
                                                                      {"x": "1/0"}])}
    elif field == "basis":
        data["basis"] = rng.choice([data["basis"] + ["z"], data["basis"][:-1], ["1x"] + data["basis"][1:], ["x", "x"]])
    return data


def _fuzz_algebra_argv(rng, write):
    base = rng.choice(FUZZ_ALGEBRAS)
    names = base["basis"] + ["z"] if rng.random() < 0.1 else base["basis"]

    def expr():
        return _fuzz_expr(rng, lambda rng: "%d:%s" % (rng.choice((0, 0, 1)), rng.choice(names)), 2)

    mutated = rng.random() < 0.5
    algebra = _fuzz_algebra(rng, base) if mutated else base
    text = json.dumps(algebra)
    if rng.random() < 0.05:
        text = text[:rng.randrange(len(text))]
    path = write(text)
    command = rng.choice(["validate", "equal", "exp", "grouplike-check"])
    if command == "validate":
        return ["validate", path]
    if command == "equal":
        # escalating to level 6 is cheap only over one basis element
        level = [] if len(base["basis"]) == 1 and not mutated else ["--level", rng.choice(["1", "2", "3", "3", "0", "x"])]
        lhs = expr()
        return ["equal", "--algebra", path, "--lhs", lhs, "--rhs", rng.choice([expr(), lhs])] + level
    if command == "exp":
        return ["exp", "--scalar", rng.choice(FUZZ_SCALARS), "--order", rng.choice(["0", "1", "2", "2", "-1"]),
                "--algebra", path, "--element", rng.choice(FUZZ_ELEMENTS)]
    orders = [["1"]] + [["1"] + [expr() for _ in range(p)] for p in range(1, rng.randint(1, 3))]
    sequence = {"bound": rng.choice([0, 0, 1, -1, True, "0"]), "orders": orders}
    if rng.random() < 0.8:
        sequence["algebra"] = algebra
    return ["grouplike-check", "--file", write(json.dumps(sequence))]


class CallTimedOut(BaseException):
    """A fuzz call outlived its time bound (a BaseException, so cli.run does not catch it)."""


def _time_out(signum, frame):
    raise CallTimedOut()


FUZZ_SEED = 2025
FUZZ_CALLS = 400
FUZZ_CALL_SECONDS = 10


def test_seeded_fuzz_keeps_the_exit_code_contract(capsys, tmp_path):
    # every call exits 0-3 with no traceback; a handler's exit 2 prints one error line and an
    # exit 3 one inconclusive line, or its report on stdout (argparse's exit 2 prints its usage)
    ueg._level_cache.clear()
    rng = random.Random(FUZZ_SEED)
    files = []

    def write(text):
        files.append(tmp_path / ("input%d.json" % len(files)))
        files[-1].write_text(text, encoding="utf-8")
        return str(files[-1])

    previous = signal.signal(signal.SIGALRM, _time_out)
    try:
        for _ in range(FUZZ_CALLS):
            argv = _fuzz_free_argv(rng) if rng.random() < 0.5 else _fuzz_algebra_argv(rng, write)
            if rng.random() < 0.3:
                argv = ["--machine"] + argv
            signal.setitimer(signal.ITIMER_REAL, FUZZ_CALL_SECONDS)
            try:
                code, out, err = run(capsys, *argv)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            assert code in (0, 1, 2, 3), argv
            assert "Traceback" not in err, argv
            if code == 2 and not err.startswith("usage:"):
                assert out == "" and err.startswith(("error:", "parse error:")) and err.count("\n") == 1, (argv, err)
            if code == 3 and err:
                assert err.startswith("inconclusive:") and err.count("\n") == 1, (argv, err)
    finally:
        signal.signal(signal.SIGALRM, previous)
    # the levels asked for were held by both engines
    assert {type(ctx.space).__name__ for ctx in ueg._level_cache.values()} == {"WordSpace", "RowSpace"}


def test_verify_trees_suite(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "trees")
    assert code == 0
    assert "suite trees: pass" in out
    assert "Catalan" in out


def test_verify_unknown_suite(capsys):
    code, _, _ = run(capsys, "verify", "--suite", "nonsense")
    assert code == 2


def test_verify_suite_choices_are_the_suites():
    assert cli.SUITE_NAMES == tuple(sorted(suites.SUITES))
    parser = cli.build_parser()
    for name in suites.SUITES:
        assert parser.parse_args(["verify", "--suite", name]).suite == name


SRC = os.path.dirname(os.path.dirname(os.path.abspath(homtrees.__file__)))


def fresh(code: str):
    """What `code` prints as JSON on its last line, run in a new interpreter."""
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    return json.loads(done.stdout.splitlines()[-1])


LOADED = """
import json, sys
print(json.dumps(sorted(m for m in ("dataclasses", "inspect", "homtrees.ambient", "homtrees.linalg")
                        + tuple("homtrees.%s" % n for n in ("freehom", "grouplike", "homlie", "suites", "trees", "ueg"))
                        if m in sys.modules and type(sys.modules[m]).__name__ == "module")))
"""
FREE_SIDE = ["homtrees.ambient", "homtrees.freehom", "homtrees.linalg", "homtrees.trees"]


def test_importing_the_cli_runs_only_the_free_side_modules():
    # grouplike, homlie, suites and ueg are registered but have not run, so
    # neither they nor dataclasses (which imports inspect) are loaded
    assert fresh("import homtrees.cli" + LOADED) == FREE_SIDE


@pytest.mark.parametrize("argv, modules", [
    (["nf", "--expr", "((0 0) 01)"], []),
    (["equal", "--lhs", "(0 0)", "--rhs", "01"], []),
    (["antipode-index", "--expr", "(0 0)"], []),
    (["validate", SL2], ["homlie"]),
    (["equal", "--algebra", SL2, "--lhs", "0:E", "--rhs", "0:E"], ["homlie", "ueg"]),
    (["exp", "--scalar", "1", "--order", "1"], ["grouplike"]),
    (["verify", "--suite", "trees"], ["grouplike", "homlie", "suites", "ueg"]),
    (["grouplike-check", "--file", os.path.join(DATA, "seq_exp_free.json")], ["grouplike"]),
])
def test_a_command_runs_only_the_modules_it_uses(argv, modules):
    code = "import contextlib, io\nfrom homtrees import cli\n" \
           "with contextlib.redirect_stdout(io.StringIO()): cli.run(%r)" % (argv,) + LOADED
    loaded = fresh(code)
    assert "dataclasses" not in loaded and "inspect" not in loaded
    assert [m for m in loaded if m not in FREE_SIDE] == ["homtrees.%s" % m for m in modules]


def test_verify_freehom_reports_the_u_element(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "freehom")
    assert code == 0
    assert "u nonzero / α(u)=0 / u primitive" in out
    assert "suite freehom: pass" in out


def test_verify_machine_output_is_deterministic(capsys):
    code1, out1, _ = run(capsys, "--machine", "verify", "--suite", "grouplike")
    code2, out2, _ = run(capsys, "--machine", "verify", "--suite", "grouplike")
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["verdict"] == "pass"
    assert [c["number"] for c in payload["criteria"]] == [7, 8]


# ------------------------------------------------------------ golden corpus

# argv, exit code and exact stdout of --machine calls over all nine
# commands, recorded before the Hom-Hopf maps were merged into one
# ambient class; "{data}" in an argument stands for tests/data
with open(os.path.join(DATA, "golden_machine.json"), encoding="utf-8") as _fh:
    GOLDEN = json.load(_fh)


@pytest.mark.parametrize("case", GOLDEN, ids=["%02d-%s" % (i, c["argv"][1]) for i, c in enumerate(GOLDEN)])
def test_golden_machine_output_is_byte_identical(capsys, case):
    argv = [arg.replace("{data}", DATA) for arg in case["argv"]]
    code, out, _ = run(capsys, *argv)
    assert (code, out) == (case["exit"], case["stdout"])
