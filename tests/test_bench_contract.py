"""The names and shapes the benchmark under bench/ reads from homtrees.

bench/common.py empties the caches between rounds, bench/spans.py counts
class builds through cache_info() and level builds through the size of
ueg._level_cache, and bench/free.py replays every Equal certificate
against GradedClassContext.row_sources; the level contexts spans.py counts must
expose basis, row_sources and space.rank.  bench/cli_child.py imports the
CLI and at once has spans.py look its modules up in sys.modules, and
bench/uenv.py reads grouplike.UEAmbient.  spans.py wraps every function
in its FUNCTIONS list, called or not, and uenv.py calls the U𝔤 oracle
with fixed arguments.  The result records it reads are NamedTuples,
built and read by field position as well as by name.  A refactor that
breaks one of these breaks the benchmark, so each is pinned here.
"""

import inspect
import json
import os
import subprocess
import sys

import pytest

import homtrees
from homtrees import ambient, freehom, grouplike, homlie, linalg, suites, trees, ueg
from homtrees.homlie import make_algebra
from homtrees.linalg import LinComb, TruncSeries
from tree_path import rewrites

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.dirname(os.path.dirname(os.path.abspath(homtrees.__file__)))

CLS = (4, (3, 4, 4, 3))


def test_caches_the_benchmark_empties():
    for fn in (freehom.class_context, freehom._nf_key, trees.parse, trees.enumerate_shapes):
        fn.cache_clear()
        assert fn.cache_info().currsize == 0
    ueg._level_cache.clear()
    assert len(ueg._level_cache) == 0


def test_level_builds_are_counted_by_the_level_cache_size():
    # spans.py counts a build when len(ueg._level_cache) grows and reads basis, row_sources and
    # space.rank of the new context; a ueg-levels round builds 91 contexts between clears
    # a diagonal α with no zero entry takes the word space, diag(1, 0) the plain RowSpace
    assert ueg.LEVEL_CACHE_SIZE > 91
    ueg._level_cache.clear()
    for alpha in (((1, 0), (0, 2)), ((1, 0), (0, 0))):
        g = make_algebra("contract-levels", ("x", "y"), {(0, 1): (0, 1)}, alpha)
        for level in (2, 3, 4):
            before = len(ueg._level_cache)
            ctx = ueg.build_level(g, level)
            assert len(ueg._level_cache) == before + 1
            assert isinstance(ctx.basis, tuple) and all(isinstance(key, str) for key in ctx.basis)
            assert isinstance(ctx.row_sources, tuple) and len(ctx.row_sources) >= ctx.space.rank > 0
            assert ueg.build_level(g, level) is ctx
            assert len(ueg._level_cache) == before + 1


def test_class_builds_are_counted_by_cache_misses():
    freehom.class_context.cache_clear()
    freehom.class_context(*CLS)
    assert freehom.class_context.cache_info().misses == 1
    freehom.class_context(*CLS)
    assert freehom.class_context.cache_info().misses == 1


def test_class_context_holds_text_tuples():
    ctx = freehom.class_context(*CLS)
    assert (ctx.n, ctx.signature) == CLS
    assert isinstance(ctx.basis, tuple) and all(isinstance(key, str) for key in ctx.basis)
    assert isinstance(ctx.row_sources, tuple) and ctx.row_sources
    for pair in ctx.row_sources:
        assert isinstance(pair, tuple) and len(pair) == 2
        assert all(isinstance(text, str) for text in pair)
    unit = freehom.class_context(0, ())
    assert (unit.basis, unit.row_sources) == (("1",), ())


def test_equal_certificates_replay_against_row_sources():
    lhs = freehom.parse_poly("((1 2) (2 1)) + 2*((0 0) 01)")
    rhs = freehom.parse_poly("(2 (2 (1 0))) + 2*(1 (0 0))")
    verdict = freehom.equal_mod_I(lhs, rhs)
    assert verdict.equal
    parts = freehom.graded_decompose(lhs - rhs)
    assert set(verdict.certificates) == set(parts)
    for cls, certificate in verdict.certificates.items():
        ctx = freehom.class_context(*cls)
        total = LinComb.zero()
        for index, coeff in certificate.items():
            source, target = ctx.row_sources[index]
            assert target in {trees.to_text(r) for r in rewrites(trees.parse(source))}
            total = total + coeff * LinComb({source: 1, target: -1})
        assert total == parts[cls]


def test_the_cli_enters_every_module_spans_looks_up():
    # spans.install reads these from sys.modules right after `from homtrees import cli`
    code = """
import json, sys
from homtrees import cli
names = ["homtrees.%s" % n for n in ("trees", "linalg", "freehom", "ueg", "grouplike", "homlie")]
missing = [n for n in names if n not in sys.modules]
print(json.dumps([missing, sys.modules["homtrees.grouplike"].UEAmbient is sys.modules["homtrees.ueg"].UEAmbient]))
"""
    done = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=SRC),
                          capture_output=True, text=True, check=True)
    assert json.loads(done.stdout) == [[], True]


def test_a_traced_cli_child_answers_and_counts(tmp_path):
    stats = tmp_path / "stats.json"
    argv = ["--machine", "exp", "--scalar", "1/2", "--order", "2"]
    done = subprocess.run([sys.executable, os.path.join(ROOT, "bench", "cli_child.py"), str(stats)] + argv,
                          cwd=ROOT, capture_output=True, text=True)
    assert (done.returncode, done.stderr) == (0, "")
    assert json.loads(done.stdout)["orders"] == [["1"], ["1", "1/2*0"], ["1", "1/2*01", "1/8*(0 0)"]]
    assert json.loads(stats.read_text())["calls"]["grouplike.exp_sequence"] == 1


def test_every_function_spans_wraps_resolves_after_the_cli_import():
    code = """
import json, sys
sys.path.insert(0, %r)
from homtrees import cli
import spans
print(json.dumps([[m, a] for m, a, _ in spans.FUNCTIONS if not hasattr(sys.modules["homtrees." + m], a)]))
""" % os.path.join(ROOT, "bench")
    done = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=SRC),
                          capture_output=True, text=True, check=True)
    assert json.loads(done.stdout) == []


@pytest.mark.parametrize("fn, args, kwargs", [
    (ueg.equal_mod_U_auto, ("g", "lhs", "rhs"), {"escalation_cap": 5}),
    (ueg.is_primitive_U, ("g", "p"), {}),
    (grouplike.UEAmbient, ("g", "x"), {"escalation_cap": 5}),
    (grouplike.exp_sequence, ("s", 2, "ambient"), {}),
])
def test_the_calls_bench_uenv_makes_bind(fn, args, kwargs):
    inspect.signature(fn).bind(*args, **kwargs)


# each record with its fields in order and its defaults
RECORDS = [
    (linalg.Membership, ("inside", "certificate", "residual"), {}),
    (ambient.IndexSearch, ("found", "index", "searched_up_to", "level"), {"level": None}),
    (freehom.GradedClassContext, ("n", "signature", "basis", "row_sources", "space"), {}),
    (freehom.TreeEquality, ("equal", "certificates", "witness_class", "residual"),
     {"certificates": None, "witness_class": None, "residual": None}),
    (grouplike.SeriesElement, ("ambient", "series"), {}),
    (grouplike.GroupLikeResult, ("yes", "order", "check", "residual"),
     {"order": None, "check": None, "residual": None}),
    (grouplike.GroupLikeSequence, ("ambient", "terms", "bound", "cap"), {}),
    (grouplike.SequenceValidation, ("ok", "clause", "index", "detail"),
     {"clause": None, "index": None, "detail": None}),
    (grouplike.Order2Completion, ("feasible", "completion", "candidate_classes", "residual"),
     {"completion": None, "candidate_classes": (), "residual": None}),
    (homlie.HomLieAlgebra, ("name", "basis", "brackets", "alpha"), {}),
    (homlie.Validation, ("ok", "law", "witness", "residual"), {"law": None, "witness": None, "residual": None}),
    (homlie.HomLieMorphism, ("source", "target", "matrix"), {}),
    (suites.Check, ("name", "ok", "witness", "inconclusive"), {"witness": None, "inconclusive": False}),
    (suites.CriterionReport, ("number", "title", "checks"), {}),
]


@pytest.mark.parametrize("record, fields, defaults", RECORDS, ids=[r[0].__name__ for r in RECORDS])
def test_result_records_are_read_only_named_tuples(record, fields, defaults):
    assert record._fields == fields
    assert record._field_defaults == defaults
    if record is grouplike.GroupLikeSequence:  # its terms must be series of orders 0..cap
        values = (freehom.FREE, (TruncSeries([LinComb.single("1")]),), 0, 0)
    else:
        values = tuple(range(len(fields)))
    built = record(*values)
    assert tuple(built) == values
    assert all(getattr(built, name) == value for name, value in zip(fields, values))
    with pytest.raises(AttributeError):
        setattr(built, fields[0], values[0])
    assert repr(built) == "%s(%s)" % (record.__name__, ", ".join("%s=%r" % pair for pair in zip(fields, values)))
    if record is ambient.IndexSearch:  # grouplike-check prints a 𝕋/I search with no level
        assert repr(record(False, None, 3)) == "IndexSearch(found=False, index=None, searched_up_to=3)"
