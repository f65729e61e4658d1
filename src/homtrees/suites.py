"""Verification suites behind `homtrees verify` and the acceptance tests.

Each criterion is a function returning named checks; a check's name is
the mathematical statement it verifies, and a failing check carries a
witness (a graded class, a residual, or an order).  Fixtures are chosen
so every suite runs exactly, at desk scale, with deterministic seeds.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import comb
from typing import NamedTuple, Optional

from . import freehom
from . import ueg
from .ambient import OracleInconclusive
from .freehom import FREE
from .grouplike import (
    complete_order2,
    exp_sequence,
    homgroup_inverse,
    homgroup_product,
    is_grouplike_order_p,
    SeriesElement,
    unit_sequence,
    validate_sequence,
)
from .ueg import UEAmbient
from .homlie import HomLieAlgebra, make_algebra, nilpotent_kernel, twist
from .linalg import LinComb, TruncSeries
from .trees import (
    Leaf,
    Node,
    alpha_shift,
    enumerate_class,
    enumerate_shapes,
    graft,
    s_signature,
    to_text,
    with_weights,
)

CATALAN = (1, 1, 2, 5, 14, 42, 132, 429)

# 8-leaf zero-weight shape whose antipode defect survives one alpha but
# not two; every smaller basis tree and every fern has index 0
DEEP_COUNTEREXAMPLE = "((0 ((0 0) 0)) ((0 0) (0 0)))"


class Check(NamedTuple):
    name: str
    ok: bool
    witness: Optional[str] = None
    inconclusive: bool = False


class CriterionReport(NamedTuple):
    number: int
    title: str
    checks: tuple

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)


def _random_tree(rng, max_leaves=3, max_weight=2):
    n = rng.randint(1, max_leaves)
    shape = rng.choice(enumerate_shapes(n))
    return with_weights(shape, [rng.randint(0, max_weight) for _ in range(n)])


def _random_fern(rng, max_leaves=6, max_weight=3):
    t = Leaf(rng.randint(0, max_weight))
    for _ in range(rng.randint(1, max_leaves - 1)):
        grown = Leaf(rng.randint(0, max_weight))
        t = Node(grown, t) if rng.random() < 0.5 else Node(t, grown)
    return t


def _random_decorated_text(g, rng, max_leaves=3):
    n = rng.randint(1, max_leaves)
    shape = rng.choice(enumerate_shapes(n))
    names = [rng.choice(g.basis) for _ in range(n)]
    return to_text(with_weights(shape, [0] * n, names))


# ----------------------------------------------------------------- fixtures


def nonabelian2(alpha_rows=((1, 0), (0, 1))) -> HomLieAlgebra:
    """[x, y] = y with a chosen alpha; alpha = id gives the classical case."""
    return make_algebra("aff2", ("x", "y"), {(0, 1): (0, 1)}, alpha_rows)


def halfaff() -> HomLieAlgebra:
    """[x, y] = y, alpha = diag(1, 2); multiplicative and non-identity."""
    return make_algebra("halfaff", ("x", "y"), {(0, 1): (0, 1)}, ((1, 0), (0, 2)))


def sl2_diagonal_twist() -> HomLieAlgebra:
    base = make_algebra(
        "sl2",
        ("E", "H", "F"),
        {(0, 1): (-2, 0, 0), (0, 2): (0, 1, 0), (1, 2): (0, 0, -2)},
        ((1, 0, 0), (0, 1, 0), (0, 0, 1)),
    )
    return twist(base, ((2, 0, 0), (0, 1, 0), (0, 0, Fraction(1, 2))))


def book3() -> HomLieAlgebra:
    """[x,y] = y, [x,z] = z, alpha = diag(1,1,0): z spans the alpha-nilpotent ideal."""
    return make_algebra(
        "book3",
        ("x", "y", "z"),
        {(0, 1): (0, 1, 0), (0, 2): (0, 0, 1)},
        ((1, 0, 0), (0, 1, 0), (0, 0, 0)),
    )


# --------------------------------------------------------------- criterion 1


def criterion_1() -> list:
    counts = tuple(len(enumerate_shapes(n)) for n in range(1, 9))
    return [
        Check(
            "shape counts for 1..8 leaves are the Catalan numbers %s" % (CATALAN,),
            counts == CATALAN,
            witness=None if counts == CATALAN else "got %s" % (counts,),
        )
    ]


# --------------------------------------------------------------- criterion 2


def criterion_2() -> list:
    rng = random.Random(90210)
    for trial in range(500):
        phi, psi, chi = (_random_tree(rng) for _ in range(3))
        lhs = graft(graft(phi, psi), alpha_shift(chi))
        rhs = graft(alpha_shift(phi), graft(psi, chi))
        if s_signature(lhs) != s_signature(rhs):
            return [
                Check(
                    "both terms of every Hom-associativity generator share one s-signature",
                    False,
                    witness="trial %d: %s vs %s" % (trial, to_text(lhs), to_text(rhs)),
                )
            ]
    return [
        Check(
            "both terms of every Hom-associativity generator share one s-signature "
            "(500 random instances)",
            True,
        )
    ]


# --------------------------------------------------------------- criterion 3


def criterion_3() -> list:
    checks = []
    rng = random.Random(30301)
    ok = True
    witness = None
    for trial in range(200):
        phi, psi, chi = (_random_tree(rng, max_leaves=2, max_weight=2) for _ in range(3))
        lhs = FREE.graft(
            FREE.graft(freehom.tree_poly(phi), freehom.tree_poly(psi)),
            FREE.alpha(freehom.tree_poly(chi)),
        )
        rhs = FREE.graft(
            FREE.alpha(freehom.tree_poly(phi)),
            FREE.graft(freehom.tree_poly(psi), freehom.tree_poly(chi)),
        )
        verdict = freehom.equal_mod_I(lhs, rhs)
        if not (verdict.equal and verdict.certificates is not None):
            ok = False
            witness = "trial %d: class %s" % (trial, verdict.witness_class)
            break
    checks.append(
        Check(
            "(φ∨ψ)∨α(χ) = α(φ)∨(ψ∨χ) certified in the quotient (200 random triples)",
            ok,
            witness,
        )
    )

    u = freehom.u_element()
    refute = freehom.equal_mod_I(u, LinComb.zero())
    u_ok = (
        not refute.equal
        and refute.witness_class == (4, (2, 3, 3, 2))
        and refute.residual
        and freehom.equal_mod_I(freehom.alpha_poly(u), LinComb.zero()).equal
        and freehom.is_primitive(u)
    )
    checks.append(
        Check(
            "u nonzero / α(u)=0 / u primitive",
            u_ok,
            None if u_ok else "refutation class %s" % (refute.witness_class,),
        )
    )
    checks.append(
        Check("u∨u is primitive", freehom.is_primitive(FREE.graft(u, u)))
    )
    return checks


# --------------------------------------------------------------- criterion 4


def criterion_4() -> list:
    fails = []
    pairs = 0
    for n in range(1, 6):
        shapes = enumerate_shapes(n)
        for k in (n, n + 1, n + 2):
            weighted = [freehom.k_weighted(s, k) for s in shapes]
            reference = freehom.nary_product(n, k)
            for i, wi in enumerate(weighted):
                if not freehom.equal_mod_I(wi, reference).equal:
                    fails.append((n, k, i, "reference"))
                for j in range(i + 1, len(weighted)):
                    pairs += 1
                    if not freehom.equal_mod_I(wi, weighted[j]).equal:
                        fails.append((n, k, i, j))
    checks = [
        Check(
            "φ[k] = ψ[k] for every pair of n-leaf shapes, n ≤ 5, k ∈ {n, n+1, n+2} "
            "(%d pairs)" % pairs,
            not fails,
            witness=None if not fails else "first failure %s" % (fails[0],),
        )
    ]
    fern_ok = all(
        freehom.equal_mod_I(
            freehom.k_weighted(freehom.left_fern(n), k),
            freehom.k_weighted(freehom.right_fern(n), k),
        ).equal
        for n in range(2, 6)
        for k in (n, n + 1, n + 2)
    )
    checks.append(Check("left and right fern weightings agree: Fₙˡ[k] = Fₙʳ[k]", fern_ok))
    return checks


# --------------------------------------------------------------- criterion 5


def criterion_5() -> list:
    for n in range(1, 5):
        for k in range(n, 7):
            lhs = freehom.reduce_tensor(freehom.coproduct(freehom.nary_product(n, k)))
            rhs = LinComb.zero()
            for i in range(n + 1):
                rhs = rhs + comb(n, i) * FREE.tensor(
                    freehom.nary_product(i, k), freehom.nary_product(n - i, k)
                )
            if lhs != freehom.reduce_tensor(rhs):
                return [
                    Check(
                        "Δ(⌊e^n⌋_k) = Σᵢ C(n,i)·⌊e^i⌋_k ⊗ ⌊e^{n−i}⌋_k modulo the tensor ideal",
                        False,
                        witness="n=%d k=%d" % (n, k),
                    )
                ]
    return [
        Check(
            "Δ(⌊e^n⌋_k) = Σᵢ C(n,i)·⌊e^i⌋_k ⊗ ⌊e^{n−i}⌋_k modulo the tensor ideal "
            "(n ≤ 4, k ≤ 6)",
            True,
        )
    ]


# --------------------------------------------------------------- criterion 6


def criterion_6() -> list:
    checks = []
    rng = random.Random(60606)

    bad = None
    for n in range(1, 5):
        for shape in enumerate_shapes(n):
            trials = [[0] * n, [1] * n] + [
                [rng.randint(0, 3) for _ in range(n)] for _ in range(6)
            ]
            for weights in trials:
                t = with_weights(shape, weights)
                found = freehom.invertibility_index(freehom.tree_poly(t), max_k=2)
                if not (found.found and found.index == 0):
                    bad = to_text(t)
                    break
    checks.append(
        Check(
            "every basis tree with ≤ 4 leaves has invertibility index 0",
            bad is None,
            witness=bad,
        )
    )

    bad = None
    for _ in range(50):
        t = _random_fern(rng)
        found = freehom.invertibility_index(freehom.tree_poly(t), max_k=2)
        if not (found.found and found.index == 0):
            bad = to_text(t)
            break
    checks.append(
        Check("ferns have invertibility index 0 (50 random ferns, weights ≤ 3)",
              bad is None, witness=bad)
    )

    deep = freehom.parse_poly(DEEP_COUNTEREXAMPLE)
    found = freehom.invertibility_index(deep, max_k=2)
    checks.append(
        Check(
            "the 8-leaf tree %s has invertibility index 1" % DEEP_COUNTEREXAMPLE,
            found.found and found.index == 1,
            witness=None if found.found else "no index up to %d" % found.searched_up_to,
        )
    )

    bad = None
    for _ in range(40):
        t = _random_tree(rng, max_leaves=5, max_weight=2)
        n = len(s_signature(t))
        found = freehom.invertibility_index(freehom.tree_poly(t), max_k=max(n - 1, 0))
        if not found.found:
            bad = to_text(t)
            break
    checks.append(
        Check(
            "every basis tree with n ≤ 5 leaves has a finite index ≤ n−1 "
            "(40 random trees)",
            bad is None,
            witness=bad,
        )
    )
    return checks


# --------------------------------------------------------------- criterion 7


def criterion_7() -> list:
    scalars = (Fraction(1), Fraction(-1), Fraction(1, 2))
    checks = []

    bad = None
    for s in scalars:
        seq = exp_sequence(s, 4)
        for p in range(5):
            if not is_grouplike_order_p(seq.element(p), p).yes:
                bad = "s=%s p=%d" % (s, p)
    checks.append(
        Check("exp̂_p(s) is p-order group-like for p ≤ 4, s ∈ {1, −1, 1/2}",
              bad is None, witness=bad)
    )

    def same(a: TruncSeries, b: TruncSeries) -> bool:
        return all(FREE.equal(a.coeffs[m], b.coeffs[m]) for m in range(a.order + 1))

    bad = None
    for s in scalars:
        for t in scalars:
            prod = homgroup_product(exp_sequence(s, 4), exp_sequence(t, 4))
            target = exp_sequence(s + t, 4)
            for p in range(5):
                if not same(prod.terms[p], target.terms[p].map(FREE.alpha)):
                    bad = "s=%s t=%s p=%d" % (s, t, p)
    checks.append(
        Check("exp̂(s) ∨ exp̂(t) = α(exp̂(s+t)) termwise", bad is None, witness=bad)
    )

    bad = None
    for s in scalars:
        seq = exp_sequence(s, 4)
        inv = homgroup_inverse(seq)
        neg = exp_sequence(-s, 4)
        unit = unit_sequence(FREE, 4)
        strict = homgroup_product(seq, inv)
        for p in range(5):
            if not same(inv.terms[p], neg.terms[p]):
                bad = "antipode s=%s p=%d" % (s, p)
            if not same(strict.terms[p], unit.terms[p]):
                bad = "inverse product s=%s p=%d" % (s, p)
    checks.append(
        Check("S(exp̂(s)) = exp̂(−s) and exp̂(s) ∨ exp̂(−s) = 𝟙 termwise",
              bad is None, witness=bad)
    )
    return checks


# --------------------------------------------------------------- criterion 8


def criterion_8() -> list:
    empty = enumerate_class(2, (0, 0)) == []
    checks = [Check("the graded class (2, (0,0)) contains no tree", empty)]

    elem = SeriesElement(FREE, TruncSeries([LinComb.single("1"), LinComb.single("0")]))
    out = complete_order2(elem)
    ok = (not out.feasible) and out.candidate_classes == ((2, (0, 0)),) and bool(out.residual)
    checks.append(
        Check(
            "no ν² coefficient completes 𝟙 + ν·leaf₀ to a 2-order group-like element",
            ok,
            witness=None if ok else "feasible=%s classes=%s" % (out.feasible, out.candidate_classes),
        )
    )
    return checks


# --------------------------------------------------------------- criterion 9


def classical_word_nf(g: HomLieAlgebra, word, cache) -> dict:
    """Independent classical oracle: sort words with the rule yx = xy − [x,y].

    Valid for alpha = id, where the enveloping algebra is the classical
    one and PBW normal forms decide equality.
    """
    word = tuple(word)
    hit = cache.get(word)
    if hit is not None:
        return hit
    for i in range(len(word) - 1):
        if word[i] > word[i + 1]:
            swapped = word[:i] + (word[i + 1], word[i]) + word[i + 2:]
            total = dict(classical_word_nf(g, swapped, cache))
            bracket = g.brackets[word[i]][word[i + 1]]
            for k, c in enumerate(bracket):
                if not c:
                    continue
                shorter = word[:i] + (k,) + word[i + 2:]
                for w2, c2 in classical_word_nf(g, shorter, cache).items():
                    total[w2] = total.get(w2, Fraction(0)) + c * c2
            result = {w: c for w, c in total.items() if c}
            cache[word] = result
            return result
    cache[word] = {word: Fraction(1)}
    return cache[word]


def embed_word(g: HomLieAlgebra, word) -> LinComb:
    """A word as the left-comb decorated tree ((x₁ x₂) x₃)…"""
    t = Leaf(0, g.basis[word[0]])
    for i in word[1:]:
        t = Node(t, Leaf(0, g.basis[i]))
    return LinComb.single(to_text(t))


def criterion_9(escalation_cap: int = ueg.DEFAULT_ESCALATION_CAP) -> list:
    g = nonabelian2()
    words = [(i,) for i in range(2)]
    words += [(i, j) for i in range(2) for j in range(2)]
    words += [(i, j, k) for i in range(2) for j in range(2) for k in range(2)]
    cache: dict = {}
    bad = None
    for a in range(len(words)):
        for b in range(a + 1, len(words)):
            classically = classical_word_nf(g, words[a], cache) == classical_word_nf(
                g, words[b], cache
            )
            verdict = ueg.equal_mod_U_auto(
                g, embed_word(g, words[a]), embed_word(g, words[b]),
                escalation_cap=escalation_cap,
            )
            if verdict.equal != classically:
                bad = "%s vs %s" % (words[a], words[b])
    return [
        Check(
            "level equality matches the classical enveloping algebra at α = id "
            "(all %d word pairs, words of length ≤ 3)" % (len(words) * (len(words) - 1) // 2),
            bad is None,
            witness=bad,
        )
    ]


# -------------------------------------------------------------- criterion 10


def criterion_10() -> list:
    g = make_algebra("flat2", ("x", "y"), {(0, 1): (0, 1)}, ((0, 0), (0, 0)))
    amb = UEAmbient(g)
    x = LinComb.single("0:x")
    square = amb.graft(x, x)
    bad = None
    for level in (2, 3, 4):
        verdict = ueg.equal_mod_U(g, square, LinComb.zero(), level)
        if verdict.equal or not verdict.residual:
            bad = "level %d" % level
    checks = [
        Check("x∨x is not provably zero at levels 2..4 when α = 0",
              bad is None, witness=bad)
    ]

    rng = random.Random(101010)
    bad = None
    for _ in range(25):
        text = _random_decorated_text(g, rng)
        p = LinComb.single(text)
        expected = LinComb({(text, "1"): 1, ("1", text): 1})
        if amb.coproduct(p) != expected or not amb.is_primitive(p):
            bad = text
    checks.append(
        Check("Δ(φ) = φ⊗𝟙 + 𝟙⊗φ for every tree in the α = 0 quotient "
              "(25 random trees)", bad is None, witness=bad)
    )
    return checks


# -------------------------------------------------------------- criterion 11


def criterion_11(escalation_cap: int = ueg.DEFAULT_ESCALATION_CAP) -> list:
    tw = sl2_diagonal_twist()
    x = tw.basis_vector(0)
    amb = UEAmbient(tw, x, escalation_cap=escalation_cap)
    scalars = (Fraction(1), Fraction(1, 2))
    checks = []

    unit = unit_sequence(amb, 3)
    z = exp_sequence(0, 3, amb)
    checks.append(
        Check(
            "exp̂(0·x) is the unit sequence (twisted sl2)",
            all(z.terms[p].coeffs == unit.terms[p].coeffs for p in range(4)),
        )
    )

    bad = None
    for s in scalars:
        outcome = validate_sequence(exp_sequence(s, 3, amb))
        if not outcome.ok:
            bad = "s=%s clause %s" % (s, outcome.clause)
    checks.append(
        Check(
            "exp̂(sx) is a formal group-like sequence with index bound 0, s ∈ {1, 1/2}",
            bad is None,
            witness=bad,
        )
    )

    def same(a: TruncSeries, b: TruncSeries) -> bool:
        return all(amb.equal(a.coeffs[m], b.coeffs[m]) for m in range(a.order + 1))

    bad = None
    for s in scalars:
        for t in scalars:
            prod = homgroup_product(exp_sequence(s, 3, amb), exp_sequence(t, 3, amb))
            target = exp_sequence(s + t, 3, amb)
            bumped = exp_sequence(s + t, 3, UEAmbient(tw, tw.apply_alpha(x),
                                                      escalation_cap=escalation_cap))
            for p in range(4):
                if not same(prod.terms[p], target.terms[p].map(amb.alpha)):
                    bad = "α-shift form s=%s t=%s p=%d" % (s, t, p)
                if not same(prod.terms[p], bumped.terms[p]):
                    bad = "α(x) form s=%s t=%s p=%d" % (s, t, p)
    checks.append(
        Check("exp̂(sx) ∨ exp̂(tx) = α(exp̂((s+t)x)) = exp̂((s+t)·α(x)) termwise",
              bad is None, witness=bad)
    )

    bad = None
    for s in scalars:
        seq = exp_sequence(s, 3, amb)
        inv = homgroup_inverse(seq)
        neg = exp_sequence(-s, 3, amb)
        strict = homgroup_product(seq, inv)
        for p in range(4):
            if not same(inv.terms[p], neg.terms[p]):
                bad = "antipode s=%s p=%d" % (s, p)
            if not same(strict.terms[p], unit.terms[p]):
                bad = "strict inverse s=%s p=%d" % (s, p)
    checks.append(
        Check("S(exp̂(sx)) = exp̂(−sx) is a strict inverse", bad is None, witness=bad)
    )

    bad = None
    for s in scalars:
        seq = exp_sequence(s, 3, amb)
        for p in range(4):
            found = amb.invertibility_index(seq.terms[p], max_k=0)
            if not (found.found and found.index == 0):
                bad = "s=%s p=%d" % (s, p)
    checks.append(
        Check("each exp̂_p(sx) has invertibility index 0", bad is None, witness=bad)
    )
    return checks


# -------------------------------------------------------------- criterion 12


def criterion_12() -> list:
    g = book3()
    _, quotient, projection = nilpotent_kernel(g)
    mapped = ueg.ue_map(projection)
    up, down = UEAmbient(g), UEAmbient(quotient)
    rng = random.Random(121212)

    def random_upoly():
        out = LinComb.zero()
        for _ in range(rng.randint(1, 2)):
            coeff = Fraction(rng.randint(-3, 3))
            if not coeff:
                coeff = Fraction(1)
            out = out + coeff * LinComb.single(_random_decorated_text(g, rng))
        return out

    checks = []
    bad = None
    for _ in range(25):
        a, b = random_upoly(), random_upoly()
        if mapped(up.graft(a, b)) != down.graft(mapped(a), mapped(b)):
            bad = "∨: %s, %s" % (freehom.format_poly(a), freehom.format_poly(b))
        if mapped(up.antipode(a)) != down.antipode(mapped(a)):
            bad = "S: %s" % freehom.format_poly(a)
        if mapped(up.alpha(a)) != down.alpha(mapped(a)):
            bad = "α: %s" % freehom.format_poly(a)
        pushed = LinComb.zero()
        for (lk, rk), c in up.coproduct(a).items():
            pushed = pushed + c * down.tensor(
                mapped(LinComb.single(lk)), mapped(LinComb.single(rk))
            )
        if pushed != down.coproduct(mapped(a)):
            bad = "Δ: %s" % freehom.format_poly(a)
    checks.append(
        Check(
            "the lifted projection commutes with ∨, S, α, Δ on representatives "
            "(25 random elements)",
            bad is None,
            witness=bad,
        )
    )

    bad = None
    for i in range(g.dim):
        upstairs = exp_sequence(1, 3, UEAmbient(g, g.basis_vector(i)))
        downstairs = exp_sequence(
            1, 3, UEAmbient(quotient, projection.apply(g.basis_vector(i)))
        )
        for p in range(4):
            if upstairs.terms[p].map(mapped).coeffs != downstairs.terms[p].coeffs:
                bad = "basis %s, p=%d" % (g.basis[i], p)
    checks.append(
        Check("exponential naturality: lifting then exp equals exp of the projection",
              bad is None, witness=bad)
    )
    return checks


# -------------------------------------------------------------- criterion 13


def criterion_13(escalation_cap: int = ueg.DEFAULT_ESCALATION_CAP) -> list:
    g = halfaff()
    amb = UEAmbient(g)
    rng = random.Random(131313)

    def conv(f, h, p):
        return amb.convolve(f, h)(p)

    ops = (
        ("id", lambda p: p),
        ("S", amb.antipode),
        ("ηε", amb.eta_eps),
        ("α", amb.alpha),
        ("α∘S", lambda p: amb.alpha(amb.antipode(p))),
    )

    assoc_bad = None
    item6_bad = None
    item7_bad = None
    item8_bad = None
    for trial in range(100):
        x = LinComb.single(_random_decorated_text(g, rng))
        fn, f = rng.choice(ops)
        hn, h = rng.choice(ops)
        kn, k = rng.choice(ops)

        lhs = conv(lambda q: conv(f, h, q), lambda q: amb.alpha(k(q)), x)
        rhs = conv(lambda q: amb.alpha(f(q)), lambda q: conv(h, k, q), x)
        verdict = ueg.equal_mod_U_auto(g, lhs, rhs, escalation_cap=escalation_cap)
        if not verdict.equal:
            assoc_bad = "trial %d ops (%s,%s,%s)" % (trial, fn, hn, kn)

        # counitality: f ⋆ ηε = α∘f, and (α^p∘S) ⋆ ηε = α^{p+1}∘S, exactly
        if conv(lambda q: q, amb.eta_eps, x) != amb.alpha(x):
            item6_bad = "id at trial %d" % trial
        for power in (0, 1, 2):
            got = conv(lambda q: amb.alpha(amb.antipode(q), power), amb.eta_eps, x)
            if got != amb.alpha(amb.antipode(x), power + 1):
                item6_bad = "α^%d∘S at trial %d" % (power, trial)

        if amb.alpha(conv(f, h, x)) != conv(lambda q: amb.alpha(f(q)), lambda q: amb.alpha(h(q)), x):
            item7_bad = "ops (%s,%s) at trial %d" % (fn, hn, trial)

        found = amb.invertibility_index(x)
        if not found.found:
            item8_bad = "no index at trial %d" % trial
        else:
            ki = found.index
            target = amb.eta_eps(x)
            left = conv(lambda q: amb.alpha(amb.antipode(q), ki), lambda q: amb.alpha(q, ki), x)
            right = conv(lambda q: amb.alpha(q, ki), lambda q: amb.alpha(amb.antipode(q), ki), x)
            if not (
                ueg.equal_mod_U_auto(g, left, target, escalation_cap=escalation_cap).equal
                and ueg.equal_mod_U_auto(g, right, target,
                                         escalation_cap=escalation_cap).equal
            ):
                item8_bad = "trial %d, index %d" % (trial, ki)

    return [
        Check("(f⋆h)⋆γ(k) = γ(f)⋆(h⋆k) in the quotient (100 random trees)",
              assoc_bad is None, witness=assoc_bad),
        Check("f ⋆ ηε = α∘f and (α^p∘S) ⋆ ηε = α^{p+1}∘S exactly",
              item6_bad is None, witness=item6_bad),
        Check("α∘(f⋆h) = (α∘f) ⋆ (α∘h) exactly", item7_bad is None, witness=item7_bad),
        Check("(α^k∘S) ⋆ α^k = α^k ⋆ (α^k∘S) = ηε at each tree's own index k",
              item8_bad is None, witness=item8_bad),
    ]


# ------------------------------------------------------------------- runner


CRITERIA: dict = {
    1: ("tree enumeration is Catalan", criterion_1),
    2: ("the relation ideal is s-homogeneous", criterion_2),
    3: ("quotient equality certifies Hom-associativity and refutes u = 0", criterion_3),
    4: ("k-weighted trees are indifferent to their shape", criterion_4),
    5: ("coproducts of n-ary products are binomial", criterion_5),
    6: ("antipode invertibility indices", criterion_6),
    7: ("exponential theorems in the one-generator quotient", criterion_7),
    8: ("no group-like completion over the weight-0 leaf", criterion_8),
    9: ("agreement with the classical enveloping algebra at α = id", criterion_9),
    10: ("α = 0: squares survive and every tree is primitive", criterion_10),
    11: ("exponential theorems in twisted-sl2's enveloping algebra", criterion_11),
    12: ("the enveloping functor commutes with the structure maps", criterion_12),
    13: ("convolution algebra laws", criterion_13),
}

SUITES = {
    "trees": (1, 2),
    "freehom": (3, 4, 5, 6),
    "grouplike": (7, 8),
    "ueg": (9, 10, 11, 12, 13),
}
SUITES["all"] = tuple(n for name in ("trees", "freehom", "grouplike", "ueg")
                      for n in SUITES[name])


def run_criterion(number: int, escalation_cap: Optional[int] = None) -> CriterionReport:
    title, fn = CRITERIA[number]
    kwargs = {}
    # a criterion that escalates takes escalation_cap as its one parameter
    if escalation_cap is not None and fn.__code__.co_argcount:
        kwargs["escalation_cap"] = escalation_cap
    try:
        checks = fn(**kwargs)
    except OracleInconclusive as exc:
        checks = [Check("oracle verdict required but unavailable", False,
                        witness=str(exc), inconclusive=True)]
    except ueg.ResourceLimit as exc:
        checks = [Check("level context exceeded the basis cap", False,
                        witness=str(exc), inconclusive=True)]
    return CriterionReport(number, title, tuple(checks))


def run_suite(name: str, escalation_cap: Optional[int] = None) -> list:
    if name not in SUITES:
        raise ValueError("unknown suite %r; choose from %s" % (name, sorted(SUITES)))
    if escalation_cap is not None and escalation_cap < 1:
        raise ValueError("level must be at least 1, got %d" % escalation_cap)
    return [run_criterion(n, escalation_cap) for n in SUITES[name]]
