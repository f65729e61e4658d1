"""Workload ueg-levels: level builds in the enveloping algebra U𝔤.

Every job makes a fresh Hom-Lie algebra from a seeded family, so the
level contexts its questions need are built inside the job; no graded
class of 𝕋/I is ever built.  The family has two kinds of member:

* aff2: [x,y] = μy, α = diag(1, λ), with λ = 1 (α = id) in some jobs;
* sl2 twisted by the diagonal automorphism diag(λ, 1, 1/λ).

Which kind a job takes, and the level its questions reach, follow a
fixed schedule; the seed picks μ, λ, the trees and the scalars.

Checks, all made apart from the program:

* pairs built by one R1 or R2 relation in a context must be Equal;
* in aff2 every relation row has zero coefficient sum over the all-x
  trees of each leaf count, so pairs that differ in such a sum are never
  Equal, at any level;
* at α = id, word pairs agree with the classical PBW rewriter;
* is_primitive_U on a generator or a commutator of generators must be
  True (Δ cancels exactly), and on x∨x in aff2 False (x⊗x survives by
  the all-x sum);
* the exp sequence has the terms s^m/m!·⌊x^m⌋_p and validates.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import factorial

import oracle as O
from common import Job, Workload, clear_program_caches
from homtrees import grouplike, ueg
from homtrees.homlie import make_algebra
from homtrees.linalg import LinComb

MUS = tuple(Fraction(c) for c in ("1", "2", "-1", "1/2", "3"))
LAMBDAS = tuple(Fraction(c) for c in ("2", "3", "1/2", "-1", "2/3", "-2"))
COEFFS = tuple(Fraction(c) for c in ("1", "2", "-1", "1/2", "-3"))

# (kind, λ = 1?, top level) per job; a round repeats this three times
SCHEDULE = (
    ("aff2", False, 5), ("aff2", False, 4), ("sl2", False, 4), ("aff2", True, 5),
    ("aff2", False, 4), ("sl2", False, 4), ("aff2", False, 5), ("aff2", False, 4),
    ("sl2", True, 4), ("aff2", False, 5),
)
SCHEDULES_PER_ROUND = 3


class Member:
    """One algebra of the family, as the benchmark knows it."""

    def __init__(self, name: str, basis: tuple, bracket: dict, diag: dict):
        self.name = name
        self.basis = basis
        self.bracket = dict(bracket)
        for (x, y), value in bracket.items():
            self.bracket[(y, x)] = {z: -c for z, c in value.items()}
        self.diag = diag

    def program_algebra(self):
        index = {name: i for i, name in enumerate(self.basis)}
        upper = {}
        for (x, y), value in self.bracket.items():
            if index[x] < index[y]:
                coords = [Fraction(0)] * len(self.basis)
                for z, c in value.items():
                    coords[index[z]] = c
                upper[(index[x], index[y])] = coords
        alpha = [[self.diag[x] if x == y else 0 for y in self.basis] for x in self.basis]
        return make_algebra(self.name, self.basis, upper, alpha)


def aff2(name: str, mu: Fraction, lam: Fraction) -> Member:
    return Member(name, ("x", "y"), {("x", "y"): {"y": mu}}, {"x": Fraction(1), "y": lam})


def sl2(name: str, lam: Fraction) -> Member:
    return Member(name, ("E", "H", "F"),
                  {("E", "H"): {"E": -2 * lam}, ("E", "F"): {"H": Fraction(1)},
                   ("H", "F"): {"F": -2 / lam}},
                  {"E": lam, "H": Fraction(1), "F": 1 / lam})


def random_tree(rng, names, n):
    if n == 1:
        return rng.choice(names)
    k = rng.randint(1, n - 1)
    return (random_tree(rng, names, k), random_tree(rng, names, n - k))


def relation_pair(rng, member: Member, n: int):
    """(lhs, rhs) whose difference is c times one relation row at n leaves."""
    while True:
        t = random_tree(rng, member.basis, n)
        rows = O.relation_rows(member, t)
        if rows:
            row = rng.choice(rows)
            break
    c = rng.choice(COEFFS)
    lead = min(row)
    lhs = {lead: c * row[lead]}
    return lhs, O.padd(dict(lhs), row, -c)


def all_x_sum(p: dict, n: int) -> Fraction:
    """Coefficient sum over aff2 trees with n leaves, every leaf x."""
    return sum((c for key, c in p.items() if key != "1"
                and O.dec_leaves(O.parse_decorated(key)) == ["x"] * n), Fraction(0))


def exp_terms(member: Member, x: dict, s: Fraction, cap: int) -> list:
    """exp̂_p(s·x) for p ≤ cap: ν^m term s^m/m!·⌊x^m⌋_p, weights pushed through α."""
    out = []
    for p in range(cap + 1):
        series = [{"1": Fraction(1)}]
        for m in range(1, p + 1):
            fern = O.right_fern_weighted(m, p)
            terms = {(): s ** m / factorial(m)}
            for weight in O.leaf_values(fern):
                terms = {names + (z,): c * xz * member.diag[z] ** weight
                         for names, c in terms.items() for z, xz in x.items()}
            poly: dict = {}
            for names, c in terms.items():
                it = iter(names)
                O.padd(poly, {O.dec_render(O.relabel(fern, it)): c})
            series.append(poly)
        out.append(series)
    return out


def make_job(name: str, rng: random.Random, index: int, kind: str, identity: bool, top: int) -> Job:
    lam = Fraction(1) if identity else rng.choice(LAMBDAS)
    if kind == "aff2":
        member = aff2("aff2-%d" % index, rng.choice(MUS), lam)
    else:
        member = sl2("sl2-%d" % index, lam)
    g = member.program_algebra()
    questions = []  # (lhs, rhs, expectation)

    # a relation pair at three leaves: Equal at level 4
    for _ in range(2 if kind == "sl2" else 1):
        lhs, rhs = relation_pair(rng, member, 3)
        questions.append((lhs, rhs, "equal"))
    if kind == "sl2":
        lhs, rhs = relation_pair(rng, member, 2)
        questions.append((lhs, rhs, "equal"))
    else:
        # shift an all-x sum: never Equal, so escalates up to `top`
        n = top - 1
        lhs, rhs = relation_pair(rng, member, n)
        O.padd(lhs, {O.dec_render(random_tree(rng, ("x",), n)): rng.choice(COEFFS)})
        questions.append((lhs, rhs, "unequal"))
    if identity:
        length = 3 if kind == "aff2" else 2
        memo: dict = {}
        order = {name: i for i, name in enumerate(member.basis)}
        for _ in range(2):
            word = tuple(rng.choice(member.basis) for _ in range(length))
            lhs = {O.dec_render(O.left_comb(word)): Fraction(1)}
            rhs = {O.dec_render(O.left_comb(w)): c
                   for w, c in O.pbw_normal_form(member.bracket, order, word, memo).items()}
            questions.append((lhs, dict(rhs), "equal"))
            other = tuple(sorted((rng.choice(member.basis) for _ in range(length)), key=order.get))
            O.padd(rhs, {O.dec_render(O.left_comb(other)): Fraction(1)})
            questions.append((lhs, rhs, "unequal"))

    a, b = member.basis[0], member.basis[1]
    if kind == "aff2":
        prim_kind = rng.choice(("generator", "commutator", "square"))
    else:
        prim_kind = rng.choice(("generator", "commutator"))
    prim = {"generator": {"0:%s" % rng.choice(member.basis): Fraction(1)},
            "commutator": {"(0:%s 0:%s)" % (a, b): Fraction(1), "(0:%s 0:%s)" % (b, a): Fraction(-1)},
            "square": {"(0:x 0:x)": Fraction(1)}}[prim_kind]

    x = {name: rng.choice(COEFFS) for name in member.basis}
    s = rng.choice(COEFFS)
    cap = 3 if top == 5 else 2
    program_questions = [(LinComb(lhs), LinComb(rhs)) for lhs, rhs, _ in questions]
    prim_poly = LinComb(prim)
    x_coords = tuple(x[name] for name in member.basis)

    def run():
        verdicts = [ueg.equal_mod_U_auto(g, lhs, rhs, escalation_cap=top)
                    for lhs, rhs in program_questions]
        primitive = ueg.is_primitive_U(g, prim_poly)
        ambient = grouplike.UEAmbient(g, x_coords, escalation_cap=top)
        seq = grouplike.exp_sequence(s, cap, ambient)
        return verdicts, primitive, seq, grouplike.validate_sequence(seq)

    def check(answer):
        verdicts, primitive, seq, validation = answer
        for (lhs, rhs, expect), verdict in zip(questions, verdicts):
            if expect == "equal" and not verdict.equal:
                return "relation or PBW-equal pair not Equal at level %d" % verdict.level
            if expect == "unequal":
                if verdict.equal:
                    return "pair that differs outside the relations came back Equal"
                if verdict.level != top:
                    return "NotProvable at level %d, escalation cap %d" % (verdict.level, top)
            if kind == "aff2" and expect == "unequal" and not identity:
                diff = O.padd(dict(lhs), rhs, -1)
                if all(all_x_sum(diff, n) == 0 for n in range(1, top + 1)):
                    return "built an unequal pair with no all-x difference"
        if primitive != (prim_kind != "square"):
            return "is_primitive_U(%s) is %s" % (prim_kind, primitive)
        expected = exp_terms(member, x, s, cap)
        for p in range(cap + 1):
            for m in range(p + 1):
                if dict(seq.terms[p].coeffs[m].terms) != expected[p][m]:
                    return "exp term p=%d ν^%d differs from s^m/m!·⌊x^m⌋_p" % (p, m)
        if not validation.ok:
            return "exp sequence rejected: clause %s" % validation.clause
        return None

    return Job(name, run, check)


class UegLevels(Workload):
    def __init__(self, seed: int):
        self.seed = seed

    def prepare(self):
        rng = random.Random(self.seed)
        jobs = []
        for i in range(SCHEDULES_PER_ROUND * len(SCHEDULE)):
            kind, identity, top = SCHEDULE[i % len(SCHEDULE)]
            label = "%s%s-level%d" % (kind, "-id" if identity else "", top)
            jobs.append(make_job(label, rng, i, kind, identity, top))
        self.jobs = jobs

    def before_round(self):
        clear_program_caches()
