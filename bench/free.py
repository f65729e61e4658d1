"""Workloads free-cold and free-warm: the quotient 𝕋/I of the free algebra.

free-cold starts every round with empty program caches, so nearly all
of its time goes to building graded classes (enumerate_class, relation
rows, RowSpace elimination with certificate history).  free-warm builds
every class its jobs touch during set-up and then times queries against
them, together with the Hopf maps and the Hom-group.

The graded classes the membership jobs build come from a fixed
catalogue, drawn once with CATALOGUE_SEED by the number of relation rows
of each class (what a build costs most nearly in proportion to).  The
cost of a class build varies several-fold between classes of one size,
so a catalogue that changed with the seed would move solve_s by more
than any bound worth having.  The seed picks everything else: the
trees inside each class, the rewrite walks, the coefficients, the
invertibility-index trees, the Hopf-map trees and the Hom-group scalars.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import factorial

import oracle as O
from common import Job, Workload, clear_program_caches
from homtrees import freehom, grouplike
from homtrees.linalg import LinComb

CLASS_CAP = 200  # basis trees in one graded class
COEFFS = tuple(Fraction(c) for c in ("1", "2", "-1", "1/2", "3", "-3/2", "2/3"))
SCALARS = tuple(Fraction(c) for c in ("1", "1/2", "-1", "2", "-1/3", "3/2", "1/4"))

CATALOGUE_SEED = 20261017
# a membership job builds one class from each band (rows low, rows high), so
# the jobs cost about the same and p50 and p90 fall among many of them
COLD_BANDS = ((1, 20), (20, 60), (60, 100))
COLD_MEMBERSHIP_JOBS = 45
# (fern?, leaves, largest weight) of the invertibility-index trees
COLD_INDEX_TREES = ((True, 4, 2), (True, 5, 0), (False, 3, 2), (False, 4, 2), (False, 5, 0)) * 2
WARM_BANDS = ((1, 20), (20, 40))
WARM_MEMBERSHIP_JOBS = 30
WARM_PAIRS = 24
WARM_HOPF_LEAVES = (6, 6, 7, 7, 8, 8, 8, 8, 8, 8, 8, 8, 9, 9)
WARM_GROUP_CAPS = (3, 4, 5, 6) * 2


def as_dict(p: LinComb) -> dict:
    return dict(p.terms)


class Inputs:
    """Seeded trees, classes and walks, all made by the reference algebra."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.rows: dict = {}

    def tree(self, n: int, max_weight: int = 2):
        if n == 1:
            return self.rng.randint(0, max_weight)
        k = self.rng.randint(1, n - 1)
        return (self.tree(k, max_weight), self.tree(n - k, max_weight))

    def fern(self, n: int, max_weight: int = 2):
        t = self.rng.randint(0, max_weight)
        for _ in range(n - 1):
            leaf = self.rng.randint(0, max_weight)
            t = (leaf, t) if self.rng.random() < 0.5 else (t, leaf)
        return t

    def class_rows(self, sig: tuple) -> int:
        rows = self.rows.get(sig)
        if rows is None:
            rows = sum(len(O.rewrites(t)) for t in O.class_trees(sig))
            self.rows[sig] = rows
        return rows

    def tree_in_band(self, low: int, high: int):
        """A tree with 6–9 leaves whose class has low ≤ rows < high."""
        while True:
            t = self.tree(self.rng.randint(6, 9))
            sig = O.signature(t)
            if len(O.class_trees(sig)) <= CLASS_CAP and low <= self.class_rows(sig) < high:
                return t

    def catalogue(self, bands, jobs: int) -> list:
        """Per membership job, the signatures of the classes it builds."""
        return [[O.signature(self.tree_in_band(low, high)) for low, high in bands]
                for _ in range(jobs)]

    def walk(self, t, steps: int = 6):
        """Random rewrites and inverse rewrites: a tree equal to t in 𝕋/I."""
        for _ in range(steps):
            moves = O.rewrites(t) + O.unrewrites(t)
            if moves:
                t = self.rng.choice(moves)
        return t

    def coeff(self) -> Fraction:
        return self.rng.choice(COEFFS)


# ------------------------------------------------------------------ checks


def graded(p: dict) -> dict:
    """Split by graded class, keyed as the program keys it: (n, signature)."""
    out: dict = {}
    for key, coeff in p.items():
        sig = O.class_of_key(key)
        out.setdefault((len(sig), sig), {})[key] = coeff
    return out


def replay(certificates: dict, diff: dict):
    """Every certificate row is one rewrite, and the rows sum to the component."""
    parts = graded(diff)
    for cls in parts:
        if cls not in certificates:
            return "no certificate for class %r" % (cls,)
    for cls, certificate in certificates.items():
        ctx = freehom.class_context(*cls)
        total: dict = {}
        for index, coeff in certificate.items():
            source, target = ctx.row_sources[index]
            if target not in {O.render(r) for r in O.rewrites(O.parse(source))}:
                return "row %d of class %r is not a rewrite: %s -> %s" % (index, cls, source, target)
            O.padd(total, {source: coeff, target: -coeff})
        if total != parts.get(cls, {}):
            return "certificate of class %r does not sum to the component" % (cls,)
    return None


def check_normal_form(p: dict, nf: LinComb):
    if O.reduce_poly(as_dict(nf)) != O.reduce_poly(p):
        return "normal form is not equal to its input"
    if freehom.normal_form(nf) != nf:
        return "normal form is not idempotent"
    if not freehom.equal_mod_I(nf, LinComb(p)).equal:
        return "normal form is not certified equal to its input"
    return None


def equality_pair(inputs: Inputs, signatures: list, equal: bool):
    """(lhs, rhs): one tree per class and its rewrite walk; unequal pairs
    add one more term to a class, so its coefficient sum differs."""
    lhs: dict = {}
    rhs: dict = {}
    first = None
    for sig in signatures:
        t = inputs.rng.choice(O.class_trees(sig))
        if first is None:
            first = t
        c = inputs.coeff()
        O.padd(lhs, {O.render(t): c})
        O.padd(rhs, {O.render(inputs.walk(t)): c})
    if not equal:
        O.padd(rhs, {O.render(inputs.walk(first)): inputs.coeff()})
    return lhs, rhs


def check_pair(lhs: dict, rhs: dict, equal: bool, answer):
    verdict, nf_left, nf_right = answer
    diff = O.padd(dict(lhs), rhs, -1)
    if verdict.equal != equal:
        return "verdict %s, built to be %s" % (verdict.equal, equal)
    if equal:
        problem = replay(verdict.certificates, diff)
        if problem:
            return problem
        if nf_left != nf_right:
            return "equal sides have different normal forms"
    else:
        component = graded(diff).get(verdict.witness_class, {})
        residual = as_dict(verdict.residual)
        if any(graded({key: 1}).keys() != {verdict.witness_class} for key in residual):
            return "residual leaves the witness class"
        if sum(residual.values()) != sum(component.values()) or O.is_zero(component):
            return "witness class %r is no witness" % (verdict.witness_class,)
        if nf_left == nf_right:
            return "unequal sides have the same normal form"
    return check_normal_form(lhs, nf_left) or check_normal_form(rhs, nf_right)


def membership_job(name: str, inputs: Inputs, signatures: list, pairs: int, parity: int) -> Job:
    """equal_mod_I and both normal forms on `pairs` pairs over the same classes;
    pair i is built Equal when i + parity is even, NotEqual otherwise."""
    equal = [(i + parity) % 2 == 0 for i in range(pairs)]
    specs = [equality_pair(inputs, signatures, e) for e in equal]
    polys = [(LinComb(lhs), LinComb(rhs)) for lhs, rhs in specs]

    def run():
        return [(freehom.equal_mod_I(left, right),
                 freehom.normal_form(left), freehom.normal_form(right))
                for left, right in polys]

    def check(answers):
        for i, ((lhs, rhs), answer) in enumerate(zip(specs, answers)):
            problem = check_pair(lhs, rhs, equal[i], answer)
            if problem:
                return "pair %d: %s" % (i, problem)
        return None

    return Job(name, run, check)


def index_job(name: str, inputs: Inputs, use_fern: bool, n: int, max_weight: int) -> Job:
    t = inputs.fern(n, max_weight) if use_fern else inputs.tree(n, max_weight)
    p = {O.render(t): Fraction(1)}
    poly = LinComb(p)
    max_k = 4

    def run():
        return freehom.invertibility_index(poly, max_k=max_k)

    def check(found):
        expected = O.index_of(p, max_k)
        if (O.is_fern(t) or O.n_leaves(t) <= 4) and expected != 0:
            return "reference index %r of %s breaks the fern/4-leaf rule" % (expected, O.render(t))
        if found.found != (expected is not None) or (found.found and found.index != expected):
            return "index %r, reference %r" % (found.index, expected)
        return None

    return Job(name, run, check)


def u_job(name: str) -> Job:
    """u is primitive, killed by α, and nonzero in the quotient."""
    zero = LinComb.zero()

    def run():
        u = freehom.u_element()
        return u, freehom.equal_mod_I(u, zero), freehom.equal_mod_I(freehom.alpha_poly(u), zero)

    def check(answer):
        u, plain, shifted = answer
        if O.is_zero(as_dict(u)) or not O.is_zero(O.alpha_poly(as_dict(u))):
            return "u_element is not the element the reference expects"
        if plain.equal or not shifted.equal:
            return "u: %s, α(u): %s; want NotEqual, Equal" % (plain.equal, shifted.equal)
        return replay(shifted.certificates, O.alpha_poly(as_dict(u)))

    return Job(name, run, check)


def hopf_job(name: str, inputs: Inputs, n: int) -> Job:
    t = inputs.tree(n, max_weight=0)
    p = {O.render(t): Fraction(1)}
    poly = LinComb(p)

    def run():
        return (freehom.coproduct(poly),
                freehom.antipode(freehom.antipode(poly)),
                freehom.convolve(freehom.antipode, freehom.identity_op)(poly),
                freehom.reduce_tensor(freehom.coproduct(poly)),
                freehom.is_primitive(poly))

    def check(answer):
        delta, twice, star, reduced, primitive = answer
        if as_dict(delta) != O.coproduct(p):
            return "coproduct differs from the leaf-subset sum"
        for side in (0, 1):
            counit: dict = {}
            for pair, coeff in delta.items():
                if pair[side] == "1":
                    O.padd(counit, {pair[1 - side]: coeff})
            if counit != p:
                return "counit law fails on side %d" % side
        if twice != poly:
            return "S∘S is not the identity"
        if as_dict(star) != O.convolve_poly(O.antipode_poly, O.identity_poly, p):
            return "(S⋆id) differs from the reference convolution"
        if O.reduce_tensor(as_dict(reduced)) != O.reduce_tensor(O.coproduct(p)):
            return "reduce_tensor changed the class of the tensor"
        cross = O.padd(O.coproduct(p), {(key, "1"): c for key, c in p.items()}, -1)
        O.padd(cross, {("1", key): c for key, c in p.items()}, -1)
        if primitive != (not O.reduce_tensor(cross)):
            return "is_primitive says %s" % primitive
        return None

    return Job(name, run, check)


def exp_coeff(s: Fraction, p: int, m: int) -> dict:
    """Coefficient of ν^m in exp̂_p(s): s^m/m! ⌊e^m⌋_p."""
    return O.tree_poly(O.right_fern_weighted(m, p), s ** m / factorial(m))


def group_job(name: str, inputs: Inputs, cap: int) -> Job:
    s, t = inputs.rng.sample(SCALARS, 2)

    def run():
        es = grouplike.exp_sequence(s, cap)
        et = grouplike.exp_sequence(t, cap)
        return (es, grouplike.homgroup_product(es, et), grouplike.homgroup_inverse(es),
                grouplike.validate_sequence(es))

    def check(answer):
        es, product, inverse, validation = answer
        if not validation.ok:
            return "exp sequence rejected: clause %s" % validation.clause
        for p in range(cap + 1):
            for m in range(p + 1):
                if as_dict(es.terms[p].coeffs[m]) != exp_coeff(s, p, m):
                    return "exp̂_%d(%s) term %d differs from s^m/m!·⌊e^m⌋" % (p, s, m)
                if not O.equal(as_dict(product.terms[p].coeffs[m]),
                               O.alpha_poly(exp_coeff(s + t, p, m))):
                    return "exp̂(s)∨exp̂(t) ≠ α(exp̂(s+t)) at p=%d, ν^%d" % (p, m)
                if not O.equal(as_dict(inverse.terms[p].coeffs[m]), exp_coeff(-s, p, m)):
                    return "S(exp̂(s)) ≠ exp̂(−s) at p=%d, ν^%d" % (p, m)
        return None

    return Job(name, run, check)


class FreeWorkload(Workload):
    def __init__(self, seed: int, warm: bool):
        self.seed = seed
        self.warm = warm

    def prepare(self):
        self.jobs = self.build()
        if self.warm:
            for job in self.jobs:
                job.run()

    def build(self) -> list:
        catalogue = Inputs(random.Random(CATALOGUE_SEED)).catalogue(
            *((WARM_BANDS, WARM_MEMBERSHIP_JOBS) if self.warm else (COLD_BANDS, COLD_MEMBERSHIP_JOBS)))
        inputs = Inputs(random.Random(self.seed))
        pairs = WARM_PAIRS if self.warm else 1
        jobs = [membership_job("equal-%d" % i, inputs, sigs, pairs, i)
                for i, sigs in enumerate(catalogue)]
        if self.warm:
            jobs += [hopf_job("hopf-%d" % n, inputs, n) for n in WARM_HOPF_LEAVES]
            jobs += [group_job("homgroup-%d" % cap, inputs, cap) for cap in WARM_GROUP_CAPS]
        else:
            jobs += [index_job("index-%s%d" % ("fern" if fern else "tree", n), inputs, fern, n, w)
                     for fern, n, w in COLD_INDEX_TREES]
        jobs.append(u_job("u-element"))
        # interleave the kinds so that no stretch of the round is all one kind
        random.Random(self.seed).shuffle(jobs)
        return jobs

    def before_round(self):
        if not self.warm:
            clear_program_caches()
