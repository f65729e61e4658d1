"""Group-like elements, formal group-like sequences, and the exponential.

A p-order group-like element is a truncated series g(ν) with Δg ≡ g⊗g
mod ν^{p+1} and ε(g) = 1.  A formal group-like sequence is a tower
(g_p)_p of those, tied together by g_{p+1} ≡ α(g_p) mod ν^{p+1}, with a
uniform invertibility-index bound; the set of such sequences forms a
Hom-group whose product is termwise grafting and whose inverse is the
antipode.

Everything here runs over an ambient.Ambient: the one-generator
algebra (freehom.FreeAmbient, exact, decidable equality) or an
enveloping algebra U𝔤 (ueg.UEAmbient, level-bounded equality — checks
that cannot be settled at the level cap raise OracleInconclusive
rather than guessing).

The sequence's truncation cap P is part of the value: every statement
in scope is per-order, so a finite prefix is the whole story.
"""

from __future__ import annotations

import json
from math import factorial
from typing import NamedTuple, Optional

from .ambient import OracleInconclusive
from .freehom import FREE, class_context, class_of
from .linalg import LinComb, RowSpace, TruncSeries, divide, frac, series_multiply


def __getattr__(name):
    # ueg and homlie load only on the U𝔤 path; grouplike.UEAmbient still resolves
    if name == "UEAmbient":
        from .ueg import UEAmbient

        return UEAmbient
    raise AttributeError("module %r has no attribute %r" % (__name__, name))


class SeriesElement(NamedTuple):
    """A truncated ν-series of quotient elements with its ambient handle."""

    ambient: object
    series: TruncSeries

    @property
    def order(self) -> int:
        return self.series.order


class GroupLikeResult(NamedTuple):
    yes: bool
    order: Optional[int] = None
    check: Optional[str] = None  # "counit" | "coproduct"
    residual: Optional[LinComb] = None


def is_grouplike_order_p(elem: SeriesElement, p: int) -> GroupLikeResult:
    """Δ(g) = g⊗g mod ν^{p+1} and ε(g) = 1, checked order by order."""
    if elem.order < p:
        raise ValueError("series truncated at order %d, below p=%d" % (elem.order, p))
    ambient = elem.ambient
    coeffs = elem.series.coeffs
    for m in range(p + 1):
        if ambient.counit(coeffs[m]) != (1 if m == 0 else 0):
            return GroupLikeResult(False, m, "counit")
    for m in range(p + 1):
        pairs = list(ambient.coproduct(coeffs[m]).items())
        for i in range(m + 1):
            pairs.extend((key, -c) for key, c in ambient.tensor(coeffs[i], coeffs[m - i]).items())
        defect = ambient.reduce_tensor(LinComb(pairs))
        if defect:
            if not ambient.exact:
                raise OracleInconclusive(
                    "group-like defect at order %d not provably zero" % m, defect)
            return GroupLikeResult(False, m, "coproduct", defect)
    return GroupLikeResult(True)


class _Sequence(NamedTuple):
    ambient: object
    terms: tuple  # terms[p] is a TruncSeries of order exactly p
    bound: int
    cap: int


class GroupLikeSequence(_Sequence):
    """Prefix g_0..g_P, the invertibility bound, and the truncation cap."""

    __slots__ = ()

    def __new__(cls, ambient: object, terms: tuple, bound: int, cap: int):
        if len(terms) != cap + 1:
            raise ValueError("expected %d series, got %d" % (cap + 1, len(terms)))
        for p, series in enumerate(terms):
            if series.order != p:
                raise ValueError("series %d truncated at order %d, want %d"
                                 % (p, series.order, p))
        return super().__new__(cls, ambient, terms, bound, cap)

    def element(self, p: int) -> SeriesElement:
        return SeriesElement(self.ambient, self.terms[p])


class SequenceValidation(NamedTuple):
    ok: bool
    clause: Optional[str] = None  # "a" | "b" | "c"
    index: Optional[int] = None
    detail: Optional[object] = None


def validate_sequence(seq: GroupLikeSequence) -> SequenceValidation:
    """Clause a: each g_p is p-order group-like (and g_0 is the unit itself);
    clause b: g_{p+1} = α(g_p) mod ν^{p+1}; clause c: indices stay ≤ bound."""
    ambient = seq.ambient
    if not ambient.equal(seq.terms[0].coeffs[0], ambient.unit()):
        return SequenceValidation(False, "a", 0, "g_0 is not the unit")
    for p in range(seq.cap + 1):
        result = is_grouplike_order_p(seq.element(p), p)
        if not result.yes:
            return SequenceValidation(False, "a", p, result)
    for p in range(seq.cap):
        shifted = seq.terms[p].map(ambient.alpha)
        for m in range(p + 1):
            if not ambient.equal(seq.terms[p + 1].coeffs[m], shifted.coeffs[m]):
                return SequenceValidation(False, "b", p,
                                          "order-%d coefficient differs" % m)
    for p in range(seq.cap + 1):
        found = ambient.invertibility_index(seq.terms[p], max_k=seq.bound)
        if not found.found or found.index > seq.bound:
            return SequenceValidation(False, "c", p, found)
    return SequenceValidation(True)


def unit_sequence(ambient, cap: int) -> GroupLikeSequence:
    terms = tuple(
        TruncSeries([ambient.unit()] + [ambient.zero()] * p) for p in range(cap + 1)
    )
    return GroupLikeSequence(ambient, terms, 0, cap)


def homgroup_product(a: GroupLikeSequence, b: GroupLikeSequence) -> GroupLikeSequence:
    """Termwise graft; the index bound k_a + k_b + 1 is recorded, not re-searched."""
    if a.ambient != b.ambient:
        raise ValueError("sequences live over different ambients")
    if a.cap != b.cap:
        raise ValueError("sequences have different caps (%d vs %d)" % (a.cap, b.cap))
    terms = tuple(
        series_multiply(a.terms[p], b.terms[p], a.ambient.graft)
        for p in range(a.cap + 1)
    )
    return GroupLikeSequence(a.ambient, terms, a.bound + b.bound + 1, a.cap)


def homgroup_inverse(a: GroupLikeSequence) -> GroupLikeSequence:
    """S coefficientwise, then confirm α^k(a ∨ S a) = 𝟙 = α^k(S a ∨ a), k ≤ bound."""
    ambient = a.ambient
    inverse = GroupLikeSequence(
        ambient, tuple(series.map(ambient.antipode) for series in a.terms),
        a.bound, a.cap)
    for p in range(a.cap + 1):
        left = series_multiply(a.terms[p], inverse.terms[p], ambient.graft)
        right = series_multiply(inverse.terms[p], a.terms[p], ambient.graft)
        if not _unit_after_alpha_power(ambient, left, a.bound) or \
           not _unit_after_alpha_power(ambient, right, a.bound):
            raise OracleInconclusive(
                "inverse law not confirmed within the stored bound %d at p=%d"
                % (a.bound, p))
    return inverse


def _unit_after_alpha_power(ambient, series: TruncSeries, bound: int) -> bool:
    unit = ambient.unit()
    zero = ambient.zero()
    for k in range(bound + 1):
        try:
            flat = all(
                ambient.equal(coeff, unit if m == 0 else zero)
                for m, coeff in enumerate(series.coeffs)
            )
        except OracleInconclusive:
            flat = False
        if flat:
            return True
        series = series.map(ambient.alpha)
    return False


def exp_sequence(s, cap: int, ambient=None) -> GroupLikeSequence:
    """g_p = 𝟙 + Σ_{i≤p} (s^i/i!) ν^i ⌊x^i⌋_p; the free ambient has x implicit."""
    if cap < 0:
        raise ValueError("cap must be non-negative")
    if ambient is None:
        ambient = FREE
    s = frac(s)
    terms = []
    for p in range(cap + 1):
        coeffs = [ambient.unit()]
        for i in range(1, p + 1):
            coeffs.append(divide(s ** i, factorial(i)) * ambient.power_product(i, p))
        terms.append(TruncSeries(coeffs))
    return GroupLikeSequence(ambient, tuple(terms), 0, cap)


# ------------------------------------------------------------- order-2 solver


def _interleavings(left: tuple, right: tuple):
    if not left:
        yield right
        return
    if not right:
        yield left
        return
    for rest in _interleavings(left[1:], right):
        yield (left[0],) + rest
    for rest in _interleavings(left, right[1:]):
        yield (right[0],) + rest


class Order2Completion(NamedTuple):
    feasible: bool
    completion: Optional[LinComb] = None
    candidate_classes: tuple = ()
    residual: Optional[LinComb] = None


def complete_order2(elem: SeriesElement) -> Order2Completion:
    """Solve Δc − c⊗𝟙 − 𝟙⊗c = q⊗q for the ν² coefficient c, q the ν¹ one.

    Splitting a tree (trees.splits) keeps every leaf's s-value, so any
    contribution to the class pair (s₁, s₂) must come from trees whose
    signature interleaves s₁ and s₂; the system is therefore finite and
    its infeasibility is a proof.  Only the exact one-generator ambient
    supports this.
    """
    ambient = elem.ambient
    if not getattr(ambient, "exact", False):
        raise ValueError("the completion solver needs the exact ambient")
    if elem.order < 1:
        raise ValueError("need the series at least to order 1")
    q = elem.series.coeffs[1]
    target = ambient.reduce_tensor(ambient.tensor(q, q))
    classes = set()
    for lk in q.terms:
        n1, s1 = class_of(lk)
        for rk in q.terms:
            n2, s2 = class_of(rk)
            for merged in _interleavings(s1, s2):
                classes.add((n1 + n2, merged))
    classes = tuple(sorted(classes))
    candidates = [text for n, signature in classes for text in class_context(n, signature).basis]
    rows = []
    for text in candidates:
        poly = LinComb.single(text)
        # as pairs: for 𝟙 the two terms are one key
        cross = ambient.coproduct(poly) - LinComb([((text, "1"), 1), (("1", text), 1)])
        rows.append(ambient.reduce_tensor(cross))
    space = RowSpace(rows)
    if not target:
        return Order2Completion(True, LinComb.zero(), classes)
    answer = space.membership(target)
    if not answer.inside:
        return Order2Completion(False, None, classes, answer.residual)
    completion = LinComb.zero()
    for idx, coeff in answer.certificate.items():
        completion = completion + coeff * LinComb.single(candidates[idx])
    return Order2Completion(True, completion, classes)


# ------------------------------------------------------------- sequence files


def load_sequence(source) -> GroupLikeSequence:
    """JSON sequence fixture: {"bound": k, "orders": [[expr, ...], ...]}.

    orders[p] lists the ν^0..ν^p coefficient expressions of g_p, each a
    string; the bound, 0 when absent, is a non-negative integer.  An
    optional "algebra" object (same schema as the algebra loader) moves
    the sequence into U𝔤; expressions then use decorated-leaf syntax.
    """
    if isinstance(source, str):
        with open(source, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    else:
        data = source
    if not isinstance(data, dict) or "orders" not in data:
        raise ValueError("sequence file needs an 'orders' array")
    orders = data["orders"]
    if not isinstance(orders, list) or not all(
            isinstance(exprs, list) and all(isinstance(e, str) for e in exprs) for exprs in orders):
        raise ValueError("'orders' must be a list of lists of expression strings")
    if not orders:
        raise ValueError("sequence file has no orders")
    bound = data.get("bound", 0)
    if not isinstance(bound, int) or isinstance(bound, bool) or bound < 0:
        raise ValueError("'bound' must be a non-negative integer")
    if "algebra" in data:
        from .homlie import load_algebra
        from .ueg import UEAmbient

        ambient = UEAmbient(load_algebra(data["algebra"]))
    else:
        ambient = FREE
    terms = []
    for p, exprs in enumerate(orders):
        if len(exprs) != p + 1:
            raise ValueError("g_%d needs %d coefficients, got %d" % (p, p + 1, len(exprs)))
        terms.append(TruncSeries([ambient.parse(e) for e in exprs]))
    return GroupLikeSequence(ambient, tuple(terms), bound, len(orders) - 1)
