"""The Hom-Hopf structure on a tree ambient, written once.

Both quotients in this package divide the same tree algebra: 𝕋/I keeps
leaf weights and is exactly graded, U𝔤 decorates the leaves and absorbs
every weight into its decoration through α.  An element of either is a
LinComb over stored keys, tensors LinCombs over (left key, right key)
pairs.  A stored key is "1" for 𝟙 or the codec text of a tree in the
quotient's own form: any weights in 𝕋/I, weight 0 on every leaf in U𝔤
(every U𝔤 constructor, from parse_u_poly to the maps, makes only those).

`Ambient` holds every map once — ∨, α, Δ, ε, S, ⊗, ηε, the convolution
⋆, tensor reduction, primitivity and the invertibility-index search.
Grafting two trees and mirroring one move no weight, so ∨ and S act on
stored keys alike in both quotients: two trees graft to "(a b)" of their
inner texts (trees.INNER_OF_KEY), a unit factor goes through the α
hook, and a mirrored key is a stored key.  α and Δ move weights, which
only the quotient knows how to store, so their bodies hand each key to
a per-quotient hook: _shift_key (α^k) and _split_tree (the stored
splits of Δ).  Each hook returns stored pairs for one key; _split_tree
also receives a memo dict that lives for one coproduct call.  Both
quotients answer them from the key text and the parsed key, without a
tree per term: 𝕋/I keeps the weights in its texts (freehom.FreeAmbient),
U𝔤 absorbs them into its decorations (ueg.UEAmbient).

A subclass supplies the two hooks, the key reduction, the zero test,
equality, parsing and the weighted powers.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, NamedTuple, Optional

from .linalg import LinComb, TruncSeries
from .trees import INNER_OF_KEY, is_unit, leaf_count, mirror, parse, to_text


class OracleInconclusive(RuntimeError):
    """A bounded oracle could neither confirm nor refute a required identity."""

    def __init__(self, message, verdict=None):
        super().__init__(message)
        self.verdict = verdict


# Δ of an n-leaf tree has 2^n terms: the CLI `coproduct` of a right comb
# took 0.40 s at 14 leaves and 1.1–1.4 s at 16 (2 vCPU, Python 3.11.7)
COPRODUCT_LEAF_CAP = 16


class ResourceLimit(RuntimeError):
    """A stated budget would be exceeded.

    A U𝔤 level context would hold more than ueg.DEFAULT_BASIS_CAP basis
    trees, or a coproduct would split a tree of more than
    COPRODUCT_LEAF_CAP leaves.
    """


def identity_op(p: LinComb) -> LinComb:
    return p


class IndexSearch(NamedTuple):
    """Result of the invertibility-index search.

    level is the proof level of a leveled ambient (U𝔤), None for 𝕋/I.
    """

    found: bool
    index: Optional[int]
    searched_up_to: int
    level: Optional[int] = None

    # grouplike-check prints this repr as the clause-c detail, so a 𝕋/I
    # search shows no level field
    def __repr__(self):
        level = "" if self.level is None else ", level=%d" % self.level
        return "IndexSearch(found=%r, index=%r, searched_up_to=%r%s)" % (
            self.found, self.index, self.searched_up_to, level)


class Ambient:
    """A quotient of the tree algebra with its Hom-Hopf maps.

    Subclasses define exact, _level_of, _key_reducer, is_zero, equal,
    power_product and parse, and the two per-quotient hooks _shift_key
    and _split_tree.  Every key of an element is a stored key (see the
    module docstring).
    """

    exact: bool

    def _level_of(self, keys) -> Optional[int]:
        """The level at which elements over these keys are decided."""
        raise NotImplementedError

    def _key_reducer(self, level) -> Callable:
        """key ↦ its normal form at the given level."""
        raise NotImplementedError

    def is_zero(self, p: LinComb, level: Optional[int] = None) -> bool:
        raise NotImplementedError

    # the per-quotient hooks: stored pairs for one key (see the module docstring)

    def _shift_key(self, key: str, k: int, coeff) -> list:
        """coeff·α^k(key) as stored (key, coeff) pairs."""
        raise NotImplementedError

    def _split_tree(self, t, coeff, memo: dict) -> list:
        """coeff·Δt as ((left key, right key), coeff) pairs, in trees.splits order.

        t is a parsed key: a tree within COPRODUCT_LEAF_CAP, or the unit.
        """
        raise NotImplementedError

    def unit(self) -> LinComb:
        return LinComb.single("1")

    def zero(self) -> LinComb:
        return LinComb.zero()

    def graft(self, a: LinComb, b: LinComb) -> LinComb:
        """Bilinear grafting of stored keys; a unit factor acts through α.

        Two trees graft to "(a b)" of their inner texts, a stored key as
        it stands: its weights are theirs.
        """
        inner = INNER_OF_KEY.get
        out = []
        for ka, ca in a.items():
            for kb, cb in b.items():
                if ka == "1":
                    out.extend(self._shift_key(kb, 1, ca * cb))
                elif kb == "1":
                    out.extend(self._shift_key(ka, 1, ca * cb))
                else:
                    out.append(("(%s %s)" % (inner(ka, ka), inner(kb, kb)), ca * cb))
        return LinComb(out)

    def alpha(self, p: LinComb, k: int = 1) -> LinComb:
        out = []
        for key, coeff in p.items():
            out.extend(self._shift_key(key, k, coeff))
        return LinComb(out)

    def coproduct(self, p: LinComb) -> LinComb:
        """Δ: a basis tree goes to Σ φ_I ⊗ φ_J over the splits of its leaf set.

        Δ(φ∨ψ) = Δφ ∨ Δψ, and trees.splits computes it that way; its unit
        rule shifts surviving weights, which _split_tree stores.  Δ𝟙 = 𝟙⊗𝟙.
        A tree of more than COPRODUCT_LEAF_CAP leaves raises ResourceLimit.
        """
        memo: dict = {}
        out = []
        for key, coeff in p.items():
            t = parse(key)
            n = 0 if is_unit(t) else leaf_count(t)
            if n > COPRODUCT_LEAF_CAP:
                raise ResourceLimit("the coproduct of a %d-leaf tree has 2^%d terms (cap %d leaves)"
                                    % (n, n, COPRODUCT_LEAF_CAP))
            out.extend(self._split_tree(t, coeff, memo))
        return LinComb(out)

    def counit(self, p: LinComb) -> int | Fraction:
        return p.coeff("1")

    def antipode(self, p: LinComb) -> LinComb:
        """S: 𝟙 fixed, a basis tree goes to (−1)^n times its mirror.

        Mirroring keeps every weight and decoration, so a stored key
        mirrors to a stored key.
        """
        out = []
        for key, coeff in p.items():
            t = parse(key)
            if is_unit(t):
                out.append(("1", coeff))
            else:
                out.append((to_text(mirror(t)), (-1) ** leaf_count(t) * coeff))
        return LinComb(out)

    def tensor(self, a: LinComb, b: LinComb) -> LinComb:
        return LinComb(((ka, kb), ca * cb) for ka, ca in a.items() for kb, cb in b.items())

    def eta_eps(self, p: LinComb) -> LinComb:
        return self.counit(p) * self.unit()

    def convolve(self, f: Callable, h: Callable) -> Callable:
        """f⋆h = ∨∘(f⊗h)∘Δ on linear endo-operators, second twist slot the identity."""
        return lambda p: self._graft_tensor(f, h, self.coproduct(p))

    def _graft_tensor(self, f: Callable, h: Callable, t: LinComb) -> LinComb:
        """∨∘(f⊗h) on a tensor, the second half of a convolution."""
        out = []
        for (lk, rk), coeff in t.items():
            for key, c in self.graft(f(LinComb.single(lk)), h(LinComb.single(rk))).items():
                out.append((key, coeff * c))
        return LinComb(out)

    def reduce_tensor(self, t: LinComb, level: Optional[int] = None) -> LinComb:
        """Normal form in the tensor square: reduce both factors of every term.

        Exact because the tensor-square ideal is J⊗𝕋 + 𝕋⊗J, whose quotient
        is spanned by pairs of normal forms.  A leveled ambient reduces at
        the given level, by default the one its factors need.
        """
        if level is None:
            level = self._level_of(key for pair in t.terms for key in pair)
        nf = self._key_reducer(level)
        out = []
        for (lk, rk), coeff in t.items():
            for la, ca in nf(lk).items():
                for rb, cb in nf(rk).items():
                    out.append(((la, rb), coeff * ca * cb))
        return LinComb(out)

    def is_primitive(self, p: LinComb) -> bool:
        """Whether Δp = p⊗𝟙 + 𝟙⊗p holds modulo the tensor-square ideal.

        Reduced at p's level: the defect can cancel p's largest trees.
        """
        level = self._level_of(p.terms)
        pairs = list(self.coproduct(p).items())
        for key, coeff in p.items():
            pairs.append(((key, "1"), -coeff))
            pairs.append((("1", key), -coeff))
        return not self.reduce_tensor(LinComb(pairs), level)

    def invertibility_index(self, x, max_k: int = 8) -> IndexSearch:
        """Smallest k with α^k((S⋆id)x − ηε(x)) = 0 = α^k((id⋆S)x − ηε(x)).

        x is an element or a TruncSeries of elements; for a series the
        conditions are imposed per ν-coefficient and the answer is the
        smallest uniform k, monotone because α maps the ideal into
        itself.  A leveled ambient proves each defect at its own level;
        a NotFound answer is then bounded by max_k and by that level.
        A negative max_k is a ValueError.
        """
        if max_k < 0:
            raise ValueError("max_k must be non-negative, got %d" % max_k)
        coeffs = x.coeffs if isinstance(x, TruncSeries) else (x,)
        defects = []
        for p in coeffs:
            target = self.eta_eps(p)
            delta = self.coproduct(p)
            defects.append(self._graft_tensor(self.antipode, identity_op, delta) - target)
            defects.append(self._graft_tensor(identity_op, self.antipode, delta) - target)
        levels = [self._level_of(d.terms) for d in defects]
        best = 0
        for d, level in zip(defects, levels):
            k = 0
            while not self.is_zero(d, level):
                if k >= max_k:
                    return IndexSearch(False, None, max_k, level)
                d = self.alpha(d)
                k += 1
            best = max(best, k)
        return IndexSearch(True, best, max_k, None if None in levels else max(levels))
