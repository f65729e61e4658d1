"""Exact sparse linear algebra over the rationals.

Everything downstream (ideal membership, quotient normal forms, tensor
reductions) is built on three small exact structures:

* LinComb      -- finite formal linear combination of basis keys
* RowSpace     -- fully reduced row echelon span with membership certificates
* TruncSeries  -- formal series truncated modulo nu^(order+1)

The two quotients of the tree algebra use them as follows.  𝕋/I has only
±1 binomial rows, so it needs no elimination: freehom.ClassComponents
joins each class's keys by a union-find of its own.  U𝔤 eliminates with
RowSpace without history: for an invertible diagonal α, ueg.WordSpace
needs no R1 row and eliminates the bracket rows in word coordinates;
for any other α, one RowSpace takes all of a level's rows.  A
certificate, when read, eliminates all of a level's rows with history.
RowSpace also serves the order-p checks of group-like sequences
(grouplike) and the kernel computations of homlie; over all the rows it
remains the reference engine of both quotients in the tests.

RowSpace's elimination keeps a column index (key → the pivots whose rows
hold it), so clearing a new pivot's column touches only those rows; history
for certificates is kept only when asked for (track=True).

No floating point is used anywhere: a coefficient is an int or a
fractions.Fraction, and integral inputs give int results (see frac and
divide).
Basis keys can be anything hashable that sorts against the other keys of
the same space (codec strings, pairs of strings for tensors, integer
coordinates for plain vectors).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Iterable, NamedTuple


def frac(x) -> int | Fraction:
    """Coerce ints, strings like '-3/2' and Fractions to an exact coefficient.

    An integral value (an int or bool, Fraction(4, 2), "4/2") comes back
    as an int, any other rational as a Fraction; a float raises TypeError.
    """
    if x.__class__ is int:
        return x
    if not isinstance(x, Fraction):
        if isinstance(x, float):
            raise TypeError("floating point coefficients are not allowed: %r" % (x,))
        x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


def divide(a, b) -> int | Fraction:
    """a/b for coefficients a and b ≠ 0, exactly: an int when b divides a.

    Every division of coefficients goes through here, since a / b of two
    ints would be a float.
    """
    if b == 1:
        return a
    if b == -1:
        return -a
    return frac(Fraction(a, b))


class LinComb:
    """A finite map from basis keys to nonzero rational coefficients.

    A coefficient is an int or a Fraction, never a float: frac coerces
    every one that comes in, so an integral value comes in as an int.
    Arithmetic keeps ints where the operands are ints.  A sum or product
    of non-integral Fractions that comes out integral (1/2 + 1/2) may stay
    a Fraction: it compares and hashes equal to the int, and normalising
    every Fraction operation would cost time on the rational path.

    The empty combination is the canonical zero.  Instances are treated
    as immutable: no method mutates self, and the term dict must not be
    modified after construction.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        data: dict = {}
        if terms:
            items = terms.items() if isinstance(terms, dict) else terms
            for key, coeff in items:
                if coeff.__class__ is not int:
                    coeff = frac(coeff)
                if not coeff:
                    continue
                acc = data.get(key)
                if acc is None:
                    data[key] = coeff
                else:
                    acc = acc + coeff
                    if acc:
                        data[key] = acc
                    else:
                        del data[key]
        self.terms = data

    @staticmethod
    def zero() -> "LinComb":
        return LinComb()

    @staticmethod
    def single(key, coeff=1) -> "LinComb":
        return LinComb({key: coeff})

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LinComb):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __len__(self) -> int:
        return len(self.terms)

    def coeff(self, key) -> int | Fraction:
        return self.terms.get(key, 0)

    def support(self) -> list:
        return sorted(self.terms)

    def items(self):
        return self.terms.items()

    def __add__(self, other: "LinComb") -> "LinComb":
        if not self.terms:
            return other
        if not other.terms:
            return self
        out = dict(self.terms)
        for key, coeff in other.terms.items():
            acc = out.get(key, 0) + coeff
            if acc:
                out[key] = acc
            else:
                out.pop(key, None)
        result = LinComb()
        result.terms = out
        return result

    def __sub__(self, other: "LinComb") -> "LinComb":
        return self + (-1) * other

    def __neg__(self) -> "LinComb":
        return (-1) * self

    def __rmul__(self, scalar) -> "LinComb":
        scalar = frac(scalar)
        if not scalar:
            return LinComb()
        out = LinComb()
        out.terms = {key: scalar * coeff for key, coeff in self.terms.items()}
        return out

    def map_keys(self, fn: Callable) -> "LinComb":
        """Apply fn to every key, merging coefficients of collided images."""
        return LinComb((fn(key), coeff) for key, coeff in self.terms.items())

    def __repr__(self) -> str:
        if not self.terms:
            return "LinComb(0)"
        body = " + ".join("%s*%r" % (coeff, key) for key, coeff in sorted(self.terms.items(), key=lambda kv: _sort_token(kv[0])))
        return "LinComb(%s)" % body


def _sort_token(key):
    # keys of one space are homogeneous; repr only needs a stable order
    return repr(key)


class Membership(NamedTuple):
    """Answer of a row-space membership query.

    When inside, certificate is a LinComb over *input row indices* whose
    combination reproduces the query exactly.  Otherwise residual is the
    fully reduced nonzero remainder.
    """

    inside: bool
    certificate: LinComb | None
    residual: LinComb | None


class RowSpace:
    """Fully reduced row echelon span of a sequence of LinComb rows.

    Pivot selection takes the smallest basis key of a row in the ambient
    total order, so the reduced basis is deterministic given the input
    order.  Each stored row has pivot coefficient 1 and is zero in every
    other pivot column.  Treat instances as immutable once built.

    A column index maps each key to the pivots whose rows hold it, so a
    new pivot clears its column in just those rows instead of scanning
    every stored row.  With track=False no history is kept: membership
    then answers inside/outside and the residual, without a certificate.
    """

    def __init__(self, rows: Iterable[LinComb] = (), track: bool = True):
        self._rows: dict = {}      # pivot key -> reduced row
        self._history: dict = {}   # pivot key -> LinComb over input indices
        self._holders: dict = {}   # key -> set of pivots whose row has that key
        self._track = track
        self.n_inputs = 0
        for row in rows:
            self._insert(row)

    @property
    def rank(self) -> int:
        return len(self._rows)

    def pivots(self) -> list:
        return sorted(self._rows)

    def rows(self) -> list[LinComb]:
        """Reduced rows ordered by increasing pivot key."""
        return [self._rows[p] for p in sorted(self._rows)]

    def _insert(self, row: LinComb) -> None:
        index = self.n_inputs
        self.n_inputs += 1
        residual, combo = self._split(row)
        if not residual:
            return
        pivot = min(residual.terms)
        lead = residual.terms[pivot]
        normalized = residual if lead == 1 else divide(1, lead) * residual
        if self._track:
            hist = LinComb.single(index)
            for pkey, coeff in combo.items():
                if coeff:
                    _subtract(hist.terms, coeff, self._history[pkey].terms)
            if lead != 1:
                hist = divide(1, lead) * hist
        # keep the reduced invariant: clear the new pivot column in the rows
        # that hold it, updated in place (they are the builder's own until built)
        holders = self._holders
        new_terms = normalized.terms
        for pkey in holders.pop(pivot, ()):
            terms = self._rows[pkey].terms
            coeff = terms[pivot]
            _subtract(terms, coeff, new_terms)
            for key in new_terms:
                if key in terms:
                    holders.setdefault(key, set()).add(pkey)
                elif key != pivot:
                    holders[key].discard(pkey)
            if self._track:
                _subtract(self._history[pkey].terms, coeff, hist.terms)
        for key in new_terms:
            holders.setdefault(key, set()).add(pivot)
        self._rows[pivot] = normalized
        if self._track:
            self._history[pivot] = hist

    def _split(self, v: LinComb):
        """Reduce v against the stored rows.

        Returns (residual, combo) where combo maps pivot keys to the
        coefficients used, so v == residual + sum(combo[p] * row[p]).
        A single pass is enough because stored rows are fully reduced.
        """
        combo: dict = {}
        out = dict(v.terms)
        for key in [k for k in v.terms if k in self._rows]:
            coeff = out.get(key)
            if not coeff:
                combo.setdefault(key, 0)
                continue
            combo[key] = coeff
            for rkey, rcoeff in self._rows[key].terms.items():
                acc = out.get(rkey, 0) - coeff * rcoeff
                if acc:
                    out[rkey] = acc
                else:
                    out.pop(rkey, None)
        residual = LinComb()
        residual.terms = out
        return residual, combo

    def reduce(self, v: LinComb) -> LinComb:
        """Normal form of v modulo the span (the reduced residual)."""
        return self._split(v)[0]

    def membership(self, v: LinComb) -> Membership:
        residual, combo = self._split(v)
        if residual:
            return Membership(False, None, residual)
        if not self._track:
            return Membership(True, None, None)
        certificate = LinComb.zero()
        for pkey, coeff in combo.items():
            certificate = certificate + coeff * self._history[pkey]
        return Membership(True, certificate, None)


def _subtract(terms: dict, coeff, other: dict) -> None:
    """terms −= coeff·other in place, keeping the term order of LinComb −."""
    for key, c in other.items():
        acc = terms.get(key, 0) - coeff * c
        if acc:
            terms[key] = acc
        else:
            del terms[key]


class OrderMismatch(ValueError):
    """Raised when combining truncated series of different orders."""


class TruncSeries:
    """Coefficients c_0..c_p of a formal series, arithmetic mod nu^(p+1).

    The coefficient type only needs + and scalar * for the generic
    operations used here; products are formed through an explicit
    bilinear callback.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        coeffs = tuple(coeffs)
        if not coeffs:
            raise ValueError("a truncated series needs at least the order-0 coefficient")
        self.coeffs = coeffs

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncSeries):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __repr__(self) -> str:
        return "TruncSeries(%r)" % (self.coeffs,)

    def map(self, fn: Callable) -> "TruncSeries":
        return TruncSeries(fn(c) for c in self.coeffs)


def series_multiply(a: TruncSeries, b: TruncSeries, mul: Callable) -> TruncSeries:
    """Cauchy product truncated at the common order.

    mul(x, y) must be bilinear in the coefficient space; sums are taken
    with the coefficients' own + operator.
    """
    if a.order != b.order:
        raise OrderMismatch("series orders differ: %d vs %d" % (a.order, b.order))
    out = []
    for n in range(a.order + 1):
        terms = [mul(a.coeffs[i], b.coeffs[n - i]) for i in range(n + 1)]
        total = terms[0]
        for t in terms[1:]:
            total = total + t
        out.append(total)
    return TruncSeries(out)
