"""A graded class's graph engine that builds its union-find and spanning
forest at once, kept as the reference for freehom.ClassComponents, which
builds the forest only for a certificate.

ClassComponents(basis, row_sources) joins the keys with path halving,
makes the largest key of each component its representative and keeps a
breadth-first spanning forest rooted at the representatives; the ranks,
residuals and certificates of freehom's class must be exactly these.
"""

from homtrees.linalg import LinComb, Membership


class ClassComponents:
    """The span of one graded class's relation rows, as components of
    its rewrite graph (see freehom's module docstring).

    The interface is RowSpace's: rank, reduce and membership.  Each
    component's representative is its largest key in string order, the
    one free column that elimination with smallest-key pivots leaves, so
    reduced residuals are exactly the ones RowSpace gives.
    """

    def __init__(self, basis: tuple, row_sources: tuple):
        parent = {key: key for key in basis}

        def find(key):
            while parent[key] != key:
                parent[key] = key = parent[parent[key]]
            return key

        adjacent = {key: [] for key in basis}
        for index, (source, target) in enumerate(row_sources):
            adjacent[source].append((target, index, 1))
            adjacent[target].append((source, index, -1))
            a, b = find(source), find(target)
            if a != b:
                parent[min(a, b)] = max(a, b)
        self._rep = {key: find(key) for key in basis}
        # key -> (parent key, row index, sign) with key − parent = sign·row
        self._forest: dict = {}
        for root in (key for key in basis if self._rep[key] == key):
            frontier = [root]
            for key in frontier:
                for other, index, sign in adjacent[key]:
                    if other != root and other not in self._forest:
                        self._forest[other] = (key, index, -sign)
                        frontier.append(other)
        self.rank = len(self._forest)

    def reduce(self, v: LinComb) -> LinComb:
        """Replace every key by its representative; keys outside the class stay."""
        out = dict(v.terms)
        for key in [k for k in v.terms if k in self._forest]:
            coeff = out.pop(key)
            rep = self._rep[key]
            acc = out.get(rep, 0) + coeff
            if acc:
                out[rep] = acc
            else:
                out.pop(rep, None)
        residual = LinComb()
        residual.terms = out
        return residual

    def membership(self, v: LinComb) -> Membership:
        residual = self.reduce(v)
        if residual:
            return Membership(False, None, residual)
        certificate: dict = {}
        for key, coeff in v.items():
            while key in self._forest:
                key, index, sign = self._forest[key]
                certificate[index] = certificate.get(index, 0) + sign * coeff
        return Membership(True, LinComb(certificate), None)
