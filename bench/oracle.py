"""A reference algebra written apart from homtrees, used to check its answers.

Nothing here imports homtrees.  Trees are plain Python values: a leaf is
its integer weight, a node is a (left, right) tuple and the unit 𝟙 is
None.  Decorated trees (for U𝔤) use the basis name as the leaf.  Keys
of polynomials are codec strings, so they compare directly with the
program's output.

The free quotient 𝕋/I is decided here by a different method from the
program's: every Hom-associativity relation is a ±1 binomial t − t'
between two trees of one graded class, so the quotient of a class is
free on the connected components of its rewrite graph.  A polynomial
lies in I exactly when every component's coefficients sum to zero.
Components are found with union-find over the class, which is
enumerated straight from its s-signature.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache


# ------------------------------------------------------------------ codec


def _render(t) -> str:
    if isinstance(t, tuple):
        return "(%s %s)" % (_render(t[0]), _render(t[1]))
    if isinstance(t, int):
        return str(t)
    return "0:%s" % t


def render(t) -> str:
    """Codec text: the unit is "1", the weight-1 leaf alone is "01"."""
    if t is None:
        return "1"
    if isinstance(t, int) and t == 1:
        return "01"
    return _render(t)


def parse(text: str):
    """Inverse of render for undecorated trees."""
    if text == "1":
        return None
    pos = 0

    def term():
        nonlocal pos
        if text[pos] == "(":
            pos += 1
            left = term()
            if text[pos] != " ":
                raise ValueError("bad tree text %r" % text)
            pos += 1
            right = term()
            if text[pos] != ")":
                raise ValueError("bad tree text %r" % text)
            pos += 1
            return (left, right)
        start = pos
        while pos < len(text) and text[pos].isdigit():
            pos += 1
        if pos == start:
            raise ValueError("bad tree text %r" % text)
        return int(text[start:pos])

    tree = term()
    if pos != len(text):
        raise ValueError("bad tree text %r" % text)
    return tree


# ------------------------------------------------------------ tree basics


def leaf_values(t) -> list:
    if isinstance(t, tuple):
        return leaf_values(t[0]) + leaf_values(t[1])
    return [t]


def n_leaves(t) -> int:
    return len(leaf_values(t))


def signature(t, depth: int = 0) -> tuple:
    """Per-leaf weight + depth, left to right."""
    if isinstance(t, tuple):
        return signature(t[0], depth + 1) + signature(t[1], depth + 1)
    return (t + depth,)


def shift(t, k: int = 1):
    if t is None:
        return None
    if isinstance(t, tuple):
        return (shift(t[0], k), shift(t[1], k))
    if t + k < 0:
        raise ValueError("negative weight")
    return t + k


def min_weight(t) -> int:
    return min(leaf_values(t))


def graft(a, b):
    if a is None and b is None:
        return None
    if a is None:
        return shift(b)
    if b is None:
        return shift(a)
    return (a, b)


def mirror(t):
    if isinstance(t, tuple):
        return (mirror(t[1]), mirror(t[0]))
    return t


def restrict(t, keep: frozenset):
    """Leaves outside `keep` (1-based positions) become 𝟙, then simplify."""
    counter = [0]

    def go(node):
        if isinstance(node, tuple):
            left = go(node[0])
            right = go(node[1])
            return graft(left, right)
        counter[0] += 1
        return node if counter[0] in keep else None

    return go(t)


def is_fern(t) -> bool:
    if not isinstance(t, tuple):
        return True
    if isinstance(t[0], tuple) and isinstance(t[1], tuple):
        return False
    return is_fern(t[0]) and is_fern(t[1])


def right_fern_weighted(n: int, k: int):
    """⌊e^n⌋_k: the right fern on n leaves, leaf at depth d weighted k-1-d."""
    if n == 0:
        return None
    depth = n - 1
    t = k - 1 - depth
    for d in range(n - 2, -1, -1):
        t = (k - 1 - (d + 1), t)
    return t


# ------------------------------------------------------------ polynomials


def padd(acc: dict, other: dict, scale=1) -> dict:
    for key, coeff in other.items():
        value = acc.get(key, 0) + scale * coeff
        if value:
            acc[key] = value
        else:
            acc.pop(key, None)
    return acc


def tree_poly(t, coeff=1) -> dict:
    return {render(t): Fraction(coeff)}


def alpha_poly(p: dict, k: int = 1) -> dict:
    out: dict = {}
    for key, coeff in p.items():
        padd(out, {render(shift(parse(key), k)): coeff})
    return out


def antipode_poly(p: dict) -> dict:
    out: dict = {}
    for key, coeff in p.items():
        t = parse(key)
        if t is None:
            padd(out, {"1": coeff})
        else:
            padd(out, {render(mirror(t)): (-1) ** n_leaves(t) * coeff})
    return out


def graft_poly(a: dict, b: dict) -> dict:
    out: dict = {}
    for ka, ca in a.items():
        ta = parse(ka)
        for kb, cb in b.items():
            padd(out, {render(graft(ta, parse(kb))): ca * cb})
    return out


def coproduct(p: dict) -> dict:
    """Δ over (left text, right text) pairs: the sum over leaf subsets."""
    out: dict = {}
    for key, coeff in p.items():
        t = parse(key)
        if t is None:
            padd(out, {("1", "1"): coeff})
            continue
        n = n_leaves(t)
        everything = frozenset(range(1, n + 1))
        for mask in range(2 ** n):
            keep = frozenset(i for i in everything if mask >> (i - 1) & 1)
            pair = (render(restrict(t, keep)), render(restrict(t, everything - keep)))
            padd(out, {pair: coeff})
    return out


def convolve_poly(left_map, right_map, p: dict) -> dict:
    """(f⋆g)(p) = ∨∘(f⊗g)∘Δ(p)."""
    out: dict = {}
    for (lk, rk), coeff in coproduct(p).items():
        padd(out, graft_poly(left_map({lk: Fraction(1)}), right_map({rk: Fraction(1)})), coeff)
    return out


def identity_poly(p: dict) -> dict:
    return dict(p)


def antipode_defects(p: dict) -> list:
    """(S⋆id)p − ηε(p) and (id⋆S)p − ηε(p)."""
    eta = {"1": p["1"]} if "1" in p else {}
    left = padd(convolve_poly(antipode_poly, identity_poly, p), eta, -1)
    right = padd(convolve_poly(identity_poly, antipode_poly, p), eta, -1)
    return [left, right]


# ------------------------------------------------------ graded classes


@lru_cache(maxsize=None)
def class_trees(sig: tuple) -> tuple:
    """Every weighted tree with this s-signature, built from the signature."""
    if len(sig) == 1:
        return (sig[0],) if sig[0] >= 0 else ()
    if min(sig) < 1:
        return ()
    found = []
    for k in range(1, len(sig)):
        lefts = class_trees(tuple(s - 1 for s in sig[:k]))
        if not lefts:
            continue
        rights = class_trees(tuple(s - 1 for s in sig[k:]))
        for left in lefts:
            for right in rights:
                found.append((left, right))
    return tuple(found)


def rewrites(t) -> list:
    """Single-node rewrites (A∨B)∨C → α(A)∨(B∨C↓), min weight of C ≥ 1."""
    out = []

    def walk(node, rebuild):
        if not isinstance(node, tuple):
            return
        left, right = node
        if isinstance(left, tuple) and min_weight(right) >= 1:
            out.append(rebuild((shift(left[0]), (left[1], shift(right, -1)))))
        walk(left, lambda r: rebuild((r, right)))
        walk(right, lambda r: rebuild((left, r)))

    walk(t, lambda r: r)
    return out


def unrewrites(t) -> list:
    """The inverse moves: X∨(B∨D) → (X↓∨B)∨α(D), min weight of X ≥ 1."""
    out = []

    def walk(node, rebuild):
        if not isinstance(node, tuple):
            return
        left, right = node
        if isinstance(right, tuple) and min_weight(left) >= 1:
            out.append(rebuild(((shift(left, -1), right[0]), shift(right[1]))))
        walk(left, lambda r: rebuild((r, right)))
        walk(right, lambda r: rebuild((left, r)))

    walk(t, lambda r: r)
    return out


@lru_cache(maxsize=None)
def components(sig: tuple) -> dict:
    """Codec text → component id (the largest text in the component)."""
    members = [render(t) for t in class_trees(sig)]
    parent = {text: text for text in members}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for t in class_trees(sig):
        a = find(render(t))
        for r in rewrites(t):
            b = find(render(r))
            if a != b:
                if a < b:
                    a, b = b, a
                parent[b] = a
    return {text: find(text) for text in members}


def class_of_key(key: str) -> tuple:
    t = parse(key)
    return () if t is None else signature(t)


def component_of(key: str) -> str:
    sig = class_of_key(key)
    if not sig:
        return "1"
    return components(sig)[key]


def reduce_poly(p: dict) -> dict:
    """Coordinates of p in 𝕋/I: component id → coefficient sum."""
    out: dict = {}
    for key, coeff in p.items():
        padd(out, {component_of(key): coeff})
    return out


def is_zero(p: dict) -> bool:
    return not reduce_poly(p)


def equal(a: dict, b: dict) -> bool:
    return is_zero(padd(dict(a), b, -1))


def reduce_tensor(t: dict) -> dict:
    """Coordinates in (𝕋/I)⊗(𝕋/I): pairs of component ids."""
    out: dict = {}
    for (lk, rk), coeff in t.items():
        padd(out, {(component_of(lk), component_of(rk)): coeff})
    return out


def index_of(p: dict, max_k: int):
    """Smallest k ≤ max_k with α^k of both antipode defects in I, else None."""
    best = 0
    for defect in antipode_defects(p):
        k = 0
        while not is_zero(defect):
            if k >= max_k:
                return None
            defect = alpha_poly(defect)
            k += 1
        best = max(best, k)
    return best


# ------------------------------------------------ enveloping algebra (U𝔤)


def dec_render(t) -> str:
    if isinstance(t, tuple):
        return "(%s %s)" % (dec_render(t[0]), dec_render(t[1]))
    return "0:%s" % t


def dec_leaves(t) -> list:
    if isinstance(t, tuple):
        return dec_leaves(t[0]) + dec_leaves(t[1])
    return [t]


def internal_paths(t, path=()) -> list:
    if not isinstance(t, tuple):
        return []
    return [path] + internal_paths(t[0], path + (0,)) + internal_paths(t[1], path + (1,))


def subtree(t, path):
    for step in path:
        t = t[step]
    return t


def replace(t, path, new):
    if not path:
        return new
    if path[0] == 0:
        return (replace(t[0], path[1:], new), t[1])
    return (t[0], replace(t[1], path[1:], new))


def relation_rows(alg, t) -> list:
    """R1 and R2 rows anchored at the nodes of one decorated tree.

    `alg` gives `diag` (α is diagonal: name → eigenvalue) and `bracket`
    ((x, y) → {z: coefficient}).  R1 at (A∨B)∨C is
    χ(C)·t − χ(A)·t[(A∨B)∨C → A∨(B∨C)], χ the product of α's eigenvalues
    over a subtree's leaves; R2 at a node with leaf children x, y is
    t − t[swap] − Σ [x,y]_z t[node → z].
    """
    rows = []

    def chi(sub):
        value = Fraction(1)
        for name in dec_leaves(sub):
            value *= alg.diag[name]
        return value

    for path in internal_paths(t):
        node = subtree(t, path)
        left, right = node
        if isinstance(left, tuple):
            a, b, c = left[0], left[1], right
            row: dict = {}
            padd(row, {dec_render(t): chi(c)})
            padd(row, {dec_render(replace(t, path, (a, (b, c)))): chi(a)}, -1)
            if row:
                rows.append(row)
        if not isinstance(left, tuple) and not isinstance(right, tuple):
            row = {}
            padd(row, {dec_render(t): Fraction(1)})
            padd(row, {dec_render(replace(t, path, (right, left))): Fraction(1)}, -1)
            for z, coeff in alg.bracket.get((left, right), {}).items():
                padd(row, {dec_render(replace(t, path, z)): coeff}, -1)
            if row:
                rows.append(row)
    return rows


def pbw_normal_form(bracket: dict, order: dict, word: tuple, memo: dict) -> dict:
    """Classical U(𝔤) at α = id: sort a word with yx = xy − [x,y].

    `order` ranks the basis names; the result maps sorted words to
    coefficients, and PBW says sorted words are a basis.
    """
    hit = memo.get(word)
    if hit is not None:
        return hit
    for i in range(len(word) - 1):
        x, y = word[i], word[i + 1]
        if order[x] > order[y]:
            total: dict = {}
            padd(total, pbw_normal_form(bracket, order, word[:i] + (y, x) + word[i + 2:], memo))
            for z, coeff in bracket.get((x, y), {}).items():
                shorter = word[:i] + (z,) + word[i + 2:]
                padd(total, pbw_normal_form(bracket, order, shorter, memo), coeff)
            memo[word] = total
            return total
    memo[word] = {word: Fraction(1)}
    return memo[word]


def left_comb(word: tuple):
    t = word[0]
    for name in word[1:]:
        t = (t, name)
    return t


def parse_decorated(text: str):
    """Decorated codec text ("(0:x 0:y)") back to a tree of names."""
    pos = 0

    def term():
        nonlocal pos
        if text[pos] == "(":
            pos += 1
            left = term()
            pos += 1  # the space
            right = term()
            pos += 1  # the closing parenthesis
            return (left, right)
        end = pos
        while end < len(text) and text[end] not in " )":
            end += 1
        weight, _, name = text[pos:end].partition(":")
        if weight != "0" or not name:
            raise ValueError("bad decorated tree text %r" % text)
        pos = end
        return name

    return term()


def relabel(t, names):
    """The shape of t with its leaves replaced, left to right, from `names`."""
    if isinstance(t, tuple):
        left = relabel(t[0], names)
        return (left, relabel(t[1], names))
    return next(names)


def parse_poly_text(text: str) -> dict:
    """The program's printed polynomial ("(1 (0 0)) - 2*01 + 1/2*0:E") as a dict."""
    if text == "0*1":
        return {}
    out: dict = {}
    pos = 0
    sign = 1
    if text.startswith("-"):
        sign, pos = -1, 1
    while True:
        coeff = Fraction(1)
        end = pos
        while end < len(text) and (text[end].isdigit() or text[end] == "/"):
            end += 1
        if end < len(text) and text[end] == "*":
            coeff = Fraction(text[pos:end])
            pos = end + 1
        if text[pos] == "(":
            depth, end = 0, pos
            while True:
                depth += {"(": 1, ")": -1}.get(text[end], 0)
                end += 1
                if depth == 0:
                    break
        else:
            end = pos
            while end < len(text) and text[end] != " ":
                end += 1
        padd(out, {text[pos:end]: sign * coeff})
        if end == len(text):
            return out
        sign = 1 if text[end:end + 3] == " + " else -1
        pos = end + 3
