"""The one expression Reader against the four parsers it replaced.

The parent's hand-written readers are kept below as references: the
codec parser, parse_poly, the U𝔤 expression parser and parse_element,
with only their names changed and their imports pointed at each other.
Every reader is run on seeded valid inputs (formatted polynomials with
extra spaces, decorated trees over aff2 and the twisted sl2 of
tests/data, elements) and on a fixed list of malformed inputs:

* trees.parse must give the same value, or the same exception type,
  message and position, on every input;
* the other readers must give the same value on every valid input, and
  the same outcome (a value, a ValueError such as ParseError, a
  KeyError or a ZeroDivisionError) on every other one; parse_poly must
  also report the same ParseError position.

An input where they differ must be listed in CHANGED, with its reason
from REASONS, and every input listed there must differ.
"""

import os
import random
from fractions import Fraction

import pytest

from homtrees.freehom import format_poly, parse_poly
from homtrees.homlie import load_algebra, make_algebra, parse_element
from homtrees.linalg import LinComb
from homtrees.trees import UNIT, Leaf, Node, ParseError, enumerate_shapes, parse, to_text, with_weights
from homtrees.ueg import decorate_expand, parse_u_poly, unit_upoly

SL2_JSON = os.path.join(os.path.dirname(__file__), "data", "sl2_twisted.json")

# ------------------------------------------------ the parent's four readers


def _is_name_start(c: str) -> bool:
    return c.isalpha() or c == "_"


def _is_name_char(c: str) -> bool:
    return c.isalnum() or c == "_"


class RefCodecParser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, message: str):
        raise ParseError(message, self.pos)

    def skip_spaces(self) -> int:
        count = 0
        while self.pos < len(self.text) and self.text[self.pos] == " ":
            self.pos += 1
            count += 1
        return count

    def parse_term(self):
        if self.pos >= len(self.text):
            self.error("unexpected end of input")
        c = self.text[self.pos]
        if c == "(":
            self.pos += 1
            self.skip_spaces()
            left = self.parse_term()
            if self.skip_spaces() == 0:
                self.error("expected space between subtrees")
            right = self.parse_term()
            self.skip_spaces()
            if self.pos >= len(self.text) or self.text[self.pos] != ")":
                self.error("expected ')'")
            self.pos += 1
            return Node(left, right)
        if c.isdigit():
            return self.parse_leaf()
        self.error("expected '(' or a leaf weight")

    def parse_leaf(self):
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        weight = int(self.text[start:self.pos])
        name = None
        if self.pos < len(self.text) and self.text[self.pos] == ":":
            self.pos += 1
            if self.pos >= len(self.text) or not _is_name_start(self.text[self.pos]):
                self.error("expected a decoration name after ':'")
            nstart = self.pos
            while self.pos < len(self.text) and _is_name_char(self.text[self.pos]):
                self.pos += 1
            name = self.text[nstart:self.pos]
        return Leaf(weight, name)


def ref_parse(text: str):
    """Inverse of to_text.  Raises ParseError (with .position) on bad input."""
    stripped = text.strip(" ")
    if stripped == "1":
        return UNIT
    p = RefCodecParser(text)
    p.skip_spaces()
    term = p.parse_term()
    p.skip_spaces()
    if p.pos != len(text):
        p.error("unexpected trailing input")
    return term


def ref_parse_poly(text: str):
    """Inverse of format_poly; accepts any +/- separated `coef*tree` list.

    Tree texts contain no '+', '-' or '*', so those characters split and
    scale terms unambiguously; a leading '-' negates the first term.
    """
    terms = []
    i = 0
    first = True
    while i < len(text):
        while i < len(text) and text[i] == " ":
            i += 1
        if i >= len(text):
            break
        sign = 1
        if text[i] in "+-":
            if text[i] == "-":
                sign = -1
            i += 1
        elif not first:
            raise ParseError("expected '+' or '-' between terms", i)
        while i < len(text) and text[i] == " ":
            i += 1
        start = i
        while i < len(text) and text[i] not in "+-":
            i += 1
        chunk = text[start:i].strip()
        if not chunk:
            raise ParseError("missing term", start)
        if "*" in chunk:
            coef_text, _, tree_text = chunk.partition("*")
            try:
                coeff = Fraction(coef_text.strip())
            except (ValueError, ZeroDivisionError):
                raise ParseError("bad coefficient %r" % coef_text.strip(), start) from None
            tree_text = tree_text.strip()
        else:
            coeff = Fraction(1)
            tree_text = chunk
        element = ref_parse(tree_text)
        terms.append((to_text(element), sign * coeff))
        first = False
    if first:
        raise ParseError("empty expression", 0)
    return LinComb(terms)


class RefUExprParser:
    """Recursive descent for U𝔤 expressions.

    poly  := ['-'] term (('+'|'-') term)*
    term  := [RATIONAL '*'] tree
    tree  := '1' | WEIGHT ':' decoration | '(' tree ' '+ tree ')'
    decoration := NAME | '(' element ')'

    Decorations may be rational-linear combinations of basis names in
    parentheses; they are expanded multilinearly at parse time, and leaf
    weights are absorbed through α, so the result is a plain UPoly.
    """

    def __init__(self, g, text: str):
        self.g = g
        self.text = text
        self.pos = 0

    def error(self, message: str):
        raise ParseError(message, self.pos)

    def skip_spaces(self):
        while self.pos < len(self.text) and self.text[self.pos] == " ":
            self.pos += 1

    def at_end(self) -> bool:
        return self.pos >= len(self.text)

    def parse_poly(self):
        total = LinComb.zero()
        first = True
        while True:
            self.skip_spaces()
            if self.at_end():
                break
            sign = 1
            c = self.text[self.pos]
            if c in "+-":
                if c == "-":
                    sign = -1
                self.pos += 1
            elif not first:
                self.error("expected '+' or '-' between terms")
            self.skip_spaces()
            total = total + sign * self.parse_term()
            first = False
        if first:
            self.error("empty expression")
        return total

    def parse_term(self):
        coeff = Fraction(1)
        start = self.pos
        number = self._try_number()
        if number is not None:
            self.skip_spaces()
            if not self.at_end() and self.text[self.pos] == "*":
                self.pos += 1
                self.skip_spaces()
                coeff = number
            else:
                self.pos = start  # a leaf weight or the unit, not a coefficient
        if (not self.at_end() and self.text[self.pos] == "1"
                and (self.pos + 1 == len(self.text) or self.text[self.pos + 1] in " +-")):
            self.pos += 1
            return coeff * unit_upoly()
        tree, vectors = self.parse_tree()
        return coeff * decorate_expand(self.g, tree, vectors)

    def _try_number(self):
        start = self.pos
        end = self.pos
        text = self.text
        while end < len(text) and text[end].isdigit():
            end += 1
        if end == start:
            return None
        if end < len(text) and text[end] == "/":
            den_end = end + 1
            while den_end < len(text) and text[den_end].isdigit():
                den_end += 1
            if den_end == end + 1:
                self.pos = end + 1
                self.error("missing denominator")
            self.pos = den_end
            return Fraction(int(text[start:end]), int(text[end + 1:den_end]))
        self.pos = end
        return Fraction(int(text[start:end]))

    def parse_tree(self):
        self.skip_spaces()
        if self.at_end():
            self.error("expected a tree")
        c = self.text[self.pos]
        if c == "(":
            self.pos += 1
            left, lv = self.parse_tree()
            if self.at_end() or self.text[self.pos] != " ":
                self.error("expected a space between subtrees")
            right, rv = self.parse_tree()
            self.skip_spaces()
            if self.at_end() or self.text[self.pos] != ")":
                self.error("expected ')'")
            self.pos += 1
            return Node(left, right), lv + rv
        if c == "1" and (self.pos + 1 == len(self.text) or self.text[self.pos + 1] in " )+-"):
            self.error("the unit cannot appear inside a tree; write it as its own term")
        weight = self._try_number()
        if weight is None:
            self.error("expected '(', a weight, or the unit")
        if weight.denominator != 1:
            self.error("leaf weights are whole numbers")
        if self.at_end() or self.text[self.pos] != ":":
            self.error("expected ':' after a leaf weight")
        self.pos += 1
        return Leaf(int(weight)), [self.parse_decoration()]

    def parse_decoration(self):
        if self.at_end():
            self.error("expected a decoration")
        c = self.text[self.pos]
        if c == "(":
            close = self.text.find(")", self.pos)
            if close < 0:
                self.error("unclosed decoration")
            body = self.text[self.pos + 1:close]
            try:
                coords = ref_parse_element(self.g, body)
            except (ValueError, KeyError) as exc:
                self.error("bad decoration: %s" % exc)
            self.pos = close + 1
            return coords
        start = self.pos
        if not (c.isalpha() or c == "_"):
            self.error("expected a basis name or a parenthesised element")
        while self.pos < len(self.text) and (self.text[self.pos].isalnum() or self.text[self.pos] == "_"):
            self.pos += 1
        name = self.text[start:self.pos]
        try:
            return self.g.basis_vector(self.g.index_of(name))
        except KeyError:
            self.pos = start
            self.error("unknown basis symbol %r" % name)


def ref_parse_u_poly(g, text: str):
    """U𝔤 expression → UPoly, decorations expanded and weights absorbed."""
    parser = RefUExprParser(g, text)
    return parser.parse_poly()



def ref_parse_element(g, text: str):
    """Read a rational combination of basis symbols: "E + 2*H - 1/2*F"."""
    out = [Fraction(0)] * g.dim
    i = 0
    first = True
    text = text.strip()
    if not text:
        raise ValueError("empty element expression")
    while i < len(text):
        while i < len(text) and text[i] == " ":
            i += 1
        if i >= len(text):
            break
        sign = 1
        if text[i] in "+-":
            sign = -1 if text[i] == "-" else 1
            i += 1
        elif not first:
            raise ValueError("expected '+' or '-' at position %d" % i)
        while i < len(text) and text[i] == " ":
            i += 1
        start = i
        while i < len(text) and text[i] not in "+-":
            i += 1
        chunk = text[start:i].strip()
        if not chunk:
            raise ValueError("missing term at position %d" % start)
        if "*" in chunk:
            coef_text, _, symbol = chunk.partition("*")
            coeff = Fraction(coef_text.strip())
            symbol = symbol.strip()
        elif chunk[0].isdigit() and chunk.replace("/", "").isdigit():
            raise ValueError("bare scalar %r has no basis symbol" % chunk)
        else:
            coeff, symbol = Fraction(1), chunk
        if " " in symbol:
            raise ValueError("expected '+' or '-' between terms, got %r" % symbol)
        out[g.index_of(symbol)] += sign * coeff
        first = False
    return tuple(out)


# ----------------------------------------------------------------- inputs

AFF2 = make_algebra("aff2", ("x", "y"), {(0, 1): (0, 1)}, ((1, 0), (0, 2)))
SL2 = load_algebra(SL2_JSON)


def loosen(rng, text):
    """text with extra spaces wherever every reader allows them."""
    out = [" " * rng.randint(0, 2)]
    for c in text:
        if c in ")*":
            out.append(" " * rng.randint(0, 2))
        out.append(c)
        if c in "(*+- ":
            out.append(" " * rng.randint(0, 2))
    out.append(" " * rng.randint(0, 2))
    return "".join(out)


def random_coefficient(rng):
    return Fraction(rng.choice([1, 1, 2, 3, 7, 12]) * rng.choice([1, -1]), rng.choice([1, 1, 2, 3, 10]))


def random_tree(rng, max_leaves):
    n = rng.randint(1, max_leaves)
    return with_weights(rng.choice(enumerate_shapes(n)), [rng.randint(0, 3) for _ in range(n)])


def random_element_text(rng, g):
    terms = []
    for name in rng.sample(g.basis, rng.randint(1, g.dim)):
        c = random_coefficient(rng)
        body = name if abs(c) == 1 else "%s*%s" % (abs(c), name)
        terms.append(("-" if c < 0 else ("+" if terms else "")) + body)
    return " ".join(terms)


def free_inputs(rng, count):
    out = []
    for _ in range(count):
        keys = [to_text(random_tree(rng, 6)) for _ in range(rng.randint(1, 4))]
        if rng.random() < 0.3:
            keys.append("1")
        out.append(loosen(rng, format_poly(LinComb((k, random_coefficient(rng)) for k in keys))))
    out += ["1.5*0 - 0.25*(0 1)", "007*01 + 3/4 * 1", "-0", "+ 1", "0*1", "12"]
    return out


def u_inputs(rng, g, count):
    def leaf_text(t):
        if isinstance(t, Node):
            return "(%s %s)" % (leaf_text(t.left), leaf_text(t.right))
        if rng.random() < 0.3:
            return "%d:(%s)" % (t.weight, random_element_text(rng, g))
        return "%d:%s" % (t.weight, rng.choice(g.basis))

    out = []
    for _ in range(count):
        terms = []
        for _ in range(rng.randint(1, 3)):
            c = random_coefficient(rng)
            body = "1" if rng.random() < 0.15 else leaf_text(random_tree(rng, 4))
            terms.append("%s%s*%s" % ("-" if c < 0 else ("+ " if terms else ""), abs(c), body))
        text = " ".join(terms)
        out.append(loosen(rng, text))
        out.append(loosen(rng, format_poly(ref_parse_u_poly(g, text))))
    return out


def element_inputs(rng, g, count):
    return [loosen(rng, random_element_text(rng, g)) for _ in range(count)] + ["1.5*%s" % g.basis[0]]


# Inputs that some reader rejects, or accepts only by accident of its
# implementation; each is run through every reader it is listed for.
MALFORMED_TREES = [
    "", " ", "(", ")", "()", "( )", "(0", "(0 ", "(0 1", "(0 1))", "(0 1) x", "(0 1) trailing",
    "bogus(", "(01)", "(0:)", "0:", "0:1", "0 :x", "0: x", "x", "-0", "+0", "1 1", "1)", "1 0",
    "1+", "0\t", "\t0", "(0\t1)", "(0 1 2)", "(0 (1 (2", "0x", "1.5", "1/2", "²", "0:x²",
    "٣", "0:é", "0:_a1", "0:1a", "00", "01", " 1 ", "(0  1 )", "((0 1) (2 3)",
]
MALFORMED_FREE = [
    "", " ", "+", "-", "0 +", "0 + ", "+ 0", "0 0", "2**0", "x*(0 0)", "1 1", "2*", "*0", "2*1*0",
    "3 (0 0)", "1)", "(0 1))", "0 - -0", "--0", "+-0", "2 * * 0", "1/0*0", "1/*0", "1/0",
    "2.x", "1.*0", ".5*0", "1e2*0", "1E2*0", "1_0*0", "1 / 2*0", "0\t+ 0", "0 +\t0", "\t0",
    "0\n", "0 + (0 x)", "(0 1) - (0 x)", "²*0", "1:", "0:(x)", "1:x",
]
MALFORMED_U = [
    "", "0:z", "0x", "(1 0:x)", "0:(x + bogus)", "0:x 0:y", "1.5*0:x", "1/0*0:x", "1e2*0:x",
    "0:x\t+ 0:x", "0:()", "0:(x", "0:(x))", "0:((x))", "0:(2)", "0: x", "0 :x", "1/2:x",
    "2/2:x", "0/1:x", "1/0:x", "(0:x)", "(0:x 0:y", "0:x +", "+", "-1", "1)", "0:(1.5*x)",
    "0:(1e2*x)", "0:(x\t+ y)", "0:(.5*x)", "0:( x + y )", "0:(x)+0:y", "(0:x 1:(x - y))",
]
MALFORMED_ELEMENTS = [
    "", " ", "Q", "E F", "E +", "+", "2", "1/2", "2*", "*E", "E*2", "2**E", "1/0*E", "1e2*E",
    "1_0*E", ".5*E", "1.*E", "1 / 2*E", "E\t+ H", "\tE", "E\n", "E)", "(E)", "E + Q", "2*Q",
    "E-", "E - - H", "-E", "3/2 * H", "E+H",
]

# Why a reader's answer changed; each CHANGED entry names one of these.
REASONS = {
    "decimal": "U𝔤 coefficients accept decimals, as the free and element readers already did",
    "fraction-only": "coefficient spellings that only Fraction() read are rejected: exponents, and"
                     " likewise '_' digit groups, a '.' without digits on both sides and spaces"
                     " around '/'",
    "whitespace": "tabs and newlines separate nothing: only str.strip() had dropped them",
    "position": "parse_poly positions are offsets into the whole text, at the token that fails",
    "zero-denominator": "a zero denominator is a ParseError, not a ZeroDivisionError",
    "element-error": "parse_element reports malformed text as ParseError; only an unknown"
                     " symbol raises KeyError",
    "whole-weight": "a leaf weight is a run of digits; the U𝔤 parser had read 'N/D:' weights"
                    " through its coefficient rule",
    "decimal-digit": "a digit that int() cannot read, such as '²', is a ParseError; the codec"
                     " had raised int()'s ValueError",
    "plain-leaf": "parse_poly reads plain leaves only: 𝕋/I has one undecorated generator, so a"
                  " decorated leaf is a ParseError at its ':'",
}

CHANGED = {
    **dict.fromkeys([("parse_u_poly", "1.5*0:x"), ("parse_u_poly/sl2", "1.5*0:E")], "decimal"),
    **dict.fromkeys([
        ("parse_poly", "1e2*0"), ("parse_poly", "1E2*0"), ("parse_poly", "1_0*0"),
        ("parse_poly", ".5*0"), ("parse_poly", "1.*0"),
        ("parse_element", "1e2*E"), ("parse_element", "1_0*E"), ("parse_element", ".5*E"),
        ("parse_element", "1.*E"), ("parse_poly", "1 / 2*0"), ("parse_element", "1 / 2*E"),
        ("parse_u_poly", "0:(1e2*x)"), ("parse_u_poly", "0:(.5*x)"),
        ("parse_u_poly/sl2", "0:(1e2*E)"), ("parse_u_poly/sl2", "0:(.5*E)"),
    ], "fraction-only"),
    **dict.fromkeys([
        ("parse_poly", "0\t+ 0"), ("parse_poly", "0 +\t0"), ("parse_poly", "\t0"), ("parse_poly", "0\t"),
        ("parse_poly", "0\n"),
        ("parse_element", "E\t+ H"), ("parse_element", "\tE"), ("parse_element", "E\n"),
        ("parse_u_poly", "0:(x\t+ y)"), ("parse_u_poly/sl2", "0:(E\t+ H)"),
    ], "whitespace"),
    **dict.fromkeys([
        ("parse_poly", "0 + (0 x)"), ("parse_poly", "(0 1) - (0 x)"), ("parse_poly", " "),
        ("parse_poly", "(0 "), ("parse_poly", "2*"), ("parse_poly", "2**0"), ("parse_poly", "2 * * 0"),
        ("parse_poly", "2*1*0"), ("parse_poly", "2.x"), ("parse_poly", "1/*0"),
        ("parse_poly", "1/0"), ("parse_poly", "1/0*0"),
    ], "position"),
    **dict.fromkeys([
        ("parse_u_poly", "1/0*0:x"), ("parse_u_poly", "1/0:x"), ("parse_u_poly/sl2", "1/0*0:E"),
        ("parse_u_poly/sl2", "1/0:E"), ("parse_element", "1/0*E"),
    ], "zero-denominator"),
    **dict.fromkeys([
        ("parse_element", "(E)"), ("parse_element", "E)"), ("parse_element", "2*"),
        ("parse_element", "2**E"),
    ], "element-error"),
    **dict.fromkeys([
        ("parse_u_poly", "0/1:x"), ("parse_u_poly", "2/2:x"), ("parse_u_poly/sl2", "0/1:E"),
        ("parse_u_poly/sl2", "2/2:E"),
    ], "whole-weight"),
    **dict.fromkeys([("parse", "²"), ("parse", "²*0"), ("parse_poly", "²")], "decimal-digit"),
    **dict.fromkeys([
        ("parse_poly", "1:x"), ("parse_poly", "0:_a1"), ("parse_poly", "0:x²"), ("parse_poly", "0:é"),
    ], "plain-leaf"),
}


def outcome(read, *args, position=False, message=False):
    try:
        return ("value", read(*args))
    except (ValueError, KeyError, ZeroDivisionError) as exc:
        kind = "ValueError" if isinstance(exc, ValueError) else type(exc).__name__
        if message:
            return (type(exc).__name__, str(exc), getattr(exc, "position", None))
        return (kind, getattr(exc, "position", None) if position else None)


def corpus():
    rng = random.Random(909)
    texts = {
        "parse_poly": free_inputs(rng, 150) + MALFORMED_FREE + MALFORMED_TREES,
        "parse_u_poly": [("aff2", t) for t in u_inputs(rng, AFF2, 60) + MALFORMED_U]
                        + [("sl2", t) for t in u_inputs(rng, SL2, 60) + [m.replace("x", "E").replace("y", "H")
                                                                          for m in MALFORMED_U]],
        "parse_element": element_inputs(rng, SL2, 150) + MALFORMED_ELEMENTS,
    }
    return texts


ALGEBRAS = {"aff2": AFF2, "sl2": SL2}


def differences():
    found = {}
    texts = corpus()
    codec_inputs = set(MALFORMED_TREES) | set(texts["parse_poly"]) | set(MALFORMED_U)
    for text in sorted(codec_inputs):
        old = outcome(ref_parse, text, message=True)
        new = outcome(parse, text, message=True)
        if old != new:
            found[("parse", text)] = (old, new)
    for text in texts["parse_poly"]:
        old, new = outcome(ref_parse_poly, text, position=True), outcome(parse_poly, text, position=True)
        if old != new:
            found[("parse_poly", text)] = (old, new)
    for name, text in texts["parse_u_poly"]:
        g = ALGEBRAS[name]
        old, new = outcome(ref_parse_u_poly, g, text), outcome(parse_u_poly, g, text)
        if old != new:
            found[("parse_u_poly" if name == "aff2" else "parse_u_poly/sl2", text)] = (old, new)
    for text in texts["parse_element"]:
        old, new = outcome(ref_parse_element, SL2, text), outcome(parse_element, SL2, text)
        if old != new:
            found[("parse_element", text)] = (old, new)
    return found


def test_readers_differ_from_the_parent_only_where_listed():
    found = differences()
    unlisted = {key: found[key] for key in found if key not in CHANGED}
    assert not unlisted
    # What Fraction() reads depends on the Python version ('_' from 3.11,
    # spaces around '/' from 3.12), so the parent may reject such an input too.
    assert not [key for key in CHANGED if key not in found and CHANGED[key] != "fraction-only"]
    assert set(CHANGED.values()) <= set(REASONS)


def test_seeded_valid_inputs_read_to_the_parent_values():
    rng = random.Random(909)
    free = free_inputs(rng, 150)
    assert [parse_poly(t) for t in free] == [ref_parse_poly(t) for t in free]
    for g in (AFF2, SL2):
        inputs = u_inputs(rng, g, 60)
        assert [parse_u_poly(g, t) for t in inputs] == [ref_parse_u_poly(g, t) for t in inputs]
    elements = element_inputs(rng, SL2, 150)
    assert [parse_element(SL2, t) for t in elements] == [ref_parse_element(SL2, t) for t in elements]


def test_listed_changes_read_as_documented():
    assert parse_u_poly(AFF2, "1.5*0:x") == LinComb.single("0:x", Fraction(3, 2))
    assert parse_u_poly(AFF2, "0:(x + 0.5*y)") == LinComb({"0:x": 1, "0:y": Fraction(1, 2)})
    for text in ("1e2*0", "0\t+ 0"):
        with pytest.raises(ParseError):
            parse_poly(text)
    with pytest.raises(ParseError) as err:
        parse_poly("0 + (0 x)")
    assert err.value.position == 7
    with pytest.raises(ParseError) as err:
        parse_u_poly(AFF2, "1/0*0:x")
    assert err.value.position == 2
    with pytest.raises(ParseError) as err:
        parse_u_poly(AFF2, "(0:x 0:(x + bogus))")
    assert err.value.position == 12
    with pytest.raises(ParseError) as err:
        parse_element(SL2, "E + 2*H)")
    assert err.value.position == 7
    with pytest.raises(KeyError):
        parse_element(SL2, "E + Q")
    with pytest.raises(ParseError) as err:
        parse_poly("(0 1) + 2*(0:x 0)")
    assert err.value.position == 12


def test_a_comb_nested_900_deep_is_read():
    comb = "(0 " * 900 + "0" + ")" * 900
    assert to_text(parse(comb)) == comb
    assert parse_poly("2*" + comb) == LinComb.single(comb, 2)
    decorated = comb.replace("0", "0:x")
    assert parse_u_poly(AFF2, decorated) == LinComb.single(decorated)
