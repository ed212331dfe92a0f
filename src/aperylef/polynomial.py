"""Exact sparse multivariate polynomial arithmetic over the rationals.

A polynomial carries an ordered tuple of variable names and a dict mapping
exponent tuples to nonzero Fraction coefficients.  Everything is exact; no
floats anywhere.  Canonical term order is graded lexicographic, largest
first, and it drives both display and hashing.

``SparsePoly(variables, terms)`` validates what it is handed: it converts
every coefficient to a Fraction, drops zeros, merges equal exponents and
rejects a wrong-arity or negative exponent tuple; ``monomial`` and the
parser build through it.  The arithmetic (``+``, ``-``, ``*`` by a
polynomial or a scalar, negation), ``zero``, ``constant`` and ``variable``
make terms that are clean by construction, and build through the private
``_from_clean``, which checks nothing.

Text grammar (used by the CLI): terms separated by ``+``/``-``; a term is an
optional rational coefficient ``p`` or ``p/q`` and ``*``-separated variable
powers ``v^e``.  Examples: ``y^4*w + y^2*z^3``, ``a^2*x + a*b*y + 1/2*b^2*z``.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import combinations_with_replacement
from typing import Iterable, Mapping, Sequence

from .errors import PolyParseError


def grlex_key(exps: Sequence[int]):
    """Graded-lex sort key: total degree first, then lex on the tuple."""
    return (sum(exps), tuple(exps))


def monomials_of_degree(variables: Sequence[str], d: int) -> list[tuple[int, ...]]:
    """All exponent tuples of total degree d, graded-lex descending."""
    n = len(variables)
    if n == 0:
        return [()] if d == 0 else []
    if d == 0:
        return [(0,) * n]
    out = []
    for combo in combinations_with_replacement(range(n), d):
        exps = [0] * n
        for i in combo:
            exps[i] += 1
        out.append(tuple(exps))
    out.sort(key=grlex_key, reverse=True)
    return out


class SparsePoly:
    """Immutable-by-convention sparse polynomial with Fraction coefficients."""

    __slots__ = ("vars", "terms")

    def __init__(self, variables: Iterable[str], terms: Mapping | None = None):
        self.vars = tuple(variables)
        clean: dict[tuple[int, ...], Fraction] = {}
        if terms:
            for exps, coeff in terms.items():
                c = Fraction(coeff)
                if not c:
                    continue
                e = tuple(int(x) for x in exps)
                if len(e) != len(self.vars):
                    raise ValueError("exponent tuple arity does not match variables")
                if any(x < 0 for x in e):
                    raise ValueError("negative exponent")
                acc = clean.get(e, Fraction(0)) + c
                if acc:
                    clean[e] = acc
                else:
                    clean.pop(e, None)
        self.terms = clean

    # -- constructors ------------------------------------------------------

    @classmethod
    def _from_clean(cls, variables: tuple[str, ...], terms: dict) -> "SparsePoly":
        """A polynomial on terms that are clean by construction: a dict from
        exponent tuples of len(variables) non-negative ints to nonzero
        Fractions.  Neither argument is checked or copied."""
        poly = object.__new__(cls)
        poly.vars = variables
        poly.terms = terms
        return poly

    @classmethod
    def zero(cls, variables) -> "SparsePoly":
        return cls._from_clean(tuple(variables), {})

    @classmethod
    def constant(cls, variables, value) -> "SparsePoly":
        variables = tuple(variables)
        c = Fraction(value)
        return cls._from_clean(variables, {(0,) * len(variables): c} if c else {})

    @classmethod
    def monomial(cls, variables, exps, coeff=1) -> "SparsePoly":
        return cls(variables, {tuple(exps): Fraction(coeff)})

    @classmethod
    def variable(cls, variables, name: str) -> "SparsePoly":
        variables = tuple(variables)
        idx = variables.index(name)
        exps = [0] * len(variables)
        exps[idx] = 1
        return cls._from_clean(variables, {tuple(exps): Fraction(1)})

    # -- basic structure ---------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, SparsePoly):
            return self.vars == other.vars and self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            return self == SparsePoly.constant(self.vars, other)
        return NotImplemented

    def __hash__(self):
        return hash((self.vars, frozenset(self.terms.items())))

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def is_homogeneous(self) -> bool:
        degs = {sum(e) for e in self.terms}
        return len(degs) <= 1

    def is_constant(self) -> bool:
        return all(sum(e) == 0 for e in self.terms)

    def constant_value(self) -> Fraction:
        if not self.terms:
            return Fraction(0)
        if not self.is_constant():
            raise ValueError("polynomial is not constant")
        return next(iter(self.terms.values()))

    def sorted_terms(self) -> list[tuple[tuple[int, ...], Fraction]]:
        """Terms in canonical (graded-lex descending) order."""
        return sorted(self.terms.items(), key=lambda t: grlex_key(t[0]), reverse=True)

    # -- arithmetic --------------------------------------------------------

    def _check(self, other: "SparsePoly"):
        if self.vars != other.vars:
            raise ValueError(f"variable mismatch: {self.vars} vs {other.vars}")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = SparsePoly.constant(self.vars, other)
        self._check(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            acc = out.get(e, Fraction(0)) + c
            if acc:
                out[e] = acc
            else:
                out.pop(e, None)
        return SparsePoly._from_clean(self.vars, out)

    __radd__ = __add__

    def __neg__(self):
        return SparsePoly._from_clean(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = SparsePoly.constant(self.vars, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            if not c:
                return SparsePoly._from_clean(self.vars, {})
            return SparsePoly._from_clean(self.vars, {e: cc * c for e, cc in self.terms.items()})
        self._check(other)
        out: dict[tuple[int, ...], Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                acc = out.get(e, Fraction(0)) + c1 * c2
                if acc:
                    out[e] = acc
                else:
                    out.pop(e, None)
        return SparsePoly._from_clean(self.vars, out)

    __rmul__ = __mul__

    # -- calculus and evaluation -------------------------------------------

    def evaluate(self, values) -> Fraction:
        """Evaluate at a point; values is a sequence or mapping by name."""
        if isinstance(values, Mapping):
            point = [Fraction(values[v]) for v in self.vars]
        else:
            point = [Fraction(v) for v in values]
            if len(point) != len(self.vars):
                raise ValueError("value count does not match variables")
        total = Fraction(0)
        for e, c in self.terms.items():
            term = c
            for exp, val in zip(e, point):
                if exp:
                    term *= val ** exp
            total += term
        return total

    # -- text --------------------------------------------------------------

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        pieces = []
        for exps, coeff in self.sorted_terms():
            mono = "*".join(
                v if e == 1 else f"{v}^{e}" for v, e in zip(self.vars, exps) if e
            )
            # the magnitude as str(abs(coeff)) spells it, from the two ints
            num, den = coeff.numerator, coeff.denominator
            mag = str(abs(num)) if den == 1 else f"{abs(num)}/{den}"
            if mono and mag == "1":
                body = mono
            elif mono:
                body = f"{mag}*{mono}"
            else:
                body = mag
            pieces.append(("-" if num < 0 else "+", body))
        sign, body = pieces[0]
        out = ("-" if sign == "-" else "") + body
        for sign, body in pieces[1:]:
            out += f" {sign} {body}"
        return out

    def __repr__(self) -> str:
        return f"SparsePoly({str(self)!r})"


_TOKEN = re.compile(r"\s*(?:(?P<num>\d+(?:\s*/\s*\d+)?)|(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<op>[\^*+\-]))")


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise PolyParseError(f"unexpected character at {text[pos:pos + 8]!r}")
            break
        pos = m.end()
        if m.lastgroup == "num":
            try:
                tokens.append(("num", Fraction(m.group("num").replace(" ", ""))))
            except ZeroDivisionError:
                raise PolyParseError(f"zero denominator in {m.group('num')!r}") from None
        elif m.lastgroup == "name":
            tokens.append(("name", m.group("name")))
        else:
            tokens.append(("op", m.group("op")))
    return tokens


def parse_polynomial(text: str, variables: Sequence[str] | None = None) -> SparsePoly:
    """Parse the term-list grammar into a SparsePoly.

    When ``variables`` is omitted the names on the nonzero terms are used in
    alphabetical order, which makes parse -> print -> parse the identity on
    canonical forms.
    """
    tokens = _tokenize(text)
    if not tokens:
        raise PolyParseError("empty polynomial text")

    raw_terms: list[tuple[Fraction, dict[str, int]]] = []
    i = 0
    n = len(tokens)
    while i < n:
        sign = Fraction(1)
        while i < n and tokens[i][0] == "op" and tokens[i][1] in "+-":
            if tokens[i][1] == "-":
                sign = -sign
            i += 1
        if i >= n:
            raise PolyParseError("dangling sign at end of input")
        coeff = sign
        powers: dict[str, int] = {}
        expect_factor = True
        while i < n:
            kind, val = tokens[i]
            if kind == "op" and val in "+-":
                break
            if kind == "op" and val == "*":
                if expect_factor:
                    raise PolyParseError("misplaced '*'")
                expect_factor = True
                i += 1
                continue
            if not expect_factor:
                raise PolyParseError(f"missing '*' before {val!r}")
            if kind == "num":
                coeff *= val
                i += 1
            elif kind == "name":
                name = val
                exp = 1
                i += 1
                if i < n and tokens[i] == ("op", "^"):
                    i += 1
                    if i >= n or tokens[i][0] != "num" or tokens[i][1].denominator != 1:
                        raise PolyParseError(f"bad exponent for variable {name!r}")
                    exp = int(tokens[i][1])
                    i += 1
                powers[name] = powers.get(name, 0) + exp
            else:
                raise PolyParseError(f"unexpected token {val!r}")
            expect_factor = False
        if expect_factor:
            raise PolyParseError("empty term")
        raw_terms.append((coeff, powers))

    if variables is None:
        # the names of the nonzero terms once like terms are merged, so that
        # a zero term such as 0*z^3, or x - x, adds no variable
        merged: dict[tuple[tuple[str, int], ...], Fraction] = {}
        for coeff, powers in raw_terms:
            key = tuple(sorted((v, e) for v, e in powers.items() if e))
            merged[key] = merged.get(key, Fraction(0)) + coeff
        variables = tuple(sorted({v for key, c in merged.items() if c for v, _ in key}))
    else:
        variables = tuple(variables)
        for _, powers in raw_terms:
            for name in powers:
                if name not in variables:
                    raise PolyParseError(f"unknown variable {name!r}")

    terms: dict[tuple[int, ...], Fraction] = {}
    for coeff, powers in raw_terms:
        exps = tuple(powers.get(v, 0) for v in variables)
        terms[exps] = terms.get(exps, Fraction(0)) + coeff
    return SparsePoly(variables, terms)
