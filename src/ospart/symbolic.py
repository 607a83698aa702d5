"""Sparse commutative polynomials over exact rationals in indexed symbols.

One shared ring for every moment/cumulant engine so cross-engine
identities compare directly.  Symbols are tagged tuples:

    ("m", labels)   joint moment of the word of variable labels
    ("c", labels)   free-cumulant symbol
    ("pm", labels)  second-family (psi) moment
    ("t", j)        time parameter attached to block j
    ("v", name)     scalar indeterminate such as N or M

A polynomial is a SparseSum (the exact sparse sum shared with
freelie.NCPoly) whose keys are monomials: sorted tuples of (symbol,
exponent) pairs.  A coefficient is an int when it is integral and a
Fraction otherwise; the two compare and hash alike, so the choice never
shows in a value, only in the cost of the arithmetic.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import chain

MOMENT = "m"
FREE_CUMULANT = "c"
PSI_MOMENT = "pm"
TIME = "t"
VAR = "v"


def moment_symbol(labels):
    return (MOMENT, tuple(labels))


def free_cumulant_symbol(labels):
    return (FREE_CUMULANT, tuple(labels))


def psi_moment_symbol(labels):
    return (PSI_MOMENT, tuple(labels))


def time_symbol(j: int):
    return (TIME, j)


def scalar_symbol(name: str):
    return (VAR, name)


@lru_cache(maxsize=None)
def _symbol_key(sym):
    kind, payload = sym
    if isinstance(payload, tuple):
        return (kind, 0, tuple(repr(x) for x in payload), "")
    if isinstance(payload, int):
        return (kind, 1, (), f"{payload:09d}")
    return (kind, 2, (), repr(payload))


def _mono_key(mono):
    return tuple((_symbol_key(s), e) for s, e in mono)


def symbol_str(sym) -> str:
    kind, payload = sym
    if kind == TIME:
        return f"t{payload}"
    if kind == VAR:
        return str(payload)
    labels = [str(x) for x in payload]
    joined = "".join(labels) if all(len(s) == 1 for s in labels) else ",".join(labels)
    name = {MOMENT: "m", FREE_CUMULANT: "c", PSI_MOMENT: "pm"}[kind]
    return f"{name}[{joined}]"


def exact(c):
    """c as an int when it is integral, else as a Fraction (never a float)."""
    if type(c) is int:
        return c
    if type(c) is not Fraction:
        if isinstance(c, float):
            raise TypeError(f"inexact value {c!r}: pass an int or a Fraction")
        c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def add_into(out, items):
    """Add (key, coefficient) pairs into the dict out in place, dropping
    every key whose coefficient cancels to zero; returns out.

    A new key is stored as it comes (when nonzero), without the exact
    add 0 + c, which costs as much as a Fraction product.
    """
    get = out.get
    for k, c in items:
        old = get(k)
        if old is None:
            if c:
                out[k] = c
        else:
            nc = old + c
            if nc:
                out[k] = nc
            else:
                del out[k]
    return out


class SparseSum:
    """Exact sparse sum: a finitely supported map key -> nonzero
    coefficient, an int or a Fraction, exact.

    The key () is the unit (the empty monomial or the empty word), so an
    int or Fraction c stands for {(): c}.  `const` and `scale` store an
    integral value as an int, so sums of integer terms stay in int
    arithmetic, also after a division.  Subclasses supply the product.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = terms if terms is not None else {}

    @classmethod
    def const(cls, c):
        c = exact(c)
        return cls({(): c}) if c else cls()

    @classmethod
    def sum(cls, summands):
        """Sum of the summands, added in place into one dict in one pass."""
        return cls(add_into({}, chain.from_iterable(
            s.terms.items() for s in summands)))

    def _coerce(self, other):
        if isinstance(other, (int, Fraction)):
            return self.const(other)
        return other if isinstance(other, type(self)) else None

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        other = self._coerce(other)
        return other is not None and self.terms == other.terms

    def __hash__(self):
        # a constant hashes as its number, since it equals that number
        if self.terms.keys() <= {()}:
            return hash(self.terms.get((), 0))
        return hash(frozenset(self.terms.items()))

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return type(self)(add_into(dict(self.terms), other.terms.items()))

    __radd__ = __add__

    def __neg__(self):
        return type(self)({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -self + other

    def scale(self, c):
        """Every coefficient times c: one product per distinct
        coefficient, shared by the keys that carry it.  An int coefficient
        times a Fraction scale p/q is one divmod(coefficient * p, q), an
        int when q divides and a Fraction otherwise; any other pair is
        exact(c * coefficient), the scale the left operand, so a Fraction
        multiplies by its own __mul__."""
        c = exact(c)
        if not c:
            return type(self)()
        num, den = c.numerator, c.denominator
        products = {}
        out = {}
        for k, cc in self.terms.items():
            p = products.get(cc)
            if p is None:
                if den != 1 and type(cc) is int:
                    p, r = divmod(cc * num, den)
                    if r:
                        p = Fraction(cc * num, den)
                else:
                    p = exact(c * cc)
                products[cc] = p
            out[k] = p
        return type(self)(out)


class Poly(SparseSum):
    """Immutable-by-convention sparse polynomial with exact coefficients:
    int or Fraction, as in SparseSum."""

    __slots__ = ()

    @classmethod
    def sym(cls, symbol):
        return cls({((symbol, 1),): 1})

    @classmethod
    def monomial(cls, symbols):
        """The product of the symbols, coefficient 1: repeats are counted
        into exponents and the monomial is sorted once."""
        counts = {}
        for s in symbols:
            counts[s] = counts.get(s, 0) + 1
        return cls({tuple(sorted(counts.items(), key=_item_key)): 1})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, Poly):
            return NotImplemented
        out = {}
        for m1, c1 in self.terms.items():
            add_into(out, [(_mono_mul(m1, m2), c1 * c2)
                           for m2, c2 in other.terms.items()])
        return Poly(out)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power")
        r = Poly.const(1)
        for _ in range(k):
            r = r * self
        return r

    def substitute(self, fn):
        """Replace symbols: fn(symbol) returns a Poly/number or None to keep."""
        out = {}
        for mono, c in self.terms.items():
            term = Poly.const(c)
            for sym, e in mono:
                rep = fn(sym)
                if rep is None:
                    rep = Poly.sym(sym)
                for _ in range(e):
                    term = term * rep
            add_into(out, term.terms.items())
        return Poly(out)

    def diff(self, symbol):
        """Formal partial derivative."""
        def pieces():
            for mono, c in self.terms.items():
                for i, (sym, e) in enumerate(mono):
                    if sym == symbol:
                        lowered = ((sym, e - 1),) if e > 1 else ()
                        yield mono[:i] + lowered + mono[i + 1:], c * e
                        break
        return Poly(add_into({}, pieces()))

    def coefficient(self, symbol, k: int):
        """Coefficient of symbol**k (a polynomial in the other symbols)."""
        return Poly(add_into({}, (
            (tuple(p for p in mono if p[0] != symbol), c)
            for mono, c in self.terms.items()
            if dict(mono).get(symbol, 0) == k)))

    def symbols(self):
        out = set()
        for mono in self.terms:
            for sym, _ in mono:
                out.add(sym)
        return out

    def constant_value(self) -> Fraction:
        """The value of a constant polynomial."""
        if not self.terms:
            return Fraction(0)
        if set(self.terms) != {()}:
            raise ValueError(f"not a constant: {self}")
        return Fraction(self.terms[()])

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for mono in sorted(self.terms, key=_mono_key):
            c = self.terms[mono]
            factors = _mono_str(mono, "")
            if not factors:
                parts.append(str(c))
            elif c == 1:
                parts.append(factors)
            elif c == -1:
                parts.append(f"-{factors}")
            else:
                parts.append(f"{c} {factors}")
        return " + ".join(parts).replace("+ -", "- ")

    __repr__ = __str__

    def render_map(self) -> dict:
        """Deterministic {monomial string: "p/q"} mapping for serialization."""
        out = {}
        for mono in sorted(self.terms, key=_mono_key):
            out[_mono_str(mono, "*") or "1"] = str(self.terms[mono])
        return out


@lru_cache(maxsize=None)
def _mono_str(mono, sep):
    """The factors of a monomial, each symbol_str with ^e past the first
    power, joined by sep; "" for the empty monomial."""
    return sep.join(symbol_str(s) + (f"^{e}" if e > 1 else "")
                    for s, e in mono)


def _mono_mul(m1, m2):
    if not m1:
        return m2
    if not m2:
        return m1
    d = dict(m1)
    for s, e in m2:
        d[s] = d.get(s, 0) + e
    return tuple(sorted(d.items(), key=_item_key))


def _item_key(item):
    return _symbol_key(item[0])
