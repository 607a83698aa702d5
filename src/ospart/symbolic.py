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
exponent) pairs.
"""

from fractions import Fraction

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


def add_into(out, items):
    """Add (key, coefficient) pairs into the dict out in place, dropping
    every key whose coefficient cancels to zero; returns out."""
    for k, c in items:
        nc = out.get(k, 0) + c
        if nc:
            out[k] = nc
        else:
            out.pop(k, None)
    return out


class SparseSum:
    """Exact sparse sum: a finitely supported map key -> nonzero Fraction.

    The key () is the unit (the empty monomial or the empty word), so an
    int or Fraction c stands for {(): c}.  Subclasses supply the product.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = terms if terms is not None else {}

    @classmethod
    def const(cls, c):
        c = Fraction(c)
        return cls({(): c}) if c else cls()

    @classmethod
    def sum(cls, summands):
        """Sum of the summands, added in place into one dict."""
        out = {}
        for s in summands:
            add_into(out, s.terms.items())
        return cls(out)

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
        # a constant hashes as its Fraction, since it equals that number
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
        c = Fraction(c)
        if not c:
            return type(self)()
        return type(self)({k: cc * c for k, cc in self.terms.items()})


class Poly(SparseSum):
    """Immutable-by-convention sparse polynomial with Fraction coefficients."""

    __slots__ = ()

    @classmethod
    def sym(cls, symbol):
        return cls({((symbol, 1),): Fraction(1)})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, Poly):
            return NotImplemented
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = _mono_mul(m1, m2)
                nc = out.get(m, 0) + c1 * c2
                if nc:
                    out[m] = nc
                else:
                    out.pop(m, None)
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
                term = term * (Poly.sym(sym) if rep is None else rep) ** e
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
        return self.terms[()]

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for mono in sorted(self.terms, key=_mono_key):
            c = self.terms[mono]
            factors = "".join(
                f"{symbol_str(s)}" + (f"^{e}" if e > 1 else "")
                for s, e in mono)
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
            key = "*".join(f"{symbol_str(s)}" + (f"^{e}" if e > 1 else "")
                           for s, e in mono) or "1"
            out[key] = str(self.terms[mono])
        return out


def _mono_mul(m1, m2):
    if not m1:
        return m2
    if not m2:
        return m1
    d = dict(m1)
    for s, e in m2:
        d[s] = d.get(s, 0) + e
    return tuple(sorted(d.items(), key=lambda it: _symbol_key(it[0])))
