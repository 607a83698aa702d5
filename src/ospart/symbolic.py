"""Sparse commutative polynomials over exact rationals in indexed symbols.

One shared ring for every moment/cumulant engine so cross-engine
identities compare directly.  Symbols are tagged tuples:

    ("m", labels)   joint moment of the word of variable labels
    ("c", labels)   free-cumulant symbol
    ("pm", labels)  second-family (psi) moment
    ("t", j)        time parameter attached to block j
    ("v", name)     scalar indeterminate such as N or M

A polynomial is a dict monomial -> Fraction where a monomial is a sorted
tuple of (symbol, exponent) pairs.
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


class Poly:
    """Immutable-by-convention sparse polynomial with Fraction coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = terms if terms is not None else {}

    @classmethod
    def const(cls, c):
        c = Fraction(c)
        return cls({(): c}) if c else cls()

    @classmethod
    def sym(cls, symbol):
        return cls({((symbol, 1),): Fraction(1)})

    @staticmethod
    def _coerce(x):
        if isinstance(x, Poly):
            return x
        return Poly.const(x)

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        other = Poly._coerce(other)
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other):
        other = Poly._coerce(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            nc = out.get(m, 0) + c
            if nc:
                out[m] = nc
            else:
                out.pop(m, None)
        return Poly(out)

    __radd__ = __add__

    def __neg__(self):
        return Poly({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-Poly._coerce(other))

    def __rsub__(self, other):
        return Poly._coerce(other) + (-self)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                return Poly()
            c = Fraction(other)
            return Poly({m: cc * c for m, cc in self.terms.items()})
        other = Poly._coerce(other)
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
        out = Poly()
        for mono, c in self.terms.items():
            term = Poly.const(c)
            for sym, e in mono:
                rep = fn(sym)
                if rep is None:
                    term = term * Poly.sym(sym) ** e
                else:
                    term = term * Poly._coerce(rep) ** e
            out = out + term
        return out

    def diff(self, symbol):
        """Formal partial derivative."""
        out = {}
        for mono, c in self.terms.items():
            for i, (sym, e) in enumerate(mono):
                if sym == symbol:
                    rest = mono[:i] + ((sym, e - 1),) + mono[i + 1:] if e > 1 \
                        else mono[:i] + mono[i + 1:]
                    nc = out.get(rest, 0) + c * e
                    if nc:
                        out[rest] = nc
                    else:
                        out.pop(rest, None)
                    break
        return Poly(out)

    def coefficient(self, symbol, k: int):
        """Coefficient of symbol**k (a polynomial in the other symbols)."""
        out = {}
        for mono, c in self.terms.items():
            e = 0
            rest = []
            for sym, ee in mono:
                if sym == symbol:
                    e = ee
                else:
                    rest.append((sym, ee))
            if e == k:
                out[tuple(rest)] = out.get(tuple(rest), 0) + c
        return Poly({m: c for m, c in out.items() if c})

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


ZERO = Poly()
ONE = Poly.const(1)
