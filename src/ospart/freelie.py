"""Free-algebra words, truncated noncommutative series and CBH expansion.

The shuffle system on a free algebra sends a word of upper-indexed letters
to the concatenation ordered by its kernel partition; its cumulants are
the Eulerian (Lie) projector applied to words.  Three independent routes
to log(e^{a_1}...e^{a_n}) live here: direct series arithmetic, the
cumulant sum over multi-powers, and the closed-form monomial coefficients
through descent statistics and homogeneous Eulerian polynomials.
"""

from fractions import Fraction
from functools import lru_cache
from math import factorial

from . import _kernels as K
from .coefficients import goldberg_from_word
from .partitions import iter_pseudo_partitions
from .symbolic import SparseSum, add_into


class NCPoly(SparseSum):
    """Finitely supported map from words (tuples of letters) to Fraction."""

    __slots__ = ()

    @classmethod
    def word(cls, letters, coeff=1):
        c = Fraction(coeff)
        return cls({tuple(letters): c}) if c else cls()

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def one(cls):
        return cls({(): Fraction(1)})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, NCPoly):
            return NotImplemented
        out = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                w = w1 + w2
                nc = out.get(w, 0) + c1 * c2
                if nc:
                    out[w] = nc
                else:
                    out.pop(w, None)
        return NCPoly(out)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def graded(self):
        """{degree: {word: coeff}}."""
        out = {}
        for w, c in self.terms.items():
            out.setdefault(len(w), {})[w] = c
        return out

    def degree_part(self, d):
        return NCPoly({w: c for w, c in self.terms.items() if len(w) == d})

    def apply_to_letters(self, mapping):
        """Substitute letters (an alphabet map); words only get renamed."""
        return NCPoly(add_into({}, ((tuple(mapping[x] for x in w), c)
                                    for w, c in self.terms.items())))

    def __str__(self):
        if not self.terms:
            return "0"
        keys = sorted(self.terms, key=lambda w: (len(w), tuple(repr(x) for x in w)))
        parts = []
        for w in keys:
            c = self.terms[w]
            name = "".join(str(x) for x in w) if w else "1"
            parts.append(f"{c}*{name}" if w else f"{c}")
        return " + ".join(parts)

    __repr__ = __str__


# ---------------------------------------------------------------------------
# the Eulerian projector and shuffle-system cumulants
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _projector_terms(n: int):
    """Position rearrangements with coefficients: the degree-n projector.

    Each ordered set partition contributes its block-concatenated position
    order with coefficient (-1)^(p-1)/p.
    """
    out = []
    for w in K.osp_words(n):
        p = max(w)
        out.append((_block_order(w), Fraction((-1) ** (p - 1), p)))
    return tuple(out)


def _block_order(word):
    """Positions of a partition word, block by block (increasing within)."""
    return tuple(sorted(range(len(word)), key=word.__getitem__))


def pi_projector(letters) -> NCPoly:
    """Lie projector of a word: signed sum of block-ordered rearrangements."""
    letters = tuple(letters)
    if not letters:
        raise ValueError("the projector is not defined on the empty word")
    terms = _projector_terms(len(letters))
    return NCPoly(add_into({}, ((tuple(letters[i] for i in order), coeff)
                                for order, coeff in terms)))


def pi_on_poly(p: NCPoly) -> NCPoly:
    """Linear extension of the projector to polynomials (unit killed)."""
    return NCPoly.sum([pi_projector(w).scale(c)
                       for w, c in p.terms.items() if w])


def nct_cumulant(elements):
    """Shuffle-system cumulant of ring elements.

    Works for anything with +, * and Fraction scalar multiplication
    (NCPoly, RationalMatrix); the order of the factors inside a block
    follows the positions.
    """
    elements = tuple(elements)
    n = len(elements)
    if n == 0:
        raise ValueError("need at least one element")
    total = None
    for order, coeff in _projector_terms(n):
        term = elements[order[0]]
        for i in order[1:]:
            term = term * elements[i]
        term = term * coeff
        total = term if total is None else total + term
    return total


def shuffle_moment(letters, indices) -> NCPoly:
    """phi~ of upper-indexed letters: concatenation by the kernel order."""
    letters = tuple(letters)
    indices = tuple(indices)
    if len(letters) != len(indices):
        raise ValueError("length mismatch")
    return phi_word_partition(letters, K.kernel_word(indices))


def phi_word_partition(letters, word) -> NCPoly:
    """phi_pi for the shuffle system: the block-ordered concatenation."""
    letters = tuple(letters)
    return NCPoly.word(tuple(letters[i] for i in _block_order(word)))


# ---------------------------------------------------------------------------
# coproduct oracle for the projector
# ---------------------------------------------------------------------------

def coproduct_k(letters, k: int) -> dict:
    """k-fold coproduct of a word: {tuple of k words: coefficient}.

    Sums over ordered pseudopartitions with k (possibly empty) blocks;
    the term count is k**len(letters).
    """
    letters = tuple(letters)
    if k < 1:
        raise ValueError("k must be >= 1")
    out = {}
    for opp in iter_pseudo_partitions(len(letters), k):
        key = tuple(tuple(letters[x - 1] for x in blk) for blk in opp.blocks)
        out[key] = out.get(key, 0) + Fraction(1)
    return out


def pi_convolution_oracle(letters) -> NCPoly:
    """The projector via its convolution definition (coproduct route)."""
    letters = tuple(letters)
    n = len(letters)
    out = {}
    for k in range(1, n + 1):
        sign = Fraction((-1) ** (k - 1), k)
        # (Id - counit) kills the terms with an empty factor
        add_into(out, ((sum(key, ()), sign * c)
                       for key, c in coproduct_k(letters, k).items()
                       if all(key)))
    return NCPoly(out)


def pi_k(letters, k: int) -> NCPoly:
    """Degree-k piece of the dilated word: (1/k!) sum of K_pi over |pi|=k."""
    letters = tuple(letters)
    n = len(letters)
    if not 1 <= k <= n:
        raise ValueError("k out of range")
    out = {}
    for w in K.osp_words(n):
        if max(w) != k:
            continue
        term = NCPoly.one()
        for b in range(1, k + 1):
            blk = tuple(letters[i] for i, x in enumerate(w) if x == b)
            term = term * pi_projector(blk)
        add_into(out, term.terms.items())
    return NCPoly(out).scale(Fraction(1, factorial(k)))


def dilation_coefficients(letters):
    """[c_1,...,c_n] with phi~((N.a_1)...(N.a_n)) = sum N^k c_k.

    Expands the dot-operation sum through the binomial coefficients of the
    ideal of the one-block partition.
    """
    letters = tuple(letters)
    n = len(letters)
    coeffs = [{} for _ in range(n + 1)]
    one = (1,) * n
    for w in K.ideal_words(one):
        s = max(w)
        word_poly = phi_word_partition(letters, w)
        # binom(N, s) as a polynomial in N
        binom = [Fraction(0)] * (s + 1)
        binom[0] = Fraction(1, factorial(s))
        deg = 0
        for i in range(s):
            nxt = [Fraction(0)] * (s + 1)
            for d in range(deg + 1):
                nxt[d + 1] += binom[d]
                nxt[d] -= binom[d] * i
            binom = nxt
            deg += 1
        for d in range(1, s + 1):
            if binom[d]:
                add_into(coeffs[d], word_poly.scale(binom[d]).terms.items())
    return [NCPoly(c) for c in coeffs[1:]]


# ---------------------------------------------------------------------------
# truncated noncommutative series
# ---------------------------------------------------------------------------

class TruncatedNCSeries:
    """NCPoly with all words capped at a total degree; products truncate."""

    __slots__ = ("poly", "order")

    def __init__(self, poly: NCPoly, order: int):
        if order < 0:
            raise ValueError("order must be >= 0")
        self.order = order
        self.poly = NCPoly({w: c for w, c in poly.terms.items()
                            if len(w) <= order})

    @classmethod
    def letter(cls, a, order):
        return cls(NCPoly.word((a,)), order)

    @classmethod
    def one(cls, order):
        return cls(NCPoly.one(), order)

    def __eq__(self, other):
        return (isinstance(other, TruncatedNCSeries)
                and self.order == other.order and self.poly == other.poly)

    def __hash__(self):
        return hash((self.order, self.poly))

    def __add__(self, other):
        other = self._coerce(other)
        return TruncatedNCSeries(self.poly + other.poly, self.order)

    def __sub__(self, other):
        other = self._coerce(other)
        return TruncatedNCSeries(self.poly - other.poly, self.order)

    def __neg__(self):
        return TruncatedNCSeries(-self.poly, self.order)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return TruncatedNCSeries(self.poly.scale(other), self.order)
        other = self._coerce(other)
        out = {}
        for w1, c1 in self.poly.terms.items():
            add_into(out, [(w1 + w2, c1 * c2)
                           for w2, c2 in other.poly.terms.items()
                           if len(w1) + len(w2) <= self.order])
        return TruncatedNCSeries(NCPoly(out), self.order)

    def _coerce(self, other):
        if isinstance(other, TruncatedNCSeries):
            if other.order != self.order:
                raise ValueError("mixed truncation orders")
            return other
        if isinstance(other, (int, Fraction)):
            return TruncatedNCSeries(NCPoly.const(other), self.order)
        raise TypeError(other)

    def constant_term(self) -> Fraction:
        return self.poly.terms.get((), Fraction(0))

    def coefficient(self, word) -> Fraction:
        return self.poly.terms.get(tuple(word), Fraction(0))

    def degree_part(self, d) -> NCPoly:
        return self.poly.degree_part(d)

    def __str__(self):
        return str(self.poly)

    __repr__ = __str__


def exp_trunc(x: TruncatedNCSeries) -> TruncatedNCSeries:
    """exp of a series with zero constant term."""
    if x.constant_term() != 0:
        raise ValueError("exp needs a zero constant term")
    out = TruncatedNCSeries.one(x.order)
    power = TruncatedNCSeries.one(x.order)
    for k in range(1, x.order + 1):
        power = power * x
        out = out + power * Fraction(1, factorial(k))
    return out


def log_trunc(u: TruncatedNCSeries) -> TruncatedNCSeries:
    """log of a series with constant term one."""
    if u.constant_term() != 1:
        raise ValueError("log needs constant term 1")
    v = u - 1
    out = TruncatedNCSeries(NCPoly(), u.order)
    power = TruncatedNCSeries.one(u.order)
    for k in range(1, u.order + 1):
        power = power * v
        out = out + power * Fraction((-1) ** (k - 1), k)
    return out


def inv_trunc(u: TruncatedNCSeries) -> TruncatedNCSeries:
    """Multiplicative inverse of a series with constant term one."""
    if u.constant_term() != 1:
        raise ValueError("inverse needs constant term 1")
    v = u - 1
    out = TruncatedNCSeries.one(u.order)
    power = TruncatedNCSeries.one(u.order)
    for k in range(1, u.order + 1):
        power = power * v
        out = out + power * Fraction((-1) ** k)
    return out


# ---------------------------------------------------------------------------
# CBH expansion, three routes
# ---------------------------------------------------------------------------

DEFAULT_DEGREE_CAP = 7


def _check_cbh_args(letters, order, cap):
    if not letters:
        raise ValueError("need at least one letter")
    if len(set(letters)) != len(letters):
        raise ValueError("letters must be distinct")
    if order < 1:
        raise ValueError("order must be >= 1")
    if cap is not None and order > cap:
        raise ValueError(
            f"degree {order} above the cap {cap}; pass cap=None to force")


def cbh_direct(letters, order, cap=DEFAULT_DEGREE_CAP) -> TruncatedNCSeries:
    """log of the product of letter exponentials by series arithmetic."""
    _check_cbh_args(letters, order, cap)
    prod = TruncatedNCSeries.one(order)
    for a in letters:
        prod = prod * exp_trunc(TruncatedNCSeries.letter(a, order))
    return log_trunc(prod)


def cbh_cumulant(letters, order, cap=DEFAULT_DEGREE_CAP) -> TruncatedNCSeries:
    """CBH as the cumulant sum over multi-powers of the letters."""
    _check_cbh_args(letters, order, cap)
    letters = tuple(letters)
    n = len(letters)
    out = {}

    def rec(i, remaining, current):
        if i == n:
            if any(current):
                seq = []
                denom = 1
                for a, p in zip(letters, current):
                    seq.extend([a] * p)
                    denom *= factorial(p)
                add_into(out, pi_projector(seq).scale(
                    Fraction(1, denom)).terms.items())
            return
        for p in range(0, remaining + 1):
            rec(i + 1, remaining - p, current + [p])

    rec(0, order, [])
    return TruncatedNCSeries(NCPoly(out), order)


def goldberg_word_coefficient(monomial) -> Fraction:
    """CBH coefficient of a_{i_1}^{q_1}...a_{i_m}^{q_m}.

    monomial is a sequence of (letter index, multiplicity) pairs with
    adjacent indices distinct.  Its word i_1^q_1...i_m^q_m has the
    multiplicities as level runs and the descents and ascents of the
    index sequence, so the coefficient is that word's Goldberg integral.
    """
    monomial = tuple(monomial)
    if not monomial:
        raise ValueError("empty monomial")
    idx = [i for i, _ in monomial]
    qs = [q for _, q in monomial]
    if any(q < 1 for q in qs):
        raise ValueError("multiplicities must be >= 1")
    if any(a == b for a, b in zip(idx, idx[1:])):
        raise ValueError("adjacent letter indices must differ")
    return goldberg_from_word(tuple(i for i, q in monomial for _ in range(q)))


def cbh_goldberg(letters, order, cap=DEFAULT_DEGREE_CAP) -> TruncatedNCSeries:
    """CBH from the closed-form monomial coefficients."""
    _check_cbh_args(letters, order, cap)
    letters = tuple(letters)
    n = len(letters)
    out = {}

    def emit(seq):
        coeff = goldberg_word_coefficient(seq)
        if coeff:
            w = []
            for i, q in seq:
                w.extend([letters[i - 1]] * q)
            out[tuple(w)] = coeff

    def rec(seq, used):
        if seq:
            emit(seq)
        if used >= order:
            return
        last = seq[-1][0] if seq else None
        for i in range(1, n + 1):
            if i == last:
                continue
            for q in range(1, order - used + 1):
                rec(seq + [(i, q)], used + q)

    rec([], 0)
    return TruncatedNCSeries(NCPoly(out), order)


# ---------------------------------------------------------------------------
# Dynkin map
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _dynkin_word(w) -> NCPoly:
    # right-nested bracket [w1,[w2,[...,[w_{n-1},w_n]...]]]
    if len(w) == 1:
        return NCPoly.word(w)
    head = NCPoly.word(w[:1])
    rest = _dynkin_word(w[1:])
    return head * rest - rest * head


def dynkin(p: NCPoly) -> NCPoly:
    """Right-nested bracketing divided by the degree, degreewise linear.

    Lie elements are fixed points; in particular dynkin(pi(w)) = pi(w).
    """
    if () in p.terms:
        raise ValueError("the Dynkin map is not defined on the unit")
    return NCPoly.sum([_dynkin_word(w).scale(c / len(w))
                       for w, c in p.terms.items()])


# ---------------------------------------------------------------------------
# rational matrices (commutation witnesses)
# ---------------------------------------------------------------------------

class RationalMatrix:
    """Dense small matrix over Fraction supporting +, * and scalar scaling."""

    __slots__ = ("rows",)

    def __init__(self, rows):
        self.rows = tuple(tuple(Fraction(x) for x in r) for r in rows)
        m = len(self.rows)
        if m == 0 or any(len(r) != m for r in self.rows):
            raise ValueError("need a nonempty square matrix")

    @classmethod
    def identity(cls, m):
        return cls([[1 if i == j else 0 for j in range(m)] for i in range(m)])

    @property
    def size(self):
        return len(self.rows)

    def __add__(self, other):
        return RationalMatrix(
            [[a + b for a, b in zip(r1, r2)]
             for r1, r2 in zip(self.rows, other.rows)])

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            return RationalMatrix([[x * c for x in r] for r in self.rows])
        m = self.size
        return RationalMatrix(
            [[sum(self.rows[i][k] * other.rows[k][j] for k in range(m))
              for j in range(m)] for i in range(m)])

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * other
        return NotImplemented

    def __sub__(self, other):
        return self + other * Fraction(-1)

    def __eq__(self, other):
        return isinstance(other, RationalMatrix) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def is_zero(self):
        return all(x == 0 for r in self.rows for x in r)

    def __repr__(self):
        return f"RationalMatrix({[list(r) for r in self.rows]})"


def kron(a: RationalMatrix, b: RationalMatrix) -> RationalMatrix:
    na, nb = a.size, b.size
    return RationalMatrix(
        [[a.rows[i // nb][j // nb] * b.rows[i % nb][j % nb]
          for j in range(na * nb)] for i in range(na * nb)])


def nct_commuting_split_check(n, split, seed=0) -> bool:
    """Cumulant vanishing for a family split into two commuting halves.

    Elements with index in the split act on the left Kronecker factor,
    the rest on the right, so the two families commute elementwise while
    staying noncommutative internally.  Returns True when the degree-n
    cumulant of the family vanishes.
    """
    import random
    split = set(split)
    if not split or split >= set(range(1, n + 1)):
        raise ValueError("split must be a proper nonempty subset of 1..n")
    rng = random.Random(seed)

    def rand2():
        return RationalMatrix(
            [[Fraction(rng.randint(-3, 3), rng.randint(1, 3))
              for _ in range(2)] for _ in range(2)])

    eye = RationalMatrix.identity(2)
    elems = []
    for k in range(1, n + 1):
        m = rand2()
        elems.append(kron(m, eye) if k in split else kron(eye, m))
    return nct_cumulant(elems).is_zero()
