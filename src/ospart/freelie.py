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
from itertools import groupby, permutations, product
from math import factorial
from operator import gt, itemgetter

from . import _kernels as K
from .coefficients import goldberg_from_stats, goldberg_from_word
from .symbolic import SparseSum, add_into, exact


class NCPoly(SparseSum):
    """Finitely supported map from words (tuples of letters) to exact
    coefficients, int or Fraction, as in SparseSum."""

    __slots__ = ()

    @classmethod
    def word(cls, letters, coeff=1):
        c = exact(coeff)
        return cls({tuple(letters): c}) if c else cls()

    @classmethod
    def one(cls):
        return cls({(): 1})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, NCPoly):
            return NotImplemented
        out = {}
        for w1, c1 in self.terms.items():
            add_into(out, [(w1 + w2, c1 * c2)
                           for w2, c2 in other.terms.items()])
        return NCPoly(out)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

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
def _descent_weights(n: int, d: int):
    """Coefficients of C(t + n - 1 - d, n) in t, lowest degree first.

    The Eulerian idempotents of degree n sum to
    sum_k t^k e_n^(k) = sum_sigma C(t + n - 1 - des sigma, n) sigma
    (Garsia 1990; Reutenauer, Free Lie Algebras, ch. 3), so entry k is
    the coefficient of a permutation with d descents in e_n^(k).
    """
    poly = [Fraction(1, factorial(n))]
    for j in range(n):
        # times (t + n - 1 - d - j)
        shift = n - 1 - d - j
        nxt = [c * shift for c in poly] + [Fraction(0)]
        for i, c in enumerate(poly):
            nxt[i + 1] += c
        poly = nxt
    return tuple(poly)


@lru_cache(maxsize=None)
def _solomon_ints(n: int, k: int = 1):
    """(D, ints): a permutation of degree n with d descents weighs
    ints[d] / D in the k-th Eulerian piece, D the least common denominator
    of the row (k = 1: Solomon's (-1)^d / (n C(n-1, d))).  Every projector
    table reads its denominator and its integer weights from this row."""
    den, ints = K.cleared({d: _descent_weights(n, d)[k] for d in range(n)})
    return den, tuple(ints.values())


def _block_order(word):
    """Positions of a partition word, block by block (increasing within)."""
    return tuple(sorted(range(len(word)), key=word.__getitem__))


def pi_projector(letters) -> NCPoly:
    """Lie projector of a word: signed sum of block-ordered rearrangements."""
    letters = tuple(letters)
    if not letters:
        raise ValueError("the projector is not defined on the empty word")
    return pi_k(letters, 1)


def pi_on_poly(p: NCPoly) -> NCPoly:
    """Linear extension of the projector to polynomials (unit killed)."""
    d, ints = K.cleared(p.terms)
    return _project(ints, d)


def nct_cumulant(elements):
    """Shuffle-system cumulant of NCPoly elements; the order of the factors
    inside a block follows the positions.

    The elements expand multilinearly.  Each element is cleared to
    integers over its own denominator.  The permutations are walked as a
    tree of prefixes: each node carries the integer products of its
    prefix's elements and its descent count, so each node concatenates
    once per product term, and each leaf adds its products times the
    integer weight of its descent count.  Every output word is then
    divided once, by the table's denominator times the elements'
    denominators.
    """
    elements = tuple(elements)
    if not elements:
        raise ValueError("need at least one element")
    for e in elements:
        if not isinstance(e, NCPoly):
            raise TypeError(f"nct_cumulant takes NCPoly elements, not "
                            f"{type(e).__name__}")
    if len(elements) == 1:
        return elements[0] * 1
    return _nct_expand(elements)


def _nct_expand(elements):
    """nct_cumulant of two or more NCPolys, along the permutation tree."""
    n = len(elements)
    # Solomon's weight depends only on the descent count
    den, weights = _solomon_ints(n)
    choices = []
    for e in elements:
        d, ints = K.cleared(e.terms)
        den *= d
        choices.append(tuple(ints.items()))
    acc = {}
    get = acc.get

    def grow(prefix, last, rest, des):
        for j, i in enumerate(rest):
            step = des + (i < last)
            if len(rest) == 1:
                wt = weights[step]
                for w, c in prefix:
                    c *= wt
                    for u, cu in choices[i]:
                        key = w + u
                        acc[key] = get(key, 0) + c * cu
            else:
                grow([(w + u, c * cu) for w, c in prefix
                      for u, cu in choices[i]],
                     i, rest[:j] + rest[j + 1:], step)

    grow((((), 1),), -1, tuple(range(n)), 0)
    return NCPoly(K.divided(acc, den))


def shuffle_moment(letters, indices) -> NCPoly:
    """phi~ of upper-indexed letters: concatenation by the kernel order."""
    letters = tuple(letters)
    indices = tuple(indices)
    if len(letters) != len(indices):
        raise ValueError("length mismatch")
    return phi_word_partition(letters, K.kernel_word(indices))


def phi_word_partition(letters, word) -> NCPoly:
    """phi_pi for the shuffle system: the block-ordered concatenation.

    word is the partition word of pi: one block index per letter, the
    indices being exactly 1..max(word).
    """
    letters = tuple(letters)
    word = tuple(word)
    if len(word) != len(letters):
        raise ValueError("word and letters differ in length")
    blocks = set(word)
    if blocks != set(range(1, len(blocks) + 1)):
        raise ValueError("block indices must be exactly 1..max(word)")
    return NCPoly.word(tuple(letters[i] for i in _block_order(word)))


# ---------------------------------------------------------------------------
# coproduct oracle for the projector
# ---------------------------------------------------------------------------

def coproduct_k(letters, k: int) -> dict:
    """k-fold coproduct of a word: {tuple of k words: coefficient}.

    Sums over the slot words of the letters: each letter picks one of k
    slots, the i-th factor keeping the letters in slot i in order, so the
    term count is k**len(letters).
    """
    letters = tuple(letters)
    if k < 1:
        raise ValueError("k must be >= 1")
    out = {}
    for slots in product(range(k), repeat=len(letters)):
        key = tuple(tuple(a for a, s in zip(letters, slots) if s == i)
                    for i in range(k))
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


@lru_cache(maxsize=None)
def _run_rows(runs, k=1):
    """(D, ((getter, weight), ...)): the (m, k) projector, m the sum of the
    run lengths, applied to the run-index word 0^p1 1^p2 ... and summed per
    image, in integers over the (m, k) Solomon row's D.  Each getter takes
    the run letters (one per run) to the image word; images whose weights
    cancel are left out.  Runs of length one give the table itself: every
    permutation of range(m) weighing nonzero, in `permutations` order; any
    other composition sums that table per image."""
    m = sum(runs)
    den, ints = _solomon_ints(m, k)
    if m == len(runs):
        rows = []
        for order in permutations(range(m)):
            wt = ints[sum(map(gt, order, order[1:]))]
            if wt:
                # itemgetter of one index would return the item, not a tuple
                rows.append((itemgetter(*order) if m > 1 else tuple, wt))
        return den, tuple(rows)
    word = tuple(i for i, p in enumerate(runs) for _ in range(p))
    sums = {}
    get = sums.get
    for take, wt in _run_rows((1,) * m, k)[1]:
        key = take(word)
        sums[key] = get(key, 0) + wt
    return den, tuple((itemgetter(*key), wt) for key, wt in sums.items()
                      if wt)


def _project(ints, d, k=1):
    """The k-th Eulerian piece of the polynomial {word: int} / d, unit
    dropped.  Each word splits into its run letters and run lengths
    (aabbbc: abc and 2, 3, 1); the run table of its lengths takes the run
    letters to each image word with the table's integer weights summed per
    image, and the word adds its integer times those weights.  The words
    of degree m are divided once, by the (m, k) Solomon row's D times d."""
    by_degree = {}
    for w, c in ints.items():
        if w:
            by_degree.setdefault(len(w), []).append((w, c))
    out = {}
    for m, words in by_degree.items():
        acc = {}
        get = acc.get
        for w, c in words:
            letters, runs = [], []
            for a, run in groupby(w):
                letters.append(a)
                runs.append(len(tuple(run)))
            for take, wt in _run_rows(tuple(runs), k)[1]:
                key = take(letters)
                acc[key] = get(key, 0) + c * wt
        out.update(K.divided(acc, _solomon_ints(m, k)[0] * d))
    return NCPoly(out)


def _check_int(name, value):
    """TypeError unless value is an int (a bool is not)."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{name} must be an int")


def pi_k(letters, k: int) -> NCPoly:
    """Degree-k piece of the dilated word: (1/k!) sum of K_pi over |pi|=k,
    the k-th Eulerian idempotent, summed over the descent table."""
    letters = tuple(letters)
    _check_int("k", k)
    if not 1 <= k <= len(letters):
        raise ValueError("k out of range")
    return _project({letters: 1}, 1, k)


def dilation_coefficients(letters):
    """[c_1,...,c_n] with phi~((N.a_1)...(N.a_n)) = sum N^k c_k.

    Expands the dot-operation sum through the binomial coefficients of the
    ideal of the one-block partition.
    """
    letters = tuple(letters)
    if not letters:
        raise ValueError("the dilation coefficients are not defined on the "
                         "empty word")
    n = len(letters)
    coeffs = [{} for _ in range(n + 1)]
    one = (1,) * n
    for w in K.ideal_words(one):
        s = max(w)
        word_poly = phi_word_partition(letters, w)
        # binom(N, s) as a polynomial in N: C(N + s - 1 - d, s) at d = s - 1
        binom = _descent_weights(s, s - 1)
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
        _check_int("order", order)
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
        dp, p = K.cleared(self.poly.terms)
        dq, q = K.cleared(other.poly.terms)
        return TruncatedNCSeries(NCPoly(K.divided(
            K.truncated_product(p, q, self.order), dp * dq)), self.order)

    def __radd__(self, other):
        return self + other

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * other
        return NotImplemented

    def _coerce(self, other):
        if isinstance(other, TruncatedNCSeries):
            if other.order != self.order:
                raise ValueError("mixed truncation orders")
            return other
        if isinstance(other, (int, Fraction)):
            return TruncatedNCSeries(NCPoly.const(other), self.order)
        raise TypeError(other)

    def constant_term(self) -> Fraction:
        return Fraction(self.poly.terms.get((), 0))

    def coefficient(self, word) -> Fraction:
        return Fraction(self.poly.terms.get(tuple(word), 0))

    def degree_part(self, d) -> NCPoly:
        return self.poly.degree_part(d)

    def __str__(self):
        return str(self.poly)

    __repr__ = __str__


def exp_trunc(x: TruncatedNCSeries) -> TruncatedNCSeries:
    """exp of a series with zero constant term."""
    if x.constant_term() != 0:
        raise ValueError("exp needs a zero constant term")
    return TruncatedNCSeries(NCPoly(K.series_compose(
        x.poly.terms, [Fraction(1, factorial(k)) for k in range(x.order + 1)],
        x.order)), x.order)


def log_trunc(u: TruncatedNCSeries) -> TruncatedNCSeries:
    """log of a series with constant term one."""
    if u.constant_term() != 1:
        raise ValueError("log needs constant term 1")
    return TruncatedNCSeries(NCPoly(K.series_compose(
        (u - 1).poly.terms,
        [0] + [Fraction((-1) ** (k - 1), k) for k in range(1, u.order + 1)],
        u.order)), u.order)


def inv_trunc(u: TruncatedNCSeries) -> TruncatedNCSeries:
    """Multiplicative inverse of a series with constant term one."""
    if u.constant_term() != 1:
        raise ValueError("inverse needs constant term 1")
    return TruncatedNCSeries(NCPoly(K.series_compose(
        (u - 1).poly.terms, [(-1) ** k for k in range(u.order + 1)],
        u.order)), u.order)


# ---------------------------------------------------------------------------
# CBH expansion, three routes
# ---------------------------------------------------------------------------

DEFAULT_DEGREE_CAP = 7


def _check_cbh_args(letters, order, cap):
    if not letters:
        raise ValueError("need at least one letter")
    if len(set(letters)) != len(letters):
        raise ValueError("letters must be distinct")
    _check_int("order", order)
    if order < 1:
        raise ValueError("order must be >= 1")
    if cap is not None and order > cap:
        raise ValueError(
            f"degree {order} above the cap {cap}; pass cap=None to force")


def _exp_product(letters, order):
    """(order!, {word: int}): the product of the letter exponentials up to
    the order, as integers over order!.

    The letters are distinct, so the product is the sum of the words
    a^p b^q ... up to the order, each with coefficient 1/(p! q! ...), whose
    denominator divides order!.  The prefix product is kept as integers over
    order!: the next letter a extends each word w by a^k with w's integer
    // k!, exactly.  Words of full length are set aside, since no later
    letter extends them.
    """
    scale = factorial(order)
    full = {}
    grow = {(): scale}
    for a in letters:
        nxt = {}
        for w, c in grow.items():
            nxt[w] = c
            for k in range(1, order - len(w) + 1):
                w += (a,)
                c //= k
                (full if len(w) == order else nxt)[w] = c
        grow = nxt
    full.update(grow)
    return scale, full


def cbh_direct(letters, order, cap=DEFAULT_DEGREE_CAP) -> TruncatedNCSeries:
    """log of the product of the letter exponentials, divided once."""
    _check_cbh_args(letters, order, cap)
    scale, ints = _exp_product(letters, order)
    return log_trunc(TruncatedNCSeries(NCPoly(K.divided(ints, scale)), order))


def cbh_cumulant(letters, order, cap=DEFAULT_DEGREE_CAP) -> TruncatedNCSeries:
    """CBH as the cumulant sum over multi-powers of the letters: the
    projector of each word a^p b^q ... divided by p! q! ....

    That sum is the projector of the product of the letter exponentials
    with its unit removed, since the log of a group-like element is its
    projector (Reutenauer, Free Lie Algebras, ch. 3).  A multi-power
    word's runs are its powers, so it walks the run table of (p, q, ...),
    one row per distinct image, not all (p + q + ...)! rearrangements.
    """
    _check_cbh_args(letters, order, cap)
    scale, ints = _exp_product(letters, order)
    return TruncatedNCSeries(_project(ints, scale), order)


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
    """CBH from the closed-form monomial coefficients.

    Each monomial a_{i_1}^{q_1}...a_{i_m}^{q_m} (adjacent indices distinct)
    is built once, its descents, ascents and multiplicities counted on the
    way, and takes the Goldberg integral of those statistics, as
    `goldberg_word_coefficient` would from its word.
    """
    _check_cbh_args(letters, order, cap)
    letters = tuple(letters)
    out = {}

    def rec(word, last, used, des, asc, qs):
        for i, a in enumerate(letters):
            if i == last:
                continue
            d = des + (i < last)
            s = asc + (0 <= last < i)
            for q in range(1, order - used + 1):
                w = word + (a,) * q
                qq = qs + (q,)
                coeff = goldberg_from_stats(d, s, tuple(sorted(qq)))
                if coeff:
                    out[w] = coeff
                if used + q < order:
                    rec(w, i, used + q, d, s, qq)

    rec((), -1, 0, 0, 0, ())
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
    return NCPoly.sum([_dynkin_word(w).scale(Fraction(c, len(w)))
                       for w, c in p.terms.items()])
