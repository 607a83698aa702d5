"""Multiset-permutation statistics and the Weisner/Goldberg coefficients.

The closed forms are driven by descent/ascent/plateau statistics of the
word a finer ordered partition induces on a coarser one; brute-force
definitions (sums over all of OP_n) serve as oracles and are delegated to
the kernel backend.  Integrals over [-1,0] are evaluated exactly via the
Beta-function monomial rule, never numerically.
"""

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, isqrt, lcm

from . import _kernels as K
from .partitions import OrderedSetPartition

ORACLE_BOUND = 6

ASCENDING = "ascending"
DESCENDING = "descending"
LEVEL = "level"


def stats(word):
    """(descents, plateaux, ascents) of a word; they sum to len - 1."""
    word = tuple(word)
    if not word:
        raise ValueError("empty word")
    des = plat = asc = 0
    for a, b in zip(word, word[1:]):
        if a > b:
            des += 1
        elif a == b:
            plat += 1
        else:
            asc += 1
    return des, plat, asc


def relative_word(tau, eta):
    """Block-of-eta index per block of tau, in tau's block order.

    Defined when the underlying partition of tau refines that of eta;
    raises ValueError otherwise.
    """
    rw = _checked_relative_word(tau, eta)
    if rw is None:
        raise ValueError("tau does not refine eta")
    return rw


def _checked_relative_word(tau, eta):
    """K.relative_word of two partitions of one ground set (ValueError if
    the ground sets differ); None when tau does not refine eta."""
    if tau.n != eta.n:
        raise ValueError("mismatched ground sets")
    return K.relative_word(tau.word, eta.word)


class RunDecomposition(namedtuple("RunDecomposition", "kind runs lengths")):
    """kind, runs (a tuple of subwords) and their lengths."""

    __slots__ = ()

    @property
    def count(self):
        return len(self.runs)


def runs(word, kind) -> RunDecomposition:
    """Maximal ascending/descending/level runs of a word."""
    word = tuple(word)
    if not word:
        raise ValueError("empty word")
    if kind not in (ASCENDING, DESCENDING, LEVEL):
        raise ValueError(f"unknown run kind {kind!r}")
    breaks = {
        ASCENDING: lambda a, b: not a < b,
        DESCENDING: lambda a, b: not a > b,
        LEVEL: lambda a, b: a != b,
    }[kind]
    out = [[word[0]]]
    for a, b in zip(word, word[1:]):
        if breaks(a, b):
            out.append([b])
        else:
            out[-1].append(b)
    segs = tuple(tuple(r) for r in out)
    return RunDecomposition(kind, segs, tuple(len(r) for r in segs))


def stirling2(q: int, k: int) -> int:
    """Stirling numbers of the second kind: S(q, k) is the entry k! S(q, k)
    of eulerian_poly(q) divided by k!."""
    if q < 0 or k < 0:
        raise ValueError("q, k must be >= 0")
    if k == 0 or k > q:
        return 1 if q == k else 0
    return eulerian_poly(q)[k - 1] // factorial(k)


@lru_cache(maxsize=None)
def eulerian_poly(q: int) -> tuple:
    """Coefficients of P_q(x) = sum_k k! S(q,k) x^(k-1), low degree first.

    k! S(m, k) = f(m, k) counts the surjections of [m] onto [k]; the rows
    m = 0..q follow f(m, k) = k (f(m-1, k) + f(m-1, k-1)) from f(0, 0) = 1,
    in a loop, so no q is too deep.
    """
    if q < 1:
        raise ValueError("q must be >= 1")
    row = [1]
    for _ in range(q):
        row = [0] + [k * (a + b) for k, a, b
                     in zip(range(1, len(row) + 1), row[1:] + [0], row)]
    return tuple(row[1:])


def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return tuple(out)


def integrate_unit(coeffs) -> Fraction:
    """Exact integral over [-1, 0] of the polynomial with these coefficients.

    The sum of c_k (-1)^k / (k + 1) is added in integers over
    L = lcm(1..len), as c_k (-1)^k (L / (k + 1)), and divided by L once.
    """
    big = lcm(*range(1, len(coeffs) + 1))
    total = 0
    for k, c in enumerate(coeffs):
        if c:
            term = c * (big // (k + 1))
            total += -term if k & 1 else term
    return Fraction(total, big)


def integrate_monomial(a: int, b: int) -> Fraction:
    """Exact integral over [-1, 0] of x^a (1+x)^b (a Beta value up to sign)."""
    if a < 0 or b < 0:
        raise ValueError("exponents must be >= 0")
    return Fraction((-1) ** a * factorial(a) * factorial(b),
                    factorial(a + b + 1))


# ---------------------------------------------------------------------------
# Weisner and Goldberg coefficients
# ---------------------------------------------------------------------------

def weisner(tau, eta) -> Fraction:
    """Sum of mu~(sigma, 1^) over the fiber sigma curlywedge eta = tau.

    Closed form via the ascent count of the relative word; zero when tau
    does not refine eta.
    """
    rw = _checked_relative_word(tau, eta)
    return Fraction(0) if rw is None else weisner_from_word(rw)


def weisner_from_word(rw) -> Fraction:
    """Weisner/Solomon closed form of a word with s letters and asc
    ascents: (-1)^(s-asc-1) / (s C(s-1, asc)), cached on (s, asc)."""
    return _weisner_value(len(rw), stats(rw)[2])


@lru_cache(maxsize=None)
def _weisner_value(s: int, asc: int) -> Fraction:
    return Fraction((-1) ** (s - asc - 1), s * comb(s - 1, asc))


def weisner_via_integral(tau, eta) -> Fraction:
    """Same value through the exact Beta integral; cross-check route."""
    rw = _checked_relative_word(tau, eta)
    if rw is None:
        return Fraction(0)
    asc = stats(rw)[2]
    return integrate_monomial(len(rw) - asc - 1, asc)


def goldberg(tau, eta) -> Fraction:
    """zeta~-smeared Weisner sum; equals the CBH monomial coefficients.

    (1/prod q_j!) integral of x^des (1+x)^asc prod P_{q_j}(x) over [-1,0],
    with q_j the level-run lengths of the relative word.
    """
    rw = _checked_relative_word(tau, eta)
    return Fraction(0) if rw is None else goldberg_from_word(rw)


def goldberg_from_word(rw) -> Fraction:
    """Goldberg integral of a word: (1/prod q_j!) times the integral over
    [-1,0] of x^des (1+x)^asc prod P_{q_j}(x), with q_j its level-run
    lengths.

    The value depends only on (des, asc, sorted run lengths); the word is
    read once for them and `goldberg_from_stats` is cached on that key.
    """
    rw = tuple(rw)
    if not rw:
        raise ValueError("empty word")
    des = asc = 0
    qs = []
    q = 1
    for a, b in zip(rw, rw[1:]):
        if a == b:
            q += 1
            continue
        if a > b:
            des += 1
        else:
            asc += 1
        qs.append(q)
        q = 1
    qs.append(q)
    return goldberg_from_stats(des, asc, tuple(sorted(qs)))


@lru_cache(maxsize=None)
def goldberg_from_stats(des: int, asc: int, qs: tuple) -> Fraction:
    """Goldberg integral of any word with des descents, asc ascents and
    level runs of lengths qs (sorted, since the value ignores their order).

    x^des (1+x)^asc prod P_q(x) is expanded in integers, (1+x)^asc by its
    binomials, integrated by `integrate_unit` and divided by prod q!.
    """
    poly = (0,) * des + tuple(comb(asc, j) for j in range(asc + 1))
    denom = 1
    for q in qs:
        poly = poly_mul(poly, eulerian_poly(q))
        denom *= factorial(q)
    return integrate_unit(poly) / denom


def _over_blocks(fn, tau, eta, pi) -> Fraction:
    """Product of fn over the pieces of the relative word of (tau, eta)
    that the blocks of pi cut out (tau's blocks in each pi-block): their
    numerators and denominators multiplied as ints, divided once."""
    if not (tau.n == eta.n == pi.n):
        raise ValueError("mismatched ground sets")
    rw = K.relative_word(tau.word, eta.word)
    if rw is None:
        return Fraction(0)
    t = K.order_type(tau.word, pi.word)
    if t is None:  # tau is not below pi
        return Fraction(0)
    num = den = 1
    for value in map(fn, K.segments(rw, t)):
        num *= value.numerator
        den *= value.denominator
    return Fraction(num, den)


def weisner3(tau, eta, pi) -> Fraction:
    """Relative Weisner coefficient, factorizing over the blocks of pi."""
    return _over_blocks(weisner_from_word, tau, eta, pi)


def goldberg3(tau, eta, pi) -> Fraction:
    """Relative Goldberg coefficient, factorizing over the blocks of pi."""
    return _over_blocks(goldberg_from_word, tau, eta, pi)


# ---------------------------------------------------------------------------
# brute-force oracles
# ---------------------------------------------------------------------------

def _check_bound(n):
    if n > ORACLE_BOUND:
        raise ValueError(f"oracle refused at n = {n} (bound {ORACLE_BOUND})")


def weisner_oracle(tau, eta) -> Fraction:
    """Definition-level sum over all of OP_n."""
    if tau.n != eta.n:
        raise ValueError("mismatched ground sets")
    n = tau.n
    _check_bound(n)
    total = Fraction(0)
    for w in K.osp_words(n):
        if K.quasi_meet(w, eta.word) == tau.word:
            p = max(w)
            total += Fraction((-1) ** (p - 1), p)
    return total


def goldberg_oracle(tau, eta) -> Fraction:
    """Definition-level sum g = sum_{sigma >= tau} zeta~(tau,sigma) w(sigma,eta)."""
    if tau.n != eta.n:
        raise ValueError("mismatched ground sets")
    n = tau.n
    _check_bound(n)
    total = Fraction(0)
    for w in K.osp_words(n):
        if K.leq_words(tau.word, w):
            total += K.zeta_tilde_words(tau.word, w) * weisner_oracle(
                OrderedSetPartition._raw(n, w), eta)
    return total


def weisner_oracle_table(n: int) -> dict:
    """All w(tau,eta) at once: {eta word: {tau word: value}}, zeros omitted."""
    _check_bound(n)
    return K.weisner_oracle_table(n)


def goldberg_oracle_table(n: int) -> dict:
    _check_bound(n)
    return K.goldberg_oracle_table(n)


# ---------------------------------------------------------------------------
# fiber structure
# ---------------------------------------------------------------------------

def _merge_runs(tau, eta, kind):
    """tau with its blocks merged along the runs of the relative word."""
    label = [0]
    for r, length in enumerate(runs(relative_word(tau, eta), kind).lengths,
                               start=1):
        label += [r] * length
    return OrderedSetPartition._raw(tau.n, tuple(label[b] for b in tau.word))


def sigma_max_asc(tau, eta) -> OrderedSetPartition:
    """Top of the fiber {sigma : sigma curlywedge eta = tau}.

    Merges tau's blocks along the ascending runs of the relative word; the
    fiber is exactly the interval [tau, sigma_max_asc(tau, eta)].
    """
    return _merge_runs(tau, eta, ASCENDING)


def sigma_max_pla(tau, eta) -> OrderedSetPartition:
    """Top of {sigma >= tau with underlying(sigma) refining underlying(eta)}."""
    return _merge_runs(tau, eta, LEVEL)


# ---------------------------------------------------------------------------
# vanishing criteria
# ---------------------------------------------------------------------------

# value: Fraction; zero_criterion_applies: des = asc with an even block
# count; prime_criterion_applies: the block count is prime and eta has more
# than one block; consistent: bool
VanishingReport = namedtuple(
    "VanishingReport",
    "value zero_criterion_applies prime_criterion_applies consistent")


def _is_prime(m):
    return m > 1 and all(m % d for d in range(2, isqrt(m) + 1))


def vanishing_checks(tau, eta) -> VanishingReport:
    """Evaluate both sufficient criteria against the actual coefficient."""
    rw = relative_word(tau, eta)
    des, _, asc = stats(rw)
    val = goldberg(tau, eta)
    zero_crit = des == asc and len(tau) % 2 == 0
    # at eta = 1^, g(tau, eta) = delta(tau, eta): the prime criterion fails
    prime_crit = _is_prime(len(tau)) and len(eta) > 1
    ok = not (zero_crit and val != 0) and not (prime_crit and val == 0)
    return VanishingReport(val, zero_crit, prime_crit, ok)
