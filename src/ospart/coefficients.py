"""Multiset-permutation statistics and the Weisner/Goldberg coefficients.

The closed forms are driven by descent/ascent/plateau statistics of the
word a finer ordered partition induces on a coarser one; brute-force
definitions (sums over all of OP_n) serve as oracles and are delegated to
the kernel backend.  Integrals over [-1,0] are evaluated exactly via the
Beta-function monomial rule, never numerically.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

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
    if tau.n != eta.n:
        raise ValueError("mismatched ground sets")
    out = []
    for blk in tau.blocks:
        vals = {eta.word[x - 1] for x in blk}
        if len(vals) > 1:
            raise ValueError("tau does not refine eta")
        out.append(vals.pop())
    return tuple(out)


def _relative_word_or_none(tau, eta):
    try:
        return relative_word(tau, eta)
    except ValueError:
        return None


@dataclass(frozen=True)
class RunDecomposition:
    kind: str
    runs: tuple          # tuple of subwords
    lengths: tuple

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


@lru_cache(maxsize=None)
def stirling2(q: int, k: int) -> int:
    """Stirling numbers of the second kind."""
    if q < 0 or k < 0:
        raise ValueError("q, k must be >= 0")
    if k == 0 or k > q:
        return 1 if q == k else 0
    return k * stirling2(q - 1, k) + stirling2(q - 1, k - 1)


@lru_cache(maxsize=None)
def eulerian_poly(q: int) -> tuple:
    """Coefficients of P_q(x) = sum_k k! S(q,k) x^(k-1), low degree first."""
    if q < 1:
        raise ValueError("q must be >= 1")
    return tuple(factorial(k) * stirling2(q, k) for k in range(1, q + 1))


def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return tuple(out)


def integrate_unit(coeffs) -> Fraction:
    """Exact integral over [-1, 0] of the polynomial with these coefficients."""
    total = Fraction(0)
    for k, c in enumerate(coeffs):
        if c:
            total += Fraction(c * (-1) ** k, k + 1)
    return total


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
    if tau.n != eta.n:
        raise ValueError("mismatched ground sets")
    rw = _relative_word_or_none(tau, eta)
    if rw is None:
        return Fraction(0)
    asc = stats(rw)[2]
    s = len(tau)
    return Fraction((-1) ** (s - asc - 1), s * comb(s - 1, asc))


def weisner_via_integral(tau, eta) -> Fraction:
    """Same value through the exact Beta integral; cross-check route."""
    rw = _relative_word_or_none(tau, eta)
    if rw is None:
        return Fraction(0)
    asc = stats(rw)[2]
    return integrate_monomial(len(tau) - asc - 1, asc)


def goldberg(tau, eta) -> Fraction:
    """zeta~-smeared Weisner sum; equals the CBH monomial coefficients.

    (1/prod q_j!) integral of x^des (1+x)^asc prod P_{q_j}(x) over [-1,0],
    with q_j the level-run lengths of the relative word.
    """
    if tau.n != eta.n:
        raise ValueError("mismatched ground sets")
    rw = _relative_word_or_none(tau, eta)
    if rw is None:
        return Fraction(0)
    return goldberg_from_word(rw)


@lru_cache(maxsize=None)
def goldberg_from_word(rw) -> Fraction:
    """Goldberg integral of a word: (1/prod q_j!) times the integral over
    [-1,0] of x^des (1+x)^asc prod P_{q_j}(x), with q_j its level-run
    lengths."""
    des, _, asc = stats(rw)
    qs = runs(rw, LEVEL).lengths
    poly = (0,) * des + (1,)
    pw = (1,)
    for _ in range(asc):
        pw = poly_mul(pw, (1, 1))
    poly = poly_mul(poly, pw)
    denom = 1
    for q in qs:
        poly = poly_mul(poly, eulerian_poly(q))
        denom *= factorial(q)
    return integrate_unit(poly) / denom


def _over_blocks(fn, tau, eta, pi) -> Fraction:
    """Product of fn over the restrictions to the blocks of pi."""
    if not (tau.n == eta.n == pi.n):
        raise ValueError("mismatched ground sets")
    if _relative_word_or_none(tau, eta) is None:
        return Fraction(0)
    if not K.leq_words(tau.word, pi.word):
        return Fraction(0)
    total = Fraction(1)
    for blk in pi.blocks:
        total *= fn(tau.restrict(blk), eta.restrict(blk))
    return total


def weisner3(tau, eta, pi) -> Fraction:
    """Relative Weisner coefficient, factorizing over the blocks of pi."""
    return _over_blocks(weisner, tau, eta, pi)


def goldberg3(tau, eta, pi) -> Fraction:
    """Relative Goldberg coefficient, factorizing over the blocks of pi."""
    return _over_blocks(goldberg, tau, eta, pi)


# ---------------------------------------------------------------------------
# brute-force oracles
# ---------------------------------------------------------------------------

def _check_bound(n, bound):
    if n > bound:
        raise ValueError(
            f"oracle refused at n = {n} (bound {bound}); raise the bound "
            "explicitly if you really want this")


def weisner_oracle(tau, eta, bound=ORACLE_BOUND) -> Fraction:
    """Definition-level sum over all of OP_n."""
    if tau.n != eta.n:
        raise ValueError("mismatched ground sets")
    n = tau.n
    _check_bound(n, bound)
    total = Fraction(0)
    for w in K.osp_words(n):
        if K.quasi_meet(w, eta.word) == tau.word:
            p = max(w)
            total += Fraction((-1) ** (p - 1), p)
    return total


def goldberg_oracle(tau, eta, bound=ORACLE_BOUND) -> Fraction:
    """Definition-level sum g = sum_{sigma >= tau} zeta~(tau,sigma) w(sigma,eta)."""
    if tau.n != eta.n:
        raise ValueError("mismatched ground sets")
    n = tau.n
    _check_bound(n, bound)
    total = Fraction(0)
    for w in K.osp_words(n):
        if K.leq_words(tau.word, w):
            total += K.zeta_tilde_words(tau.word, w) * weisner_oracle(
                OrderedSetPartition._raw(n, w), eta, bound)
    return total


def weisner_oracle_table(n: int, bound=ORACLE_BOUND) -> dict:
    """All w(tau,eta) at once: {eta word: {tau word: value}}, zeros omitted."""
    _check_bound(n, bound)
    return K.weisner_oracle_table(n)


def goldberg_oracle_table(n: int, bound=ORACLE_BOUND) -> dict:
    _check_bound(n, bound)
    return K.goldberg_oracle_table(n)


# ---------------------------------------------------------------------------
# fiber structure
# ---------------------------------------------------------------------------

def _merge_along(tau, groups):
    blocks = tau.blocks
    merged = []
    for grp in groups:
        blk = []
        for i in grp:
            blk.extend(blocks[i])
        merged.append(blk)
    return OrderedSetPartition(tau.n, merged)


def _run_groups(rw, kind):
    lengths = runs(rw, kind).lengths
    out = []
    pos = 0
    for ln in lengths:
        out.append(tuple(range(pos, pos + ln)))
        pos += ln
    return out


def sigma_max_asc(tau, eta) -> OrderedSetPartition:
    """Top of the fiber {sigma : sigma curlywedge eta = tau}.

    Merges tau's blocks along the ascending runs of the relative word; the
    fiber is exactly the interval [tau, sigma_max_asc(tau, eta)].
    """
    rw = relative_word(tau, eta)
    return _merge_along(tau, _run_groups(rw, ASCENDING))


def sigma_max_pla(tau, eta) -> OrderedSetPartition:
    """Top of {sigma >= tau with underlying(sigma) refining underlying(eta)}."""
    rw = relative_word(tau, eta)
    return _merge_along(tau, _run_groups(rw, LEVEL))


# ---------------------------------------------------------------------------
# vanishing criteria
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VanishingReport:
    value: Fraction
    zero_criterion_applies: bool      # des = asc with an even block count
    prime_criterion_applies: bool     # block count is prime
    consistent: bool


def _is_prime(m):
    if m < 2:
        return False
    d = 2
    while d * d <= m:
        if m % d == 0:
            return False
        d += 1
    return True


def vanishing_checks(tau, eta) -> VanishingReport:
    """Evaluate both sufficient criteria against the actual coefficient."""
    rw = relative_word(tau, eta)
    des, _, asc = stats(rw)
    val = goldberg(tau, eta)
    zero_crit = des == asc and len(tau) % 2 == 0
    prime_crit = _is_prime(len(tau))
    ok = True
    if zero_crit and val != 0:
        ok = False
    if prime_crit and val == 0:
        ok = False
    return VanishingReport(val, zero_crit, prime_crit, ok)
