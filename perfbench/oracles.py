"""Reference values the benchmark checks results against.

Everything here is written from the definitions on plain words and
integers, without importing ospart, so a check does not share code with
the function it checks.  A word w encodes an ordered set partition of
{1..n}: w[k] is the 1-based block index of k+1.
"""

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial


# ---------------------------------------------------------------------------
# counting sequences
# ---------------------------------------------------------------------------

def fubini(n):
    row = [1]
    for m in range(1, n + 1):
        row.append(sum(comb(m, k) * row[m - k] for k in range(1, m + 1)))
    return row[n]


def stirling2(n, k):
    return sum((-1) ** (k - j) * comb(k, j) * j ** n
               for j in range(k + 1)) // factorial(k)


def bell(n):
    return sum(stirling2(n, k) for k in range(n + 1))


def catalan(n):
    return comb(2 * n, n) // (n + 1)


def narayana(n, k):
    return comb(n, k) * comb(n, k - 1) // n


def double_factorial(n):
    r = 1
    while n > 1:
        r *= n
        n -= 2
    return r


def class_count(cls, n):
    """Number of partitions of [n] in an enumeration class, or None."""
    even = n % 2 == 0
    counts = {
        "all": lambda: fubini(n),
        "sp": lambda: bell(n),
        "nc": lambda: catalan(n),
        "ip": lambda: 2 ** (n - 1),
        "onc": lambda: sum(narayana(n, k) * factorial(k)
                           for k in range(1, n + 1)),
        "oi": lambda: sum(comb(n - 1, k - 1) * factorial(k)
                          for k in range(1, n + 1)),
        "pair": lambda: double_factorial(n - 1) * factorial(n // 2)
        if even else 0,
        "pair-nc": lambda: catalan(n // 2) * factorial(n // 2)
        if even else 0,
        "pair-ip": lambda: factorial(n // 2) if even else 0,
    }
    fn = counts.get(cls)
    return fn() if fn else None


def clt_moment(system, n):
    """Central-limit moments: Gaussian, semicircle, Bernoulli, arcsine."""
    if n % 2:
        return Fraction(0)
    if system == "tensor":
        return Fraction(double_factorial(n - 1))
    if system == "free":
        return Fraction(catalan(n // 2))
    if system == "boolean":
        return Fraction(1)
    # monotone and c-monotone with equal unit variances: arcsine law
    return Fraction(comb(n, n // 2), 2 ** (n // 2))


# ---------------------------------------------------------------------------
# words
# ---------------------------------------------------------------------------

def op_words(n):
    """Every ordered-set-partition word of [n]."""
    out = []

    def rec(prefix):
        if len(prefix) == n:
            p = max(prefix)
            if set(prefix) == set(range(1, p + 1)):
                out.append(tuple(prefix))
            return
        for v in range(1, n + 1):
            rec(prefix + [v])

    rec([])
    return out


def kernel(seq):
    rank = {v: i + 1 for i, v in enumerate(sorted(set(seq)))}
    return tuple(rank[v] for v in seq)


def relative_word(tau, eta):
    """eta-block of each tau-block, in tau's block order; None if tau does
    not refine eta."""
    out = [0] * max(tau)
    for t, e in zip(tau, eta):
        if out[t - 1] == 0:
            out[t - 1] = e
        elif out[t - 1] != e:
            return None
    return tuple(out)


def leq(sigma, pi):
    """sigma <= pi: each pi-block is a contiguous run of sigma-blocks."""
    rw = relative_word(sigma, pi)
    return rw is not None and all(a <= b for a, b in zip(rw, rw[1:]))


def interval_type(sigma, pi):
    """Number of sigma-blocks inside each pi-block, in pi's block order."""
    counts = [set() for _ in range(max(pi))]
    for s, p in zip(sigma, pi):
        counts[p - 1].add(s)
    return tuple(len(c) for c in counts)


def restrict(word, block):
    return kernel([word[i - 1] for i in block])


def blocks(word):
    out = [[] for _ in range(max(word))]
    for pos, b in enumerate(word):
        out[b - 1].append(pos + 1)
    return out


# ---------------------------------------------------------------------------
# Weisner and Goldberg coefficients
# ---------------------------------------------------------------------------

def _ascents(word):
    return sum(1 for a, b in zip(word, word[1:]) if a < b)


@lru_cache(maxsize=None)
def weisner_rw(rw):
    """w(tau, eta) from the relative word: the Beta integral
    int_{-1}^0 x^a (1+x)^b dx with b ascents and a = |tau| - 1 - b."""
    b = _ascents(rw)
    a = len(rw) - 1 - b
    return Fraction((-1) ** a * factorial(a) * factorial(b),
                    factorial(a + b + 1))


def _compositions(k):
    if k == 0:
        yield ()
        return
    for first in range(1, k + 1):
        for rest in _compositions(k - first):
            yield (first,) + rest


@lru_cache(maxsize=None)
def goldberg_rw(rw):
    """g(tau, eta) = sum over sigma >= tau of zeta~(tau, sigma) w(sigma, eta).

    sigma merges runs of consecutive tau-blocks; w(sigma, eta) vanishes
    unless each run lies in one eta-block, i.e. is level in rw.
    """
    total = Fraction(0)
    for comp in _compositions(len(rw)):
        merged = []
        denom = 1
        pos = 0
        for part in comp:
            run = rw[pos:pos + part]
            if len(set(run)) != 1:
                break
            merged.append(run[0])
            denom *= factorial(part)
            pos += part
        else:
            total += weisner_rw(tuple(merged)) / denom
    return total


def weisner(tau, eta):
    rw = relative_word(tau, eta)
    return Fraction(0) if rw is None else weisner_rw(rw)


def goldberg(tau, eta):
    rw = relative_word(tau, eta)
    return Fraction(0) if rw is None else goldberg_rw(rw)


def _three(fn, tau, eta, pi):
    if relative_word(tau, eta) is None or not leq(tau, pi):
        return Fraction(0)
    total = Fraction(1)
    for blk in blocks(pi):
        total *= fn(restrict(tau, blk), restrict(eta, blk))
    return total


def weisner3(tau, eta, pi):
    return _three(weisner, tau, eta, pi)


def goldberg3(tau, eta, pi):
    return _three(goldberg, tau, eta, pi)


def beta_product(s, t, sigma, pi):
    """beta_{s t}(sigma, pi): product of binom(s_j t_j, k_j) over pi-blocks."""
    r = 1
    for sj, tj, k in zip(s, t, interval_type(sigma, pi)):
        r *= comb(sj * tj, k)
    return Fraction(r)


# ---------------------------------------------------------------------------
# free algebra
# ---------------------------------------------------------------------------

def nc_mul(a, b):
    out = {}
    for w1, c1 in a.items():
        for w2, c2 in b.items():
            w = w1 + w2
            out[w] = out.get(w, 0) + c1 * c2
    return {w: c for w, c in out.items() if c}


def nc_add_into(acc, p, scale=1):
    for w, c in p.items():
        acc[w] = acc.get(w, 0) + c * scale


def nonzero(p):
    return {w: c for w, c in p.items() if c}


def right_nested_bracket(word):
    """[w1, [w2, [..., [w_{n-1}, w_n]]]] expanded into words."""
    acc = {(word[-1],): Fraction(1)}
    for letter in reversed(word[:-1]):
        head = {(letter,): Fraction(1)}
        nxt = nc_mul(head, acc)
        nc_add_into(nxt, nc_mul(acc, head), -1)
        acc = nonzero(nxt)
    return acc
