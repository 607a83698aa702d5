"""Incidence algebra on the poset of ordered set partitions.

Bracket factorials, the factorial zeta and Moebius functions, generalized
binomial families, the two convolutions, and the correspondence between
multiplicative functions and composition of truncated power series.

All arithmetic is exact; values live in Fraction or in any commutative
ring supporting +, * and scalar Fraction multiplication (the symbolic
polynomials from ospart.symbolic in particular).
"""

from fractions import Fraction
from itertools import repeat
from math import factorial

from . import _kernels as K
from .partitions import OrderedSetPartition, SetPartition, interval_type


def _pair_type(sigma, pi):
    """Interval type for an OP pair, or block-restriction counts for SP."""
    if isinstance(sigma, SetPartition) and isinstance(pi, SetPartition):
        if sigma.n != pi.n:
            raise ValueError("mismatched ground sets")
        rw = K.relative_word(sigma.word, pi.word)
        if rw is None:
            raise ValueError("incomparable set partitions")
        counts = [0] * len(pi)
        for b in rw:
            counts[b - 1] += 1
        return tuple(counts)
    return interval_type(sigma, pi)


def generalized_binomial(t, k: int):
    """binom(t, k) = t(t-1)...(t-k+1)/k! for exact numbers or ring elements."""
    if k < 0:
        raise ValueError("k must be >= 0")
    if isinstance(t, float):
        raise TypeError(f"inexact value {t!r}: pass an int or a Fraction")
    num = 1
    for i in range(k):
        num = num * (t - i)
    if isinstance(num, int):
        return Fraction(num, factorial(k))
    return num * Fraction(1, factorial(k))


def binomial_product(params, t):
    """prod binom(params_j, t_j) over an interval type t, one per part."""
    r = 1
    for x, k in zip(params, t):
        r = r * generalized_binomial(x, k)
    return r


def beta(t, sigma, pi):
    """beta_t(sigma,pi) = prod binom(t, k_i) over the interval type."""
    return binomial_product(repeat(t), _pair_type(sigma, pi))


def beta_vec(ts, sigma, pi):
    """beta with one parameter per pi-block."""
    t_ = _pair_type(sigma, pi)
    if len(ts) < len(t_):
        raise ValueError("need one parameter per block of pi")
    return binomial_product(ts, t_)


def _psi_compositions(sigma, rho, pi):
    """Per pi-block, the composition of sigma-run lengths induced by rho.

    This is the image of rho under the interval isomorphism: block i of pi
    contributes the sizes |G| of the rho-groups of sigma-blocks inside it.
    """
    return K.segments(interval_type(sigma, rho), interval_type(rho, pi))


def gamma_vec(ts, sigma, rho, pi):
    """gamma with one parameter per pi-block, factorizing over rho's groups."""
    t2 = interval_type(rho, pi)
    if len(ts) < len(t2):
        raise ValueError("need one parameter per block of pi")
    # rho-block i lies in pi-block j: it takes parameter ts[j - 1]
    params = [x for x, k in zip(ts, t2) for _ in range(k)]
    return binomial_product(params, interval_type(sigma, rho))


# ---------------------------------------------------------------------------
# function families
# ---------------------------------------------------------------------------

class AdaptedFunction:
    """Function of comparable pairs determined by the interval type."""

    def __init__(self, family):
        self.family = family
        self._memo = {}

    def __call__(self, sigma, pi):
        t = _pair_type(sigma, pi)
        try:
            return self._memo[t]
        except KeyError:
            val = self._memo[t] = self.family(t)
            return val


class MultiplicativeFunction(AdaptedFunction):
    """Adapted function with a product defining family f_(k_i) = prod f_k."""

    def __init__(self, sequence):
        self.sequence = sequence
        super().__init__(self._eval)

    def _eval(self, t):
        r = self.sequence(t[0])
        for k in t[1:]:
            r = r * self.sequence(k)
        return r

    def defining_sequence(self, n: int):
        return self.sequence(n)

    def lift(self):
        """Quasi-multiplicative lift with a row-independent defining array."""
        return QuasiMultiplicativeFunction(lambda j, k: self.sequence(k))


class QuasiMultiplicativeFunction:
    """Function of chains sigma <= rho <= pi with a defining array f_(j,k)."""

    def __init__(self, array):
        self.array = array

    def __call__(self, sigma, rho, pi):
        r = 1
        for j, comp in enumerate(_psi_compositions(sigma, rho, pi), start=1):
            for g in comp:
                r = r * self.array(j, g)
        return r


zeta_tilde_fn = MultiplicativeFunction(lambda k: K.zeta_tilde_type((k,)))
mu_tilde_fn = MultiplicativeFunction(lambda k: K.mu_tilde_type((k,)))
zeta_tilde = zeta_tilde_fn  # 1/[sigma:pi]!
mu_tilde = mu_tilde_fn  # (-1)^(|sigma|-|pi|)/[sigma:pi]
# [sigma:pi], [sigma:pi]! and the set-partition Moebius function
bracket = MultiplicativeFunction(lambda k: k)
bracket_factorial = MultiplicativeFunction(factorial)
mobius_sp = MultiplicativeFunction(
    lambda k: (-1) ** (k - 1) * factorial(k - 1))


def delta(sigma, pi):
    """Unit of convolution."""
    return Fraction(1) if sigma == pi else Fraction(0)


def convolve(f, g, sigma, pi):
    """(f*g)(sigma,pi) = sum over rho in [sigma,pi] of f(sigma,rho) g(rho,pi)."""
    return convolve_tri(lambda s, r, p: f(s, r), g, sigma, pi)


def convolve_tri(f, g, sigma, pi):
    """(f (x) g)(sigma,pi) = sum over rho of f(sigma,rho,pi) g(rho,pi)."""
    if sigma.n != pi.n:
        raise ValueError("mismatched ground sets")
    total = 0
    for w in K.interval_words(sigma.word, pi.word):
        rho = OrderedSetPartition._raw(sigma.n, w)
        total = total + f(sigma, rho, pi) * g(rho, pi)
    return total


def convolution_sequence(f, g, n: int):
    """Defining sequence entry (f*g)_n = (f*g)(0^_n, 1^_n)."""
    return convolve(f, g, OrderedSetPartition.singletons(n),
                    OrderedSetPartition.one_block(n))


# ---------------------------------------------------------------------------
# truncated power series (no constant term)
# ---------------------------------------------------------------------------

class TruncatedSeries:
    """c_1 z + c_2 z^2 + ... + c_D z^D with exact (not float) coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        coeffs = tuple(coeffs)
        if any(isinstance(c, float) for c in coeffs):
            raise TypeError("inexact coefficient: pass ints or Fractions")
        self.coeffs = tuple(map(Fraction, coeffs))
        if not self.coeffs:
            raise ValueError("order must be >= 1")

    @property
    def order(self):
        return len(self.coeffs)

    def __getitem__(self, k):
        if not 1 <= k <= self.order:
            raise IndexError(k)
        return self.coeffs[k - 1]

    def __eq__(self, other):
        return isinstance(other, TruncatedSeries) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"TruncatedSeries({list(self.coeffs)})"

    def __str__(self):
        parts = []
        for k, c in enumerate(self.coeffs, start=1):
            if c == 0:
                continue
            parts.append(f"{c}*z" if k == 1 else f"{c}*z^{k}")
        return " + ".join(parts) if parts else "0"


def gen_series(f: MultiplicativeFunction, order: int) -> TruncatedSeries:
    """Z_f(z) = sum f_n z^n truncated at the given order."""
    if order < 1:
        raise ValueError("order must be >= 1")
    return TruncatedSeries([f.defining_sequence(n) for n in range(1, order + 1)])


def compose(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    """a(b(z)) truncated; both series are constant-term-free by construction.
    The series kernel composes them on one-letter words, z^k as (0,) * k."""
    order = min(a.order, b.order)
    z = [(0,) * k for k in range(1, order + 1)]
    out = K.series_compose(dict(zip(z, b.coeffs)), (0,) + a.coeffs, order)
    return TruncatedSeries([out.get(w, 0) for w in z])
