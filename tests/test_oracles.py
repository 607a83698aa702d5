"""Closed-form oracles, independent of the library's own routes.

CBH: the words of log(e^a e^b) with exactly one b are the Bernoulli series
of ad_a, a closed form that none of the three CBH routes computes.  Series
cumulants: for one variable the tensor and Boolean cumulants follow their
classical moment recursions, not the ordered-set-partition sum of the
engines.
"""

from fractions import Fraction as F
from math import comb, factorial

from ospart import freelie as FL
from ospart import systems as S
from ospart.symbolic import Poly, moment_symbol


def _bernoulli_slice(order, a="a", b="b"):
    """The words of log(e^a e^b) with exactly one b, up to the order:
    sum_n B_n/n! ad_a^n(b) with B_1 = +1/2, where
    ad_a^n(b) = sum_k C(n, k) (-1)^(n-k) a^k b a^(n-k)."""
    bern = [F(1)]
    for m in range(1, order):
        bern.append(-sum(comb(m + 1, k) * bern[k] for k in range(m)) / (m + 1))
    bern[1] = -bern[1]
    return {(a,) * k + (b,) + (a,) * (n - k):
            bern[n] / factorial(n) * comb(n, k) * (-1) ** (n - k)
            for n in range(order) if bern[n] for k in range(n + 1)}


def _slice(series, letter):
    """The terms of a series whose words hold the letter exactly once."""
    return {w: c for w, c in series.poly.terms.items()
            if w.count(letter) == 1}


def test_cbh_routes_match_bernoulli_slices():
    for route in (FL.cbh_direct, FL.cbh_cumulant, FL.cbh_goldberg):
        for order in (6, 8):
            series = route("ab", order, cap=None)
            assert _slice(series, "b") == _bernoulli_slice(order), (
                route.__name__, order)
    # the slice linear in a is the mirror image of the one linear in b:
    # each word reversed and the letters swapped
    mirror = {w[::-1]: c for w, c in _bernoulli_slice(7, "b", "a").items()}
    for route in (FL.cbh_direct, FL.cbh_goldberg):
        assert _slice(route("ab", 7), "a") == mirror, route.__name__


def _moment(k):
    return Poly.sym(moment_symbol(("X",) * k))


def test_tensor_cumulants_follow_the_classical_recursion():
    # k_n = m_n - sum_{k<n} C(n-1, k-1) k_k m_{n-k}
    kappa = {}
    for n in range(1, 7):
        kappa[n] = _moment(n) - Poly.sum(
            [kappa[k] * _moment(n - k) * comb(n - 1, k - 1)
             for k in range(1, n)])
        assert S.TENSOR.cumulant_n(("X",) * n) == kappa[n], n


def test_boolean_cumulants_are_one_minus_the_inverse_moment_series():
    # k_n = [z^n](1 - 1/M) = -h_n, where 1/M = sum_j h_j z^j:
    # h_0 = 1 and h_j = -sum_{k<=j} m_k h_{j-k}
    h = [Poly.const(1)]
    for j in range(1, 7):
        h.append(-Poly.sum([_moment(k) * h[j - k] for k in range(1, j + 1)]))
        assert S.BOOLEAN.cumulant_n(("X",) * j) == -h[j], j
