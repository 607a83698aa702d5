"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines.  Default
bounds keep the suite fast; OSPART_FULL=1 raises them (criterion 3 scans
all of OP_5, minutes in pure-Python mode).
"""

import itertools
from fractions import Fraction as F
from math import comb, factorial

from ospart import _kernels as K
from ospart import coefficients as C
from ospart import freelie as FL
from ospart import incidence as I
from ospart import partitions as P
from ospart import systems as S
from ospart.symbolic import (PSI_MOMENT, Poly, free_cumulant_symbol,
                             moment_symbol, scalar_symbol)

from conftest import FULL, definition_table

o = P.osp


def top(n):
    return P.OrderedSetPartition.one_block(n)


def report(num, ok, desc):
    print(f"criterion {num:02d} {'PASS' if ok else 'FAIL'}: {desc}")
    assert ok, f"criterion {num} failed: {desc}"


# ---------------------------------------------------------------------------
# 1. worked example tables
# ---------------------------------------------------------------------------

GB_TWO = {("12", "12"): F(1, 2), ("21", "12"): F(-1, 2),
          ("12", "21"): F(-1, 2), ("21", "21"): F(1, 2)}
W_TWO = dict(GB_TWO)
GB_112 = {"112": F(1, 2), "221": F(-1, 2), "123": F(1, 12), "132": F(-1, 6),
          "213": F(1, 12), "231": F(1, 12), "312": F(-1, 6), "321": F(1, 12)}
GB_121 = {"121": F(1, 2), "212": F(-1, 2), "123": F(-1, 6), "132": F(1, 12),
          "213": F(1, 12), "231": F(1, 12), "312": F(1, 12), "321": F(-1, 6)}
W_112 = {"112": F(1, 2), "221": F(-1, 2), "123": F(-1, 6), "132": F(-1, 6),
         "213": F(-1, 6), "231": F(1, 3), "312": F(-1, 6), "321": F(1, 3)}
W_121 = {"121": F(1, 2), "212": F(-1, 2), "123": F(-1, 6), "132": F(-1, 6),
         "213": F(1, 3), "231": F(-1, 6), "312": F(1, 3), "321": F(-1, 6)}


def test_criterion_01_worked_example_tables():
    ok = True
    for (t, e), v in GB_TWO.items():
        ok = ok and C.goldberg(o(t), o(e)) == v
    for (t, e), v in W_TWO.items():
        ok = ok and C.weisner(o(t), o(e)) == v
    # the full K_111 expansions: coefficient of K_tau / phi_tau per eta
    for eta, table in (("112", GB_112), ("121", GB_121)):
        for tau in P.enumerate_partitions(3):
            expect = table.get(tau.word_str(), F(0))
            ok = ok and C.goldberg3(tau, o(eta), top(3)) == expect
    for eta, table in (("112", W_112), ("121", W_121)):
        for tau in P.enumerate_partitions(3):
            expect = table.get(tau.word_str(), F(0))
            ok = ok and C.weisner3(tau, o(eta), top(3)) == expect
    # the expansions assemble the mixed cumulants, as in the worked examples
    m = lambda *ls: Poly.sym(moment_symbol(ls))
    lhs = S.mixed_cumulant_moment(top(3), o("121"), S.MONOTONE, ("X", "Y", "Z"))
    ok = ok and lhs == (m("X", "Z") - m("X") * m("Z")) * m("Y") * F(1, 2)
    gb = S.mixed_cumulant_cumulant(top(3), o("121"), S.MONOTONE, ("X", "Y", "Z"))
    ok = ok and gb == lhs
    for eng in (S.TENSOR, S.FREE, S.BOOLEAN, S.MONOTONE):
        ok = ok and S.mixed_cumulant_cumulant(top(3), o("112"), eng,
                                              ("X", "Y", "Z")).is_zero()
        ok = ok and S.mixed_cumulant_moment(top(2), o("12"), eng,
                                            ("X", "Y")).is_zero()
    report(1, ok, "Goldberg/Weisner worked examples and K_111 expansions")


def test_criterion_02_explicit_zero():
    tau = P.OrderedSetPartition(4, [[3], [4], [2], [1]])
    eta = P.OrderedSetPartition(4, [[1, 2, 3], [4]])
    ok = C.goldberg(tau, eta) == 0 and C.goldberg_oracle(tau, eta) == 0
    report(2, ok, "g(({3},{4},{2},{1}), ({1,2,3},{4})) = 0")


def test_criterion_03_oracle_equivalence():
    n_top = 5 if FULL else 4
    ok = True
    for n in range(1, n_top + 1):
        wtab = C.weisner_oracle_table(n)
        gtab = C.goldberg_oracle_table(n)
        elems = list(P.enumerate_partitions(n))
        for eta in elems:
            wrow = wtab[eta.word]
            grow = gtab[eta.word]
            for tau in elems:
                ok = ok and C.weisner(tau, eta) == wrow.get(tau.word, 0)
                ok = ok and C.goldberg(tau, eta) == grow.get(tau.word, 0)
            if not ok:
                break
    report(3, ok, f"weisner/goldberg closed forms = brute force, n <= {n_top}")


def test_criterion_04_mobius_inversion():
    ok = all(K.mu_zeta_identity(n) for n in range(1, 7))
    for s in range(1, 5):
        for t in range(1, 5):
            ok = ok and all(K.beta_semigroup_identity(n, s, t)
                            for n in range(1, 7))
    # gamma (x) beta = beta_{s o t} with parameter vectors, n <= 4
    for s_, t_ in (((2, 3, 2, 3), (3, 2, 3, 2)), ((1, 2, 3, 1), (3, 1, 2, 2))):
        st = tuple(a * b for a, b in zip(s_, t_))
        gam = lambda sg, rh, pi: I.gamma_vec(s_, sg, rh, pi)
        bet = lambda rh, pi: I.beta_vec(t_, rh, pi)
        for n in range(1, 5):
            for pi in P.enumerate_partitions(n):
                for sg in P.ideal_elements(pi):
                    ok = ok and (I.convolve_tri(gam, bet, sg, pi)
                                 == I.beta_vec(st, sg, pi))
    report(4, ok, "mu~*zeta~ = delta (n<=6); beta semigroup (n<=6); "
                  "gamma(x)beta (n<=4)")


def _expected_pattern(eng, pi, labels):
    name = eng.name
    if name == "tensor":
        return eng.multiplicative_cumulant(pi, labels)
    if name == "free":
        if not pi.is_noncrossing():
            return None
        out = S.ONE
        for blk in pi.blocks:
            out = out * Poly.sym(
                free_cumulant_symbol(tuple(labels[x - 1] for x in blk)))
        return out
    if name == "boolean":
        return eng.multiplicative_cumulant(pi, labels) if pi.is_interval() else None
    if name == "monotone":
        return eng.multiplicative_cumulant(pi, labels) if pi.is_monotone() else None
    if name == "cmonotone":
        if not pi.is_monotone():
            return None
        inner = P.inner_block_indices(pi)
        out = S.ONE
        for bi, blk in enumerate(pi.blocks, start=1):
            sub = tuple(labels[x - 1] for x in blk)
            if bi in inner:
                out = out * S.MONOTONE.cumulant_n(
                    sub, atoms=S.Atoms(sub, moment_kind=PSI_MOMENT))
            else:
                out = out * S.CMONOTONE.cumulant_n(sub)
        return out
    raise AssertionError(name)


def test_criterion_05_roundtrip_and_patterns():
    # the table sums only on the engine's support, so the vanishing half
    # reads the definition route, which sums every word's ideal
    ok = True
    for eng in S.ENGINES.values():
        for n in range(1, 5):
            labels = tuple(f"X{i}" for i in range(1, n + 1))
            table = eng.cumulant_table(n, labels)
            definition = definition_table(eng, n, labels)
            for pi in P.enumerate_partitions(n):
                ok = ok and (S.moments_from_cumulants(table, pi)
                             == eng.phi_pi(pi, labels))
                expect = _expected_pattern(eng, pi, labels)
                got = table[pi.word]
                ok = ok and (got.is_zero() and not definition[pi.word]
                             if expect is None else got == expect)
            if not ok:
                break
    report(5, ok, "moment<->cumulant round trip and vanishing/"
                  "multiplicativity patterns, five engines, n <= 4")


def test_criterion_06_extensivity():
    N = Poly.sym(scalar_symbol("N"))
    ok = True
    for eng in S.ENGINES.values():
        for n in range(1, 5):
            labels = tuple(f"X{i}" for i in range(1, n + 1))
            for pi in P.enumerate_partitions(n):
                p = len(pi)
                lhs = eng.cumulant_dilated(pi, labels, [N] * p)
                ok = ok and lhs == (N ** p) * eng.cumulant(pi, labels)
            if not ok:
                break
    report(6, ok, "K_pi(N.X) = N^|pi| K_pi(X) as polynomials in N, n <= 4")


def test_criterion_07_monotone_mc_formula():
    ok = all(S.monotone_mc_defect(n).is_zero() for n in range(1, 6))
    report(7, ok, "phi(X_1...X_n) = sum over monotone partitions of "
                  "K_(pi)/|pi|!, n <= 5")


def test_criterion_08_clt_moments():
    ok = (S.MONOTONE.clt_moment(4) == F(3, 2)
          and S.MONOTONE.clt_moment(6) == F(5, 2)
          and S.FREE.clt_moment(4) == 2 and S.FREE.clt_moment(6) == 5
          and S.TENSOR.clt_moment(4) == 3 and S.TENSOR.clt_moment(6) == 15
          and S.BOOLEAN.clt_moment(4) == 1 and S.BOOLEAN.clt_moment(6) == 1)
    # closed-form oracles: arcsine / Catalan / double factorial / Bernoulli
    ok = ok and S.MONOTONE.clt_moment(8) == F(comb(8, 4), 2 ** 4)
    catalan = lambda k: comb(2 * k, k) // (k + 1)
    ok = ok and S.FREE.clt_moment(8) == catalan(4)
    ok = ok and S.TENSOR.clt_moment(8) == 7 * 5 * 3 * 1
    ok = ok and S.BOOLEAN.clt_moment(8) == 1
    ok = ok and all(e.clt_moment(5) == 0 for e in S.ENGINES.values())
    report(8, ok, "CLT limit moments for the four one-state engines")


def test_criterion_09_differential_equations():
    ok = True
    for eng in (S.TENSOR, S.BOOLEAN, S.MONOTONE):
        for n in range(1, 5):
            labels = tuple("WXYZ"[:n])
            r1, r2 = eng.diffeq_residuals(top(n), labels, 1)
            ok = ok and r1.is_zero() and r2.is_zero()
    report(9, ok, "both evolution identities have zero residual, "
                  "tensor/boolean/monotone, n <= 4")


def test_criterion_10_cbh_triple_equality():
    d2 = FL.cbh_direct("ab", 6)
    ok = d2 == FL.cbh_cumulant("ab", 6) and d2 == FL.cbh_goldberg("ab", 6)
    d3 = FL.cbh_direct("abc", 4)
    ok = ok and d3 == FL.cbh_cumulant("abc", 4)
    ok = ok and d3 == FL.cbh_goldberg("abc", 4)
    ok = ok and d2.coefficient("ab") == F(1, 2)
    ok = ok and d2.coefficient("aab") == F(1, 12)
    ok = ok and d2.coefficient("aba") == F(-1, 6)
    report(10, ok, "CBH direct = cumulant route = Goldberg route "
                   "(2 letters to degree 6, 3 letters to degree 4)")


def test_criterion_11_projector_properties():
    letters = ("a", "b", "c")
    ok = True
    for n in range(1, 6):
        for w in itertools.product(letters, repeat=n):
            pw = FL.pi_projector(w)
            ok = ok and FL.pi_on_poly(pw) == pw
            ok = ok and FL.dynkin(pw) == pw
        if not ok:
            break
    for n in range(1, 5):
        for w in itertools.product(("a", "b"), repeat=n):
            ok = ok and FL.pi_convolution_oracle(w) == FL.pi_projector(w)
    ok = ok and FL.pi_convolution_oracle(("a", "b", "c", "d")) == \
        FL.pi_projector(("a", "b", "c", "d"))
    report(11, ok, "projector idempotent and Dynkin-fixed (|w| <= 5); "
                   "sum form = convolution form (|w| <= 4)")


def test_criterion_12_permutation_sum_vanishing():
    ok = True
    for n in (2, 3, 4):
        elems = list(P.enumerate_partitions(n))
        for eta in elems:
            for pi in elems:
                # need some block of pi meeting two blocks of eta
                if all(len({eta.word[x - 1] for x in blk}) == 1
                       for blk in pi.blocks):
                    continue
                gsum = {}
                wsum = {}
                for tau in elems:
                    key = tau.underlying()
                    gsum[key] = gsum.get(key, 0) + C.goldberg3(tau, eta, pi)
                    wsum[key] = wsum.get(key, 0) + C.weisner3(tau, eta, pi)
                ok = ok and all(v == 0 for v in gsum.values())
                ok = ok and all(v == 0 for v in wsum.values())
            if not ok:
                break
    report(12, ok, "sums of g and w over block reorderings vanish whenever "
                   "some pi-block meets two eta-blocks, n <= 4")


def test_criterion_13_vanishing_criteria():
    # criterion (i): des = asc with an even block count forces g = 0;
    # criterion (ii) as printed fails exactly when eta is the one-block
    # partition, where g(tau, eta) = delta(tau, eta) -- see the decisions
    # ledger; asserted here in the sharpened (oracle-derived) form
    ok = True
    n_top = 5 if FULL else 4
    for n in range(2, n_top + 1):
        one = top(n)
        for eta in P.enumerate_partitions(n):
            for tau in P.enumerate_partitions(n):
                try:
                    rw = C.relative_word(tau, eta)
                except ValueError:
                    continue
                des, _, asc = C.stats(rw)
                val = C.goldberg(tau, eta)
                if des == asc and len(tau) % 2 == 0:
                    ok = ok and val == 0
                if C._is_prime(len(tau)):
                    if eta == one:
                        ok = ok and val == (1 if tau == one else 0)
                    else:
                        ok = ok and val != 0
    report(13, ok, "criterion-(i) zeros exhaustively; prime criterion (ii) "
                   f"for eta below the top, n <= {n_top}")
