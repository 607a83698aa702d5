import contextlib
import functools
import hashlib
import io
import itertools
import math
import operator
from fractions import Fraction as F

import pytest

from ospart import _kernels as K
from ospart import partitions as P
from ospart import systems as S
from ospart.symbolic import (FREE_CUMULANT, MOMENT, PSI_MOMENT, Poly,
                             free_cumulant_symbol, moment_symbol,
                             psi_moment_symbol, scalar_symbol, time_symbol)

from conftest import definition_table

o = P.osp
XY = ("X", "Y")
XYZ = ("X", "Y", "Z")


def m(*ls):
    return Poly.sym(moment_symbol(ls))


def c(*ls):
    return Poly.sym(free_cumulant_symbol(ls))


def pm(*ls):
    return Poly.sym(psi_moment_symbol(ls))


def c_product(blocks, labels):
    out = Poly.const(1)
    for blk in blocks:
        out = out * c(*(labels[x - 1] for x in blk))
    return out


def top(n):
    return P.OrderedSetPartition.one_block(n)


# ---------------------------------------------------------------------------
# phi_pi factorization rules
# ---------------------------------------------------------------------------

def test_monotone_factorizations():
    assert S.MONOTONE.phi_pi(o("121"), XYZ) == m("X", "Z") * m("Y")
    assert S.MONOTONE.phi_pi(o("212"), XYZ) == m("X") * m("Y") * m("Z")
    assert S.MONOTONE.phi_pi(top(2), XY) == m("X", "Y")
    assert S.MONOTONE.phi_pi(o("12"), XY) == m("X") * m("Y")


def test_monotone_runs_match_peeling():
    # the definition: peel the runs of the largest remaining value, each a
    # strict local maximum, one moment per run
    for n in range(1, 6):
        labels = tuple(f"X{i}" for i in range(n))
        for w in K.osp_words(n):
            peeled = _fold(lambda run: m(*(labels[i] for i in run)),
                           _peeled_runs(w))
            assert S.MONOTONE.phi_pi(P.OrderedSetPartition._raw(n, w),
                                     labels) == peeled, w


def test_boolean_factorizations():
    assert S.BOOLEAN.phi_pi(o("121"), XYZ) == m("X") * m("Y") * m("Z")
    assert S.BOOLEAN.phi_pi(o("112"), XYZ) == m("X", "Y") * m("Z")
    assert S.BOOLEAN.phi_pi(top(3), XYZ) == m("X", "Y", "Z")


def test_tensor_factorizations():
    assert S.TENSOR.phi_pi(o("121"), XYZ) == m("X", "Z") * m("Y")
    assert S.TENSOR.phi_pi(o("212"), XYZ) == m("Y") * m("X", "Z")


def test_free_factorization():
    assert S.FREE.phi_pi(top(2), XY) == c("X", "Y") + c("X") * c("Y")
    # the crossing refinement itself is excluded for ({1,3},{2,4})
    val = S.FREE.phi_pi(o("1212"), ("A", "B", "C", "D"))
    crossing = c("A", "C") * c("B", "D")
    assert all(mono not in val.terms for mono in crossing.terms)
    assert c("A", "C") * c("B") * c("D") + c("A") * c("C") * c("B", "D") + \
        c("A") * c("B") * c("C") * c("D") == val


def test_cmonotone_rule_v():
    got = S.CMONOTONE.phi_pi(o("121"), XYZ)
    expect = m("X") * (m("Y") - pm("Y")) * m("Z") + pm("Y") * m("X", "Z")
    assert got == expect
    # with psi = phi the system degenerates to the monotone one
    subst = lambda s: Poly.sym(moment_symbol(s[1])) if s[0] == PSI_MOMENT else None
    for pi in P.enumerate_partitions(3):
        assert (S.CMONOTONE.phi_pi(pi, XYZ).substitute(subst)
                == S.MONOTONE.phi_pi(pi, XYZ)), pi


def test_phi_pi_indexed():
    for eng in S.ENGINES.values():
        assert (eng.phi_pi_indexed(top(2), XY, (7, 7))
                == eng.phi_pi(top(2), XY)), eng.name
    assert S.MONOTONE.phi_pi_indexed(top(2), XY, (1, 2)) == m("X") * m("Y")
    assert S.MONOTONE.phi_pi_indexed(top(3), XYZ, (1, 2, 1)) == m("X", "Z") * m("Y")
    with pytest.raises(ValueError):
        S.MONOTONE.phi_pi_indexed(top(2), XY, (1, 2, 3))


def test_cumulants_check_lengths():
    pi = P.OrderedSetPartition.parse("123")
    with pytest.raises(ValueError):
        S.FREE.cumulant_indexed(pi, "abc", (1, 2))
    with pytest.raises(ValueError):
        S.FREE.cumulant_indexed(pi, "ab", (1, 2, 3))
    with pytest.raises(ValueError):
        S.TENSOR.multiplicative_cumulant(o("1,2|3"), XY)
    with pytest.raises(ValueError):
        S.TENSOR.cumulant_dilated(o("1,2|3"), XYZ, ["N"])
    assert (S.TENSOR.cumulant_dilated(o("1,2|3"), XYZ, ["N", "M"])
            == S.TENSOR.cumulant_dilated(o("1,2|3"), XYZ, ["N", "M", "L"]))
    for bad in (XY, "XYZW"):
        with pytest.raises(ValueError):
            S.TENSOR.diffeq_residuals(o("1,2|3"), bad, 1)
        with pytest.raises(ValueError):
            S.singleton_defect(S.TENSOR, o("1,2|3"), bad, 3)


def test_dilations_check_lengths():
    pi = o("12")
    calls = (lambda eng, ls: eng.phi_pi(pi, ls),
             lambda eng, ls: eng.dilate(pi, ls, 2),
             lambda eng, ls: eng.dilate_blockwise(pi, ls, ["N", "M"]),
             lambda eng, ls: eng.phi_t(pi, ls),
             lambda eng, ls: eng.partial_cumulant(pi, ls, 1),
             lambda eng, ls: eng.dilate_iterated(pi, ls, "N", "M"))
    for eng in S.ENGINES.values():
        for call in calls:
            call(eng, "ab")
            for bad in ("a", "abc", ""):
                with pytest.raises(ValueError):
                    call(eng, bad)


def test_spreadability_of_phi_word():
    # the partitioned moment only depends on the kernel of the index tuple
    for eng in S.ENGINES.values():
        for idx in itertools.product((1, 3, 6), repeat=3):
            shifted = tuple(2 * i + 1 for i in idx)
            assert (eng.phi_pi_indexed(top(3), XYZ, idx)
                    == eng.phi_pi_indexed(top(3), XYZ, shifted))


# ---------------------------------------------------------------------------
# cumulants and transforms
# ---------------------------------------------------------------------------

def test_cumulant_worked_examples():
    for eng in S.ENGINES.values():
        k12 = eng.cumulant(o("12"), XY)
        assert k12 == eng.phi_pi(o("12"), XY), eng.name
        k11 = eng.cumulant(top(2), XY)
        expect = eng.phi_pi(top(2), XY) - F(1, 2) * (
            eng.phi_pi(o("12"), XY) + eng.phi_pi(o("21"), XY))
        assert k11 == expect, eng.name


def test_monotone_cumulant_vanishing():
    assert S.MONOTONE.cumulant(o("212"), XYZ).is_zero()
    k2 = S.MONOTONE.cumulant(top(2), ("X", "Z"))
    assert S.MONOTONE.cumulant(o("121"), XYZ) == k2 * m("Y")


def test_free_cumulant_on_onc():
    assert S.FREE.cumulant(o("121"), XYZ) == c("X", "Z") * c("Y")
    assert S.FREE.cumulant(o("1212"), ("A", "B", "C", "D")).is_zero()


def test_roundtrip_all_engines(full_mode):
    n_top = 5 if full_mode else 4
    for eng in S.ENGINES.values():
        for n in range(1, n_top + 1):
            labels = tuple(f"X{i}" for i in range(n))
            table = eng.cumulant_table(n, labels)
            for pi in P.enumerate_partitions(n):
                assert (S.moments_from_cumulants(table, pi)
                        == eng.phi_pi(pi, labels)), (eng.name, pi)


def test_moments_from_cumulants_requires_cover():
    table = {top(2).word: S.ONE}
    with pytest.raises(ValueError):
        S.moments_from_cumulants(table, top(2))


def test_transform_is_unitriangular():
    # K_pi = phi_pi + lower terms: diagonal coefficients are exactly one
    from ospart import _kernels as K
    for n in (2, 3, 4):
        for w in K.osp_words(n):
            assert K.mu_tilde_words(w, w) == 1
            assert K.zeta_tilde_words(w, w) == 1


def test_dilation_examples():
    Nsym = scalar_symbol("N")
    N = Poly.sym(Nsym)
    for eng in S.ENGINES.values():
        d = eng.dilate(top(2), XY, N)
        phi11 = eng.phi_pi(top(2), XY)
        phi12 = eng.phi_pi(o("12"), XY)
        phi21 = eng.phi_pi(o("21"), XY)
        binom2 = N * (N - 1) * F(1, 2)
        assert d == N * phi11 + binom2 * (phi12 + phi21), eng.name
        assert eng.dilate(top(2), XY, 1) == phi11
        assert d.coefficient(Nsym, 1) == eng.cumulant(top(2), XY)


def test_dilate_matches_brute_force():
    for eng in (S.MONOTONE, S.CMONOTONE, S.FREE):
        for n, labels in ((2, XY), (3, XYZ)):
            for pi in P.enumerate_partitions(n):
                for copies in (1, 2, 3):
                    brute = S.ZERO
                    for tup in itertools.product(range(1, copies + 1), repeat=n):
                        brute = brute + eng.phi_pi_indexed(pi, labels, tup)
                    assert brute == eng.dilate(pi, labels, copies), (
                        eng.name, pi, copies)


def test_extensivity(full_mode):
    n_top = 4 if full_mode else 3
    N = Poly.sym(scalar_symbol("N"))
    for eng in S.ENGINES.values():
        for n in range(1, n_top + 1):
            labels = tuple(f"X{i}" for i in range(n))
            for pi in P.enumerate_partitions(n):
                p = len(pi)
                assert (eng.cumulant_dilated(pi, labels, [N] * p)
                        == (N ** p) * eng.cumulant(pi, labels)), (eng.name, pi)


def test_multivariate_extensivity():
    syms = [Poly.sym(scalar_symbol(f"N{j}")) for j in range(1, 4)]
    for eng in (S.MONOTONE, S.CMONOTONE, S.BOOLEAN):
        for pi in P.enumerate_partitions(3):
            p = len(pi)
            lhs = eng.cumulant_dilated(pi, XYZ, syms[:p])
            rhs = eng.cumulant(pi, XYZ)
            for s in syms[:p]:
                rhs = rhs * s
            assert lhs == rhs, (eng.name, pi)


def test_dot_action_consistency():
    N = Poly.sym(scalar_symbol("N"))
    M = Poly.sym(scalar_symbol("M"))
    for eng in S.ENGINES.values():
        for n, labels in ((2, XY), (3, XYZ)):
            for pi in P.enumerate_partitions(n):
                assert (eng.dilate_iterated(pi, labels, N, M)
                        == eng.dilate(pi, labels, M * N)), (eng.name, pi)


# ---------------------------------------------------------------------------
# multiplicativity patterns
# ---------------------------------------------------------------------------

def psi_cumulant_n(labels):
    return S.MONOTONE.cumulant_n(labels,
                                 atoms=S.Atoms(labels, moment_kind=PSI_MOMENT))


def expected_pattern(eng, pi, labels):
    """None when the cumulant must vanish, else the product form."""
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
            out = out * (psi_cumulant_n(sub) if bi in inner
                         else S.CMONOTONE.cumulant_n(sub))
        return out
    raise AssertionError(name)


def test_cumulant_patterns(full_mode):
    # cumulant skips the sum off the support, so the vanishing half also
    # reads the definition route
    n_top = 4 if full_mode else 3
    for eng in S.ENGINES.values():
        for n in range(1, n_top + 1):
            labels = tuple(f"X{i}" for i in range(n))
            definition = definition_table(eng, n, labels)
            for pi in P.enumerate_partitions(n):
                got = eng.cumulant(pi, labels)
                expect = expected_pattern(eng, pi, labels)
                if expect is None:
                    assert got.is_zero(), (eng.name, pi)
                    assert not definition[pi.word], (eng.name, pi)
                else:
                    assert got == expect, (eng.name, pi)


# ---------------------------------------------------------------------------
# monotone moment-cumulant formula, CLT
# ---------------------------------------------------------------------------

def test_monotone_mc_formula():
    for n in range(1, 5):
        assert S.monotone_mc_defect(n).is_zero(), n


def test_monotone_cumulant_sum_matches_per_partition_sum():
    # the oracle forms 1/|pi|! prod_B K_B for every monotone partition;
    # the library forms one product per underlying set partition
    cumulant = functools.lru_cache(maxsize=None)(S.MONOTONE.cumulant_n)
    for labels in ("X", "XY", "XYX", "XYZX", "XYXZY", "VWXYZ"):
        n = len(labels)
        want = Poly.sum([
            functools.reduce(operator.mul, [
                cumulant(tuple(labels[x - 1] for x in blk))
                for blk in pi.blocks], Poly.const(F(1, math.factorial(len(pi)))))
            for pi in P.enumerate_partitions(n, P.MONOTONE)])
        assert S._monotone_cumulant_sum(tuple(labels)) == want, labels
        assert S.monotone_mc_defect(n, labels).is_zero(), labels


def _position_blocks(pi):
    return tuple(sorted(tuple(x - 1 for x in blk) for blk in pi.blocks))


def test_tree_factorial_weights_count_monotone_orders():
    # 1/tau(pi)! is the share of the |pi|! block orders of a noncrossing
    # set partition that are monotone
    for n in range(1, 8):
        orders = {}
        for pi in P.enumerate_partitions(n, P.MONOTONE):
            key = _position_blocks(pi)
            orders[key] = orders.get(key, 0) + 1
        denom, rows = S._monotone_partition_rows(n)
        assert len(rows) == math.comb(2 * n, n) // (n + 1), n
        weights = {}
        for f, blocks in rows:
            assert list(blocks) == sorted(blocks), blocks
            scale = math.prod(S._monotone_block_rows(len(blk))[0]
                              for blk in blocks)
            weights[blocks] = F(f * scale, denom)
        assert weights == {key: F(count, math.factorial(len(key)))
                           for key, count in orders.items()}, n


def test_carried_block_cumulants_match_cumulant_n():
    # K_k on positions, each run read through a block's positions, is the
    # cumulant of that block's labels, repeated labels merged
    for labels in ("X", "XY", "XYX", "XYXY", "XYXZY", "VWXYZ"):
        n = len(labels)
        for size in range(1, n + 1):
            d, rows = S._monotone_block_rows(size)
            for blk in itertools.combinations(range(n), size):
                at = S.Atoms(labels)
                carried = Poly.sum([
                    at.product([[blk[i] for i in run] for run in runs]) * k
                    for runs, k in rows]) * F(1, d)
                assert carried == S.MONOTONE.cumulant_n(
                    [labels[i] for i in blk]), (labels, blk)


def test_monotone_mc_formula_n6_and_repeated_labels_n7():
    assert S.monotone_mc_defect(6).is_zero()
    assert S.monotone_mc_defect(7, "XYXZYXX").is_zero()


def test_monotone_block_cumulants_sum_once_per_size(monkeypatch):
    # the block cumulants are built once per block size k, by the recursion
    # on the monotone tables' plan of size k, however many calls and label
    # words ask for them
    calls = []

    def counting(phi, steps):
        calls.append(steps)
        return real(phi, steps)

    real = S._support_table
    monkeypatch.setattr(S, "_support_table", counting)
    S._monotone_block_rows.cache_clear()
    S._monotone_partition_rows.cache_clear()
    S._monotone_sum_rows.cache_clear()
    for _ in range(2):
        for labels in ("XYZXY", "XXXXX", "XYX", "VWXYZ", "XY", "Z"):
            assert S.monotone_mc_defect(len(labels), labels).is_zero()
    # one recursion per size; MONOTONE.phi_pi of the left side runs none
    assert sorted(calls, key=len) == [S._support_steps(P.MONOTONE, k)[1]
                                      for k in range(1, 6)]
    assert S._monotone_block_rows.cache_info().misses == 5


def test_sizes_below_one_are_refused():
    for n in (-1, 0):
        with pytest.raises(ValueError, match="n must be >= 1"):
            S.monotone_mc_defect(n)
        for eng in S.ENGINES.values():
            for call in (eng.cumulant_table, eng.exchangeability_check):
                with pytest.raises(ValueError, match="n must be >= 1"):
                    call(n)
    for eng in S.ENGINES.values():
        with pytest.raises(ValueError, match="n must be >= 1"):
            eng.cumulant_n(())


def test_sizes_must_be_ints():
    # a bool is not read as 1, nor a str, float or None as a size
    for n in (True, 2.0, "3", None):
        with pytest.raises(TypeError, match="n must be an int"):
            S.monotone_mc_defect(n)
        for eng in S.ENGINES.values():
            for call in (eng.cumulant_table, eng.exchangeability_check):
                with pytest.raises(TypeError, match="n must be an int"):
                    call(n)


def test_clt_moments():
    assert S.MONOTONE.clt_moment(4) == F(3, 2)
    assert S.MONOTONE.clt_moment(6) == F(5, 2)
    assert S.FREE.clt_moment(4) == 2
    assert S.FREE.clt_moment(6) == 5
    assert S.TENSOR.clt_moment(4) == 3
    assert S.TENSOR.clt_moment(6) == 15
    assert S.BOOLEAN.clt_moment(4) == 1
    assert S.BOOLEAN.clt_moment(6) == 1
    for eng in S.ENGINES.values():
        assert eng.clt_moment(2) == 1, eng.name
        assert eng.clt_moment(5) == 0, eng.name
    # with psi = phi normalization the two-state system is the monotone one
    assert S.CMONOTONE.clt_moment(4) == F(3, 2)


def _centered_unit(sym):
    """The CLT atoms as a substitution: 0 on one position, 1 on two;
    scalar and time symbols stay."""
    kind, payload = sym
    if kind not in (MOMENT, FREE_CUMULANT, PSI_MOMENT):
        return None
    return {1: 0, 2: 1}[len(payload)]


def _clt_phi(eng, pi):
    """phi_pi on symbolic atoms, substituted 0 on one position and 1 on
    two: the Poly route of a central-limit term."""
    return eng.phi_pi(pi, ("X",) * pi.n).substitute(
        _centered_unit).constant_value()


def test_clt_moment_matches_ordered_sum(full_mode):
    # the oracle is the Poly route: phi_pi / |pi|! over every ordered pair
    # partition, where phi_pi is 1 on the engine's pair class and 0 on
    # every other pair partition
    for eng in S.ENGINES.values():
        # n = 10 takes about 3 s for monotone and a minute for all five
        top = 10 if full_mode and eng is S.MONOTONE else 8
        for n in range(2, top + 1, 2):
            total = F(0)
            for pi in P.enumerate_partitions(n, P.PAIR):
                val = _clt_phi(eng, pi)
                assert val == int(P.is_class(pi, eng.pair_class)), (
                    eng.name, pi)
                total += F(val, math.factorial(len(pi)))
            got = eng.clt_moment(n)
            assert got == total and type(got) is F, (eng.name, n)


def _nc_pairings(points):
    """Every noncrossing pairing of the sorted tuple `points`, as a list
    of (opener, closer) pairs: the first point pairs with one at an odd
    offset, and the points inside and outside pair among themselves."""
    if not points:
        yield []
        return
    for j in range(1, len(points), 2):
        for inner in _nc_pairings(points[1:j]):
            for outer in _nc_pairings(points[j + 1:]):
                yield [(points[0], points[j])] + inner + outer


def test_monotone_clt_sums_noncrossing_pairs():
    # the monotone orders of a noncrossing pairing are the linear extensions
    # of its nesting forest, m!/prod(h) of the m! orders by the hook-length
    # formula for forests, h a pair's count of pairs nested in it (itself
    # included); so the moment is sum 1/prod(h) over noncrossing pairings
    for n in range(17):
        total = F(0)
        for pairs in _nc_pairings(tuple(range(n))):
            hooks = (sum(a <= c and d <= b for c, d in pairs)
                     for a, b in pairs)
            total += F(1, math.prod(hooks))
        for eng in (S.MONOTONE, S.CMONOTONE):
            got = eng.clt_moment(n)
            assert got == total and type(got) is F, (eng.name, n)


def test_clt_moments_are_the_limit_laws():
    # written out here, not read from class_count: Gaussian (n-1)!!,
    # semicircle Catalan(n/2), Bernoulli 1 and arcsine binom(n, n/2)/2^(n/2)
    # moments, c-monotone with psi = phi equal to monotone; the odd moments
    # vanish.  The arcsine moments binom(2k, k)/2^k, k <= 8, are among them
    for n in range(41):
        m = n // 2
        want = {"tensor": F(math.prod(range(1, n, 2))),
                "free": F(math.comb(n, m), m + 1), "boolean": F(1),
                "monotone": F(math.comb(n, m), 2 ** m)}
        want["cmonotone"] = want["monotone"]
        for name, eng in S.ENGINES.items():
            got = eng.clt_moment(n)
            assert got == (0 if n % 2 else want[name]), (name, n)
            assert type(got) is F, (name, n)


def test_clt_moment_refuses_a_non_int_n():
    for eng in S.ENGINES.values():
        for n in (3.0, F(3), 0.0, 2.0, F(2), True, False, "2", None):
            with pytest.raises(TypeError, match="n must be an int"):
                eng.clt_moment(n)


def test_clt_moment_refuses_negative_n():
    for eng in S.ENGINES.values():
        for n in (-1, -2, -3):
            with pytest.raises(ValueError):
                eng.clt_moment(n)
        assert eng.clt_moment(0) == 1 and type(eng.clt_moment(0)) is F
        assert eng.clt_moment(3) == 0


def test_ideal_sums_stay_in_the_ring_of_the_atoms():
    # _TableAtoms evaluate into the integers; an ideal sum adds and scales
    # there and equals the Poly route with the atoms substituted afterwards
    cases = [(n, w) for n in (1, 2, 3, 4) for w in K.osp_words(n)]
    for n, w in cases:
        pi = P.OrderedSetPartition._raw(n, w)
        labels = ("X", "Y", "X", "Z")[:n]
        at = _TableAtoms(labels)
        blockwise = [2, "N", 3, F(1, 2)][:len(pi)]
        for eng in S.ENGINES.values():
            # numeric scales give numbers, symbolic ones a Poly in them
            for method, args, number in (
                    (eng.cumulant, (), True), (eng.phi_pi, (), True),
                    (eng.dilate, (3,), True), (eng.dilate, ("N",), False),
                    (eng.dilate_blockwise, (blockwise,), None),
                    (eng.phi_t, (), False)):
                got = method(pi, labels, *args, atoms=at)
                want = method(pi, labels, *args).substitute(_table_value)
                where = (eng.name, w, method.__name__, args)
                assert got == want, where
                if number is not None:
                    assert isinstance(got, (int, F)) == number, where


def _table_value(sym):
    """A fixed nonzero integer for each (family, labels) atom; scalar and
    time symbols stay."""
    if sym[0] not in (MOMENT, FREE_CUMULANT, PSI_MOMENT):
        return None
    return 2 + int(hashlib.sha256(repr(sym).encode()).hexdigest(), 16) % 89


class _TableAtoms:
    """Atoms that answer only `product` and `sum`, in the integers: each
    atom is its _table_value.  Any other attribute an engine asks for
    raises AttributeError."""

    __slots__ = ("labels",)
    term = None
    sum = staticmethod(sum)

    def __init__(self, labels):
        self.labels = labels

    def product(self, runs, family=MOMENT):
        return math.prod(_table_value((family, tuple(self.labels[i]
                                                     for i in run)))
                         for run in runs)


def test_engines_need_only_product_and_sum():
    # every engine evaluates on a provider of product and sum alone, to
    # the value of its phi on Atoms with the table values substituted
    for n in range(1, 6):
        for labels in ("XYXZY"[:n], "VWXYZ"[:n]):
            at, table = S.Atoms(labels), _TableAtoms(labels)
            for w in K.osp_words(n):
                for eng in S.ENGINES.values():
                    want = eng._phi_word(w, at).substitute(_table_value)
                    got = eng._phi_word(w, table)
                    assert got == want and type(got) is int, (eng.name, w)


def test_arcsine_via_mc_formula():
    # centered single variable with unit variance: m4 = 3/2 via pair sums
    from math import factorial
    total = F(0)
    for pi in P.enumerate_partitions(4, P.PAIR_MONOTONE):
        total += F(1, factorial(len(pi)))
    assert total == F(3, 2)


# ---------------------------------------------------------------------------
# singleton condition
# ---------------------------------------------------------------------------

def test_singleton_condition():
    for eng in S.ENGINES.values():
        for n in (2, 3, 4):
            labels = tuple(f"X{i}" for i in range(n))
            for pi in P.enumerate_partitions(n):
                for k in range(1, n + 1):
                    if (k,) in pi.blocks:
                        assert S.singleton_defect(eng, pi, labels, k).is_zero(), (
                            eng.name, pi, k)


def test_singleton_defect_refuses_a_variable_out_of_range():
    labels = ("X", "Y", "Z")
    pi = o("1|2,3")
    for eng in S.ENGINES.values():
        assert S.singleton_defect(eng, pi, labels, 1).is_zero()
        for k in (0, -1, 4):
            with pytest.raises(ValueError):
                S.singleton_defect(eng, pi, labels, k)


def test_indices_must_be_ints():
    # a bool or a float is refused before the range check, not read as an
    # index (True as 1) or passed to list indexing
    labels = ("X", "Y", "Z")
    pi = o("1|2,3")
    for eng in S.ENGINES.values():
        for name, call, top in (
                ("j", lambda j: eng.partial_cumulant(pi, labels, j), 2),
                ("j", lambda j: eng.diffeq_residuals(pi, labels, j), 2),
                ("k", lambda k: S.singleton_defect(eng, pi, labels, k), 3)):
            for bad in (True, False, 1.0, F(1), "1", None):
                with pytest.raises(TypeError, match=f"^{name} must be an int"):
                    call(bad)
            for bad in (0, top + 1):
                with pytest.raises(ValueError, match=f"^{name} must be in"):
                    call(bad)
            call(top)


# ---------------------------------------------------------------------------
# partial cumulants and differential equations
# ---------------------------------------------------------------------------

def test_phi_t_examples():
    t1 = Poly.sym(time_symbol(1))
    assert S.MONOTONE.phi_t(top(1), ("X",)) == t1 * m("X")
    phi = S.MONOTONE.phi_t(top(2), XY)
    binom2 = t1 * (t1 - 1) * F(1, 2)
    assert phi == t1 * m("X", "Y") + binom2 * (m("X") * m("Y") + m("X") * m("Y"))


def test_partial_cumulant_is_cumulant():
    for eng in S.ENGINES.values():
        for n in (1, 2, 3):
            labels = tuple(f"X{i}" for i in range(n))
            pc = eng.partial_cumulant(top(n), labels, 1)
            assert pc == eng.cumulant_n(labels), (eng.name, n)


def test_partial_cumulant_multiblock():
    # on a two-block partition, t_2 stays in the coefficient ring
    from ospart.symbolic import time_symbol
    pc = S.TENSOR.partial_cumulant(o("112"), XYZ, 1)
    assert time_symbol(2) in pc.symbols()


def test_partial_cumulants_read_the_linear_coefficient(monkeypatch):
    # the oracle differentiates in t_j (or s) and substitutes 0
    from ospart.symbolic import time_symbol

    def diff_at_zero(p, sym, k):
        assert k == 1
        return p.diff(sym).substitute(lambda x: 0 if x == sym else None)

    cases = [(eng, pi, j) for eng in S.ENGINES.values()
             for pi in (top(3), o("1,3|2"), o("2|1,3"), o("1|3|2"))
             for j in range(1, len(pi) + 1)]

    def values():
        return [(eng.partial_cumulant(pi, XYZ, j),
                 eng.diffeq_residuals(pi, XYZ, j)) for eng, pi, j in cases]

    got = values()
    for (eng, pi, j), (pc, _) in zip(cases, got):
        want = diff_at_zero(eng.phi_t(pi, XYZ), time_symbol(j), 1)
        assert pc == want, (eng.name, pi, j)
    monkeypatch.setattr(Poly, "coefficient", diff_at_zero)
    assert values() == got


def test_diffeq_residuals(full_mode):
    n_top = 4 if full_mode else 3
    for eng in (S.TENSOR, S.BOOLEAN, S.MONOTONE):
        for n in range(1, n_top + 1):
            labels = tuple("WXYZ"[:n])
            r1, r2 = eng.diffeq_residuals(top(n), labels, 1)
            assert r1.is_zero(), (eng.name, n)
            assert r2.is_zero(), (eng.name, n)


def test_diffeq_residuals_multiblock():
    for eng in (S.TENSOR, S.BOOLEAN, S.MONOTONE):
        r1, r2 = eng.diffeq_residuals(o("112"), XYZ, 1)
        assert r1.is_zero() and r2.is_zero(), eng.name
        r1, r2 = eng.diffeq_residuals(o("112"), XYZ, 2)
        assert r1.is_zero() and r2.is_zero(), eng.name


# ---------------------------------------------------------------------------
# mixed cumulants
# ---------------------------------------------------------------------------

def test_mixed_cumulant_two_variables():
    for eng in S.ENGINES.values():
        lhs = eng.cumulant_indexed(top(2), XY, (1, 2))
        assert lhs == S.mixed_cumulant_moment(top(2), o("12"), eng, XY), eng.name
        assert lhs == S.mixed_cumulant_cumulant(top(2), o("12"), eng, XY), eng.name


def test_mixed_cumulant_monotone_121():
    expect = (m("X", "Z") - m("X") * m("Z")) * m("Y") * F(1, 2)
    assert S.mixed_cumulant_cumulant(top(3), o("121"), S.MONOTONE, XYZ) == expect
    assert S.mixed_cumulant_moment(top(3), o("121"), S.MONOTONE, XYZ) == expect
    assert S.MONOTONE.cumulant_indexed(top(3), XYZ, (1, 2, 1)) == expect


def test_mixed_cumulant_vanishes_for_factorizing():
    for eng in (S.TENSOR, S.FREE, S.BOOLEAN, S.MONOTONE):
        assert S.mixed_cumulant_cumulant(top(3), o("112"), eng, XYZ).is_zero(), eng.name
        assert S.mixed_cumulant_moment(top(3), o("112"), eng, XYZ).is_zero(), eng.name


def test_mixed_cumulant_routes_agree(full_mode):
    n = 3
    engines = S.ENGINES.values() if full_mode else (S.MONOTONE, S.CMONOTONE)
    for eng in engines:
        for eta in P.enumerate_partitions(n):
            for pi in P.enumerate_partitions(n):
                w_route = S.mixed_cumulant_moment(pi, eta, eng, XYZ)
                g_route = S.mixed_cumulant_cumulant(pi, eta, eng, XYZ)
                direct = eng.cumulant_indexed(pi, XYZ, eta.word)
                assert w_route == g_route == direct, (eng.name, eta, pi)


def test_mixed_cumulant_routes_agree_n4(full_mode):
    # as above with tables hoisted out of the (eta, pi) double loop
    from ospart import _kernels as K
    from ospart import coefficients as C
    n = 4
    labels = ("W", "X", "Y", "Z")
    elems = list(P.enumerate_partitions(n))
    engines = (S.MONOTONE, S.TENSOR, S.CMONOTONE) if full_mode else (S.MONOTONE,)
    for eng in engines:
        at = S.Atoms(labels)
        phis = {w: eng._phi_word(w, at) for w in K.osp_words(n)}
        ktab = eng.cumulant_table(n, labels)
        for eta in elems:
            for pi in elems:
                w_route = S.ZERO
                g_route = S.ZERO
                for tau in elems:
                    wc = C.weisner3(tau, eta, pi)
                    if wc:
                        w_route = w_route + phis[tau.word] * wc
                    gc = C.goldberg3(tau, eta, pi)
                    if gc:
                        g_route = g_route + ktab[tau.word] * gc
                direct = S.ZERO
                for w in K.ideal_words(pi.word):
                    direct = direct + phis[K.quasi_meet(w, eta.word)] \
                        * K.mu_tilde_words(w, pi.word)
                assert w_route == g_route == direct, (eng.name, eta, pi)


# ---------------------------------------------------------------------------
# independence and exchangeability
# ---------------------------------------------------------------------------

def test_independence_engine_copies():
    assert S.MONOTONE.check_independence((1, 2, 1)) == []
    assert S.CMONOTONE.check_independence((1, 2, 1)) == []
    assert S.FREE.check_independence((1, 2, 1)) == []
    assert S.BOOLEAN.check_independence((1, 2, 2)) == []
    assert S.TENSOR.check_independence((2, 1, 2)) == []


def test_independence_tensor_n4():
    for idx in ((1, 2, 1, 2), (1, 1, 2, 2), (2, 1, 1, 2)):
        assert S.TENSOR.check_independence(idx) == []


def test_independence_matches_semi_vanishing():
    # the cumulant criterion: K_pi(copies) = sum K_tau g(tau, eta, pi)
    eng = S.MONOTONE
    idx = (1, 2, 1)
    eta = P.kernel(idx)
    for pi in P.enumerate_partitions(3):
        lhs = eng.cumulant_indexed(pi, XYZ, idx)
        rhs = S.mixed_cumulant_cumulant(pi, eta, eng, XYZ)
        assert lhs == rhs, pi


def test_tables_and_checks_need_one_label_per_element():
    calls = (lambda eng, ls: eng.cumulant_table(3, ls),
             lambda eng, ls: eng.exchangeability_check(3, ls),
             lambda eng, ls: eng.check_independence((1, 2, 1), labels=ls))
    for eng in S.ENGINES.values():
        for call in calls:
            call(eng, "UVW")
            for bad in ("UV", "UVWX", ""):
                with pytest.raises(ValueError, match="one variable label"):
                    call(eng, bad)
    pi, eta = o("1,2|3"), P.kernel((1, 2, 1))
    for bad in ("UV", "UVWX"):
        with pytest.raises(ValueError, match="one variable label"):
            S.monotone_mc_defect(3, bad)
        for mixed in (S.mixed_cumulant_moment, S.mixed_cumulant_cumulant):
            with pytest.raises(ValueError, match="one variable label"):
                mixed(pi, eta, S.TENSOR, bad)


def test_exchangeability():
    assert S.TENSOR.exchangeability_check(3) == []
    assert S.FREE.exchangeability_check(3) == []
    assert S.BOOLEAN.exchangeability_check(3) == []
    wit = S.MONOTONE.exchangeability_check(3)
    assert wit, "monotone cumulants must fail block exchangeability"
    assert any(pi.word in ((1, 2, 1), (2, 1, 2)) for pi, _ in wit)
    assert S.CMONOTONE.exchangeability_check(3)


def test_exchangeable_marking():
    # an exchangeable engine's phi_pi depends only on the underlying set
    # partition, i.e. on the restricted growth string of the word
    def forgets_block_order(eng):
        return all(
            eng.phi_pi(pi, "VWXYZ"[:n]) == eng.phi_pi(
                P.OrderedSetPartition._raw(n, K.rgs_word(pi.word)),
                "VWXYZ"[:n])
            for n in range(1, 6) for pi in P.enumerate_partitions(n))

    for eng in S.ENGINES.values():
        assert forgets_block_order(eng) == eng.exchangeable, eng.name
    assert not S.MONOTONE.exchangeable and not S.CMONOTONE.exchangeable


def test_free_phi_matches_nc_filter():
    # the definition: free-cumulant products over every noncrossing
    # partition of [n] whose blocks each lie inside one block of the word.
    # The filter sees only which positions share a value, so the expected
    # value is computed once per restricted growth string.
    for n in range(1, 7):
        labels = "UVWXYZ"[:n]
        ncs = [sp.blocks for sp in P.enumerate_partitions(n, P.NC)]
        expected = {}
        for pi in P.enumerate_partitions(n):
            w = K.rgs_word(pi.word)
            if w not in expected:
                expected[w] = Poly.sum([
                    c_product(blocks, labels) for blocks in ncs
                    if all(len({w[x - 1] for x in blk}) == 1
                           for blk in blocks)])
            assert S.FREE.phi_pi(pi, labels) == expected[w], pi


# ---------------------------------------------------------------------------
# one product of atoms per word against the per-factor fold
# ---------------------------------------------------------------------------

def _blocks(word):
    """The positions of each block of the word, in order of appearance."""
    out = {}
    for pos, v in enumerate(word):
        out.setdefault(v, []).append(pos)
    return list(out.values())


def _peeled_runs(word):
    """The runs of the largest remaining value, peeled off in turn."""
    items = list(enumerate(word))
    runs = []
    while items:
        top_value = max(v for _, v in items)
        rest, run = [], []
        for pos, v in items + [(None, None)]:
            if v == top_value:
                run.append(pos)
                continue
            if run:
                runs.append(run)
                run = []
            if pos is not None:
                rest.append((pos, v))
        items = rest
    return runs


def _fold(atom, runs):
    """The per-factor fold: one single-atom product per run."""
    return functools.reduce(operator.mul, [atom(tuple(r)) for r in runs], 1)


def _folded_phi(name, word, moment, free_cumulant):
    """phi_word of a product engine by definition, folded factor by factor:
    the moments of the blocks (tensor), of their maximal intervals
    (Boolean) or of the peeled runs (monotone); for free, the sum over the
    noncrossing partitions refining the word of their cumulant folds."""
    if name == "tensor":
        return _fold(moment, _blocks(word))
    if name == "boolean":
        return _fold(moment, [
            [p for _, p in grp] for blk in _blocks(word)
            for _, grp in itertools.groupby(enumerate(blk),
                                            key=lambda ip: ip[1] - ip[0])])
    if name == "monotone":
        return _fold(moment, _peeled_runs(word))
    assert name == "free"
    refinements = [
        [[x - 1 for x in blk] for blk in sp.blocks]
        for sp in P.enumerate_partitions(len(word), P.NC)
        if all(len({word[x - 1] for x in blk}) == 1 for blk in sp.blocks)]
    return functools.reduce(operator.add, [_fold(free_cumulant, blocks)
                                           for blocks in refinements])


PRODUCT_ENGINES = ("tensor", "boolean", "monotone", "free")


def test_phi_word_matches_per_factor_fold():
    labels = ("X", "Y", "X", "Z", "Y")
    for n in range(1, 6):
        ls = labels[:n]
        for kind in (MOMENT, PSI_MOMENT):
            at = S.Atoms(ls, moment_kind=kind)
            moment, psi_moment = _symbols(ls, kind)
            for w in K.osp_words(n):
                for name in PRODUCT_ENGINES:
                    want = _folded_phi(name, w, moment,
                                       lambda pos: c(*map(ls.__getitem__,
                                                          pos)))
                    assert S.ENGINES[name]._phi_word(w, at) == want, (name, w)
                want = _cmonotone_unmemoized(_syllables(w), moment,
                                             psi_moment, [])
                assert S.CMONOTONE._phi_word(w, at) == want, (kind, w)


def _recorded_copy_values(monkeypatch):
    """The list that collects each map check_independence makes."""
    made = []
    real = S._copy_values

    def recording(*args):
        made.append(real(*args))
        return made[-1]

    monkeypatch.setattr(S, "_copy_values", recording)
    return made


def test_copy_symbols_match_per_factor_fold(monkeypatch):
    # phi_w on position symbols, then each symbol replaced by its value on
    # the copies, is the fold of those values over the engine's factors
    made = _recorded_copy_values(monkeypatch)
    for tags in ((1, 2, 1), (2, 1, 1, 2), (1, 2, 1, 2), (1, 2, 2, 1, 1)):
        n = len(tags)
        positions = S.Atoms(range(n))
        for name in PRODUCT_ENGINES:
            eng = S.ENGINES[name]
            assert eng.check_independence(tags) == [], (name, tags)
            value = made.pop()
            for w in K.osp_words(n):
                want = _folded_phi(name, w,
                                   lambda pos: value((MOMENT, pos)),
                                   lambda pos: value((FREE_CUMULANT, pos)))
                got = eng._phi_word(w, positions).substitute(value)
                assert got == want, (name, tags, w)


def test_copy_symbols_are_evaluated_once_per_call(monkeypatch):
    made = _recorded_copy_values(monkeypatch)
    for eng in S.ENGINES.values():
        for tags, labels in (((1, 2, 1, 2, 1), None), ((1, 2, 2, 1), "XYXY")):
            n = len(tags)
            assert eng.check_independence(tags, labels=labels) == []
            (value,) = made
            made.clear()
            positions = S.Atoms(range(n))
            symbols = set().union(*(eng._phi_word(w, positions).symbols()
                                    for w in K.osp_words(n)))
            info = value.cache_info()
            assert info.misses == info.currsize == len(symbols), eng.name
            assert info.hits, eng.name
            # the free engine reads only free cumulants of its copies
            families = {kind for kind, _ in symbols}
            assert families == ({FREE_CUMULANT} if eng is S.FREE else
                                {MOMENT, PSI_MOMENT} if eng is S.CMONOTONE
                                else {MOMENT}), eng.name


class _SwitchingEngine(S.Engine):
    """Tensor on words of at most two blocks, Boolean above: its copies are
    not independent in either sense."""

    name = "switching"

    def _phi_word(self, word, atoms):
        eng = S.TENSOR if max(word) <= 2 else S.BOOLEAN
        return eng._phi_word(word, atoms)


def test_independence_check_reports_failures():
    eng = _SwitchingEngine()
    assert [str(pi) for pi in eng.check_independence((1, 1, 1, 2))] == [
        "1,3,4|2", "1,3|2,4", "2,4|1,3", "2|1,3,4"]
    assert eng.check_independence((1, 2, 1)) == []


def test_product_engines_form_no_poly_products(monkeypatch):
    labels = ("X", "Y", "X", "Z", "Y")

    def values():
        return {(name, kind, w): S.ENGINES[name]._phi_word(
                    w, S.Atoms(labels, moment_kind=kind))
                for name in PRODUCT_ENGINES for kind in (MOMENT, PSI_MOMENT)
                for w in K.osp_words(5)}

    expect = values()

    def product(*args):
        raise AssertionError("an engine multiplied two Polys")

    monkeypatch.setattr(Poly, "__mul__", product)
    monkeypatch.setattr(Poly, "__rmul__", product)
    assert values() == expect


def test_cmonotone_forms_no_poly_products(monkeypatch):
    # rule V expands into signed terms of (family, run) atoms, and each
    # distinct term is one monomial asked of the atoms: on Atoms of either
    # moment family, c-monotone multiplies no Poly
    labels = ("X", "Y", "X", "Z", "Y")
    kinds = (MOMENT, PSI_MOMENT)
    expect = {}
    for n in range(1, 6):
        for kind in kinds:
            atoms = _symbols(labels[:n], kind)
            for w in K.osp_words(n):
                expect[kind, w] = _cmonotone_unmemoized(_syllables(w),
                                                        *atoms, [])

    def product(*args):
        raise AssertionError("c-monotone multiplied two Polys")

    monkeypatch.setattr(Poly, "__mul__", product)
    monkeypatch.setattr(Poly, "__rmul__", product)
    for n in range(1, 6):
        for kind in kinds:
            at = S.Atoms(labels[:n], moment_kind=kind)
            for w in K.osp_words(n):
                got = S.CMONOTONE._phi_word(w, at)
                assert got == expect[kind, w], (kind, w)
                assert set(map(type, got.terms.values())) <= {int}, (kind, w)


def test_monomial_is_the_mono_mul_fold(monkeypatch):
    from ospart import symbolic as Y
    syms = [moment_symbol(("X",)), moment_symbol(("X", "Y")),
            free_cumulant_symbol(("Y",)), psi_moment_symbol(("X",)),
            Y.time_symbol(2), scalar_symbol("N")]
    for k in range(5):
        for seq in itertools.product(syms, repeat=k):
            fold = functools.reduce(Y._mono_mul, [((s, 1),) for s in seq],
                                    ())
            got = Poly.monomial(seq)
            assert got.terms == {fold: 1} and type(got.terms[fold]) is int
            assert got == functools.reduce(
                operator.mul, map(Poly.sym, seq), Poly.const(1)), seq
    # SparseSum.sum adds every summand in one pass
    summands = [m("X"), c("Y") * 2, -m("X"), Poly.const(F(1, 2)), c("Y")]
    expect = c("Y") * 3 + F(1, 2)
    calls = []
    add_into = Y.add_into

    def counting(out, items):
        calls.append(1)
        return add_into(out, items)

    monkeypatch.setattr(Y, "add_into", counting)
    assert Poly.sum(summands) == expect and len(calls) == 1


# ---------------------------------------------------------------------------
# the c-monotone memo
# ---------------------------------------------------------------------------

def _syllables(word):
    syls = []
    for pos, v in enumerate(word):
        if syls and syls[-1][0] == v:
            syls[-1][1].append(pos)
        else:
            syls.append((v, [pos]))
    return tuple((v, tuple(ps)) for v, ps in syls)


def _symbols(labels, kind=MOMENT):
    """(family atom, psi atom): the single atoms of the labels as symbols,
    each a function of a position tuple."""
    def atom(family):
        return lambda pos: Poly.sym((family, tuple(labels[i] for i in pos)))
    return atom(kind), atom(PSI_MOMENT)


def _cmonotone_unmemoized(syls, moment, psi_moment, calls):
    """The rule-V recursion without a memo on single atoms moment(pos) and
    psi_moment(pos); calls records every sequence."""
    def rec(syls):
        return _cmonotone_unmemoized(syls, moment, psi_moment, calls)

    calls.append(syls)
    if len(syls) == 1:
        return moment(syls[0][1])
    if syls[0][0] > syls[1][0]:
        return moment(syls[0][1]) * rec(syls[1:])
    if syls[-1][0] > syls[-2][0]:
        return rec(syls[:-1]) * moment(syls[-1][1])
    j = next(j for j in range(1, len(syls) - 1)
             if syls[j - 1][0] < syls[j][0] > syls[j + 1][0])
    left, mid, right = syls[:j], syls[j][1], syls[j + 1:]
    direct = rec(left) * (moment(mid) - psi_moment(mid)) * rec(right)
    if left[-1][0] == right[0][0]:
        joined = (left[-1][0], tuple(sorted(left[-1][1] + right[0][1])))
        merged = left[:-1] + (joined,) + right[1:]
    else:
        merged = left + right
    return direct + psi_moment(mid) * rec(merged)


def test_cmonotone_memo_computes_each_sequence_once(monkeypatch):
    computed = []
    compute = S.CMonotoneEngine._compute

    def counting(self, syls, atoms, memo):
        computed[-1].append(syls)
        return compute(self, syls, atoms, memo)

    monkeypatch.setattr(S.CMonotoneEngine, "_compute", counting)
    labels = ("X", "Y", "Z", "X", "W")
    atoms = _symbols(labels)
    memo_total = plain_total = 0
    for w in K.osp_words(5):
        computed.append([])
        got = S.CMONOTONE.phi_pi(P.OrderedSetPartition._raw(5, w), labels)
        assert len(computed[-1]) == len(set(computed[-1])), w
        plain = []
        assert got == _cmonotone_unmemoized(_syllables(w), *atoms, plain), w
        memo_total += len(computed[-1])
        plain_total += len(plain)
    assert memo_total < plain_total


def test_cmonotone_table_shares_its_memo_across_words(monkeypatch):
    # one atoms object serves the whole table: each syllable sequence is
    # computed at most once for it, fewer times in all than with a memo per
    # word, and the table is the unmemoized recursion summed against mu~
    computed = []
    compute = S.CMonotoneEngine._compute

    def counting(self, syls, atoms, memo):
        computed.append((atoms, syls))
        return compute(self, syls, atoms, memo)

    monkeypatch.setattr(S.CMonotoneEngine, "_compute", counting)
    for n in range(1, 6):
        labels = ("X", "Y", "Z", "X", "W")[:n]
        del computed[:]
        table = S.CMONOTONE.cumulant_table(n, labels)
        keys = [(id(at), syls) for at, syls in computed]
        assert len(keys) == len(set(keys)), n
        atoms = _symbols(labels)
        phis, per_word = {}, 0
        for w in K.osp_words(n):
            calls = []
            phis[w] = _cmonotone_unmemoized(_syllables(w), *atoms, calls)
            per_word += len(set(calls))
        if n >= 4:
            assert len(keys) < per_word, n
        for v in K.osp_words(n):
            want = Poly.sum([phis[w] * _mu(t)
                             for w, t in zip(*K.typed_ideal(v))])
            assert table[v] == want, v


# ---------------------------------------------------------------------------
# type-grouped ideal sums against the per-sigma definition
# ---------------------------------------------------------------------------

def _mu(t):
    return F((-1) ** (sum(t) - len(t)), math.prod(t))


def _zeta(t):
    return F(1, math.prod(math.factorial(k) for k in t))


def _binomials(params, t):
    out = Poly.const(1)
    for x, k in zip(params, t):
        for i in range(k):
            out = out * (x - i)
        out = out * F(1, math.factorial(k))
    return out


def _per_sigma(pi, value, weight):
    """sum of value(sigma) * weight(type(sigma, pi)) over sigma <= pi, the
    ideal found by filtering all of OP_n."""
    return Poly.sum([value(sigma) * weight(P.interval_type(sigma, pi))
                     for sigma in P.enumerate_partitions(pi.n)
                     if P.leq(sigma, pi)])


def test_ideal_sums_match_per_sigma_definition():
    from ospart.symbolic import time_symbol
    N, M = Poly.sym(scalar_symbol("N")), Poly.sym(scalar_symbol("M"))
    cases = list(P.enumerate_partitions(3)) + [
        o(s) for s in ("1,3|2,4", "2|1,3,4", "4|1,2|3", "1,2,3,4")]
    for pi in cases:
        n, p = pi.n, len(pi)
        labels = ("X", "Y", "X", "Z")[:n]
        indices = (1, 2, 1, 1)[:n]
        scales = (N, 2, M)[:p]
        times = [Poly.sym(time_symbol(j)) for j in range(1, p + 1)]
        for eng in S.ENGINES.values():
            def phi(sigma):
                return eng.phi_pi(sigma, labels)

            def dilated(sigma, params):
                return _per_sigma(sigma, phi,
                                  lambda t: _binomials(params, t))

            def blockwise(t):
                return [x for x, k in zip(scales, t) for _ in range(k)]

            where = (eng.name, pi)
            assert eng.cumulant(pi, labels) == _per_sigma(pi, phi, _mu), where
            assert eng.cumulant_indexed(pi, labels, indices) == _per_sigma(
                pi, lambda s: eng.phi_pi_indexed(s, labels, indices),
                _mu), where
            assert eng.dilate(pi, labels, "N") == dilated(pi, [N] * p), where
            # binom(1, k) = 0 for k >= 2: whole type classes drop out
            assert eng.dilate(pi, labels, 1) == dilated(pi, [1] * p), where
            assert eng.phi_t(pi, labels) == dilated(pi, times), where
            assert eng.cumulant_dilated(pi, labels, scales) == Poly.sum([
                dilated(s, blockwise(P.interval_type(s, pi)))
                * _mu(P.interval_type(s, pi))
                for s in P.enumerate_partitions(n) if P.leq(s, pi)]), where
            assert eng.dilate_iterated(pi, labels, "N", "M") == Poly.sum([
                dilated(s, [N] * len(s))
                * _binomials([M] * p, P.interval_type(s, pi))
                for s in P.enumerate_partitions(n) if P.leq(s, pi)]), where
            table = eng.cumulant_table(n, labels)
            assert S.moments_from_cumulants(table, pi) == _per_sigma(
                pi, lambda s: table[s.word], _zeta), where


def _binomial_route(eng, sigma, at, params):
    """The dilation sum by Poly products of binomials: phi_rho times
    incidence.binomial_product(params, type(rho, sigma)) over rho <= sigma,
    in the ring of the atoms at."""
    from ospart import incidence as I
    words, types = K.typed_ideal(sigma.word)
    return at.sum([eng._phi_word(w, at) * I.binomial_product(params, t)
                   for w, t in zip(words, types)])


def test_dilation_sums_match_the_binomial_product_route():
    # the cached integer weight rows against Poly products of binomials:
    # every dilation method and the [t_j^1] and [s^1] readers, all five
    # engines, int/Fraction/Poly/string scales (a scale of 1 zeroes every
    # class with a part >= 2; Poly.const(2) after 2 shares its table),
    # n <= 4, on Atoms of both moment families and on the integer
    # _TableAtoms
    from ospart import incidence as I
    from ospart.symbolic import time_symbol
    N, M = Poly.sym(scalar_symbol("N")), Poly.sym(scalar_symbol("M"))
    s_sym = scalar_symbol("s")
    s = Poly.sym(s_sym)
    scales = [3, F(-1, 2), 1, N * 2 + M, "M", 2, Poly.const(2)]

    def as_param(x):
        return Poly.sym(scalar_symbol(x)) if isinstance(x, str) else x

    cases = [pi for n in (1, 2, 3) for pi in P.enumerate_partitions(n)]
    cases += [o(w) for w in ("1,2,3,4", "2|1,3,4", "1,3|2,4", "3|1|2,4",
                             "4|3|2|1")]
    for pi in cases:
        n, p = pi.n, len(pi)
        labels = ("X", "Y", "X", "Z")[:n]
        ts = [Poly.sym(time_symbol(j)) for j in range(1, p + 1)]
        blockwise = [scales[(i + n) % len(scales)] for i in range(p)]
        params = [as_param(x) for x in blockwise]
        ideal = list(zip(*K.typed_ideal(pi.word)))
        for eng in S.ENGINES.values():
            at = S.Atoms(labels)
            where = (eng.name, pi)
            for scale in scales:
                want = _binomial_route(eng, pi, at, [as_param(scale)] * p)
                assert eng.dilate(pi, labels, scale) == want, where + (scale,)
            assert eng.dilate_blockwise(pi, labels, blockwise) == (
                _binomial_route(eng, pi, at, params)), where
            phi_t = _binomial_route(eng, pi, at, ts)
            assert eng.phi_t(pi, labels) == phi_t, where
            assert eng.cumulant_dilated(pi, labels, blockwise) == Poly.sum([
                _binomial_route(eng, P.OrderedSetPartition._raw(n, w), at, [
                    x for x, k in zip(params, t) for _ in range(k)])
                * _mu(t) for w, t in ideal]), where
            assert eng.dilate_iterated(pi, labels, "N", 2) == Poly.sum([
                _binomial_route(eng, P.OrderedSetPartition._raw(n, w), at,
                                [N] * max(w))
                * I.binomial_product([2] * p, t) for w, t in ideal]), where
            for j in range(1, p + 1):
                assert eng.partial_cumulant(pi, labels, j) == (
                    phi_t.coefficient(time_symbol(j), 1)), where + (j,)
            # the evolution identities, with s a Poly symbol
            j = n % p + 1
            pj = pi.blocks[j - 1]
            rhs = [S.ZERO, S.ZERO]
            for mask in range(1, 1 << len(pj)):
                a = [x for i, x in enumerate(pj) if mask >> i & 1]
                rest = [x for x in pj if x not in a]
                for form, split in enumerate(([a, rest], [rest, a])):
                    pars = [[s, ts[j - 1]], [ts[j - 1], s]][form]
                    kept = [(b, x) for b, x in zip(split, pars) if b]
                    pi2 = P.OrderedSetPartition(n, list(pi.blocks[:j - 1])
                                                + [b for b, _ in kept]
                                                + list(pi.blocks[j:]))
                    rhs[form] = rhs[form] + _binomial_route(
                        eng, pi2, at,
                        ts[:j - 1] + [x for _, x in kept] + ts[j:],
                    ).coefficient(s_sym, 1)
            lhs = phi_t.diff(time_symbol(j))
            assert eng.diffeq_residuals(pi, labels, j) == (
                lhs - rhs[0], lhs - rhs[1]), where
            # the same route in the other rings
            for ring in (S.Atoms(labels, moment_kind=PSI_MOMENT),
                         _TableAtoms(labels)):
                for scale in (3, F(-1, 2), 1, 0, "N", Poly.const(2)):
                    got = eng.dilate(pi, labels, scale, atoms=ring)
                    want = _binomial_route(eng, pi, ring,
                                           [as_param(scale)] * p)
                    assert got == want, where + (scale,)
                    assert isinstance(got, Poly) == isinstance(want, Poly)
                got = eng.phi_t(pi, labels, atoms=ring)
                assert got == _binomial_route(eng, pi, ring, ts), where


def test_tables_match_per_sigma_definition_with_repeated_labels():
    # repeated labels make the phi_sigma of distinct sigma share monomials,
    # so the integer multiples of mu~ and zeta~ add and cancel per monomial
    for n in (3, 4):
        for labels in (("X",) * n, ("X", "Y", "X", "Y")[:n]):
            for eng in S.ENGINES.values():
                table = eng.cumulant_table(n, labels)
                for v in K.osp_words(n):
                    pi = P.OrderedSetPartition._raw(n, v)
                    where = (eng.name, labels, v)
                    assert table[v] == _per_sigma(
                        pi, lambda s: eng.phi_pi(s, labels), _mu), where
                    assert S.moments_from_cumulants(table, pi) == (
                        eng.phi_pi(pi, labels)), where


def _typed(poly):
    return {mono: (type(x), x) for mono, x in poly.terms.items()}


def test_cumulant_table_evaluates_each_phi_once(monkeypatch):
    # an exchangeable engine evaluates phi once per restricted growth
    # string, monotone and c-monotone once per noncrossing one, and on no
    # other word; the table sums the same values as the per-v ideal sum
    # over each word's own phi, coefficient types included
    for eng in S.ENGINES.values():
        real = type(eng)._phi_word
        calls = []

        def counting(self, word, atoms, real=real):
            calls.append(word)
            return real(self, word, atoms)

        monkeypatch.setattr(type(eng), "_phi_word", counting)
        for n in range(1, 6):
            rgs = sorted({K.rgs_word(w) for w in K.osp_words(n)})
            assert len(rgs) == _bell(n)
            for labels in (S._default_labels(n), "XYXZY"[:n], "X" * n):
                del calls[:]
                table = eng.cumulant_table(n, labels)
                if eng.exchangeable:
                    assert sorted(calls) == rgs, (eng.name, n)
                else:
                    assert sorted(calls) == [u for u in rgs if P.is_class(
                        P.OrderedSetPartition._raw(n, u), P.NC)], (
                        eng.name, n)
                at = S.Atoms(labels)
                phis = {w: real(eng, w, at) for w in K.osp_words(n)}
                assert list(table) == list(K.osp_words(n))
                for v in K.osp_words(n):
                    want = S._ideal_sum(v, phis.__getitem__,
                                        K.mu_tilde_type)
                    assert _typed(table[v]) == _typed(want), (eng.name, v)


def _bell(n):
    return sum(1 for _ in P.enumerate_partitions(n, P.SP))


def test_exchangeable_table_matches_the_ordered_route(full_mode):
    # one K per set partition, given to each of its block orders, equals
    # the mu~ sum of every ordered word over its own ideal: values,
    # coefficient types and key order
    for eng in (S.TENSOR, S.FREE, S.BOOLEAN):
        for n in range(1, 7 if full_mode else 6):
            for labels in (None, "X" * n, "XYXZYX"[:n], "XXYYXZ"[:n]):
                want = definition_table(eng, n, labels)
                got = eng.cumulant_table(n, labels)
                assert list(got) == list(want), (eng.name, n)
                for w, terms in want.items():
                    assert _typed(got[w]) == {
                        mono: (type(x), x) for mono, x in terms.items()}, (
                        eng.name, labels, w)


def test_exchangeability_check_keeps_the_ordered_table():
    # an engine that reads block order but claims exchangeability: its
    # own table shares K across block orders, yet the check evaluates each
    # word and finds the monotone witnesses
    class Claims(S.MonotoneEngine):
        exchangeable = True

    wit = Claims().exchangeability_check(3)
    assert wit and wit == S.MONOTONE.exchangeability_check(3)
    assert Claims().exchangeability_check(3, "XYX") == (
        S.MONOTONE.exchangeability_check(3, "XYX"))


# ---------------------------------------------------------------------------
# cumulants summed on the support only
# ---------------------------------------------------------------------------

def _supported(eng, n, w):
    return P.is_class(P.OrderedSetPartition._raw(n, w), eng.support)


def test_tables_are_the_definition_and_vanish_exactly_off_the_support(
        full_mode):
    # the table takes no mu~ sum off the engine's support; the definition
    # takes every word's sum and assumes nothing.  The two agree in values,
    # coefficient types and key order.  The definition vanishes off the
    # support, and with distinct labels on no word of it, so the support is
    # the exact vanishing class: one too small or too large fails here
    for eng in S.ENGINES.values():
        for n in range(1, 7 if full_mode else 6):
            for labels in (None, "UVWXYZ"[:n], "XYXZYX"[:n]):
                want = definition_table(eng, n, labels)
                got = eng.cumulant_table(n, labels)
                assert list(got) == list(want), (eng.name, n)
                for v, terms in want.items():
                    where = (eng.name, labels, v)
                    assert _typed(got[v]) == {
                        mono: (type(x), x) for mono, x in terms.items()
                    }, where
                    on = _supported(eng, n, v)
                    assert on or not terms, where
                    if len(set(labels or range(n))) == n:
                        assert terms or not on, where


def test_support_cumulants_depend_only_on_the_set_partition(full_mode):
    # what the set-partition tables rest on, by the definition: on every
    # engine's support, K_w is K at the restricted growth string of w, and
    # that string lies in the support too
    for eng in S.ENGINES.values():
        for n in range(1, 7 if full_mode else 6):
            for labels in (None, "XYXZYX"[:n], "X" * n):
                want = definition_table(eng, n, labels)
                for w, terms in want.items():
                    if _supported(eng, n, w):
                        u = K.rgs_word(w)
                        assert _supported(eng, n, u), (eng.name, w)
                        assert terms == want[u], (eng.name, labels, w)


def test_off_support_cumulants_evaluate_no_phi(monkeypatch):
    # K_pi off the support is ZERO with no phi evaluated and no ideal
    # walked; on the support it is the definition's sum
    seen = []
    real_ideal = K.typed_ideal
    monkeypatch.setattr(K, "typed_ideal",
                        lambda v: seen.append(v) or real_ideal(v))
    for eng in S.ENGINES.values():
        real = type(eng)._phi_word

        def counting(self, word, atoms, real=real):
            seen.append(word)
            return real(self, word, atoms)

        monkeypatch.setattr(type(eng), "_phi_word", counting)
        for n in range(1, 6):
            labels = "XYXZY"[:n]
            want = definition_table(eng, n, labels)
            for w in K.osp_words(n):
                del seen[:]
                got = eng.cumulant(P.OrderedSetPartition._raw(n, w), labels)
                assert got.terms == want[w], (eng.name, w)
                assert bool(seen) == _supported(eng, n, w), (eng.name, w)


def test_full_sum_callers_walk_every_ideal(monkeypatch):
    # caller-given atoms, copies and the exchangeability check assume no
    # support: each walks the ideal of every word it is asked about
    walked = []
    real = K.typed_ideal
    monkeypatch.setattr(K, "typed_ideal",
                        lambda v: walked.append(v) or real(v))
    labels = "XYXZ"
    for eng in (S.FREE, S.BOOLEAN, S.MONOTONE, S.CMONOTONE):
        off = [w for w in K.osp_words(4) if not _supported(eng, 4, w)]
        assert off, eng.name
        for w in off:
            pi = P.OrderedSetPartition._raw(4, w)
            del walked[:]
            assert eng.cumulant(pi, labels, atoms=S.Atoms(labels)).is_zero()
            assert walked == [w], (eng.name, w)
            del walked[:]
            eng.cumulant_indexed(pi, labels, (1, 2, 1, 1))
            assert walked == [w], (eng.name, w)
        del walked[:]
        eng.exchangeability_check(3)
        assert sorted(walked) == sorted(K.osp_words(3)), eng.name


def test_nested_ideal_sums_evaluate_each_phi_once(monkeypatch):
    # cumulant_dilated and dilate_iterated dilate every sigma of pi's ideal,
    # and mixed_cumulant_cumulant takes K_sigma over it: each evaluates
    # phi once per distinct word it reads, all of them in pi's ideal
    real = S.TensorEngine._phi_word
    calls = []

    def counting(self, word, atoms):
        calls.append(word)
        return real(self, word, atoms)

    monkeypatch.setattr(S.TensorEngine, "_phi_word", counting)
    for w, eta in (("1111", "1212"), ("11111", "12112"), ("12121", "11221"),
                   ("1234", "1122")):
        pi, eta = o(w), o(eta)
        labels = S._default_labels(pi.n)
        ideal = K.ideal_words(pi.word)
        for run, whole in (
                (lambda: S.TENSOR.cumulant_dilated(pi, labels,
                                                   ["N"] * len(pi)), True),
                (lambda: S.TENSOR.dilate_iterated(pi, labels, "N", "M"), True),
                (lambda: S.mixed_cumulant_cumulant(pi, eta, S.TENSOR, labels),
                 False)):
            del calls[:]
            run()
            assert len(calls) == len(set(calls)), w
            assert set(calls) <= set(ideal), w
            if whole:
                assert sorted(calls) == sorted(ideal), w


def test_floats_are_refused_by_the_exact_layer():
    # a float holds no exact value: every entry that turns a number into an
    # exact coefficient refuses it, and ints and Fractions keep their values
    from ospart import freelie as FL
    from ospart import incidence as I
    pi = o("1|2")
    p = m("X") + m("Y")
    refused = [lambda x: Poly.const(x), lambda x: p.scale(x),
               lambda x: FL.NCPoly.word("a", x),
               lambda x: S.TENSOR.dilate(pi, "XY", x),
               lambda x: I.TruncatedSeries([1, x]),
               lambda x: I.generalized_binomial(x, 2)]
    for make in refused:
        for bad in (0.1, 0.5, 2.0):
            with pytest.raises(TypeError):
                make(bad)
    for x in (3, F(1, 2), F(-4, 2)):
        assert Poly.const(x).terms == {(): x}
        assert p.scale(x).terms == {k: x for k in p.terms}
        assert FL.NCPoly.word("a", x).terms == {("a",): x}
        assert I.TruncatedSeries([1, x]).coeffs == (1, x)
        assert I.generalized_binomial(x, 2) == x * (x - 1) / 2
        n = Poly.sym(scalar_symbol("N"))
        assert (S.TENSOR.dilate(pi, "XY", x)
                == S.TENSOR.dilate(pi, "XY", n).substitute(
                    lambda s: x if s == scalar_symbol("N") else None))


def test_scale_is_the_per_term_product(monkeypatch):
    # one product per distinct coefficient, the same sum as one product
    # per term, an int wherever the product is integral
    from ospart import freelie as FL
    from ospart import symbolic as Y
    sums = [
        m("X") * 2 + m("Y") * 2 + c("X") * F(1, 3) + pm("Y") * F(2, 6)
        + m("X", "Y") * -4 + Poly.const(6) + c("Y") * F(-3, 2),
        Poly({**m("X").terms, **m("Y").terms, **c("X").terms}),
        Poly(),
        FL.NCPoly({("a",): 2, ("b",): 2, ("a", "b"): F(1, 2),
                   ("b", "a"): F(1, 2), (): F(-3, 4)}),
        FL.NCPoly({("a", "a"): 6, ("b",): 6}),
    ]
    exact = Y.exact
    products = []

    def counting(x):
        products.append(x)
        return exact(x)

    divisions = []

    def counting_divmod(a, b):
        divisions.append((a, b))
        return divmod(a, b)

    monkeypatch.setattr(Y, "exact", counting)
    monkeypatch.setattr(Y, "divmod", counting_divmod, raising=False)
    # int coefficients whose quotients by d are integral, and ones whose
    # are not
    sums += [Poly({**(m("X") * 6).terms, **(m("Y") * -12).terms,
                   **(c("X") * 6).terms}),
             m("X") * 6 + m("Y") * 4 + c("X") * -9 + c("Y") * 7 + pm("X")]
    for x in sums:
        for s in (0, F(0), 1, -1, 3, F(1, 2), F(3, 2), F(-2, 3), F(4, 2),
                  F(1, 3), F(1, 6)):
            del products[:], divisions[:]
            got = x.scale(s)
            assert type(got) is type(x)
            want = {k: v * s for k, v in x.terms.items() if v * s}
            assert got.terms == want, (x, s)
            for v in got.terms.values():
                assert type(v) is (int if F(v).denominator == 1 else F)
            # exact(s), then one product per distinct coefficient: an int
            # coefficient under a non-integral scale by one divmod, any
            # other by one exact product
            distinct = set(x.terms.values()) if s else set()
            divided = {v for v in distinct if type(v) is int
                       and F(s).denominator > 1}
            assert len(divisions) == len(divided), (x, s)
            assert len(products) == 1 + len(distinct - divided), (x, s)
            assert len(products) + len(divisions) == 1 + len(distinct)


# ---------------------------------------------------------------------------
# exchangeable cumulants on the set-partition lattice
# ---------------------------------------------------------------------------

def test_refinement_rows_are_the_mu_tilde_sum_per_set_partition(full_mode):
    # the rows of u are the mu~(sigma, u) of u's ideal, summed over the
    # sigma of each set partition: one row per refinement, an int each
    for n in range(1, 8 if full_mode else 7):
        for u in dict.fromkeys(map(K.rgs_word, K.osp_words(n))):
            want = {}
            for w, t in zip(*K.typed_ideal(u)):
                c = K.rgs_word(w)
                want[c] = want.get(c, 0) + K.mu_tilde_type(t)
            rows = S._refinement_rows(u)
            assert len(dict(rows)) == len(rows), u
            assert dict(rows) == want, u
            assert all(type(mu) is int for _, mu in rows), u


def test_exchangeable_cumulant_is_the_full_sum(full_mode):
    # the set-partition route of the default atoms against the mu~ sum
    # over pi's ideal that caller-given atoms take: values and coefficient
    # types, on every word for n <= 5 and sampled words for n = 6
    for eng in (S.TENSOR, S.FREE, S.BOOLEAN):
        for n in range(1, 7):
            words = K.osp_words(n)
            if n == 6 and not full_mode:
                words = words[::41]
            for labels in ("UVWXYZ"[:n], "XYXZYX"[:n], "X" * n):
                for w in words:
                    pi = P.OrderedSetPartition._raw(n, w)
                    got = eng.cumulant(pi, labels)
                    want = eng.cumulant(pi, labels, atoms=S.Atoms(labels))
                    assert _typed(got) == _typed(want), (eng.name, labels, w)


def test_monotone_block_rows_are_the_mu_tilde_sum():
    # K_k on positions, by the monotone plan's recursion, against the mu~
    # sum of the engine's phi over all of OP_k: mu~(sigma, 1^k) is
    # (-1)^(p - 1) / p for sigma of p blocks
    for k in range(1, 7):
        at = S.Atoms(range(k))
        want = Poly.sum([S.MONOTONE._phi_word(w, at)
                         * F((-1) ** (max(w) - 1), max(w))
                         for w in K.osp_words(k)])
        d, rows = S._monotone_block_rows(k)
        got = Poly.sum([at.product(runs) * F(x, d) for runs, x in rows])
        assert got == want, k
        assert d == math.lcm(*(F(x).denominator
                               for x in want.terms.values())), k


def test_cumulants_past_the_word_cap_are_refused_alike():
    # every engine refuses a block past OSP_WORDS_CAP with the words'
    # own error, whichever route its cumulant takes
    with pytest.raises(ValueError) as want:
        K.osp_words(K.OSP_WORDS_CAP + 1)
    labels = "ABCDEFGH"[:K.OSP_WORDS_CAP + 1]
    assert len(labels) == K.OSP_WORDS_CAP + 1
    for eng in S.ENGINES.values():
        with pytest.raises(ValueError) as got:
            eng.cumulant_n(labels)
        assert str(got.value) == str(want.value), eng.name


def test_monomials_render_alike_in_text_and_maps():
    # str joins a monomial's factors with no separator and render_map with
    # "*", each factor a symbol with ^e past the first power
    N = Poly.sym(scalar_symbol("N"))
    t2 = Poly.sym(time_symbol(2))
    cases = [
        (Poly(), "0", {}),
        (Poly.const(F(-3, 2)), "-3/2", {"1": "-3/2"}),
        (m("X") * m("X") * c("Y", "Z"), "c[YZ]m[X]^2", {"c[YZ]*m[X]^2": "1"}),
        (m("X") * -1 + pm("X", "Y") * 2 + N * N * N * F(1, 3) + 4,
         "4 - m[X] + 2 pm[XY] + 1/3 N^3",
         {"1": "4", "m[X]": "-1", "pm[XY]": "2", "N^3": "1/3"}),
        (t2 * m("X1", "X2") ** 2, "m[X1,X2]^2t2", {"m[X1,X2]^2*t2": "1"}),
    ]
    for p, text, rendered in cases:
        assert str(p) == text
        assert p.render_map() == rendered
        assert list(p.render_map()) == list(rendered)


# ---------------------------------------------------------------------------
# exact coefficients: int when integral, Fraction otherwise
# ---------------------------------------------------------------------------

def test_coefficients_are_int_when_integral():
    from ospart import freelie as FL
    assert type(Poly.const(F(6, 3)).terms[()]) is int
    assert Poly.const(F(6, 3)).terms[()] == 2
    assert type(Poly.const(F(1, 2)).terms[()]) is F
    assert set(map(type, (m("X") * F(4, 2)).terms.values())) == {int}
    # a scaling that divides out stores the integral products as ints
    halved = (m("X") * 4 + m("Y") * 3) * F(1, 2)
    assert halved.terms == {**(m("X") * 2).terms, **(m("Y") * F(3, 2)).terms}
    assert [type(x) for x in halved.terms.values()] == [int, F]
    # and so do the mu~ and zeta~ sums, which divide once by their
    # denominator
    for eng in S.ENGINES.values():
        table = eng.cumulant_table(4, "XYXZ")
        polys = list(table.values())
        for pi in (top(4), o("1,3|2,4"), o("2|1,3,4"), o("4|1,2|3")):
            polys += [eng.cumulant(pi, "XYXZ"),
                      eng.cumulant_indexed(pi, "XYXZ", (1, 2, 1, 1)),
                      S.moments_from_cumulants(table, pi)]
        for poly in polys:
            for x in poly.terms.values():
                assert type(x) is int or x.denominator > 1, eng.name
    # and so do the dilation sums, which divide once by theirs
    N = Poly.sym(scalar_symbol("N"))
    for eng in S.ENGINES.values():
        for pi in (top(3), o("1,3|2"), o("2|1,3,4"), o("1,2|3,4")):
            labels = ("X", "Y", "X", "Z")[:pi.n]
            scales = [N, F(1, 2), "M", 3][:len(pi)]
            polys = [eng.dilate(pi, labels, N), eng.dilate(pi, labels, 3),
                     eng.phi_t(pi, labels),
                     eng.cumulant_dilated(pi, labels, scales),
                     eng.dilate_iterated(pi, labels, "N", 2)]
            polys += [eng.partial_cumulant(pi, labels, j)
                      for j in range(1, len(pi) + 1)]
            for poly in polys:
                for x in poly.terms.values():
                    assert type(x) is int or x.denominator > 1, (eng.name, pi)
    assert set(map(type, m("X").terms.values())) == {int}
    for const in (Poly.const(3), Poly.const(F(3)), Poly()):
        assert type(const.constant_value()) is F
    mono = next(iter(m("X", "Y").terms))
    for key in (mono, ()):
        as_int, as_frac = Poly({key: 3}), Poly({key: F(3)})
        assert as_int == as_frac
        assert hash(as_int) == hash(as_frac)
        assert str(as_int) == str(as_frac)
        assert as_int.render_map() == as_frac.render_map()
    assert hash(Poly.const(3)) == hash(3) == hash(F(3))
    # the series, word by word, as computed over Fractions throughout
    series = FL.cbh_goldberg("ab", 6)
    terms = sorted(("".join(w), str(c)) for w, c in series.poly.terms.items())
    assert len(terms) == 72
    assert hashlib.sha256(repr(terms).encode()).hexdigest() == (
        "3be8165ca4b2f358409f5140b0d798f338be606f10c0bd04d7010ce9d63dd1b6")
    assert series.poly == FL.cbh_direct("ab", 6).poly
    assert type(series.coefficient("ab")) is F


def test_engine_lookup():
    assert S.engine("monotone") is S.MONOTONE
    with pytest.raises(ValueError):
        S.engine("v-monotone")


def test_engines_read_types_from_the_ideal_stream(monkeypatch):
    from ospart import cli
    pi = o("1,3|2,4")
    labels = ("X", "Y", "X", "Z")

    def values():
        out = {name: eng.cumulant_table(4) for name, eng in S.ENGINES.items()}
        out["cumulant_dilated"] = S.CMONOTONE.cumulant_dilated(
            pi, labels, ["N", "M"])
        out["dilate_iterated"] = S.MONOTONE.dilate_iterated(pi, labels,
                                                            "N", "M")
        out["moments_from_cumulants"] = S.moments_from_cumulants(
            out["free"], pi)
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert cli.main(["cumulants", "--system", "tensor", "-n", "4",
                             "--direction", "c2m"]) == 0
        out["c2m"] = buf.getvalue()
        return out

    expect = values()

    def word_pair_kernel(*args):
        raise AssertionError("an engine re-derived an interval type")

    for name in ("mu_tilde_words", "zeta_tilde_words", "interval_type_words",
                 "order_type"):
        monkeypatch.setattr(K, name, word_pair_kernel)
    assert values() == expect
