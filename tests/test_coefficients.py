import itertools
from fractions import Fraction as F
from math import factorial

import pytest

from ospart import coefficients as C
from ospart import partitions as P

o = P.osp


# ---------------------------------------------------------------------------
# statistics and runs
# ---------------------------------------------------------------------------

def test_stats_examples():
    assert C.stats((1, 1, 3, 5, 5, 5, 4, 1, 4)) == (2, 3, 3)
    assert C.stats((3, 3, 4, 5, 2, 1, 2, 4)) == (2, 1, 4)
    assert C.stats((7,) * 5) == (0, 4, 0)
    with pytest.raises(ValueError):
        C.stats(())


def test_stats_sum_rule():
    import random
    rng = random.Random(3)
    for _ in range(100):
        w = tuple(rng.randint(1, 5) for _ in range(rng.randint(1, 9)))
        des, plat, asc = C.stats(w)
        assert des + plat + asc == len(w) - 1


def test_runs_examples():
    w = (1, 1, 3, 5, 5, 5, 4, 1, 4)
    asc = C.runs(w, C.ASCENDING)
    assert asc.runs == ((1,), (1, 3, 5), (5,), (5,), (4,), (1, 4))
    lev = C.runs(w, C.LEVEL)
    assert lev.runs == ((1, 1), (3,), (5, 5, 5), (4,), (1,), (4,))
    des = C.runs(w, C.DESCENDING)
    assert des.runs == ((1,), (1,), (3,), (5,), (5,), (5, 4, 1), (4,))
    assert C.runs((1, 2, 5), C.ASCENDING).count == 1


def test_records_keep_fields_and_are_immutable():
    rd = C.runs((1, 2, 2, 1), C.ASCENDING)
    assert (rd.kind, rd.runs, rd.lengths, rd.count) == (
        C.ASCENDING, ((1, 2), (2,), (1,)), (2, 1, 1), 3)
    rep = C.vanishing_checks(o("3|4|2|1"), o("1,2,3|4"))
    assert (rep.value, rep.zero_criterion_applies,
            rep.prime_criterion_applies, rep.consistent) == (0, True, False,
                                                             True)
    for record, field in ((rd, "kind"), (rd, "count"), (rep, "value"),
                          (rep, "consistent")):
        with pytest.raises(AttributeError):
            setattr(record, field, None)
    assert rd == C.runs((1, 2, 2, 1), C.ASCENDING)
    assert rep == C.vanishing_checks(o("3|4|2|1"), o("1,2,3|4"))
    assert hash(rep) == hash(C.vanishing_checks(o("3|4|2|1"), o("1,2,3|4")))


def test_run_counts_match_stats():
    import random
    rng = random.Random(4)
    for _ in range(100):
        w = tuple(rng.randint(1, 4) for _ in range(rng.randint(1, 8)))
        des, plat, asc = C.stats(w)
        s = len(w)
        assert C.runs(w, C.ASCENDING).count == s - asc
        assert C.runs(w, C.DESCENDING).count == s - des
        assert C.runs(w, C.LEVEL).count == s - plat


def test_relative_word():
    tau = P.OrderedSetPartition(10, [[3], [6], [1, 4], [7], [10], [5, 8], [9], [2]])
    eta = P.OrderedSetPartition(10, [[5, 8], [9, 10], [3, 6], [1, 2, 4], [7]])
    assert C.relative_word(tau, eta) == (3, 3, 4, 5, 2, 1, 2, 4)
    e = o("2,4|3,5|1")
    assert C.relative_word(e, e) == (1, 2, 3)
    assert C.relative_word(P.OrderedSetPartition.singletons(3),
                           P.OrderedSetPartition.one_block(3)) == (1, 1, 1)
    with pytest.raises(ValueError):
        C.relative_word(o("1,3|2"), o("1,2|3"))


def test_stirling_eulerian():
    assert C.stirling2(4, 2) == 7
    assert C.stirling2(5, 5) == 1 and C.stirling2(5, 0) == 0
    assert C.eulerian_poly(1) == (1,)
    assert C.eulerian_poly(2) == (1, 2)
    assert C.eulerian_poly(3) == (1, 6, 6)
    for q in range(1, 9):
        assert C.eulerian_poly(q)[0] == 1


def test_integration():
    assert C.integrate_monomial(0, 1) == F(1, 2)
    assert C.integrate_monomial(1, 1) == F(-1, 6)
    assert C.integrate_unit((0, 1, 2)) == F(1, 6)      # x(2x+1)
    # the monomial rule agrees with expanding (1+x)^b
    landing = C.poly_mul((0, 1), (1, 2, 1))            # x (1+x)^2
    assert C.integrate_unit(landing) == C.integrate_monomial(1, 2)


def test_integrate_unit_matches_per_term_sum():
    import random
    rng = random.Random(5)
    for length in range(12):
        coeffs = tuple(rng.randint(-9, 9) for _ in range(length))
        value = C.integrate_unit(coeffs)
        assert type(value) is F
        assert value == sum(F(c * (-1) ** k, k + 1)
                            for k, c in enumerate(coeffs))


def _goldberg_run_by_run(rw):
    """The Goldberg integral as first written: x^des (1+x)^asc and one
    P_q per level run multiplied out, then a Fraction per coefficient."""
    des, _, asc = C.stats(rw)
    poly = (0,) * des + (1,)
    for _ in range(asc):
        poly = C.poly_mul(poly, (1, 1))
    denom = 1
    for q in C.runs(rw, C.LEVEL).lengths:
        poly = C.poly_mul(poly, C.eulerian_poly(q))
        denom *= factorial(q)
    total = F(0)
    for k, c in enumerate(poly):
        total += F(c * (-1) ** k, k + 1)
    return total / denom


def test_goldberg_integral_is_cached_by_word_statistics():
    C.goldberg_from_stats.cache_clear()
    signatures = set()
    for n in range(1, 8):
        for rw in itertools.product((1, 2, 3), repeat=n):
            value = C.goldberg_from_word(rw)
            assert type(value) is F
            assert value == _goldberg_run_by_run(rw), rw
            des, _, asc = C.stats(rw)
            signatures.add(
                (des, asc, tuple(sorted(C.runs(rw, C.LEVEL).lengths))))
    info = C.goldberg_from_stats.cache_info()
    assert info.currsize == info.misses == len(signatures) < 3 ** 7
    with pytest.raises(ValueError):
        C.goldberg_from_word(())


# ---------------------------------------------------------------------------
# Weisner / Goldberg values
# ---------------------------------------------------------------------------

def test_weisner_worked_values():
    assert C.weisner(o("12"), o("12")) == F(1, 2)
    assert C.weisner(o("21"), o("12")) == F(-1, 2)
    assert C.weisner(o("12"), o("21")) == F(-1, 2)
    assert C.weisner(o("21"), o("21")) == F(1, 2)
    assert C.weisner(o("112"), o("112")) == F(1, 2)
    assert C.weisner(o("221"), o("112")) == F(-1, 2)
    assert C.weisner(o("123"), o("112")) == F(-1, 6)
    assert C.weisner(o("231"), o("112")) == F(1, 3)


def test_goldberg_worked_values():
    assert C.goldberg(o("12"), o("12")) == F(1, 2)
    assert C.goldberg(o("21"), o("12")) == F(-1, 2)
    assert C.goldberg(o("12"), o("21")) == F(-1, 2)
    assert C.goldberg(o("21"), o("21")) == F(1, 2)
    assert C.goldberg(o("112"), o("112")) == F(1, 2)
    assert C.goldberg(o("221"), o("112")) == F(-1, 2)
    assert C.goldberg(o("123"), o("112")) == F(1, 12)
    assert C.goldberg(o("132"), o("112")) == F(-1, 6)
    assert C.goldberg(o("231"), o("112")) == F(1, 12)


def test_goldberg_explicit_zero():
    tau = P.OrderedSetPartition(4, [[3], [4], [2], [1]])
    eta = P.OrderedSetPartition(4, [[1, 2, 3], [4]])
    assert C.goldberg(tau, eta) == 0
    assert C.goldberg_oracle(tau, eta) == 0


def test_incompatible_pairs_give_zero():
    assert C.weisner(o("1,3|2"), o("1,2|3")) == 0
    assert C.goldberg(o("1,3|2"), o("1,2|3")) == 0
    assert C.weisner_oracle(o("1,3|2"), o("1,2|3")) == 0


def test_degenerate_single_block():
    one = P.OrderedSetPartition.one_block(3)
    assert C.weisner(one, one) == 1
    assert C.goldberg(one, one) == 1


def test_weisner_integral_route():
    for n in (2, 3, 4):
        for eta in P.enumerate_partitions(n):
            for tau in P.enumerate_partitions(n):
                assert C.weisner(tau, eta) == C.weisner_via_integral(tau, eta)


def test_closed_forms_check_ground_sets():
    for fn in (C.weisner, C.weisner_via_integral, C.goldberg,
               C.relative_word):
        for tau, eta in ((o("12"), o("111")), (o("111"), o("12"))):
            with pytest.raises(ValueError):
                fn(tau, eta)


def test_weisner_matches_oracle_n3():
    for n in (1, 2, 3):
        wt = C.weisner_oracle_table(n)
        gt = C.goldberg_oracle_table(n)
        for eta in P.enumerate_partitions(n):
            for tau in P.enumerate_partitions(n):
                assert C.weisner(tau, eta) == wt[eta.word].get(tau.word, 0)
                assert C.goldberg(tau, eta) == gt[eta.word].get(tau.word, 0)
                assert C.weisner_oracle(tau, eta) == C.weisner(tau, eta)
                assert C.goldberg_oracle(tau, eta) == C.goldberg(tau, eta)


def test_oracle_tables_match_per_pair_oracles():
    # the tables sum scaled integers and divide once per entry; each entry
    # must equal the definition-level sum for its pair, as a Fraction
    for n in (1, 2, 3, 4):
        elems = {pi.word: pi for pi in P.enumerate_partitions(n)}
        wt = C.weisner_oracle_table(n)
        gt = C.goldberg_oracle_table(n)
        assert set(wt) == set(gt) == set(elems)
        for table, oracle in ((wt, C.weisner_oracle), (gt, C.goldberg_oracle)):
            for eta, row in table.items():
                for tau, val in row.items():
                    assert type(val) is F and val != 0
                    assert val == oracle(elems[tau], elems[eta]), (tau, eta)
                if n <= 3:  # and every omitted pair is a zero
                    for tau in elems.keys() - row.keys():
                        assert oracle(elems[tau], elems[eta]) == 0


def test_oracle_tables_share_one_weisner_sweep():
    # both tables read the cached sweep of their n: one miss, and the
    # sweep they read is left as a cold sweep makes it
    from ospart._kernels import _pure
    sweep = _pure._weisner_scaled
    for n in (3, 4):
        sweep.cache_clear()
        wt = C.weisner_oracle_table(n)
        gt = C.goldberg_oracle_table(n)
        info = sweep.cache_info()
        assert (info.misses, info.hits) == (1, 1)
        read = sweep(n)
        sweep.cache_clear()
        assert sweep(n) == read
        # the other order, from a cold cache, gives the same tables
        sweep.cache_clear()
        assert C.goldberg_oracle_table(n) == gt
        assert C.weisner_oracle_table(n) == wt
        assert sweep.cache_info().misses == 1


def test_weisner_sweep_runs_once_per_block_size_composition(monkeypatch):
    # only the representative eta = 1...1 2...2 ... of each of the 2^(n-1)
    # block-size compositions is swept over OP_n; every other row is carried
    # by a position permutation and must equal a plain sweep for its own eta
    from ospart import _kernels as K
    from ospart._kernels import _pure
    meet = _pure.quasi_meet
    calls = []

    def counted_meet(u, v):
        calls.append(v)
        return meet(u, v)

    monkeypatch.setattr(_pure, "quasi_meet", counted_meet)
    for n in (3, 4):
        _pure._weisner_scaled.cache_clear()
        calls.clear()
        _pure._weisner_scaled(n)
        assert len(calls) == 2 ** (n - 1) * K.fubini(n)
        assert len(set(calls)) == 2 ** (n - 1)
        assert all(v == tuple(sorted(v)) for v in calls)
    monkeypatch.undo()
    _pure._weisner_scaled.cache_clear()

    for n in (1, 2, 3, 4):
        words = K.osp_words(n)
        plain = {}
        for eta in words:
            row = {}
            for sig in words:
                # quasi-meet: eta restricted to sigma's blocks, concatenated
                pairs = sorted(set(zip(sig, eta)))
                tau = tuple(pairs.index(pr) + 1 for pr in zip(sig, eta))
                p = max(sig)
                row[tau] = row.get(tau, 0) + F((-1) ** (p - 1), p)
            plain[eta] = {tau: x for tau, x in row.items() if x}
        assert C.weisner_oracle_table(n) == plain
        scale, table = _pure._weisner_scaled(n)
        assert table == {eta: {tau: x * scale for tau, x in row.items()}
                         for eta, row in plain.items()}


def test_oracle_bound_refusal():
    big_tau = P.OrderedSetPartition.singletons(7)
    big_eta = P.OrderedSetPartition.one_block(7)
    with pytest.raises(ValueError):
        C.weisner_oracle(big_tau, big_eta)
    with pytest.raises(ValueError):
        C.goldberg_oracle_table(7)
    # explicit override is allowed
    assert C.weisner_oracle(P.OrderedSetPartition.singletons(2),
                            P.OrderedSetPartition.one_block(2), bound=7) == F(-1, 2)


# ---------------------------------------------------------------------------
# relative coefficients over a third partition
# ---------------------------------------------------------------------------

def brute_weisner3(tau, eta, pi):
    from ospart import _kernels as K
    total = F(0)
    for w in K.osp_words(tau.n):
        if (K.quasi_meet(w, eta.word) == tau.word
                and K.leq_words(w, pi.word)):
            total += K.mu_tilde_words(w, pi.word)
    return total


def brute_goldberg3(tau, eta, pi):
    from ospart import _kernels as K
    total = F(0)
    for w in K.osp_words(tau.n):
        if K.leq_words(tau.word, w) and K.leq_words(w, pi.word):
            sigma = P.OrderedSetPartition._raw(tau.n, w)
            total += K.zeta_tilde_words(tau.word, w) * C.weisner3(sigma, eta, pi)
    return total


def test_weisner3_goldberg3_brute(full_mode):
    n = 4 if full_mode else 3
    elems = list(P.enumerate_partitions(n))
    for pi in elems:
        for eta in elems:
            for tau in elems:
                assert C.weisner3(tau, eta, pi) == brute_weisner3(tau, eta, pi)
                assert C.goldberg3(tau, eta, pi) == brute_goldberg3(tau, eta, pi)


def test_weisner3_top_is_weisner():
    for n in (2, 3):
        top = P.OrderedSetPartition.one_block(n)
        for eta in P.enumerate_partitions(n):
            for tau in P.enumerate_partitions(n):
                assert C.weisner3(tau, eta, top) == C.weisner(tau, eta)
                assert C.goldberg3(tau, eta, top) == C.goldberg(tau, eta)


# ---------------------------------------------------------------------------
# fiber structure
# ---------------------------------------------------------------------------

def test_sigma_max_asc_fibers():
    from ospart import _kernels as K
    for n in (2, 3, 4):
        for eta in P.enumerate_partitions(n):
            for tau in P.enumerate_partitions(n):
                try:
                    rw = C.relative_word(tau, eta)
                except ValueError:
                    continue
                smax = C.sigma_max_asc(tau, eta)
                fiber = sorted(w for w in K.osp_words(n)
                               if K.quasi_meet(w, eta.word) == tau.word)
                interval = sorted(x.word for x in P.interval_elements(tau, smax))
                assert fiber == interval
                assert len(fiber) == 2 ** C.stats(rw)[2]


def test_sigma_max_pla_fibers():
    from ospart import _kernels as K
    for n in (2, 3, 4):
        for eta in P.enumerate_partitions(n):
            for tau in P.enumerate_partitions(n):
                try:
                    rw = C.relative_word(tau, eta)
                except ValueError:
                    continue
                smax = C.sigma_max_pla(tau, eta)
                upset = sorted(
                    w for w in K.osp_words(n)
                    if K.leq_words(tau.word, w)
                    and P.OrderedSetPartition._raw(n, w).underlying().refines(
                        eta.underlying()))
                interval = sorted(x.word for x in P.interval_elements(tau, smax))
                assert upset == interval
                assert len(upset) == 2 ** C.stats(rw)[1]


def test_sigma_max_examples():
    t = P.OrderedSetPartition.singletons(2)
    assert C.sigma_max_asc(t, t) == P.OrderedSetPartition.one_block(2)
    # no ascents: the fiber is trivial
    tau = o("21")
    eta = o("12")
    assert C.sigma_max_asc(tau, eta) == tau
    # constant relative word merges everything in the level route
    one = P.OrderedSetPartition.one_block(3)
    assert C.sigma_max_pla(P.OrderedSetPartition.singletons(3), one) == one


# ---------------------------------------------------------------------------
# vanishing criteria
# ---------------------------------------------------------------------------

def test_vanishing_explicit_zero_report():
    tau = P.OrderedSetPartition(4, [[3], [4], [2], [1]])
    eta = P.OrderedSetPartition(4, [[1, 2, 3], [4]])
    rep = C.vanishing_checks(tau, eta)
    assert rep.value == 0
    # the relative word is (1,2,1,1): des = asc = 1 with four blocks, so the
    # even-block criterion applies here and correctly predicts the zero
    assert rep.zero_criterion_applies
    assert rep.consistent


def test_vanishing_prime_nontrivial_eta():
    # prime block count with eta below the top: always nonzero
    for n in (2, 3, 4):
        top = P.OrderedSetPartition.one_block(n)
        for eta in P.enumerate_partitions(n):
            if eta == top:
                continue
            for tau in P.enumerate_partitions(n):
                try:
                    C.relative_word(tau, eta)
                except ValueError:
                    continue
                if C._is_prime(len(tau)):
                    assert C.goldberg(tau, eta) != 0, (tau, eta)


def test_vanishing_prime_fails_only_at_top_eta():
    # with eta the one-block partition, g(tau, eta) = delta(tau, eta):
    # the prime criterion has counterexamples exactly there
    for n in (2, 3, 4):
        top = P.OrderedSetPartition.one_block(n)
        for tau in P.enumerate_partitions(n):
            expect = 1 if tau == top else 0
            assert C.goldberg(tau, top) == expect


def test_vanishing_checks_consistent_on_every_refinement():
    # the prime criterion needs eta below the top, so no report on valid
    # input is inconsistent
    for n in range(1, 6):
        top = P.OrderedSetPartition.one_block(n)
        for eta in P.enumerate_partitions(n):
            for tau in P.enumerate_partitions(n):
                try:
                    C.relative_word(tau, eta)
                except ValueError:
                    continue
                rep = C.vanishing_checks(tau, eta)
                assert rep.consistent, (tau, eta)
                if eta == top:
                    assert not rep.prime_criterion_applies
