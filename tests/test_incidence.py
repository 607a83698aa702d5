import itertools
import random
from fractions import Fraction as F
from math import comb, factorial, lcm, prod

import pytest

from ospart import _kernels as K
from ospart import incidence as I
from ospart import partitions as P
from ospart._kernels import _pure
from ospart.symbolic import Poly, scalar_symbol
from ospart.systems import _weight_rows

o = P.osp


def bottom(n):
    return P.OrderedSetPartition.singletons(n)


def top(n):
    return P.OrderedSetPartition.one_block(n)


def test_bracket_examples():
    assert I.bracket(bottom(3), top(3)) == 3
    assert I.bracket_factorial(bottom(3), top(3)) == 6
    for pi in P.enumerate_partitions(3):
        assert I.bracket(pi, pi) == 1
        assert I.bracket_factorial(pi, pi) == 1
    assert I.bracket(bottom(4), o("1,2|3,4")) == 4
    assert I.bracket_factorial(bottom(4), o("1,2|3,4")) == 4
    with pytest.raises(ValueError):
        I.bracket(o("132"), o("112"))


def test_bracket_on_set_partitions():
    s = P.SetPartition(4, [[1], [2], [3], [4]])
    p = P.SetPartition(4, [[1, 2], [3, 4]])
    assert I.bracket(s, p) == 4
    assert I.bracket_factorial(s, p) == 4
    assert I.mobius_sp(s, p) == 1
    assert I.mobius_sp(P.SetPartition(3, [[1], [2], [3]]),
                       P.SetPartition(3, [[1, 2, 3]])) == 2


def test_zeta_mu_values():
    assert I.zeta_tilde(bottom(3), top(3)) == F(1, 6)
    assert I.mu_tilde(bottom(3), top(3)) == F(1, 3)
    for n in (1, 2, 3, 4):
        assert I.zeta_tilde(bottom(n), top(n)) == F(1, 1) / F(
            1 * I.bracket_factorial(bottom(n), top(n)))
        assert I.mu_tilde(bottom(n), top(n)) == F((-1) ** (n - 1), n)
    for pi in P.enumerate_partitions(4):
        assert I.mu_tilde(pi, pi) == 1
        assert I.zeta_tilde(pi, pi) == 1


def test_mu_tilde_factorization():
    # mu~ = mu_SP(underlying) * zeta~
    for pi in P.enumerate_partitions(4):
        for sg in P.ideal_elements(pi):
            assert I.mu_tilde(sg, pi) == (
                I.mobius_sp(sg.underlying(), pi.underlying())
                * I.zeta_tilde(sg, pi))


def test_zeta_mu_match_word_kernels():
    # one copy of the closed forms: the partition-level values equal the
    # word-pair kernels on every comparable pair of OP_n
    for n in range(1, 5):
        for pi in P.enumerate_partitions(n):
            for sg in P.ideal_elements(pi):
                assert I.zeta_tilde(sg, pi) == K.zeta_tilde_words(
                    sg.word, pi.word), (sg, pi)
                assert I.mu_tilde(sg, pi) == K.mu_tilde_words(
                    sg.word, pi.word), (sg, pi)


def test_beta_examples():
    t = Poly.sym(scalar_symbol("t"))
    for n in (1, 2, 3, 4):
        assert I.beta(t, bottom(n), top(n)) == I.generalized_binomial(t, n)
    assert I.beta(1, bottom(2), top(2)) == 0
    assert I.beta(2, bottom(3), top(3)) == 0          # binom(2,3) = 0
    for pi in P.enumerate_partitions(3):
        assert I.beta(1, pi, pi) == 1
    assert I.beta(5, bottom(2), top(2)) == comb(5, 2)


def test_beta_vec_and_gamma():
    s_ = (2, 3, 2, 3)
    t_ = (3, 2, 3, 2)
    st = tuple(a * b for a, b in zip(s_, t_))
    gam = lambda sg, rh, pi: I.gamma_vec(s_, sg, rh, pi)
    bet = lambda rh, pi: I.beta_vec(t_, rh, pi)
    for n in (2, 3, 4):
        for pi in P.enumerate_partitions(n):
            for sg in P.ideal_elements(pi):
                assert (I.convolve_tri(gam, bet, sg, pi)
                        == I.beta_vec(st, sg, pi))


def test_gamma_vec_checks_ground_sets():
    # a 2-element sigma under a 3-element pi is not a chain
    with pytest.raises(ValueError):
        I.gamma_vec([2, 3], o("12"), o("11"), o("111"))


def test_gamma_quasi_multiplicative_object():
    gam = I.QuasiMultiplicativeFunction(lambda j, k: I.generalized_binomial(j + 1, k))
    pi = top(3)
    sg = bottom(3)
    total = sum(gam(sg, rho, pi) for rho in P.interval_elements(sg, pi))
    assert total != 0  # smoke: the chain evaluation is exercised


def test_convolution_unit():
    rng = random.Random(5)
    f = I.MultiplicativeFunction(lambda n: F(rng.randint(-5, 5), rng.randint(1, 4)))
    for n in (2, 3):
        for pi in P.enumerate_partitions(n):
            for sg in P.ideal_elements(pi):
                assert I.convolve(I.delta, f, sg, pi) == f(sg, pi)
                assert I.convolve(f, I.delta, sg, pi) == f(sg, pi)


def test_mobius_inversion_small():
    for n in (2, 3, 4):
        for pi in P.enumerate_partitions(n):
            for sg in P.ideal_elements(pi):
                expect = F(1) if sg == pi else F(0)
                assert I.convolve(I.mu_tilde_fn, I.zeta_tilde_fn, sg, pi) == expect
                assert I.convolve(I.zeta_tilde_fn, I.mu_tilde_fn, sg, pi) == expect


def test_beta_semigroup_values():
    b2 = lambda s, p: I.beta(2, s, p)
    b3 = lambda s, p: I.beta(3, s, p)
    for n in (1, 2, 3, 4):
        assert I.convolve(b2, b3, bottom(n), top(n)) == comb(6, n)


def test_beta_semigroup_symbolic():
    s = Poly.sym(scalar_symbol("s"))
    t = Poly.sym(scalar_symbol("t"))
    bs = lambda sg, pi: I.beta(s, sg, pi)
    bt = lambda sg, pi: I.beta(t, sg, pi)
    for n in (2, 3):
        for pi in P.enumerate_partitions(n):
            for sg in P.ideal_elements(pi):
                assert I.convolve(bs, bt, sg, pi) == I.beta(s * t, sg, pi)


def test_lift_convolution():
    rng = random.Random(11)
    fseq = [F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(5)]
    gseq = [F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(5)]
    f = I.MultiplicativeFunction(lambda n: fseq[n - 1])
    g = I.MultiplicativeFunction(lambda n: gseq[n - 1])
    lifted = f.lift()
    for n in (2, 3, 4):
        for pi in P.enumerate_partitions(n):
            for sg in P.ideal_elements(pi):
                assert (I.convolve_tri(lifted, g, sg, pi)
                        == I.convolve(f, g, sg, pi))


def test_convolve_tri_collapse():
    gam = I.QuasiMultiplicativeFunction(lambda j, k: F(j, k))
    g = I.zeta_tilde_fn
    pi = o("121")
    assert I.convolve_tri(gam, g, pi, pi) == gam(pi, pi, pi) * g(pi, pi)


def test_series_examples():
    zz = I.gen_series(I.zeta_tilde_fn, 4)
    zm = I.gen_series(I.mu_tilde_fn, 4)
    assert zz.coeffs == (F(1), F(1, 2), F(1, 6), F(1, 24))
    assert zm.coeffs == (F(1), F(-1, 2), F(1, 3), F(-1, 4))
    ident = I.compose(I.gen_series(I.mu_tilde_fn, 6), I.gen_series(I.zeta_tilde_fn, 6))
    assert ident.coeffs == (F(1), 0, 0, 0, 0, 0)
    ident2 = I.compose(I.gen_series(I.zeta_tilde_fn, 6), I.gen_series(I.mu_tilde_fn, 6))
    assert ident2.coeffs == (F(1), 0, 0, 0, 0, 0)
    assert str(I.gen_series(I.mu_tilde_fn, 2)) == "1*z + -1/2*z^2"


def test_faa_di_bruno_random_sequences():
    # compose runs the series kernel on one-letter words; the convolution
    # of the defining sequences is its oracle.  Orders 1..8, outer and
    # inner series of unequal orders, and zeros among the inner
    # coefficients, which the kernel must skip without losing a power
    rng = random.Random(7)
    cases = [(6, 6, False)] * 5 + [(order, order, False)
                                   for order in range(1, 9)]
    cases += [(3, 5, True), (7, 4, True), (8, 2, False), (2, 8, True),
              (8, 8, True), (1, 6, True), (5, 1, False)]
    for order_g, order_f, zeros in cases:
        fseq = [F(rng.randint(-6, 6), rng.randint(1, 5))
                for _ in range(order_f)]
        gseq = [F(rng.randint(-6, 6), rng.randint(1, 5))
                for _ in range(order_g)]
        if zeros:
            fseq[0] = 0
            fseq[rng.randrange(order_f)] = 0
        f = I.MultiplicativeFunction(lambda n: fseq[n - 1])
        g = I.MultiplicativeFunction(lambda n: gseq[n - 1])
        comp = I.compose(I.gen_series(g, order_g), I.gen_series(f, order_f))
        assert comp.order == min(order_g, order_f)
        assert all(type(x) is F for x in comp.coeffs)
        for n in range(1, comp.order + 1):
            assert I.convolution_sequence(f, g, n) == comp[n]


def test_tri_convolution_is_adapted():
    # quasi-multiplicative (x) adapted lands in the adapted class: the value
    # depends only on the interval type
    rng = random.Random(99)
    arr = {}
    fam = {}

    def array(j, k):
        return arr.setdefault((j, k), F(rng.randint(-4, 4), rng.randint(1, 3)))

    def family(t):
        return fam.setdefault(t, F(rng.randint(-4, 4), rng.randint(1, 3)))

    f = I.QuasiMultiplicativeFunction(array)
    g = I.AdaptedFunction(family)
    by_type = {}
    count = 0
    for n in (3, 4, 5):
        pis = list(P.enumerate_partitions(n))
        while count < (17 * n):
            pi = rng.choice(pis)
            sg = rng.choice(list(P.ideal_elements(pi)))
            t = P.interval_type(sg, pi)
            v = I.convolve_tri(f, g, sg, pi)
            if t in by_type:
                assert by_type[t] == v, t
            else:
                by_type[t] = v
            count += 1


def test_adaptedness_on_random_pairs():
    rng = random.Random(20240810)
    fns = {
        "zeta": I.zeta_tilde,
        "mu": I.mu_tilde,
        "beta3": lambda s, p: I.beta(3, s, p),
    }
    by_type = {}
    pairs = []
    for n in (3, 4, 5):
        pis = list(P.enumerate_partitions(n))
        while sum(1 for q in pairs if q[0].n == n) < 50:
            pi = rng.choice(pis)
            sg = rng.choice(list(P.ideal_elements(pi)))
            pairs.append((sg, pi))
    for sg, pi in pairs:
        t = P.interval_type(sg, pi)
        for name, fn in fns.items():
            v = fn(sg, pi)
            key = (name, t)
            if key in by_type:
                assert by_type[key] == v, key
            else:
                by_type[key] = v


# ---------------------------------------------------------------------------
# the typed interval stream behind the mu~*zeta~ and beta scans
# ---------------------------------------------------------------------------

def _comparable_pairs(n_max):
    """(n, u, v, type(u, v)) for every u <= v, from the typed ideal."""
    for n in range(1, n_max + 1):
        for v in K.osp_words(n):
            for u, t in zip(*K.typed_ideal(v)):
                yield n, u, v, t


def test_typed_interval_matches_definitions():
    # the walk yields type(u, rho) and type(rho, v) from type(u, v) alone,
    # row for row in the order of interval_words
    for n, u, v, t in _comparable_pairs(5):
        rows = list(_pure._interval_types(t))
        rhos = K.interval_words(u, v)
        assert len(rows) == len(rhos) == prod(2 ** (k - 1) for k in t)
        assert len(set(rhos)) == len(rhos)
        assert set(rhos) == {r for r in K.osp_words(n)
                             if K.leq_words(u, r) and K.leq_words(r, v)}
        for r, (t1, t2) in zip(rhos, rows):
            assert t1 == K.interval_type_words(u, r)
            assert t2 == K.interval_type_words(r, v)


def _drop_one(walk):
    def patched(t):
        return iter(list(walk(t))[:-1])
    return patched


def _perturb_one(walk):
    def patched(t):
        rows = list(walk(t))
        t1, t2 = rows[0]
        rows[0] = ((t1[0] + 1,) + t1[1:], t2)
        return iter(rows)
    return patched


@pytest.mark.parametrize("mutate", [_drop_one, _perturb_one])
def test_identity_scans_catch_a_broken_stream(monkeypatch, mutate):
    assert K.mu_zeta_identity(3) and K.beta_semigroup_identity(3, 2, 3)
    monkeypatch.setattr(_pure, "_interval_types",
                        mutate(_pure._interval_types))
    assert not K.mu_zeta_identity(3)
    assert not K.beta_semigroup_identity(3, 2, 3)


def test_identity_scans_read_types_from_the_stream_only(monkeypatch):
    def word_kernel(*args):
        raise AssertionError("a scan built a rho word or re-derived a type")

    for name in ("interval_words", "order_type"):
        monkeypatch.setattr(K, name, word_kernel)
        monkeypatch.setattr(_pure, name, word_kernel)
    assert K.mu_zeta_identity(4)
    assert K.beta_semigroup_identity(4, 2, 3)


def test_scaled_mu_zeta_values_match_word_values():
    seen = set()
    for _, u, v, t in _comparable_pairs(4):
        for r, (t1, t2) in zip(K.interval_words(u, v),
                               _pure._interval_types(t)):
            if (t1, t2) in seen:
                continue
            seen.add((t1, t2))
            scale = factorial(max(u)) ** 2
            mz = scale * K.mu_tilde_words(u, r) * K.zeta_tilde_words(r, v)
            zm = scale * K.zeta_tilde_words(u, r) * K.mu_tilde_words(r, v)
            assert mz.denominator == 1 and zm.denominator == 1
            assert _pure._mu_zeta_scaled(t1, t2) == (mz, zm)
            for x in (0, 1, 2, 5):
                assert _pure._beta_type(x, t1) == I.beta(x, o(u), o(r))
    # every (t1, t2) with t2 a composition of len(t1) is reached
    assert len(seen) == sum(len(K.compositions(len(t1)))
                            for m in range(1, 5) for t1 in K.compositions(m))


def test_identity_scans_keep_type_caches_small():
    # mu~ and zeta~ are cached by interval type, never by word pair: the
    # scans fill at most one entry per composition of m <= 5
    for fn in (K.mu_tilde_type, K.zeta_tilde_type, _pure._mu_zeta_scaled):
        fn.cache_clear()
    assert K.mu_zeta_identity(5)
    assert K.beta_semigroup_identity(5, 2, 3)
    bound = sum(len(K.compositions(m)) for m in range(1, 6))
    assert bound == 31
    for fn in (K.mu_tilde_type, K.zeta_tilde_type):
        assert 0 < fn.cache_info().currsize <= bound


def test_identity_scans_walk_each_interval_type_once_per_call(monkeypatch):
    # the sum over [u, v] depends on type(u, v) alone: each call reads the
    # types of every v in OP_5 (4,501 comparable pairs) from the rows of
    # v's block sizes, carries no u word to v through typed_ideal, walks
    # the stream once per distinct type, 2^5 - 1 of them, and keeps nothing
    # for the next call
    walks, rows, ideals = [], [], []
    walk, row, ideal = (_pure._interval_types, _pure._ideal_rows,
                        _pure.typed_ideal)

    def counted_walk(t):
        walks.append(t)
        return walk(t)

    def counted_rows(sizes):
        rows.append(sizes)
        return row(sizes)

    def counted_ideal(v):
        ideals.append(v)
        return ideal(v)

    monkeypatch.setattr(_pure, "_interval_types", counted_walk)
    monkeypatch.setattr(_pure, "_ideal_rows", counted_rows)
    monkeypatch.setattr(_pure, "typed_ideal", counted_ideal)
    assert sum(len(ideal(v)[1]) for v in K.osp_words(5)) == 4501
    for v in K.osp_words(5):
        assert row(_pure._block_sizes(v))[1] == ideal(v)[1], v
    for scan in (lambda: K.mu_zeta_identity(5),
                 lambda: K.beta_semigroup_identity(5, 3, 4)):
        for _ in range(2):
            walks.clear()
            rows.clear()
            ideals.clear()
            assert scan()
            assert len(walks) == len(set(walks)) == 2 ** 5 - 1
            assert rows == [_pure._block_sizes(v) for v in K.osp_words(5)]
            assert ideals == []


# ---------------------------------------------------------------------------
# the typed ideal stream behind the engines
# ---------------------------------------------------------------------------

def _ups(w):
    """Every v >= w by definition: v = f(w) for a weakly increasing map f
    from w's blocks onto 1..q, one for each set of cuts between them."""
    p = max(w)
    for q in range(1, p + 1):
        for cuts in itertools.combinations(range(1, p), q - 1):
            f = [0] + [1 + sum(c < a for c in cuts) for a in range(1, p + 1)]
            yield tuple(f[a] for a in w)


def test_typed_ideal_matches_definitions():
    for n in range(1, 7):
        words = K.osp_words(n)
        pairs = set()
        for v in words:
            ideal, types = K.typed_ideal(v)
            assert K.ideal_words(v) == ideal
            assert len(set(ideal)) == len(ideal) == len(types)
            if n <= 5:
                assert set(ideal) == {w for w in words if K.leq_words(w, v)}
            for w, t in zip(ideal, types):
                assert t == K.interval_type_words(w, v)
                pairs.add((w, v))
        # the filter above is 22 M order tests at n = 6; instead compare
        # every comparable pair with the pairs built from the order itself
        assert pairs == {(w, v) for w in words for v in _ups(w)}


def test_typed_ideal_builds_rows_once_per_block_sizes():
    # the rows are built once per block-size tuple and carried to each word
    # by its position permutation; the result is, tuple for tuple and in the
    # same order, the per-word construction written out here
    def per_word(v):
        order = sorted(range(len(v)), key=v.__getitem__)
        place = sorted(range(len(v)), key=order.__getitem__)
        rows = [((), (), 0)]
        for j in range(1, max(v) + 1):
            rows = [(c + tuple(x + off for x in w), t + (max(w),),
                     off + max(w))
                    for c, t, off in rows for w in K.osp_words(v.count(j))]
        return (tuple(tuple(c[i] for i in place) for c, _, _ in rows),
                tuple(t for _, t, _ in rows))

    _pure.typed_ideal.cache_clear()
    _pure._ideal_rows.cache_clear()
    sizes = set()
    for n in range(1, 6):
        for v in K.osp_words(n):
            sizes.add(tuple(v.count(b) for b in range(1, max(v) + 1)))
            assert K.typed_ideal(v) == per_word(v), v
    assert len(sizes) == 2 ** 5 - 1
    assert _pure._ideal_rows.cache_info().misses == len(sizes)
    # words of the same block sizes share one types tuple
    assert K.typed_ideal((2, 1, 1))[1] is K.typed_ideal((1, 1, 2))[1]


def test_scaled_ideal_weights_match_closed_forms():
    # systems._weight_rows is the one cleared weight table: (D, rows), the
    # i-th row (((), k),) with k / D the weight of the i-th sigma of
    # typed_ideal(v), and no smaller D makes every k an integer
    for n in range(1, 6):
        for v in K.osp_words(n):
            ideal, types = K.typed_ideal(v)
            for weight, by_words in ((K.mu_tilde_type, K.mu_tilde_words),
                                     (K.zeta_tilde_type, K.zeta_tilde_words)):
                d, rows = _weight_rows(weight, types)
                assert len(rows) == len(types), v
                ks = [k for ((mono, k),) in rows if mono == ()]
                assert len(ks) == len(rows), v
                assert all(type(k) is int for k in ks), v
                for w, t, k in zip(ideal, types, ks):
                    assert F(k, d) == weight(t) == by_words(w, v), (v, w)
                assert lcm(*(F(k, d).denominator for k in ks)) == d, v
                assert factorial(n) % d == 0, v
