import functools
import itertools
import operator
from fractions import Fraction as F
from math import comb, factorial, prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ospart import _kernels as K
from ospart import freelie as FL
from ospart.coefficients import weisner_from_word
from ospart.symbolic import Poly, add_into, scalar_symbol


def words_over(alphabet, length):
    return itertools.product(alphabet, repeat=length)


# ---------------------------------------------------------------------------
# the exact sparse sum behind Poly and NCPoly
# ---------------------------------------------------------------------------

_X, _Y = scalar_symbol("x"), scalar_symbol("y")
_KEYS = {
    Poly: [(), ((_X, 1),), ((_X, 2),), ((_X, 1), (_Y, 1)), ((_Y, 1),)],
    FL.NCPoly: [(), ("a",), ("b",), ("a", "b"), ("b", "a")],
}


@pytest.mark.parametrize("cls", [Poly, FL.NCPoly])
def test_sparse_sum_equality_and_hash(cls):
    zero, two = cls(), cls.const(2)
    assert not zero and zero == 0 and hash(zero) == hash(0)
    assert two and two == 2 and two == F(2) and hash(two) == hash(F(2))
    assert len({two, 2, F(2)}) == 1 and len({cls.const(1), 1}) == 1
    for foreign in (None, "x", object(), [two]):
        assert two != foreign and zero != foreign
    assert zero not in [None] and two not in [None, "x"]
    other_cls = FL.NCPoly if cls is Poly else Poly
    assert two != other_cls.const(2) and zero != other_cls()
    x = cls({_KEYS[cls][1]: F(1)})
    assert x + 1 == 1 + x and hash(x + 1) == hash(1 + x)
    assert x - x == 0 and not (x - x).terms and 1 - x == -(x - 1)


def _sparse_sums(cls):
    term = st.dictionaries(
        st.sampled_from(_KEYS[cls]),
        st.sampled_from([F(1), F(-1), F(1, 2), F(-1, 2), F(2)]), max_size=4)
    return st.lists(term.map(cls), max_size=6)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.data())
def test_sum_equals_left_fold(data):
    for cls in (Poly, FL.NCPoly):
        xs = data.draw(_sparse_sums(cls))
        # append negations so that partial sums cancel to zero
        picks = data.draw(st.lists(st.integers(0, max(len(xs) - 1, 0)),
                                   max_size=len(xs)))
        xs += [-xs[i] for i in picks if xs]
        before = [dict(x.terms) for x in xs]
        total = cls.sum(xs)
        assert total == functools.reduce(operator.add, xs, cls())
        assert type(total) is cls and all(total.terms.values())
        assert [x.terms for x in xs] == before
    assert Poly.sum([]) == 0 and not FL.NCPoly.sum(iter(()))


def test_add_into_never_stores_a_zero():
    assert add_into({}, [(("a",), F(0))]) == {}
    assert add_into({}, [((), 0)]) == {}
    out = add_into({}, [(("a",), F(1, 2)), (("b",), F(1))])
    assert add_into(out, [(("a",), F(-1, 2))]) is out and out == {("b",): 1}
    assert add_into(out, [(("b",), F(-1)), (("b",), F(0))]) == {}


def _small_ncpolys(alphabet="ab", max_length=3):
    words = st.lists(st.sampled_from(alphabet), max_size=max_length).map(tuple)
    coeffs = st.sampled_from([F(1), F(-1), F(1, 2), F(-1, 2), F(2), F(-3)])
    return st.dictionaries(words, coeffs, max_size=5).map(FL.NCPoly)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(_small_ncpolys(), _small_ncpolys(), st.integers(0, 6))
def test_products_never_hold_a_zero(x, y, order):
    prod = x * y
    assert all(prod.terms.values())
    expect = {}
    for (w1, c1), (w2, c2) in itertools.product(x.terms.items(),
                                                y.terms.items()):
        expect[w1 + w2] = expect.get(w1 + w2, 0) + c1 * c2
    assert prod.terms == {w: c for w, c in expect.items() if c}
    # (x + y)(x - y) = x^2 - xy + yx - y^2 makes cancellations likely
    for a, b in ((x, y), (x + y, x - y)):
        series = (FL.TruncatedNCSeries(a, order)
                  * FL.TruncatedNCSeries(b, order))
        assert all(series.poly.terms.values())
        assert series == FL.TruncatedNCSeries(a * b, order)


# ---------------------------------------------------------------------------
# projector
# ---------------------------------------------------------------------------

def _osp_projector_terms(n):
    """The projector's definition: every ordered set partition with p
    blocks, as its block-concatenated position order, weighs
    (-1)^(p-1)/p."""
    for w in K.osp_words(n):
        p = max(w)
        yield FL._block_order(w), F((-1) ** (p - 1), p)


def test_projector_terms_match_osp_sum():
    from math import factorial
    for n in range(1, 7):
        grouped = {}
        for order, coeff in _osp_projector_terms(n):
            grouped[order] = grouped.get(order, 0) + coeff
        table = dict(FL._projector_terms(n))
        assert len(table) == factorial(n) == len(FL._projector_terms(n))
        assert table == grouped, n


def test_projector_degree_one_and_two():
    assert FL.pi_projector(("a",)) == FL.NCPoly.word(("a",))
    pab = FL.pi_projector(("a", "b"))
    assert pab == FL.NCPoly({("a", "b"): F(1, 2), ("b", "a"): F(-1, 2)})
    with pytest.raises(ValueError):
        FL.pi_projector(())


def test_projector_degree_three_matches_cumulant_example():
    p3 = FL.pi_projector(("a", "b", "c"))
    third = F(1, 3)
    sixth = F(-1, 6)
    assert p3.terms[("a", "b", "c")] == third
    assert p3.terms[("c", "b", "a")] == third
    for w in (("a", "c", "b"), ("b", "a", "c"), ("b", "c", "a"), ("c", "a", "b")):
        assert p3.terms[w] == sixth


def test_projector_idempotent_words_up_to_5():
    letters = ("a", "b", "c")
    for n in range(1, 6):
        for w in words_over(letters, n):
            pw = FL.pi_projector(w)
            assert FL.pi_on_poly(pw) == pw, w


@settings(derandomize=True, max_examples=80, deadline=None)
@given(st.dictionaries(
    st.lists(st.sampled_from("abc"), max_size=5).map(tuple),
    st.sampled_from([F(1), F(-1), F(1, 2), F(-2, 3), F(5, 6), F(3), F(-7, 4)]),
    max_size=6))
@example({})
@example({(): F(1, 2), ("a", "a", "b", "c"): F(2, 3), ("c",): F(1, 5),
          ("b", "a"): F(-3, 4)})
def test_pi_on_poly_is_the_sum_of_word_projectors(terms):
    # mixed denominators, repeated letters and several degrees per
    # polynomial, the unit word and the zero polynomial included
    p = FL.NCPoly(terms)
    want = FL.NCPoly(add_into({}, [
        (u, c * cu) for w, c in p.terms.items() if w
        for u, cu in FL.pi_projector(w).terms.items()]))
    got = FL.pi_on_poly(p)
    assert got == want, terms
    assert all(type(c) is int or (type(c) is F and c.denominator > 1)
               for c in got.terms.values()), terms


def test_projector_convolution_oracle():
    for w in [("a",), ("a", "b"), ("a", "a"), ("a", "b", "c"), ("a", "b", "a"),
              ("a", "a", "b"), ("a", "b", "c", "d"), ("a", "b", "a", "b"),
              ("a", "a", "b", "b"), ("b", "a", "a", "c")]:
        assert FL.pi_convolution_oracle(w) == FL.pi_projector(w), w


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.lists(st.sampled_from("abc"), min_size=1, max_size=5))
def test_projector_convolution_oracle_random_words(w):
    assert FL.pi_projector(w) == FL.pi_convolution_oracle(w)


def test_coproduct_examples():
    d2a = FL.coproduct_k(("a",), 2)
    assert d2a == {(("a",), ()): 1, ((), ("a",)): 1}
    d2ab = FL.coproduct_k(("a", "b"), 2)
    assert d2ab == {(("a", "b"), ()): 1, (("a",), ("b",)): 1,
                    (("b",), ("a",)): 1, ((), ("a", "b")): 1}
    for n, k in ((1, 2), (2, 3), (3, 2)):
        total = sum(FL.coproduct_k(tuple("xyz"[:n]), k).values())
        assert total == k ** n


def test_coproduct_is_the_slot_word_sum():
    # each letter picks one of k slots: the letters are primitive, so the
    # k-fold coproduct is the product over the letters of the sums of the
    # letter in each slot, and splitting the first factor of the
    # (k-1)-fold one in two gives it (coassociativity)
    for letters in ("", "a", "ab", "aba", "abca", "abcab"):
        for k in range(1, 5):
            fold = {((),) * k: 1}
            for a in letters:
                fold = add_into({}, ((key[:i] + (key[i] + (a,),) + key[i + 1:],
                                      c) for key, c in fold.items()
                                     for i in range(k)))
            got = FL.coproduct_k(letters, k)
            assert got == fold and sum(got.values()) == k ** len(letters)
            assert {type(c) for c in got.values()} == {F}, (letters, k)
            if k > 1:
                assert got == add_into({}, (
                    (head + key[1:], c * h)
                    for key, c in FL.coproduct_k(letters, k - 1).items()
                    for head, h in FL.coproduct_k(key[0], 2).items()))


# ---------------------------------------------------------------------------
# graded pieces and the dilation identity
# ---------------------------------------------------------------------------

def test_pi_k_identities():
    for letters in [("a", "b"), ("a", "b", "c"), ("a", "a", "b"),
                    ("a", "b", "a", "c")]:
        n = len(letters)
        assert FL.pi_k(letters, 1) == FL.pi_projector(letters)
        total = FL.NCPoly()
        for k in range(1, n + 1):
            total = total + FL.pi_k(letters, k)
        assert total == FL.NCPoly.word(letters), letters
        with pytest.raises(ValueError):
            FL.pi_k(letters, n + 1)
        # the type is checked before the range: a bool or a float is
        # refused, not read as an index
        for bad in (1.0, True, False, F(1), float(n + 1), "1", None):
            with pytest.raises(TypeError, match="k must be an int"):
                FL.pi_k(letters, bad)


def _pi_k_oracle(letters):
    """{k: pi_k} by the definition: (1/k!) sum over the ordered set
    partitions pi with k blocks of the product, block by block, of the
    projectors of the letters in each block."""
    letters = tuple(letters)
    pieces = {}
    for w in K.osp_words(len(letters)):
        term = FL.NCPoly.one()
        for b in range(1, max(w) + 1):
            blk = tuple(letters[i] for i, x in enumerate(w) if x == b)
            term = term * FL.pi_projector(blk)
        pieces.setdefault(max(w), []).append(term)
    return {k: FL.NCPoly.sum(terms).scale(F(1, factorial(k)))
            for k, terms in pieces.items()}


def test_pi_k_table_matches_block_products():
    for letters in ("a", "ab", "abc", "abcd", "abcde", "abcdef",
                    "aa", "aba", "abab", "aabca", "abacba"):
        oracle = _pi_k_oracle(letters)
        assert sorted(oracle) == list(range(1, len(letters) + 1))
        for k, expect in oracle.items():
            assert FL.pi_k(letters, k) == expect, (letters, k)


def test_pi_k_adds_integer_weights_per_word():
    # the oracle adds the table's Fraction coefficients, one per
    # permutation, onto the rearranged words
    for letters in ("aaaabbb", "aabb", "abab", "abcab", "aaa", "abcd", "a"):
        n = len(letters)
        for k in range(1, n + 1):
            table = FL._projector_terms(n, k)
            scale, rows = FL._projector_rows(n, k)
            assert [F(x, scale) for _, x in rows] == [c for _, c in table]
            assert [take(tuple(range(n))) for take, _ in rows] == [
                order for order, _ in table]
            want = FL.NCPoly(add_into({}, [
                (tuple(letters[i] for i in order), coeff)
                for order, coeff in table]))
            got = FL.pi_k(letters, k)
            assert got == want, (letters, k)
            assert all(type(c) is (int if F(c).denominator == 1 else F)
                       for c in got.terms.values()), (letters, k)


def test_projector_table_is_solomon_closed_form():
    for n in range(1, 8):
        table = dict(FL._projector_terms(n))
        assert len(table) == factorial(n)
        for order in itertools.permutations(range(n)):
            d = sum(x > y for x, y in zip(order, order[1:]))
            assert table[order] == weisner_from_word(order), order
            assert table[order] == F((-1) ** d, n * comb(n - 1, d)), order


def test_pi_n_is_symmetrization():
    from math import factorial
    letters = ("a", "b", "c")
    got = FL.pi_k(letters, 3)
    expect = FL.NCPoly()
    for perm in itertools.permutations(letters):
        expect = expect + FL.NCPoly.word(perm, F(1, factorial(3)))
    assert got == expect


def test_dilation_identity(full_mode):
    cases = [("a", "b"), ("a", "b", "c"), ("a", "a", "b"), ("a", "b", "a", "c")]
    if full_mode:
        cases.append(("a", "b", "c", "d", "e"))
    for letters in cases:
        n = len(letters)
        coeffs = FL.dilation_coefficients(letters)
        assert len(coeffs) == n
        for k in range(1, n + 1):
            assert coeffs[k - 1] == FL.pi_k(letters, k), (letters, k)
    for empty in ("", ()):
        with pytest.raises(ValueError, match="empty word"):
            FL.dilation_coefficients(empty)


def test_phi_word_partition_checks_its_word():
    assert FL.phi_word_partition(("a", "b"), (2, 1)) == FL.NCPoly.word("ba")
    for letters, word in ((("a", "b"), (1,)), (("a",), (1, 2)),
                          (("a", "b", "c"), (1, 3, 3))):
        with pytest.raises(ValueError):
            FL.phi_word_partition(letters, word)


def test_shuffle_moment_is_kernel_ordered():
    got = FL.shuffle_moment(("X1", "X2", "X3", "X4", "X5"), (5, 2, 3, 2, 3))
    assert got == FL.NCPoly.word(("X2", "X4", "X3", "X5", "X1"))


def test_shuffle_invariant_under_canonical_interval_coarsening():
    # quasi-meeting with an interval partition in canonical order leaves
    # every block-ordered concatenation unchanged (n <= 4, exhaustive)
    from ospart import _kernels as K
    from ospart.partitions import OrderedSetPartition

    for n in (2, 3, 4):
        letters = tuple("abcd"[:n])
        etas = []
        for mask in range(2 ** (n - 1)):
            blocks = [[1]]
            for x in range(2, n + 1):
                if mask >> (x - 2) & 1:
                    blocks.append([x])
                else:
                    blocks[-1].append(x)
            etas.append(OrderedSetPartition(n, blocks))
        for w in K.osp_words(n):
            for eta in etas:
                qm = K.quasi_meet(w, eta.word)
                assert (FL.phi_word_partition(letters, qm)
                        == FL.phi_word_partition(letters, w)), (w, eta)


# ---------------------------------------------------------------------------
# truncated series
# ---------------------------------------------------------------------------

def test_exp_log_roundtrip():
    a = FL.TruncatedNCSeries.letter("a", 6)
    assert FL.log_trunc(FL.exp_trunc(a)) == a
    na = FL.TruncatedNCSeries(FL.NCPoly.word(("a",), -1), 6)
    assert FL.exp_trunc(a) * FL.exp_trunc(na) == FL.TruncatedNCSeries.one(6)
    with pytest.raises(ValueError):
        FL.exp_trunc(FL.TruncatedNCSeries.one(4))
    with pytest.raises(ValueError):
        FL.log_trunc(FL.TruncatedNCSeries.letter("a", 4))


def test_inverse():
    a = FL.TruncatedNCSeries.letter("a", 5)
    b = FL.TruncatedNCSeries.letter("b", 5)
    u = FL.exp_trunc(a) * FL.exp_trunc(b)
    assert u * FL.inv_trunc(u) == FL.TruncatedNCSeries.one(5)


def test_log_product_degree_two():
    a = FL.TruncatedNCSeries.letter("a", 4)
    b = FL.TruncatedNCSeries.letter("b", 4)
    h = FL.log_trunc(FL.exp_trunc(a) * FL.exp_trunc(b))
    assert h.degree_part(2) == FL.NCPoly({("a", "b"): F(1, 2),
                                          ("b", "a"): F(-1, 2)})


def test_series_reflected_operators():
    a = FL.TruncatedNCSeries.letter("a", 3)
    one = FL.TruncatedNCSeries.one(3)
    assert 1 + a == a + 1 == one + a
    assert F(1, 2) + a == a + F(1, 2)
    assert 1 - a == one - a == -(a - 1)
    assert 2 * a == a * 2 == a + a
    assert F(1, 2) * a == a * F(1, 2)
    assert (F(1, 2) * a).coefficient("a") == F(1, 2)
    for bad in ("x", None, 1.5):
        for op in (operator.add, operator.sub, operator.mul):
            with pytest.raises(TypeError):
                op(bad, a)


# the power loops that exp/log/inv replaced, over the untruncated NCPoly
# product: the oracles of the integer series kernel

def _truncate(x, order):
    return FL.TruncatedNCSeries(x, order)


def _power_sum(x, coeffs):
    out = _truncate(FL.NCPoly.const(coeffs[0]), x.order)
    power = FL.TruncatedNCSeries.one(x.order)
    for k in range(1, x.order + 1):
        power = _truncate(power.poly * x.poly, x.order)
        out = out + power * F(coeffs[k])
    return out


def _exp_oracle(x):
    return _power_sum(x, [F(1, factorial(k)) for k in range(x.order + 1)])


def _log_oracle(u):
    return _power_sum(u - 1, [0] + [F((-1) ** (k - 1), k)
                                    for k in range(1, u.order + 1)])


def _inv_oracle(u):
    return _power_sum(u - 1, [(-1) ** k for k in range(u.order + 1)])


def _exact_types(series):
    return all(type(c) is int or (type(c) is F and c.denominator > 1)
               for c in series.poly.terms.values())


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.data())
def test_series_kernel_matches_power_loops(data):
    # mixed denominators and a shared alphabet: powers collide and cancel
    words = st.lists(st.sampled_from("ab"), min_size=1, max_size=3).map(tuple)
    coeffs = st.sampled_from([F(1, 2), F(1, 3), F(-3, 2), F(1), F(-2)])
    terms = data.draw(st.dictionaries(words, coeffs, max_size=4))
    order = data.draw(st.integers(0, 6))
    x = FL.TruncatedNCSeries(FL.NCPoly(terms), order)
    u = 1 + x
    e = FL.exp_trunc(x)
    assert e == _exp_oracle(x) and _exact_types(e)
    assert FL.log_trunc(u) == _log_oracle(u) and _exact_types(FL.log_trunc(u))
    inv = FL.inv_trunc(u)
    assert inv == _inv_oracle(u) and _exact_types(inv)
    assert FL.log_trunc(e) == x
    one = FL.TruncatedNCSeries.one(order)
    assert u * inv == one and inv * u == one


# ---------------------------------------------------------------------------
# CBH routes
# ---------------------------------------------------------------------------

def test_cbh_routes_agree_small():
    d = FL.cbh_direct("ab", 4)
    assert d == FL.cbh_cumulant("ab", 4)
    assert d == FL.cbh_goldberg("ab", 4)
    t = FL.cbh_direct("abc", 3)
    assert t == FL.cbh_cumulant("abc", 3)
    assert t == FL.cbh_goldberg("abc", 3)


def _multi_powers(n, order):
    return [p for p in itertools.product(range(order + 1), repeat=n)
            if 1 <= sum(p) <= order]


def _cumulant_definition(letters, order):
    """sum over multi-powers p of pi(a^p1 b^p2 ...) / (p1! p2! ...), each
    projector taken from the coproduct definition."""
    out = {}
    for powers in _multi_powers(len(letters), order):
        word = sum(((a,) * p for a, p in zip(letters, powers)), ())
        denom = prod(factorial(p) for p in powers)
        add_into(out, ((w, c / denom) for w, c in
                       FL.pi_convolution_oracle(word).terms.items()))
    return FL.NCPoly(out)


@pytest.mark.parametrize("letters, top", [("ab", 5), ("abc", 4)])
def test_cbh_cumulant_matches_coproduct_definition(letters, top):
    for order in range(1, top + 1):
        series = FL.cbh_cumulant(letters, order)
        assert series.poly == _cumulant_definition(letters, order)
        assert _exact_types(series)


def _compositions(m):
    """Every tuple of positive ints summing to m."""
    if m == 0:
        return [()]
    return [(p,) + rest for p in range(1, m + 1)
            for rest in _compositions(m - p)]


def test_run_rows_sum_the_table_per_image():
    for m in range(1, 7):
        for runs in _compositions(m):
            word = tuple(i for i, p in enumerate(runs) for _ in range(p))
            for k in range(1, m + 1):
                want = add_into({}, [(tuple(word[i] for i in order), coeff)
                                     for order, coeff
                                     in FL._projector_terms(m, k)])
                den, rows = FL._run_rows(runs, k)
                got = {take(range(len(runs))): F(wt, den)
                       for take, wt in rows}
                assert len(got) == len(rows), (runs, k)
                assert got == want, (runs, k)
    # one table per run composition of the multi-powers, however many
    # words share it
    letters, order = "abc", 5
    FL._run_rows.cache_clear()
    FL.cbh_cumulant(letters, order)
    runs = {tuple(p for p in powers if p)
            for powers in _multi_powers(len(letters), order)}
    info = FL._run_rows.cache_info()
    assert (info.misses, info.currsize) == (len(runs), len(runs))


def test_run_cache_holds_one_table_per_composition():
    # one word per set partition of 6 positions: 203 letter patterns, but
    # only the 32 compositions of 6 as run lengths
    words = {K.rgs_word(w) for w in itertools.product(range(6), repeat=6)}
    assert len(words) == 203
    FL._run_rows.cache_clear()
    for w in words:
        FL.pi_on_poly(FL.NCPoly.word(["abcdef"[i - 1] for i in w]))
    assert FL._run_rows.cache_info().currsize <= len(_compositions(6)) == 32


def _per_permutation(terms, k=1):
    """The k-th piece of {word: coefficient}: each word adds, per order of
    the (len, k) table, its coefficient times the order's to the word
    rearranged by that order."""
    out = add_into({}, [(tuple(w[i] for i in order), c * coeff)
                        for w, c in terms.items() if w
                        for order, coeff in FL._projector_terms(len(w), k)])
    return {w: c.numerator if c.denominator == 1 else c
            for w, c in out.items()}


def _same_terms(got, want):
    return got.terms == want and all(
        type(c) is type(want[w]) for w, c in got.terms.items())


_WORDS = st.sampled_from(["a", "ab", "abc"]).flatmap(
    lambda alphabet: st.lists(st.sampled_from(alphabet), min_size=1,
                              max_size=6).map(tuple))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(_WORDS)
@example(tuple("abab"))
@example(tuple("aabca"))
@example(tuple("aaaaaa"))
@example(tuple("abbbca"))
def test_pi_k_matches_per_permutation_sum(word):
    # runs, non-run repeats and distinct letters: the run tables agree
    # with the sum over every permutation of the table
    for k in range(1, len(word) + 1):
        assert _same_terms(FL.pi_k(word, k),
                           _per_permutation({word: 1}, k)), (word, k)


@settings(derandomize=True, max_examples=80, deadline=None)
@given(st.dictionaries(
    _WORDS, st.sampled_from([F(1), F(-1), F(1, 2), F(-2, 3), F(5, 6), 3,
                             F(-7, 4), -2]), max_size=5))
@example({tuple("abab"): F(1, 2), tuple("aabca"): 3, tuple("aab"): F(-2, 3)})
@example({tuple("aaa"): 1, tuple("a"): F(1, 3)})
def test_pi_on_poly_matches_per_permutation_sum(terms):
    assert _same_terms(FL.pi_on_poly(FL.NCPoly(terms)),
                       _per_permutation(terms)), terms


@pytest.mark.parametrize("count, order", [(60, 2), (12, 3)])
def test_cbh_routes_agree_on_many_letters(count, order):
    letters = tuple(f"x{i}" for i in range(count))
    d = FL.cbh_direct(letters, order)
    assert d == FL.cbh_cumulant(letters, order)
    assert d == FL.cbh_goldberg(letters, order)


@pytest.mark.parametrize("letters, top", [
    ("a", 5), ("ab", 6), ("abc", 4), (tuple(f"x{i}" for i in range(20)), 2)])
def test_cbh_direct_is_the_log_of_the_series_product(letters, top):
    # the integer prefix product against one TruncatedNCSeries product
    # per letter exponential, coefficient types included
    for order in range(1, top + 1):
        product = FL.TruncatedNCSeries.one(order)
        for a in letters:
            letter = FL.TruncatedNCSeries.letter(a, order)
            product = product * FL.exp_trunc(letter)
        series = FL.cbh_direct(letters, order)
        assert series.poly.terms == FL.log_trunc(product).poly.terms
        assert _exact_types(series)


def test_cbh_direct_equals_goldberg_degree_10():
    # Goldberg, Duke Math. J. 23 (1956): the closed-form coefficients
    # reproduce the series arithmetic for two letters to degree 10
    assert (FL.cbh_direct("ab", 10, cap=None)
            == FL.cbh_goldberg("ab", 10, cap=None))


def test_cbh_spot_coefficients():
    d = FL.cbh_direct("ab", 4)
    assert d.coefficient("a") == 1 and d.coefficient("b") == 1
    assert d.coefficient("ab") == F(1, 2)
    assert d.coefficient("ba") == F(-1, 2)
    assert d.coefficient("aab") == F(1, 12)
    assert d.coefficient("aba") == F(-1, 6)
    assert d.coefficient("aa") == 0


def test_cbh_degree_one():
    s = FL.cbh_direct("abc", 1)
    assert s.poly == (FL.NCPoly.word(("a",)) + FL.NCPoly.word(("b",))
                      + FL.NCPoly.word(("c",)))


def test_cbh_caps_and_validation():
    with pytest.raises(ValueError):
        FL.cbh_direct("ab", 8)
    assert FL.cbh_direct("a", 8, cap=None).coefficient("a") == 1
    with pytest.raises(ValueError):
        FL.cbh_direct("aa", 3)
    with pytest.raises(ValueError):
        FL.cbh_goldberg("", 3)
    for route in (FL.cbh_direct, FL.cbh_cumulant, FL.cbh_goldberg):
        for bad in (2.0, True, False, F(2), 0.5, "2", None):
            with pytest.raises(TypeError, match="order must be an int"):
                route("ab", bad)
            with pytest.raises(TypeError, match="order must be an int"):
                route("ab", bad, cap=None)
        with pytest.raises(ValueError):
            route("ab", 0)


def test_goldberg_word_coefficient_examples():
    assert FL.goldberg_word_coefficient([(1, 1), (2, 1)]) == F(1, 2)
    assert FL.goldberg_word_coefficient([(1, 2), (2, 1)]) == F(1, 12)
    assert FL.goldberg_word_coefficient([(1, 1), (2, 1), (1, 1)]) == F(-1, 6)
    with pytest.raises(ValueError):
        FL.goldberg_word_coefficient([(1, 1), (1, 2)])
    with pytest.raises(ValueError):
        FL.goldberg_word_coefficient([(1, 0)])


def test_antisymmetry_consequence():
    a = FL.TruncatedNCSeries.letter("a", 6)
    b = FL.TruncatedNCSeries.letter("b", 6)
    ea, eb = FL.exp_trunc(a), FL.exp_trunc(b)
    h = FL.log_trunc(ea * eb)
    inv_log = FL.log_trunc(FL.inv_trunc(eb * ea))
    swap = {"a": "b", "b": "a"}
    for n in range(1, 7):
        hn = h.degree_part(n)
        assert inv_log.degree_part(n) == hn.scale(F((-1) ** n)), n
        assert hn == hn.apply_to_letters(swap).scale(F((-1) ** (n + 1))), n


# ---------------------------------------------------------------------------
# Dynkin map
# ---------------------------------------------------------------------------

def test_dynkin_examples():
    assert FL.dynkin(FL.NCPoly.word(("a",))) == FL.NCPoly.word(("a",))
    pab = FL.pi_projector(("a", "b"))
    assert FL.dynkin(pab) == pab
    with pytest.raises(ValueError):
        FL.dynkin(FL.NCPoly.one())


def test_dynkin_fixes_projector_image():
    letters = ("a", "b", "c")
    for n in range(1, 6):
        for w in itertools.product(letters, repeat=n):
            pw = FL.pi_projector(w)
            assert FL.dynkin(pw) == pw, w


def test_dynkin_divides_int_coefficients_exactly():
    # words and their brackets carry int coefficients; dividing by the
    # degree must stay in the rationals
    assert FL.dynkin(FL.NCPoly.word("abc")).terms[tuple("abc")] == F(1, 3)
    a, b, c, d = (FL.NCPoly.word(x) for x in "abcd")

    def br(x, y):
        return x * y - y * x

    for lie in (br(a, br(b, c)), br(br(a, b), c), br(a, br(b, br(c, d))),
                br(br(a, b), br(c, d)), br(br(br(a, b), c), d)):
        got = FL.dynkin(lie)
        assert got == lie, lie
        assert {type(x) for x in got.terms.values()} <= {int, F}, lie


# ---------------------------------------------------------------------------
# shuffle cumulants
# ---------------------------------------------------------------------------

def test_nct_cumulant_on_letters_is_projector():
    for letters in ("abc", "abcd", "abcde"):
        elems = [FL.NCPoly.word((x,)) for x in letters]
        assert FL.nct_cumulant(elems) == FL.pi_projector(letters), letters


def _projector_fold(elements, terms=FL._projector_terms):
    """Left fold over an (order, coeff) table: every product from scratch."""
    total = None
    for order, coeff in terms(len(elements)):
        term = functools.reduce(operator.mul, [elements[i] for i in order])
        term = term * coeff
        total = term if total is None else total + term
    return total


@settings(derandomize=True, max_examples=40, deadline=None)
@given(st.data())
def test_nct_cumulant_matches_projector_fold(data):
    # a shared alphabet of two or three letters makes products collide
    # and cancel across the permutations
    alphabet = data.draw(st.sampled_from(["ab", "abc"]))
    n = data.draw(st.integers(1, 5))
    elements = data.draw(st.lists(_small_ncpolys(alphabet, 2),
                                  min_size=n, max_size=n))
    got = FL.nct_cumulant(elements)
    assert got == _projector_fold(elements)
    assert all(got.terms.values())


def test_nct_cumulant_expands_mixed_denominators_with_collisions():
    x = FL.NCPoly({("a",): F(1, 2), ("a", "b"): F(-1, 3), ("b",): 2})
    y = FL.NCPoly({("b",): F(2, 3), ("a",): F(-3, 2)})
    z = FL.NCPoly({("a",): 1, ("b", "a"): F(1, 6)})
    elements = [x, y, x, z, y]
    got = FL.nct_cumulant(elements)
    assert got == _projector_fold(elements)
    assert got and all(got.terms.values())
    assert all(type(c) is int or (type(c) is F and c.denominator > 1)
               for c in got.terms.values())


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.data())
def test_nct_cumulant_with_colliding_elements_matches_projector_fold(data):
    # shared letters, constant terms and zero elements: products of
    # different permutations land on the same word, or on nothing
    n = data.draw(st.integers(2, 5))
    elements = data.draw(st.lists(st.dictionaries(
        st.lists(st.sampled_from("ab"), max_size=2).map(tuple),
        st.sampled_from([F(1), F(-1), F(1, 2), F(-3, 4), 2, -3]),
        max_size=3).map(FL.NCPoly), min_size=n, max_size=n))
    got = FL.nct_cumulant(elements)
    want = _projector_fold(elements)
    assert got == want, elements
    assert all(type(c) is (int if F(c).denominator == 1 else F) and c
               for c in got.terms.values()), elements


def test_nct_cumulant_of_constants_and_zero_vanishes():
    a, one = FL.NCPoly.word("a"), FL.NCPoly.one()
    # a constant commutes with everything: its cumulants with others vanish
    assert not FL.nct_cumulant([a, one, FL.NCPoly.word("b")])
    assert not FL.nct_cumulant([a, FL.NCPoly(), a])
    assert not FL.nct_cumulant([one, one])


_MIXED = [FL.NCPoly({("a",): F(2), ("a", "b"): F(-1, 3)}),
          FL.NCPoly({("b",): F(1, 2), ("b", "a"): 3}),
          FL.NCPoly({("a", "a"): -1, ("b",): F(2, 5)}),
          FL.NCPoly({("b", "b"): F(-1, 3), ("a",): 1})]


def test_nct_cumulant_single_element_and_projector_fold():
    assert FL.nct_cumulant(_MIXED[:1]) == _MIXED[0]
    got = FL.nct_cumulant(_MIXED)
    assert got == _projector_fold(_MIXED) and got


def test_nct_cumulant_matches_osp_fold():
    got = FL.nct_cumulant(_MIXED[1:])
    assert got == _projector_fold(_MIXED[1:], _osp_projector_terms) and got


def test_nct_cumulant_commutator():
    x, y = _MIXED[:2]
    assert FL.nct_cumulant([x, y]) == (x * y - y * x) * F(1, 2)
    # powers of one letter commute
    p = FL.NCPoly({("a",): 1, ("a", "a"): F(2, 3)})
    q = FL.NCPoly({("a", "a", "a"): F(-1, 2), ("a",): 3})
    assert not FL.nct_cumulant([p, q])


def test_nct_cumulant_takes_ncpoly_only():
    for bad in ([F(1)], [_MIXED[0], 2], [2, _MIXED[0]], [1, 2]):
        with pytest.raises(TypeError):
            FL.nct_cumulant(bad)
    with pytest.raises(ValueError):
        FL.nct_cumulant([])


def _split_image(poly, left):
    """poly under the ring map of the free algebra into free(left) (x)
    free(rest): each word goes to the pair (its letters in left, its other
    letters), each kept in order.  The two families commute in the image,
    and each stays noncommutative."""
    return add_into({}, [((tuple(x for x in w if x in left),
                           tuple(x for x in w if x not in left)), c)
                         for w, c in poly.terms.items()])


def test_nct_cumulant_vanishes_on_commuting_split():
    for n in range(2, 6):
        got = FL.nct_cumulant([FL.NCPoly.word((i,)) for i in range(n)])
        for size in range(1, n):
            for left in itertools.combinations(range(n), size):
                assert not _split_image(got, set(left)), (n, left)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(st.lists(st.booleans(), min_size=2, max_size=4).filter(
    lambda sides: len(set(sides)) == 2), st.data())
def test_nct_cumulant_vanishes_on_commuting_split_polys(sides, data):
    # elements over ab on one side of the split, over xy on the other
    elements = [data.draw(_small_ncpolys("ab" if s else "xy", 2))
                for s in sides]
    assert not _split_image(FL.nct_cumulant(elements), set("ab"))


def test_noncommuting_witness():
    # the empty split maps each word w to ((), w): the image stays nonzero
    got = FL.nct_cumulant([FL.NCPoly.word((i,)) for i in range(3)])
    assert got and _split_image(got, ()) == {((), w): c
                                             for w, c in got.terms.items()}
