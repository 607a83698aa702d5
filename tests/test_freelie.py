import functools
import itertools
import operator
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ospart import freelie as FL
from ospart.symbolic import Poly, scalar_symbol


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


# ---------------------------------------------------------------------------
# projector
# ---------------------------------------------------------------------------

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


def test_projector_convolution_oracle():
    for w in [("a",), ("a", "b"), ("a", "a"), ("a", "b", "c"), ("a", "b", "a"),
              ("a", "a", "b"), ("a", "b", "c", "d"), ("a", "b", "a", "b"),
              ("a", "a", "b", "b"), ("b", "a", "a", "c")]:
        assert FL.pi_convolution_oracle(w) == FL.pi_projector(w), w


def test_coproduct_examples():
    d2a = FL.coproduct_k(("a",), 2)
    assert d2a == {(("a",), ()): 1, ((), ("a",)): 1}
    d2ab = FL.coproduct_k(("a", "b"), 2)
    assert d2ab == {(("a", "b"), ()): 1, (("a",), ("b",)): 1,
                    (("b",), ("a",)): 1, ((), ("a", "b")): 1}
    for n, k in ((1, 2), (2, 3), (3, 2)):
        total = sum(FL.coproduct_k(tuple("xyz"[:n]), k).values())
        assert total == k ** n


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


# ---------------------------------------------------------------------------
# generic cumulant over matrices
# ---------------------------------------------------------------------------

def test_nct_cumulant_matrix_commutator():
    X = FL.RationalMatrix([[0, 1], [0, 0]])
    Y = FL.RationalMatrix([[0, 0], [1, 0]])
    assert FL.nct_cumulant([X, Y]) == (X * Y - Y * X) * F(1, 2)
    D1 = FL.RationalMatrix([[1, 0], [0, 2]])
    D2 = FL.RationalMatrix([[3, 0], [0, 4]])
    assert FL.nct_cumulant([D1, D2]).is_zero()


def test_nct_cumulant_on_letters_is_projector():
    letters = ("a", "b", "c")
    elems = [FL.NCPoly.word((x,)) for x in letters]
    assert FL.nct_cumulant(elems) == FL.pi_projector(letters)


def test_commuting_split_check():
    assert FL.nct_commuting_split_check(2, {1})
    assert FL.nct_commuting_split_check(3, {1, 3})
    assert FL.nct_commuting_split_check(3, {2})
    assert FL.nct_commuting_split_check(4, {2, 3})
    with pytest.raises(ValueError):
        FL.nct_commuting_split_check(3, set())
    with pytest.raises(ValueError):
        FL.nct_commuting_split_check(3, {1, 2, 3})


def test_noncommuting_witness():
    X = FL.RationalMatrix([[0, 1], [0, 0]])
    Y = FL.RationalMatrix([[0, 0], [1, 0]])
    Z = FL.RationalMatrix([[1, 1], [0, 1]])
    assert not FL.nct_cumulant([X, Y, Z]).is_zero()
