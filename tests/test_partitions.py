import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ospart import _kernels as K
from ospart import partitions as P

o = P.osp


def all_osp(n):
    return list(P.enumerate_partitions(n))


# ---------------------------------------------------------------------------
# construction, formats, basic ops
# ---------------------------------------------------------------------------

def test_construction_validation():
    with pytest.raises(ValueError):
        P.OrderedSetPartition(3, [[1, 2]])          # missing cover
    with pytest.raises(ValueError):
        P.OrderedSetPartition(2, [[1], [1, 2]])     # repeated element
    with pytest.raises(ValueError):
        P.OrderedSetPartition(2, [[1], [], [2]])    # empty block
    with pytest.raises(ValueError):
        P.OrderedSetPartition(0, [])                # n = 0 rejected
    with pytest.raises(ValueError):
        P.SetPartition(0, [])
    with pytest.raises(ValueError):
        P.OrderedSetPartition.from_word((1, 3))     # gap in block indices
    for text in ("1,,2", "1,|2", ",1|2"):           # empty element
        with pytest.raises(ValueError):
            P.OrderedSetPartition.parse(text)


def test_from_word_refuses_a_block_index_past_its_length_at_once():
    # a cover of 1..p needs p letters: (1, 10**18) is refused before any
    # set of 10**18 block indices is built
    for word in ((1, 10 ** 18), (1, 3), (2,), (1, 2, 4, 4), (1, 2.5, 3),
                 (0, 1), (1, 1, 3)):
        with pytest.raises(ValueError, match="must cover"):
            P.OrderedSetPartition.from_word(word)
    for word in ((1,), (2, 1, 2), (3, 1, 2, 1)):
        assert P.OrderedSetPartition.from_word(word).word == word


def test_from_word_refuses_values_that_are_not_ints():
    # True == 1 and 1.0 == 1 pass a set test of 1..p, and 1.0 as p fails
    # inside range(): each is refused as a word value instead
    for word in ((True, 2), (2, 1.0), (1.0, 2.0), (1, True), (False,),
                 ("1", 2), (1, None), (Fraction(1), 2)):
        with pytest.raises(ValueError, match="must cover"):
            P.OrderedSetPartition.from_word(word)


def test_parse_takes_ascii_digits_only():
    # a Unicode digit, a superscript, a sign or an underscore is not an
    # element: one ValueError names it, never int()'s own message
    for text, bad in (("\uff11,2", "\uff11"), ("1\u00b2", "\u00b2"),
                      ("\uff11\uff12", "\uff11"), ("1,+2", "+2"),
                      ("-1,2", "-1"), ("1_0,2", "1_0"), ("12 1", " "),
                      ("1,\u0663", "\u0663"), ("x", "x")):
        with pytest.raises(ValueError) as exc:
            P.OrderedSetPartition.parse(text)
        assert str(exc.value) == (
            f"bad element {bad!r}: elements are ASCII digits"), text
    assert P.OrderedSetPartition.parse(" 2, 4|3,5 |1 ") == o("31212")


def test_parse_and_format_roundtrip():
    for text in ("2,4|3,5|1", "1", "1,2,3", "3|2|1", "1,3|2"):
        pi = P.OrderedSetPartition.parse(text)
        assert str(pi) == text
        assert P.OrderedSetPartition.parse(str(pi)) == pi
    assert o("31212") == P.OrderedSetPartition.parse("2,4|3,5|1")
    assert o("121").word_str() == "121"
    for pi in all_osp(4):
        assert P.OrderedSetPartition.parse(str(pi)) == pi
        assert P.OrderedSetPartition.parse(pi.word_str()) == pi


def test_underlying_examples():
    assert str(o("21").underlying()) == "1|2"
    assert str(o("2,4|3,5|1").underlying()) == "1|2,4|3,5"
    top = P.OrderedSetPartition.one_block(4)
    assert top.underlying() == P.SetPartition(4, [[1, 2, 3, 4]])


def test_block_lookup_total():
    pi = o("31212")
    assert [pi.block_of(i) for i in range(1, 6)] == [3, 1, 2, 1, 2]
    with pytest.raises(ValueError):
        pi.block_of(6)


def _set_partitions_by_blocks(n):
    """SP_n built block by block: element n joins a block or opens one."""
    if n == 0:
        return [[]]
    out = []
    for blocks in _set_partitions_by_blocks(n - 1):
        for k in range(len(blocks)):
            out.append(blocks[:k] + [blocks[k] | {n}] + blocks[k + 1:])
        out.append(blocks + [{n}])
    return out


def _canonical_blocks(blocks):
    return tuple(sorted(tuple(sorted(blk)) for blk in blocks))


def test_set_partition_matches_block_definitions():
    rng = random.Random(11)
    for n in range(1, 6):
        parts = {}
        for blocks in _set_partitions_by_blocks(n):
            canon = _canonical_blocks(blocks)
            shuffled = [rng.sample(sorted(blk), len(blk)) for blk in blocks]
            rng.shuffle(shuffled)
            sp = P.SetPartition(n, shuffled)
            assert sp == P.SetPartition(n, canon)
            assert hash(sp) == hash(P.SetPartition(n, canon))
            assert sp.blocks == canon
            text = "|".join(",".join(map(str, blk)) for blk in canon)
            assert str(sp) == text
            assert repr(sp) == f"SetPartition({n}, {text!r})"
            assert len(sp) == len(canon)
            for x in range(1, n + 1):
                assert canon[sp.block_of(x) - 1].count(x) == 1
            parts[canon] = sp
        assert set(parts.values()) == set(P.enumerate_partitions(n, P.SP))
        for ca, a in parts.items():
            for cb, b in parts.items():
                refines = all(any(set(x) <= set(y) for y in cb) for x in ca)
                assert a.refines(b) == refines == P.leq(a, b)
                cells = [set(x) & set(y) for x in ca for y in cb]
                assert a.meet(b) == P.SetPartition(n, [c for c in cells if c])
                assert a.meet(b).blocks == _canonical_blocks(c for c in cells
                                                             if c)
                assert (a == b) == (ca == cb)
                if ca == cb:
                    assert hash(a) == hash(b)
    assert P.SetPartition(2, [[1, 2]]) != P.OrderedSetPartition(2, [[1, 2]])


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------

def test_counts_are_fubini(full_mode):
    expected = {1: 1, 2: 3, 3: 13, 4: 75, 5: 541, 6: 4683}
    top = 6 if full_mode else 5
    for n in range(1, top + 1):
        assert sum(1 for _ in P.enumerate_partitions(n)) == expected[n]
        assert P.fubini(n) == expected[n]


def test_class_counts_match_enumeration(full_mode):
    # the closed forms against the enumeration; n = 8 walks all of OP_8
    # for the filtered ordered classes, so there it runs in full mode only
    cheap = (P.ALL, P.SP, P.NC, P.IP, P.PAIR, P.PAIR_NC, P.PAIR_IP,
             P.PAIR_MONOTONE)
    for cls in P.CLASSES:
        top = 8 if full_mode or cls in cheap else 7
        for n in range(1, top + 1):
            assert P.class_count(n, cls) == sum(
                1 for _ in P._class_words(n, cls)), (cls, n)
    assert [P.class_count(n, P.SP) for n in range(1, 7)] == [
        1, 2, 5, 15, 52, 203]
    assert P.class_count(12, P.MONOTONE) == 3113510400
    for bad in ((0, P.ALL), (-1, P.PAIR), (3, "v-monotone")):
        with pytest.raises(ValueError):
            P.class_count(*bad)


def test_enumerate_small_sets():
    two = {str(x) for x in P.enumerate_partitions(2)}
    assert two == {"1,2", "1|2", "2|1"}
    assert [str(x) for x in P.enumerate_partitions(1)] == ["1"]
    with pytest.raises(ValueError):
        next(P.enumerate_partitions(0))


def test_enumerate_no_duplicates():
    for n in (3, 4):
        seen = list(P.enumerate_partitions(n))
        assert len(seen) == len(set(seen))


def test_set_partition_classes():
    assert sum(1 for _ in P.enumerate_partitions(4, P.SP)) == 15
    assert sum(1 for _ in P.enumerate_partitions(4, P.NC)) == 14
    assert sum(1 for _ in P.enumerate_partitions(4, P.IP)) == 8


def test_pair_monotone_example():
    got = {str(x) for x in P.enumerate_partitions(4, P.PAIR_MONOTONE)}
    assert got == {"1,2|3,4", "3,4|1,2", "1,4|2,3"}
    assert sum(1 for _ in P.enumerate_partitions(4, P.PAIR)) == 6
    assert list(P.enumerate_partitions(3, P.PAIR)) == []


def test_filtered_class_consistency():
    for n in (3, 4):
        alls = all_osp(n)
        assert ([x for x in alls if x.is_noncrossing()]
                == list(P.enumerate_partitions(n, P.ONC)))
        assert ([x for x in alls if x.is_monotone()]
                == list(P.enumerate_partitions(n, P.MONOTONE)))
        assert ([x for x in alls if x.is_interval()]
                == list(P.enumerate_partitions(n, P.OI)))


def test_enumeration_is_streaming_and_resumable():
    stream = P.enumerate_partitions(5)
    first = [next(stream) for _ in range(10)]
    rest = list(stream)
    assert len(first) + len(rest) == 541
    assert first == all_osp(5)[:10]


# ---------------------------------------------------------------------------
# order and quasi-meet
# ---------------------------------------------------------------------------

def test_leq_examples():
    assert P.leq(o("123"), o("112"))
    assert P.leq(o("213"), o("112"))          # ({2},{1},{3}) <= ({1,2},{3})
    assert not P.leq(o("132"), o("112"))      # ({1},{3},{2}) not below
    assert P.leq(P.SetPartition(3, [[1], [2], [3]]),
                 P.SetPartition(3, [[1, 2], [3]]))
    with pytest.raises(ValueError):
        P.leq(o("12"), o("112"))


def test_quasi_meet_examples():
    # pi = ({1,2},{3}), sigma = ({3},{1,2}): underlying(pi) <= underlying(sigma)
    assert P.quasi_meet(o("112"), o("221")) == o("112")
    # pi = ({1,3},{2}), sigma = ({2,3},{1}) -> ({3},{1},{2})
    assert P.quasi_meet(o("121"), o("211")) == o("231")


def test_quasi_meet_kernel_checks_lengths():
    for u, v in (((1, 2), (1,)), ((1,), (1, 2)), ((1, 1, 2), (2, 1))):
        with pytest.raises(ValueError):
            K.quasi_meet(u, v)


def test_quasi_meet_laws(full_mode):
    n = 4 if full_mode else 3
    elems = all_osp(n)
    for pi in elems:
        assert P.quasi_meet(pi, pi) == pi
    for pi, sg in itertools.product(elems, repeat=2):
        qm = P.quasi_meet(pi, sg)
        assert P.leq(qm, pi)
        assert qm.underlying() == pi.underlying().meet(sg.underlying())
        assert (qm == pi) == pi.underlying().refines(sg.underlying())
        assert (qm == sg) == P.leq(sg, pi)
def test_quasi_meet_associativity(full_mode):
    # exhaustive over all of OP_3; all of OP_4 too in full mode
    n = 4 if full_mode else 3
    elems = all_osp(n)
    for pi, sg, rho in itertools.product(elems, repeat=3):
        assert (P.quasi_meet(P.quasi_meet(pi, sg), rho)
                == P.quasi_meet(pi, P.quasi_meet(sg, rho)))


# ---------------------------------------------------------------------------
# kernels and words
# ---------------------------------------------------------------------------

def test_kernel_examples():
    assert P.kernel((5, 2, 3, 2, 3)) == o("2,4|3,5|1")
    assert P.kernel((1, 1, 1)) == P.OrderedSetPartition.one_block(3)
    assert P.kernel((3, 2, 1)) == o("321")
    with pytest.raises(ValueError):
        P.kernel(())


def test_to_word_examples():
    assert o("1,3|2").to_word() == (1, 2, 1)
    assert o("2,4|3,5|1").to_word() == (3, 1, 2, 1, 2)
    assert P.OrderedSetPartition.one_block(4).to_word() == (1, 1, 1, 1)


def test_kernel_word_roundtrip():
    for n in range(1, 6):
        for pi in P.enumerate_partitions(n):
            assert P.kernel(pi.to_word()) == pi


def test_restrict_examples():
    sg = o("3|1,2")
    assert sg.restrict({1, 2}) == P.OrderedSetPartition(2, [[1, 2]])
    assert str(sg.restrict({1, 3})) == "2|1"   # ({3},{1}) relabeled on {1,3}
    for pi in all_osp(4):
        assert pi.restrict(range(1, 5)) == pi
    with pytest.raises(ValueError):
        sg.restrict(set())


def test_restrict_relabels_to_subset_order():
    # restriction lives on the subset, positions renumbered 1..|P|
    sg = o("3|1,2")  # blocks ({3},{1,2})
    r = sg.restrict({1, 3})
    assert r.n == 2 and r.blocks == ((2,), (1,))


# ---------------------------------------------------------------------------
# word kernels against block-level definitions, random words up to n = 7
# ---------------------------------------------------------------------------

@st.composite
def _runs(draw, items):
    """An ordered set partition of ``items`` as a list of blocks: a
    permutation of them cut into nonempty runs."""
    order = draw(st.permutations(items))
    runs = [[order[0]]]
    for x in order[1:]:
        if draw(st.booleans()):
            runs.append([])
        runs[-1].append(x)
    return runs


@st.composite
def _op_triples(draw):
    """(pi, rho, sigma, type): rho arbitrary, sigma refines pi's blocks in
    order, type[j] = number of sigma-blocks inside pi-block j."""
    n = draw(st.integers(1, 7))
    pi = P.OrderedSetPartition(n, draw(_runs(range(1, n + 1))))
    rho = P.OrderedSetPartition(n, draw(_runs(range(1, n + 1))))
    pieces = [draw(_runs(blk)) for blk in pi.blocks]
    sigma = P.OrderedSetPartition(n, [b for run in pieces for b in run])
    return pi, rho, sigma, tuple(len(run) for run in pieces)


def _leq_blocks(sigma, pi):
    """sigma <= pi: each sigma-block lies in one pi-block, and those
    pi-blocks never go back as sigma's blocks are read in order."""
    hosts = []
    for blk in sigma.blocks:
        inside = [j for j, big in enumerate(pi.blocks) if set(blk) <= set(big)]
        if not inside:
            return False
        hosts.append(inside[0])
    return hosts == sorted(hosts)


def _quasi_meet_blocks(pi, sigma):
    """sigma's restrictions to pi's blocks, concatenated in pi's order."""
    return P.OrderedSetPartition(pi.n, [
        set(big) & set(blk) for big in pi.blocks for blk in sigma.blocks
        if set(big) & set(blk)])


def _relative_word_blocks(a, b):
    """The b-block holding each a-block, in a's block order; None when
    some a-block lies in no single b-block."""
    out = []
    for blk in a.blocks:
        hosts = [j for j, big in enumerate(b.blocks, start=1)
                 if set(blk) <= set(big)]
        if not hosts:
            return None
        out.append(hosts[0])
    return tuple(out)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(_op_triples())
def test_word_kernels_match_block_definitions(triple):
    pi, rho, sigma, sigma_type = triple
    assert K.leq_words(sigma.word, pi.word)
    assert _leq_blocks(sigma, pi)
    assert K.interval_type_words(sigma.word, pi.word) == sigma_type
    assert K.quasi_meet(pi.word, sigma.word) == sigma.word
    below = _leq_blocks(rho, pi)
    assert K.leq_words(rho.word, pi.word) == below
    if not below:
        with pytest.raises(ValueError):
            K.interval_type_words(rho.word, pi.word)
    for a, b in ((pi, rho), (rho, pi), (sigma, rho)):
        assert K.quasi_meet(a.word, b.word) == _quasi_meet_blocks(a, b).word
    for w in (pi.word, rho.word, sigma.word):
        assert K.kernel_word(w) == w
    for a, b in ((sigma, pi), (pi, sigma), (pi, rho), (rho, pi), (sigma, rho)):
        assert K.relative_word(a.word, b.word) == _relative_word_blocks(a, b)
    # a word cut short lives on another ground set: nothing relates them
    for u, v in ((sigma.word[:-1], pi.word), (pi.word, sigma.word[:-1])):
        assert K.relative_word(u, v) is None
        assert not K.leq_words(u, v)
        with pytest.raises(ValueError):
            K.interval_type_words(u, v)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.lists(st.integers(-3, 9), min_size=1, max_size=7))
def test_kernel_word_matches_block_definition(seq):
    blocks = [[k + 1 for k, x in enumerate(seq) if x == v]
              for v in sorted(set(seq))]
    kern = P.OrderedSetPartition(len(seq), blocks)
    assert K.kernel_word(tuple(seq)) == kern.word
    canonical = P.OrderedSetPartition(len(seq), sorted(kern.blocks))
    assert K.rgs_word(tuple(seq)) == canonical.word


@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.dictionaries(
    st.integers(0, 30),
    st.one_of(st.integers(-40, 40), st.integers(-300, 300).map(lambda x: x ** 3),
              st.fractions(min_value=-20, max_value=20, max_denominator=24)),
    max_size=14))
def test_cleared_and_divided_round_trip(values):
    from fractions import Fraction as F
    from math import lcm
    d, ints = K.cleared(values)
    assert d == lcm(*(F(v).denominator for v in values.values()))
    assert ints.keys() == values.keys()
    assert all(type(x) is int for x in ints.values())
    back = K.divided(ints, d)
    assert back == {k: v for k, v in values.items() if v}
    for v in back.values():
        assert type(v) is (int if F(v).denominator == 1 else F)
    # d == 1 keeps the nonzero integers as they are
    assert K.divided(ints, 1) == {k: x for k, x in ints.items() if x}
    # a real division: equal numerators share one quotient object
    third = K.divided(ints, 3 * d)
    assert third == {k: F(v) / 3 for k, v in values.items() if v}
    for k1, k2 in itertools.combinations(third, 2):
        if ints[k1] == ints[k2]:
            assert third[k1] is third[k2]


def test_divided_takes_fraction_numerators():
    # the one exact division: an integral quotient is an int for Fraction
    # numerators too, d = 1 included, and the zeros are dropped
    from fractions import Fraction as F
    one = K.divided({"a": F(-1, 1), "b": F(3, 2), "c": F(0), "d": 4}, 1)
    assert one == {"a": -1, "b": F(3, 2), "d": 4}
    assert [type(x) for x in one.values()] == [int, F, int]
    six = K.divided({"a": F(12, 1), "b": F(-3, 2), "c": F(9, 1), "d": -6,
                     "e": F(-3, 2)}, 6)
    assert six == {"a": 2, "b": F(-1, 4), "c": F(3, 2), "d": -1,
                   "e": F(-1, 4)}
    assert [type(x) for x in six.values()] == [int, F, F, int, F]
    assert six["b"] is six["e"]


def test_segments():
    assert K.segments((3, 1, 4, 1, 5), (2, 0, 3)) == [(3, 1), (), (4, 1, 5)]
    with pytest.raises(ValueError):
        K.segments((1, 2, 3), (1, 1))


def test_osp_words_guard():
    with pytest.raises(ValueError):
        K.osp_words(8)


def _iter_osp_words_recursive(n):
    """Every OP word of [n], p ascending then lex, by a depth-n recursion."""
    w = [0] * n
    seen = [False] * (n + 2)

    def rec(k, missing, p):
        if n - k < missing:
            return
        if k == n:
            yield tuple(w)
            return
        for v in range(1, p + 1):
            w[k] = v
            if seen[v]:
                yield from rec(k + 1, missing, p)
            else:
                seen[v] = True
                yield from rec(k + 1, missing - 1, p)
                seen[v] = False

    for p in range(1, n + 1):
        yield from rec(0, p, p)


def test_iter_osp_words_matches_recursive_oracle():
    for n in range(1, 8):
        words = list(K.iter_osp_words(n))
        assert words == list(_iter_osp_words_recursive(n)), n
        assert len(words) == K.fubini(n)
    with pytest.raises(ValueError):
        next(K.iter_osp_words(0))


# ---------------------------------------------------------------------------
# interval structure
# ---------------------------------------------------------------------------

def test_interval_type_examples():
    assert P.interval_type(P.OrderedSetPartition.singletons(3), o("112")) == (2, 1)
    for pi in all_osp(3):
        assert P.interval_type(pi, pi) == (1,) * len(pi)
    sg = P.OrderedSetPartition(5, [[1], [2], [4], [3, 5]])
    pi = P.OrderedSetPartition(5, [[1, 2, 4], [3, 5]])
    assert P.interval_type(sg, pi) == (3, 1)
    with pytest.raises(ValueError):
        P.interval_type(o("132"), o("112"))


def test_interval_elements_examples():
    two = list(P.interval_elements(P.OrderedSetPartition.singletons(2),
                                   P.OrderedSetPartition.one_block(2)))
    assert {str(x) for x in two} == {"1|2", "1,2"}
    only = list(P.interval_elements(o("121"), o("121")))
    assert only == [o("121")]


def test_interval_elements_cardinality_and_filter(full_mode):
    n = 5 if full_mode else 4
    elems = all_osp(n)
    for pi in elems:
        for sg in P.ideal_elements(pi):
            got = list(P.interval_elements(sg, pi))
            t = P.interval_type(sg, pi)
            expect_count = 1
            for k in t:
                expect_count *= 2 ** (k - 1)
            assert len(got) == expect_count
            brute = [rho for rho in elems if P.leq(sg, rho) and P.leq(rho, pi)]
            assert sorted(x.word for x in got) == sorted(x.word for x in brute)


def test_ideal_elements_matches_brute_force():
    for n in (3, 4):
        elems = all_osp(n)
        for pi in elems:
            got = sorted(x.word for x in P.ideal_elements(pi))
            brute = sorted(x.word for x in elems if P.leq(x, pi))
            assert got == brute


# ---------------------------------------------------------------------------
# classes, components, block permutation
# ---------------------------------------------------------------------------

def test_is_class_examples():
    assert P.is_class(o("1,4|2,3"), P.MONOTONE)
    assert not P.is_class(o("2,3|1,4"), P.MONOTONE)
    assert not P.is_class(o("1,3|2,4"), P.ONC)
    assert P.is_class(o("1,2|3"), P.OI)
    assert not P.is_class(o("1,3|2"), P.OI)
    with pytest.raises(ValueError):
        P.is_class(o("12"), "nope")


def test_enumerated_members_pass_is_class():
    for cls in P.CLASSES:
        for n in range(1, 6):
            for pi in P.enumerate_partitions(n, cls):
                assert P.is_class(pi, cls), (cls, pi)
    assert P.is_class(o("21"), P.SP)
    assert P.is_class(P.SetPartition(4, [[1, 4], [2, 3]]), P.NC)
    assert not P.is_class(P.SetPartition(4, [[1, 3], [2, 4]]), P.NC)


def test_is_class_admits_exactly_the_enumerated_members():
    # the pair classes enumerate pair words without a pair test, so
    # is_class must still refuse every other word
    for n in range(1, 6):
        for cls in P.CLASSES:
            members = {pi.word for pi in P.enumerate_partitions(n, cls)}
            if cls in P._SET_CLASSES:
                words = P._iter_set_partitions(n)
            else:
                words = K.iter_osp_words(n)
            assert {w for w in words if P.is_class(
                P.OrderedSetPartition._raw(n, w), cls)} == members, (cls, n)
    assert not P.is_class(o("1,2,3|4"), P.PAIR)
    assert not P.is_class(o("1|2,3|4"), P.PAIR_NC)


def test_outintmax_intmax_examples():
    assert P.outintmax({1, 2, 4}, 5) == ((1, 2), (4,))
    assert P.intmax({1, 5}, 5) == ((1, 5),)
    assert P.outintmax({1, 5}, 5) == ((1,), (5,))
    assert P.outintmax(range(1, 6), 5) == ((1, 2, 3, 4, 5),)
    assert P.intmax(range(1, 6), 5) == ((1, 2, 3, 4, 5),)
    with pytest.raises(ValueError):
        P.outintmax(set(), 4)


def test_permute_blocks():
    pi = o("1,3|2")
    assert pi.permute_blocks((1, 2)) == pi
    assert o("1|2").permute_blocks((2, 1)) == o("2|1")
    swap = (2, 1, 3)
    for pi in all_osp(3):
        if len(pi) == 3:
            assert pi.permute_blocks(swap).permute_blocks(swap) == pi
    with pytest.raises(ValueError):
        o("1|2").permute_blocks((1, 1))


def test_inner_blocks():
    assert P.inner_block_indices(o("1,4|2,3")) == {2}
    assert P.inner_block_indices(o("2,3|1,4")) == {1}
    assert P.inner_block_indices(o("1,2|3")) == set()


# pairwise definitions of the nesting classes, the oracles of the stack scan

def _noncrossing_pairwise(w):
    n = len(w)
    for i in range(n):
        for k in range(i + 1, n):
            if w[i] != w[k]:
                continue
            for j in range(i + 1, k):
                if w[j] == w[i]:
                    continue
                # i < j < k with i ~ k; any later partner of j crosses
                if any(w[l] == w[j] for l in range(k + 1, n)):
                    return False
    return True


def _positions(w):
    pos = {}
    for k, b in enumerate(w):
        pos.setdefault(b, []).append(k)
    return pos


def _monotone_pairwise(w):
    if not _noncrossing_pairwise(w):
        return False
    # nesting pairs: outer block value must precede (be smaller than) inner
    pos = _positions(w)
    for outer, po in pos.items():
        for inner, pi_ in pos.items():
            if outer == inner:
                continue
            if any(a < pi_[0] for a in po) and any(a > pi_[-1] for a in po):
                if outer > inner:
                    return False
    return True


def _inner_pairwise(w):
    pos = _positions(w)
    inner = set()
    for b, pb in pos.items():
        for b2, pb2 in pos.items():
            if b2 == b:
                continue
            if any(a < pb[0] for a in pb2) and any(a > pb[-1] for a in pb2):
                inner.add(b)
                break
    return inner


def test_nesting_scan_matches_pairwise_definitions():
    words = [w for n in range(1, 8) for w in K.iter_osp_words(n)]
    words += list(P._iter_set_partitions(8)) + list(P.iter_pair_words(8))
    for w in words:
        nc = _noncrossing_pairwise(w)
        assert P._word_noncrossing(w) == nc, w
        assert P._word_monotone(w) == _monotone_pairwise(w), w
    for n in range(1, 7):
        for w in K.iter_osp_words(n):
            if _noncrossing_pairwise(w):
                assert (P.inner_block_indices(P.OrderedSetPartition._raw(n, w))
                        == _inner_pairwise(w)), w
    with pytest.raises(ValueError):
        P.inner_block_indices(o("1,3|2,4"))


def test_block_strings_equal_formatted_blocks():
    for cls in P.CLASSES:
        top = 8 if cls in P._SET_CLASSES + P._PAIR_CLASSES else 7
        for n in range(1, top + 1):
            assert (list(P.enumerate_block_strings(n, cls))
                    == [P.format_blocks(x.blocks)
                        for x in P.enumerate_partitions(n, cls)]), (cls, n)
    for n in range(1, 7):
        for pi in P.enumerate_partitions(n):
            assert str(pi) == P.format_blocks(pi.blocks)
    # longer than the table of position texts
    long = P.OrderedSetPartition.from_word([1, 2] * 20)
    assert str(long) == P.format_blocks(long.blocks)


# ---------------------------------------------------------------------------
# shift invariance of quasi-meet with kernels
# ---------------------------------------------------------------------------

def test_quasimeet_kernel_shift_invariance(full_mode):
    n = 4 if full_mode else 3
    vmax = 4 if full_mode else 3
    for pi in all_osp(n):
        for idx in itertools.product(range(1, vmax + 1), repeat=n):
            base = P.quasi_meet(pi, P.kernel(idx))
            for blk in pi.blocks:
                for shift in (1, 2, 3):
                    moved = tuple(v + shift if (i + 1) in blk else v
                                  for i, v in enumerate(idx))
                    assert P.quasi_meet(pi, P.kernel(moved)) == base
