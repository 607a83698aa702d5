"""Set partitions and ordered set partitions of {1,...,n}.

Construction, enumeration by class, the dominance order, quasi-meet,
kernels of index tuples, interval structure and the text formats
("2,4|3,5|1" for blocks, "31212" for words).
"""

from functools import lru_cache
from itertools import permutations
from math import comb, factorial

from . import _kernels as K

# enumeration classes
ALL = "all"
SP = "sp"
NC = "nc"
IP = "ip"
ONC = "onc"
OI = "oi"
MONOTONE = "monotone"
PAIR = "pair"
PAIR_NC = "pair-nc"
PAIR_IP = "pair-ip"
PAIR_MONOTONE = "monotone-pair"

CLASSES = (ALL, SP, NC, IP, ONC, OI, MONOTONE, PAIR, PAIR_NC, PAIR_IP,
           PAIR_MONOTONE)

fubini = K.fubini


def _cover_word(n, blocks):
    """Word of blocks that must cover {1,...,n} exactly once each."""
    w = [0] * n
    for k, blk in enumerate(blocks, start=1):
        blk = tuple(blk)
        if not blk:
            raise ValueError("empty block")
        for x in blk:
            if not isinstance(x, int) or x < 1 or x > n:
                raise ValueError(f"element {x!r} outside 1..{n}")
            if w[x - 1]:
                raise ValueError(f"element {x} repeated")
            w[x - 1] = k
    if not all(w):
        raise ValueError("blocks do not cover the ground set")
    return tuple(w)


@lru_cache(maxsize=128, typed=True)
def _block_values(p):
    """{1, ..., p}, cached by type too: a float p still fails in range()."""
    return frozenset(range(1, p + 1))


def _word_blocks(word):
    """Blocks of a word, block 1 first, each in increasing order."""
    out = [[] for _ in range(max(word))]
    for pos, b in enumerate(word, start=1):
        out[b - 1].append(pos)
    return tuple(tuple(blk) for blk in out)


# text of the positions 1, 2, ...; longer words format their own
_POS_TEXT = tuple(str(k) for k in range(1, 33))


def _block_text(word):
    """Block syntax of a word ("1,3|2" for (1, 2, 1)), built from the word
    without the block tuples."""
    pos = (_POS_TEXT if len(word) <= len(_POS_TEXT)
           else tuple(str(k) for k in range(1, len(word) + 1)))
    out = [[] for _ in range(max(word))]
    for text, b in zip(pos, word):
        out[b - 1].append(text)
    return "|".join(map(",".join, out))


class _Partition:
    """A partition of {1,...,n} stored as its word: position k carries
    the 1-based index of the block containing k+1."""

    __slots__ = ("n", "word")

    def __init__(self, n, blocks):
        if n < 1:
            raise ValueError("n must be >= 1")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "word", _cover_word(n, blocks))

    @classmethod
    def _raw(cls, n, word):
        self = object.__new__(cls)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "word", word)
        return self

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other):
        return (type(other) is type(self)
                and self.n == other.n and self.word == other.word)

    def __hash__(self):
        return hash((self.n, self.word))

    def __len__(self):
        """Number of blocks."""
        return max(self.word)

    def __str__(self):
        return _block_text(self.word)

    @property
    def blocks(self):
        return _word_blocks(self.word)

    def block_of(self, i):
        """1-based index of the block containing i."""
        if not 1 <= i <= self.n:
            raise ValueError(f"{i} not in ground set")
        return self.word[i - 1]

    def is_noncrossing(self):
        return _word_noncrossing(self.word)

    def is_interval(self):
        return _word_interval(self.word)


class SetPartition(_Partition):
    """Partition of {1,...,n}; its word is the restricted growth string,
    so blocks are numbered by their minimum element."""

    __slots__ = ()

    def __init__(self, n, blocks):
        super().__init__(n, blocks)
        object.__setattr__(self, "word", K.rgs_word(self.word))

    def __repr__(self):
        return f"SetPartition({self.n}, {str(self)!r})"

    def refines(self, other):
        """True iff every block of self lies inside a block of other."""
        if self.n != other.n:
            raise ValueError("mismatched ground sets")
        return K.relative_word(self.word, other.word) is not None

    def meet(self, other):
        """Common refinement (lattice meet)."""
        if self.n != other.n:
            raise ValueError("mismatched ground sets")
        return SetPartition._raw(self.n,
                                 K.rgs_word(tuple(zip(self.word, other.word))))


class OrderedSetPartition(_Partition):
    """Sequence of disjoint nonempty blocks covering {1,...,n}, stored
    through its word."""

    __slots__ = ()

    @classmethod
    def from_word(cls, word):
        """Build from a word whose values are exactly {1,...,p}."""
        word = tuple(word)
        if not word:
            raise ValueError("empty word")
        values = set(word)
        p = max(values)
        if p > len(word) or values != _block_values(p):
            raise ValueError(f"word values must cover 1..{p}: {word}")
        return cls._raw(len(word), word)

    def __repr__(self):
        return f"OrderedSetPartition.parse({str(self)!r})"

    def underlying(self):
        """Forget the block order."""
        return SetPartition._raw(self.n, K.rgs_word(self.word))

    def to_word(self):
        return self.word

    def word_str(self):
        if len(self) > 9:
            raise ValueError("word format needs block indices <= 9")
        return "".join(str(b) for b in self.word)

    def restrict(self, subset):
        """Restriction to a nonempty subset, empty intersections dropped."""
        subset = sorted(set(subset))
        if not subset:
            raise ValueError("empty restriction set")
        if subset[0] < 1 or subset[-1] > self.n:
            raise ValueError("restriction set outside ground set")
        sub = tuple(self.word[i - 1] for i in subset)
        return OrderedSetPartition._raw(len(subset), K.kernel_word(sub))

    def quasi_meet(self, other):
        if self.n != other.n:
            raise ValueError("mismatched ground sets")
        return OrderedSetPartition._raw(self.n, K.quasi_meet(self.word, other.word))

    def permute_blocks(self, h):
        """Reorder blocks: block j of the result is block h(j) of self."""
        p = len(self)
        h = tuple(h)
        if sorted(h) != list(range(1, p + 1)):
            raise ValueError("h is not a permutation of the block indices")
        inv = [0] * (p + 1)
        for new, old in enumerate(h):
            inv[old] = new + 1
        return OrderedSetPartition._raw(self.n, tuple(inv[b] for b in self.word))

    def is_monotone(self):
        return _word_monotone(self.word)

    @classmethod
    def one_block(cls, n):
        """The maximal partition 1^_n."""
        return cls._raw(n, (1,) * n)

    @classmethod
    def singletons(cls, n):
        """The canonical minimal partition ({1},{2},...,{n})."""
        return cls._raw(n, tuple(range(1, n + 1)))

    @classmethod
    def parse(cls, text):
        """Parse block syntax "2,4|3,5|1" or word syntax "31212".

        Elements are ASCII digits: any other character, a Unicode digit
        included, raises ValueError naming the element that holds it."""
        text = text.strip()
        if not text:
            raise ValueError("empty partition text")

        def element(tok):
            if not (tok.isascii() and tok.isdigit()):
                raise ValueError(
                    f"bad element {tok!r}: elements are ASCII digits")
            return int(tok)

        if "|" in text or "," in text:
            # an empty part is an empty block, which cls refuses
            blocks = [part.split(",") if part.strip() else []
                      for part in text.split("|")]
            if any(not tok.strip() for blk in blocks for tok in blk):
                raise ValueError(f"empty element in {text!r}")
            blocks = [[element(tok.strip()) for tok in blk]
                      for blk in blocks]
            n = sum(len(b) for b in blocks)
            return cls(n, blocks)
        return cls.from_word(map(element, text))


def format_blocks(blocks):
    return "|".join(",".join(str(x) for x in blk) for blk in blocks)


def osp(value):
    """Coerce a word tuple / text literal into an OrderedSetPartition."""
    if isinstance(value, OrderedSetPartition):
        return value
    if isinstance(value, str):
        return OrderedSetPartition.parse(value)
    return OrderedSetPartition.from_word(value)


# ---------------------------------------------------------------------------
# order, kernels, intervals
# ---------------------------------------------------------------------------

def leq(sigma, pi) -> bool:
    """sigma <= pi; dominance order for OP, refinement order for SP."""
    if isinstance(sigma, SetPartition) and isinstance(pi, SetPartition):
        return sigma.refines(pi)
    if sigma.n != pi.n:
        raise ValueError("mismatched ground sets")
    return K.order_type(sigma.word, pi.word) is not None


def quasi_meet(pi, sigma):
    """pi curlywedge sigma: concatenation of sigma's restrictions to pi's blocks."""
    return pi.quasi_meet(sigma)


def kernel(indices):
    """Ordered kernel partition of an index tuple, blocks by ascending value."""
    return OrderedSetPartition._raw(len(tuple(indices)), K.kernel_word(tuple(indices)))


def interval_type(sigma, pi):
    """Composition (k_1,...,k_p) counting sigma-blocks per pi-block."""
    if sigma.n != pi.n:
        raise ValueError("mismatched ground sets")
    t = K.order_type(sigma.word, pi.word)
    if t is None:
        raise ValueError("sigma is not below pi")
    return t


def interval_elements(sigma, pi):
    """Stream the interval [sigma, pi]; cardinality prod 2^(k_j - 1)."""
    interval_type(sigma, pi)  # ValueError unless sigma <= pi
    for w in K.interval_words(sigma.word, pi.word):
        yield OrderedSetPartition._raw(sigma.n, w)


def ideal_elements(pi):
    """Stream every sigma <= pi."""
    for w in K.ideal_words(pi.word):
        yield OrderedSetPartition._raw(pi.n, w)


# ---------------------------------------------------------------------------
# class predicates on words
# ---------------------------------------------------------------------------

def _nesting_parents(w):
    """List indexed by block: the innermost block whose span holds it (0 at
    top level), from one left-to-right scan of w; None when w is crossing.

    The stack holds the open blocks (seen, with a later position still to
    come), innermost on top.  A block seen again must be on top, or it
    crosses the blocks above it; a new block is nested in the top one.
    """
    last = [0] * (max(w) + 1)
    for pos, b in enumerate(w):
        last[b] = pos
    parent = [-1] * len(last)
    stack = []
    for pos, b in enumerate(w):
        if parent[b] < 0:
            parent[b] = stack[-1] if stack else 0
            if last[b] != pos:
                stack.append(b)
        elif stack[-1] != b:
            return None
        elif last[b] == pos:
            stack.pop()
    return parent


def _word_noncrossing(w):
    return _nesting_parents(w) is not None


def _word_interval(w):
    last = {}
    for pos, b in enumerate(w):
        if b in last and last[b] != pos - 1:
            return False
        last[b] = pos
    return True


def _word_monotone(w):
    """No smaller letter lies between two letters of one block: noncrossing,
    and every block before the blocks nested in it.  The open blocks form a
    stack, values increasing upwards; a smaller letter closes the blocks
    above it, and a closed block seen again fails."""
    seen = set()
    stack = []
    for b in w:
        while stack and stack[-1] > b:
            stack.pop()
        if not stack or stack[-1] != b:
            if b in seen:
                return False
            seen.add(b)
            stack.append(b)
    return True


def inner_block_indices(pi):
    """1-based indices of the inner blocks of a noncrossing partition.

    A block is inner when it sits strictly inside another block's span.
    """
    parent = _nesting_parents(pi.word)
    if parent is None:
        raise ValueError("inner/outer split needs a noncrossing partition")
    return {b for b in range(1, len(parent)) if parent[b]}


def _word_pair(w):
    counts = {}
    for b in w:
        counts[b] = counts.get(b, 0) + 1
    return all(c == 2 for c in counts.values())


_SET_CLASSES = (SP, NC, IP)
_PAIR_CLASSES = (PAIR, PAIR_NC, PAIR_IP, PAIR_MONOTONE)

# membership test per class on the words of its source in _class_words;
# None admits every word.  The pair words are pair partitions already, so
# a PAIR* class tests only the rest of its condition, and is_class adds
# the pair test for other words.
_CLASS_TESTS = {
    ALL: None,
    SP: None,
    NC: _word_noncrossing,
    IP: _word_interval,
    ONC: _word_noncrossing,
    OI: _word_interval,
    MONOTONE: _word_monotone,
    PAIR: None,
    PAIR_NC: _word_noncrossing,
    PAIR_IP: _word_interval,
    PAIR_MONOTONE: _word_monotone,
}


def _class_test(cls):
    try:
        return _CLASS_TESTS[cls]
    except KeyError:
        raise ValueError(f"unknown class {cls!r}") from None


def is_class(pi, cls) -> bool:
    """Class membership of a set or ordered set partition."""
    test = _class_test(cls)
    if cls in _PAIR_CLASSES and not _word_pair(pi.word):
        return False
    return test is None or test(pi.word)


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------

def _iter_set_partitions(n):
    """Restricted-growth-string enumeration of SP_n, lex order."""
    w = [1] * n

    def rec(k, mx):
        if k == n:
            yield tuple(w)
            return
        for v in range(1, mx + 2):
            w[k] = v
            yield from rec(k + 1, max(mx, v))

    yield from rec(0, 0)


def iter_pair_set_words(n):
    """Pair set partitions (perfect matchings) of [n] as restricted growth
    strings; the pair of each block is picked with the smallest free point."""
    if n % 2:
        return

    def matchings(elems):
        if not elems:
            yield ()
            return
        first = elems[0]
        for j in range(1, len(elems)):
            pair = (first, elems[j])
            rest = elems[1:j] + elems[j + 1:]
            for m in matchings(rest):
                yield (pair,) + m

    for m in matchings(tuple(range(1, n + 1))):
        w = [0] * n
        for b, pair in enumerate(m, 1):
            for x in pair:
                w[x - 1] = b
        yield tuple(w)


def iter_pair_words(n):
    """Pair ordered set partitions: perfect matchings times block orders.

    The word source of the PAIR classes; every word it yields is a pair
    partition, so no pair test is applied to it."""
    for u in iter_pair_set_words(n):
        for order in permutations(range(n // 2)):
            rank = [0] * len(order)
            for newidx, blkidx in enumerate(order, 1):
                rank[blkidx] = newidx
            yield tuple(rank[b - 1] for b in u)


def _class_words(n, cls):
    """The words of a class in enumeration order: restricted growth strings
    for SP/NC/IP, pair words for PAIR*, OP words otherwise."""
    if n < 1:
        raise ValueError("n must be >= 1")
    test = _class_test(cls)
    if cls in _SET_CLASSES:
        words = _iter_set_partitions(n)
    elif cls in _PAIR_CLASSES:
        words = iter_pair_words(n)
    else:
        words = K.iter_osp_words(n)
    return words if test is None else filter(test, words)


def class_count(n, cls=ALL) -> int:
    """The size of a class on [n] by closed form; the tests keep
    _class_words as the oracle.  SP, NC and IP sum their partitions with k
    blocks (Stirling, Narayana and binomial numbers), ONC and OI weigh
    those by k!, and the pair classes count by m = n/2 (none at odd n)."""
    _class_test(cls)
    if n < 1:
        raise ValueError("n must be >= 1")
    if cls in (ALL, MONOTONE):
        return K.fubini(n) if cls == ALL else factorial(n + 1) // 2
    if cls not in _PAIR_CLASSES:
        with_k = {SP: lambda k: sum((-1) ** j * comb(k, j) * (k - j) ** n
                                    for j in range(k + 1)) // factorial(k),
                  NC: lambda k: comb(n, k) * comb(n, k - 1) // n,
                  IP: lambda k: comb(n - 1, k - 1)}
        base = {ONC: NC, OI: IP}.get(cls, cls)
        return sum(with_k[base](k) * (factorial(k) if base != cls else 1)
                   for k in range(1, n + 1))
    m, odd = divmod(n, 2)
    sets = factorial(n) // (factorial(m) << m)  # (2m-1)!! pair partitions
    return 0 if odd else {PAIR: sets * factorial(m), PAIR_MONOTONE: sets,
                          PAIR_NC: comb(n, m) // (m + 1) * factorial(m),
                          PAIR_IP: factorial(m)}[cls]


def enumerate_partitions(n, cls=ALL):
    """Stream every member of the class exactly once, deterministic order.

    ALL/ONC/OI/MONOTONE yield OrderedSetPartition, SP/NC/IP yield
    SetPartition, PAIR* yield OrderedSetPartition with all blocks of size 2.
    """
    make = (SetPartition if cls in _SET_CLASSES else OrderedSetPartition)._raw
    for w in _class_words(n, cls):
        yield make(n, w)


def enumerate_block_strings(n, cls=ALL):
    """Stream the block syntax of every member of the class, in the order
    of enumerate_partitions and equal to str() of its items."""
    yield from map(_block_text, _class_words(n, cls))


# ---------------------------------------------------------------------------
# maximal interval partitions of a subset, on the line and on the cycle
# ---------------------------------------------------------------------------

def outintmax(subset, n):
    """Connected components of the subset on the integer line.

    Returns the blocks (tuples, sorted by minimum) of the maximal interval
    partition of the subset.
    """
    elems = sorted(set(subset))
    if not elems:
        raise ValueError("empty subset")
    if elems[0] < 1 or elems[-1] > n:
        raise ValueError("subset outside ground set")
    blocks = [[elems[0]]]
    for x in elems[1:]:
        if x == blocks[-1][-1] + 1:
            blocks[-1].append(x)
        else:
            blocks.append([x])
    return tuple(tuple(b) for b in blocks)


def intmax(subset, n):
    """Connected components of the subset on the n-cycle (1 adjacent to n)."""
    blocks = [list(b) for b in outintmax(subset, n)]
    if len(blocks) > 1 and blocks[0][0] == 1 and blocks[-1][-1] == n:
        blocks[0] = blocks.pop() + blocks[0]
    return tuple(tuple(sorted(b)) for b in sorted(blocks, key=min))
