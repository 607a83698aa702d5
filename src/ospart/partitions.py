"""Set partitions and ordered set partitions of {1,...,n}.

Construction, enumeration by class, the dominance order, quasi-meet,
kernels of index tuples, interval structure and the text formats
("2,4|3,5|1" for blocks, "31212" for words).
"""

from functools import lru_cache
from itertools import permutations

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
PAIR_MONOTONE = "pair-monotone"

CLASSES = (ALL, SP, NC, IP, ONC, OI, MONOTONE, PAIR, PAIR_NC, PAIR_IP,
           PAIR_MONOTONE)

fubini = K.fubini


def _check_cover(n, blocks, allow_empty=False):
    seen = [False] * (n + 1)
    for blk in blocks:
        if not blk and not allow_empty:
            raise ValueError("empty block")
        for x in blk:
            if not isinstance(x, int) or x < 1 or x > n:
                raise ValueError(f"element {x!r} outside 1..{n}")
            if seen[x]:
                raise ValueError(f"element {x} repeated")
            seen[x] = True
    if not all(seen[1:]):
        raise ValueError("blocks do not cover the ground set")


class SetPartition:
    """Partition of {1,...,n}; blocks stored sorted by minimum element."""

    __slots__ = ("n", "blocks")

    def __init__(self, n, blocks):
        if n < 1:
            raise ValueError("n must be >= 1")
        blocks = tuple(tuple(sorted(blk)) for blk in blocks)
        _check_cover(n, blocks)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "blocks", tuple(sorted(blocks)))

    def __setattr__(self, name, value):
        raise AttributeError("SetPartition is immutable")

    def __eq__(self, other):
        return (isinstance(other, SetPartition)
                and self.n == other.n and self.blocks == other.blocks)

    def __hash__(self):
        return hash((self.n, self.blocks))

    def __len__(self):
        return len(self.blocks)

    def __repr__(self):
        return f"SetPartition({self.n}, {format_blocks(self.blocks)!r})"

    def __str__(self):
        return format_blocks(self.blocks)

    def block_of(self, i):
        """1-based index of the block containing i."""
        for k, blk in enumerate(self.blocks):
            if i in blk:
                return k + 1
        raise ValueError(f"{i} not in ground set")

    def refines(self, other):
        """True iff every block of self lies inside a block of other."""
        if self.n != other.n:
            raise ValueError("mismatched ground sets")
        owner = {}
        for k, blk in enumerate(other.blocks):
            for x in blk:
                owner[x] = k
        return all(len({owner[x] for x in blk}) == 1 for blk in self.blocks)

    def meet(self, other):
        """Common refinement (lattice meet)."""
        if self.n != other.n:
            raise ValueError("mismatched ground sets")
        cells = {}
        for x in range(1, self.n + 1):
            cells.setdefault((self.block_of(x), other.block_of(x)), []).append(x)
        return SetPartition(self.n, cells.values())

    def is_noncrossing(self):
        return _word_noncrossing(rgs_of_blocks(self.n, self.blocks))

    def is_interval(self):
        return _word_interval(rgs_of_blocks(self.n, self.blocks))


def rgs_of_blocks(n, blocks):
    w = [0] * n
    for k, blk in enumerate(blocks):
        for x in blk:
            w[x - 1] = k + 1
    return K.rgs_word(tuple(w))


class OrderedSetPartition:
    """Sequence of disjoint nonempty blocks covering {1,...,n}.

    Canonically stored through its word: position k carries the 1-based
    index of the block containing k+1.
    """

    __slots__ = ("n", "word")

    def __init__(self, n, blocks):
        if n < 1:
            raise ValueError("n must be >= 1")
        blocks = tuple(tuple(sorted(blk)) for blk in blocks)
        _check_cover(n, blocks)
        w = [0] * n
        for k, blk in enumerate(blocks):
            for x in blk:
                w[x - 1] = k + 1
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "word", tuple(w))

    @classmethod
    def from_word(cls, word):
        """Build from a word whose values are exactly {1,...,p}."""
        word = tuple(word)
        if not word:
            raise ValueError("empty word")
        p = max(word)
        if set(word) != set(range(1, p + 1)):
            raise ValueError(f"word values must cover 1..{p}: {word}")
        return cls._raw(len(word), word)

    @classmethod
    def _raw(cls, n, word):
        self = object.__new__(cls)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "word", word)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("OrderedSetPartition is immutable")

    def __eq__(self, other):
        return (isinstance(other, OrderedSetPartition)
                and self.n == other.n and self.word == other.word)

    def __hash__(self):
        return hash((self.n, self.word))

    def __len__(self):
        """Number of blocks."""
        return max(self.word)

    def __repr__(self):
        return f"OrderedSetPartition.parse({str(self)!r})"

    def __str__(self):
        return format_blocks(self.blocks)

    @property
    def blocks(self):
        p = max(self.word)
        out = [[] for _ in range(p)]
        for pos, b in enumerate(self.word):
            out[b - 1].append(pos + 1)
        return tuple(tuple(blk) for blk in out)

    def block_of(self, i):
        """pi(i): 1-based index of the block containing i."""
        if not 1 <= i <= self.n:
            raise ValueError(f"{i} not in ground set")
        return self.word[i - 1]

    def underlying(self):
        """Forget the block order."""
        return SetPartition(self.n, self.blocks)

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

    def is_noncrossing(self):
        return _word_noncrossing(self.word)

    def is_interval(self):
        return _word_interval(self.word)

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
        """Parse block syntax "2,4|3,5|1" or word syntax "31212"."""
        text = text.strip()
        if not text:
            raise ValueError("empty partition text")
        if "|" in text or "," in text:
            blocks = []
            for part in text.split("|"):
                blk = [int(tok) for tok in part.split(",") if tok.strip() != ""]
                blocks.append(blk)
            n = sum(len(b) for b in blocks)
            return cls(n, blocks)
        if not text.isdigit():
            raise ValueError(f"not a partition literal: {text!r}")
        return cls.from_word(int(ch) for ch in text)


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
    return K.leq_words(sigma.word, pi.word)


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
    try:
        return K.interval_type_words(sigma.word, pi.word)
    except ValueError as exc:
        raise ValueError("sigma is not below pi") from exc


def interval_elements(sigma, pi):
    """Stream the interval [sigma, pi]; cardinality prod 2^(k_j - 1)."""
    if sigma.n != pi.n:
        raise ValueError("mismatched ground sets")
    if not K.leq_words(sigma.word, pi.word):
        raise ValueError("sigma is not below pi")
    for w in K.interval_words(sigma.word, pi.word):
        yield OrderedSetPartition._raw(sigma.n, w)


def ideal_elements(pi):
    """Stream every sigma <= pi."""
    for w in K.ideal_words(pi.word):
        yield OrderedSetPartition._raw(pi.n, w)


# ---------------------------------------------------------------------------
# class predicates on words
# ---------------------------------------------------------------------------

def _word_noncrossing(w):
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


def _word_interval(w):
    last = {}
    for pos, b in enumerate(w):
        if b in last and last[b] != pos - 1:
            return False
        last[b] = pos
    return True


def _word_monotone(w):
    if not _word_noncrossing(w):
        return False
    # nesting pairs: outer block value must precede (be smaller than) inner
    pos = {}
    for k, b in enumerate(w):
        pos.setdefault(b, []).append(k)
    for outer, po in pos.items():
        for inner, pi_ in pos.items():
            if outer == inner:
                continue
            if any(a < pi_[0] for a in po) and any(a > pi_[-1] for a in po):
                if outer > inner:
                    return False
    return True


def inner_block_indices(pi):
    """1-based indices of the inner blocks of a noncrossing partition.

    A block is inner when it sits strictly inside another block's span.
    """
    if not pi.is_noncrossing():
        raise ValueError("inner/outer split needs a noncrossing partition")
    pos = {}
    for k, b in enumerate(pi.word):
        pos.setdefault(b, []).append(k)
    inner = set()
    for b, pb in pos.items():
        for b2, pb2 in pos.items():
            if b2 == b:
                continue
            if any(a < pb[0] for a in pb2) and any(a > pb[-1] for a in pb2):
                inner.add(b)
                break
    return inner


def is_class(pi, cls) -> bool:
    """Class membership for an ordered set partition."""
    w = pi.word
    if cls == ALL:
        return True
    if cls == ONC or cls == NC:
        return _word_noncrossing(w)
    if cls == OI or cls == IP:
        return _word_interval(w)
    if cls == MONOTONE:
        return _word_monotone(w)
    if cls == PAIR:
        return _word_pair(w)
    if cls == PAIR_NC:
        return _word_pair(w) and _word_noncrossing(w)
    if cls == PAIR_IP:
        return _word_pair(w) and _word_interval(w)
    if cls == PAIR_MONOTONE:
        return _word_pair(w) and _word_monotone(w)
    raise ValueError(f"unknown class {cls!r}")


def _word_pair(w):
    counts = {}
    for b in w:
        counts[b] = counts.get(b, 0) + 1
    return all(c == 2 for c in counts.values())


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


def _iter_pair_words(n):
    """Pair ordered set partitions: perfect matchings times block orders."""
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
        for order in permutations(range(len(m))):
            w = [0] * n
            for newidx, blkidx in enumerate(order):
                for x in m[blkidx]:
                    w[x - 1] = newidx + 1
            yield tuple(w)


def enumerate_partitions(n, cls=ALL):
    """Stream every member of the class exactly once, deterministic order.

    ALL/ONC/OI/MONOTONE yield OrderedSetPartition, SP/NC/IP yield
    SetPartition, PAIR* yield OrderedSetPartition with all blocks of size 2.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if cls not in CLASSES:
        raise ValueError(f"unknown class {cls!r}")
    if cls in (SP, NC, IP):
        for w in _iter_set_partitions(n):
            if cls == NC and not _word_noncrossing(w):
                continue
            if cls == IP and not _word_interval(w):
                continue
            blocks = {}
            for pos, b in enumerate(w):
                blocks.setdefault(b, []).append(pos + 1)
            yield SetPartition(n, blocks.values())
        return
    if cls in (PAIR, PAIR_NC, PAIR_IP, PAIR_MONOTONE):
        pred = {PAIR: lambda w: True,
                PAIR_NC: _word_noncrossing,
                PAIR_IP: _word_interval,
                PAIR_MONOTONE: _word_monotone}[cls]
        for w in _iter_pair_words(n):
            if pred(w):
                yield OrderedSetPartition._raw(n, w)
        return
    pred = {ALL: lambda w: True,
            ONC: _word_noncrossing,
            OI: _word_interval,
            MONOTONE: _word_monotone}[cls]
    for w in K.iter_osp_words(n):
        if pred(w):
            yield OrderedSetPartition._raw(n, w)


# ---------------------------------------------------------------------------
# maximal interval / noncrossing partitions of a subset
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


# ---------------------------------------------------------------------------
# ordered pseudopartitions (empty blocks allowed)
# ---------------------------------------------------------------------------

class OrderedPseudoPartition:
    """Ordered sequence of disjoint, possibly empty blocks covering [n]."""

    __slots__ = ("n", "blocks")

    def __init__(self, n, blocks):
        blocks = tuple(tuple(sorted(blk)) for blk in blocks)
        _check_cover(n, blocks, allow_empty=True)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "blocks", blocks)

    def __setattr__(self, name, value):
        raise AttributeError("OrderedPseudoPartition is immutable")

    def __len__(self):
        return len(self.blocks)

    def __eq__(self, other):
        return (isinstance(other, OrderedPseudoPartition)
                and self.n == other.n and self.blocks == other.blocks)

    def __hash__(self):
        return hash((self.n, self.blocks))

    def __repr__(self):
        inner = format_blocks(self.blocks) or "-"
        return f"OrderedPseudoPartition({self.n}, {inner!r})"


def iter_pseudo_partitions(n, parts):
    """All ordered pseudopartitions of [n] with exactly `parts` blocks.

    Each of the n elements independently picks a slot, so there are
    parts**n of them.
    """
    if parts < 1:
        raise ValueError("parts must be >= 1")
    slots = [0] * n

    def rec(k):
        if k == n:
            blocks = [[] for _ in range(parts)]
            for x in range(n):
                blocks[slots[x]].append(x + 1)
            yield OrderedPseudoPartition(n, blocks)
            return
        for s in range(parts):
            slots[k] = s
            yield from rec(k + 1)

    yield from rec(0)


@lru_cache(maxsize=None)
def noncrossing_set_partitions(n):
    """Materialized NC_n as tuples of blocks (used by the free engine)."""
    out = []
    for w in _iter_set_partitions(n):
        if _word_noncrossing(w):
            blocks = {}
            for pos, b in enumerate(w):
                blocks.setdefault(b, []).append(pos + 1)
            out.append(tuple(tuple(blk) for blk in blocks.values()))
    return tuple(out)
