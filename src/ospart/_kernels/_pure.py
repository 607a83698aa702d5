"""Pure-Python word kernels for ordered set partitions.

An ordered set partition of {1,...,n} is encoded as its *word*: a tuple
``w`` of length n where ``w[k]`` is the 1-based index of the block
containing k+1, and the set of values is exactly {1,...,p} for some p.
All hot loops (enumeration, quasi-meet, incidence convolutions, brute-force
coefficient tables) work on these plain tuples.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import comb, factorial


def fubini(n: int) -> int:
    """Number of ordered set partitions of an n-set."""
    if n < 0:
        raise ValueError("n must be >= 0")
    row = [1]
    for m in range(1, n + 1):
        row.append(sum(comb(m, k) * row[m - k] for k in range(1, m + 1)))
    return row[n]


@lru_cache(maxsize=None)
def osp_words(n: int) -> tuple:
    """All ordered-set-partition words of [n], by block count then lex.

    Materialized and cached; guarded because Fubini growth makes large n
    a memory footgun (use iter_osp_words for streaming).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > 7:
        raise ValueError("osp_words is capped at n = 7; stream instead")
    return tuple(iter_osp_words(n))


def iter_osp_words(n: int):
    """Yield every OP word of [n] exactly once (p ascending, then lex)."""
    if n < 1:
        raise ValueError("n must be >= 1")
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


def kernel_word(seq) -> tuple:
    """Word of the ordered kernel partition of an index tuple.

    Positions holding the k-th smallest value form block k.
    """
    if not seq:
        raise ValueError("empty index tuple")
    rank = {v: i + 1 for i, v in enumerate(sorted(set(seq)))}
    return tuple(rank[v] for v in seq)


def rgs_word(u) -> tuple:
    """Relabel a word by first occurrence: canonical set-partition word."""
    lab = {}
    out = []
    for x in u:
        r = lab.get(x)
        if r is None:
            r = len(lab) + 1
            lab[x] = r
        out.append(r)
    return tuple(out)


def quasi_meet(u, v) -> tuple:
    """Quasi-meet word: concatenation of v's restrictions to u's blocks."""
    if len(u) != len(v):
        raise ValueError("words of different lengths")
    pairs = sorted(set(zip(u, v)))
    rank = {pr: i + 1 for i, pr in enumerate(pairs)}
    return tuple(rank[pr] for pr in zip(u, v))


def _hosts(u, v):
    """Padded list: entry a is the v-block holding u-block a (entry 0 is
    padding), or None when the lengths differ or a u-block meets two
    v-blocks."""
    if len(u) != len(v):
        return None
    vb = [0] * (max(u) + 1)
    for a, b in zip(u, v):
        if vb[a] == 0:
            vb[a] = b
        elif vb[a] != b:
            return None
    return vb


def relative_word(u, v):
    """The v-block holding each u-block, in u's block order.

    None when the lengths differ or some u-block meets two v-blocks, i.e.
    when the underlying partition of u does not refine that of v.
    """
    vb = _hosts(u, v)
    return None if vb is None else tuple(vb[1:])


def block_map(u, v):
    """For sigma=u <= pi=v, the map sigma-block index -> pi-block index.

    Returns None when the words are incomparable (a sigma-block straddles
    two pi-blocks, or the induced map is not weakly increasing).
    Entry 0 is padding; entries 1..max(u) are meaningful.
    """
    vb = _hosts(u, v)
    if vb is None:
        return None
    for i in range(1, len(vb) - 1):
        if vb[i] > vb[i + 1]:
            return None
    return vb


def leq_words(u, v) -> bool:
    """Order test sigma <= pi on words: every pi-block is a union of a
    contiguous run of sigma-blocks."""
    return block_map(u, v) is not None


def interval_type_words(u, v) -> tuple:
    """Composition (k_1,...,k_p): number of sigma-blocks in each pi-block."""
    vb = block_map(u, v)
    if vb is None:
        raise ValueError("incomparable words")
    counts = [0] * (max(v) + 1)
    for i in range(1, max(u) + 1):
        counts[vb[i]] += 1
    if 0 in counts[1:]:
        raise ValueError("incomparable words")
    return tuple(counts[1:])


def segments(seq, lengths) -> list:
    """Cut a sequence into consecutive pieces of the given lengths."""
    out = []
    pos = 0
    for ln in lengths:
        out.append(seq[pos:pos + ln])
        pos += ln
    if pos != len(seq):
        raise ValueError("lengths do not add up to the sequence length")
    return out


@lru_cache(maxsize=None)
def compositions(k: int) -> tuple:
    if k == 0:
        return ((),)
    out = []
    for first in range(1, k + 1):
        for rest in compositions(k - first):
            out.append((first,) + rest)
    return tuple(out)


@lru_cache(maxsize=None)
def typed_ideal(v) -> tuple:
    """(words, types): every sigma <= v and type(sigma, v), as two parallel
    tuples.

    Each sigma concatenates one OP word per v-block, and the block counts
    of those words are its type.  Equal types are one shared tuple.
    """
    n = len(v)
    positions = [[k for k, b in enumerate(v) if b == j]
                 for j in range(1, max(v) + 1)]
    words = []
    types = []
    shared = {}
    for combo in product(*(osp_words(len(ps)) for ps in positions)):
        w = [0] * n
        off = 0
        for ps, lw in zip(positions, combo):
            for pos, x in zip(ps, lw):
                w[pos] = off + x
            off += max(lw)
        words.append(tuple(w))
        t = tuple(map(max, combo))
        types.append(shared.setdefault(t, t))
    return tuple(words), tuple(types)


def ideal_words(v) -> tuple:
    """All sigma <= v, as concatenations of OP's of v's blocks."""
    return typed_ideal(v)[0]


def _typed_interval(u, v):
    """Yield (rho, type(u, rho), type(rho, v)) for every u <= rho <= v.

    The u-blocks inside each v-block form a run of consecutive indices, and
    each rho cuts every run by a composition: the compositions, concatenated,
    are type(u, rho), and their part counts are type(rho, v).  Order: the
    product of the per-run composition lists, each in `compositions` order.
    """
    vb = block_map(u, v)
    if vb is None:
        raise ValueError("incomparable words")
    runs = [0] * (max(v) + 1)
    for b in vb[1:]:
        runs[b] += 1
    for combo in product(*(compositions(k) for k in runs[1:])):
        t1 = sum(combo, ())
        lab = [0]
        for label, part in enumerate(t1, 1):
            lab += [label] * part
        yield tuple(map(lab.__getitem__, u)), t1, tuple(map(len, combo))


def interval_words(u, v) -> list:
    """All rho with u <= rho <= v (composition choices per pi-block run)."""
    return [r for r, _, _ in _typed_interval(u, v)]


def _prod(xs):
    r = 1
    for x in xs:
        r *= x
    return r


@lru_cache(maxsize=None)
def mu_tilde_type(t) -> Fraction:
    """Factorial Moebius function on an interval of type t:
    (-1)^(sum(t) - len(t)) / prod(t)."""
    return Fraction((-1) ** (sum(t) - len(t)), _prod(t))


@lru_cache(maxsize=None)
def zeta_tilde_type(t) -> Fraction:
    """Factorial zeta function on an interval of type t: 1 / prod(t_j!)."""
    return Fraction(1, _prod(factorial(k) for k in t))


def mu_tilde_words(u, v) -> Fraction:
    return mu_tilde_type(interval_type_words(u, v))


def zeta_tilde_words(u, v) -> Fraction:
    return zeta_tilde_type(interval_type_words(u, v))


@lru_cache(maxsize=None)
def _mu_zeta_scaled(t1, t2) -> tuple:
    """(mu~ zeta~, zeta~ mu~) on a pair of interval types (u, rho), (rho, v),
    times (m!)**2 for m = sum(t1) = max(u): integers, since prod(t1) and
    prod(t2!) both divide m! (and so do prod(t1!) and prod(t2))."""
    scale = factorial(sum(t1)) ** 2
    mz = scale * mu_tilde_type(t1) * zeta_tilde_type(t2)
    zm = scale * zeta_tilde_type(t1) * mu_tilde_type(t2)
    return mz.numerator, zm.numerator


@lru_cache(maxsize=None)
def _beta_type(x: int, t) -> int:
    """beta_x on an interval of type t: the product of binom(x, k)."""
    return _prod(comb(x, k) for k in t)


def mu_zeta_identity(n: int) -> bool:
    """Check mu~ * zeta~ = zeta~ * mu~ = delta on every comparable pair.

    Both sums are taken times (max(u)!)**2, in exact integers.
    """
    for v in osp_words(n):
        for u in ideal_words(v):
            s_mz = 0
            s_zm = 0
            for _, t1, t2 in _typed_interval(u, v):
                mz, zm = _mu_zeta_scaled(t1, t2)
                s_mz += mz
                s_zm += zm
            expect = factorial(max(u)) ** 2 if u == v else 0
            if s_mz != expect or s_zm != expect:
                return False
    return True


def beta_semigroup_identity(n: int, s: int, t: int) -> bool:
    """Check beta_s * beta_t = beta_{st} on every comparable pair."""
    for v in osp_words(n):
        for u, tv in zip(*typed_ideal(v)):
            total = sum(_beta_type(s, t1) * _beta_type(t, t2)
                        for _, t1, t2 in _typed_interval(u, v))
            if total != _beta_type(s * t, tv):
                return False
    return True


def weisner_oracle_table(n: int) -> dict:
    """Brute-force w(tau,eta) for all pairs: table[eta][tau], zeros omitted.

    For each eta a single sweep over OP_n buckets mu~(sigma,1^) by the
    quasi-meet sigma curlywedge eta.
    """
    words = osp_words(n)
    mu_top = {}
    for w in words:
        p = max(w)
        mu_top[w] = Fraction((-1) ** (p - 1), p)
    table = {}
    for eta in words:
        acc = {}
        for sig in words:
            tau = quasi_meet(sig, eta)
            acc[tau] = acc.get(tau, 0) + mu_top[sig]
        table[eta] = {k: val for k, val in acc.items() if val}
    return table


def goldberg_oracle_table(n: int) -> dict:
    """Brute-force g(tau,eta) = sum_{sigma>=tau} zeta~(tau,sigma) w(sigma,eta)."""
    words = osp_words(n)
    wtab = weisner_oracle_table(n)
    zpairs = {}
    for sig in words:
        taus, types = typed_ideal(sig)
        zpairs[sig] = tuple(zip(taus, map(zeta_tilde_type, types)))
    table = {}
    for eta in words:
        acc = {}
        for sig, wval in wtab[eta].items():
            for tau, z in zpairs[sig]:
                acc[tau] = acc.get(tau, 0) + z * wval
        table[eta] = {k: val for k, val in acc.items() if val}
    return table
