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
    pairs = sorted(set(zip(u, v)))
    rank = {pr: i + 1 for i, pr in enumerate(pairs)}
    return tuple(rank[pr] for pr in zip(u, v))


def block_map(u, v):
    """For sigma=u <= pi=v, the map sigma-block index -> pi-block index.

    Returns None when the words are incomparable (a sigma-block straddles
    two pi-blocks, or the induced map is not weakly increasing).
    Entry 0 is padding; entries 1..max(u) are meaningful.
    """
    vb = [0] * (max(u) + 1)
    for a, b in zip(u, v):
        if vb[a] == 0:
            vb[a] = b
        elif vb[a] != b:
            return None
    for i in range(1, max(u)):
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
def ideal_words(v) -> tuple:
    """All sigma <= v, as concatenations of OP's of v's blocks."""
    n = len(v)
    pv = max(v)
    positions = [[] for _ in range(pv + 1)]
    for k, b in enumerate(v):
        positions[b].append(k)
    choices = [osp_words(len(positions[j])) for j in range(1, pv + 1)]
    out = []
    for combo in product(*choices):
        w = [0] * n
        off = 0
        for j, lw in enumerate(combo):
            for idx, pos in enumerate(positions[j + 1]):
                w[pos] = off + lw[idx]
            off += max(lw)
        out.append(tuple(w))
    return tuple(out)


def interval_words(u, v) -> list:
    """All rho with u <= rho <= v (composition choices per pi-block run)."""
    vb = block_map(u, v)
    if vb is None:
        raise ValueError("incomparable words")
    pu, pv = max(u), max(v)
    runs = [[] for _ in range(pv + 1)]
    for i in range(1, pu + 1):
        runs[vb[i]].append(i)
    per_block = [compositions(len(runs[j])) for j in range(1, pv + 1)]
    out = []
    for combo in product(*per_block):
        lab = [0] * (pu + 1)
        nxt = 1
        for j, comp in enumerate(combo):
            r = runs[j + 1]
            idx = 0
            for part in comp:
                for _ in range(part):
                    lab[r[idx]] = nxt
                    idx += 1
                nxt += 1
        out.append(tuple(lab[c] for c in u))
    return out


def _prod(xs):
    r = 1
    for x in xs:
        r *= x
    return r


@lru_cache(maxsize=None)
def mu_tilde_words(u, v) -> Fraction:
    t = interval_type_words(u, v)
    return Fraction((-1) ** (sum(t) - len(t)), _prod(t))


@lru_cache(maxsize=None)
def zeta_tilde_words(u, v) -> Fraction:
    t = interval_type_words(u, v)
    return Fraction(1, _prod(factorial(k) for k in t))


def mu_zeta_identity(n: int) -> bool:
    """Check mu~ * zeta~ = zeta~ * mu~ = delta on every comparable pair."""
    one = Fraction(1)
    zero = Fraction(0)
    for v in osp_words(n):
        for u in ideal_words(v):
            s_mz = zero
            s_zm = zero
            for r in interval_words(u, v):
                s_mz += mu_tilde_words(u, r) * zeta_tilde_words(r, v)
                s_zm += zeta_tilde_words(u, r) * mu_tilde_words(r, v)
            expect = one if u == v else zero
            if s_mz != expect or s_zm != expect:
                return False
    return True


def beta_semigroup_identity(n: int, s: int, t: int) -> bool:
    """Check beta_s * beta_t = beta_{st} on every comparable pair."""

    def beta_int(x, u, v):
        return _prod(comb(x, k) for k in interval_type_words(u, v))

    for v in osp_words(n):
        for u in ideal_words(v):
            total = sum(
                beta_int(s, u, r) * beta_int(t, r, v) for r in interval_words(u, v)
            )
            if total != beta_int(s * t, u, v):
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
    zpairs = {
        sig: tuple((tau, zeta_tilde_words(tau, sig)) for tau in ideal_words(sig))
        for sig in words
    }
    table = {}
    for eta in words:
        acc = {}
        for sig, wval in wtab[eta].items():
            for tau, z in zpairs[sig]:
                acc[tau] = acc.get(tau, 0) + z * wval
        table[eta] = {k: val for k, val in acc.items() if val}
    return table
