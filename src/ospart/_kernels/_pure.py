"""Pure-Python word kernels for ordered set partitions.

An ordered set partition of {1,...,n} is encoded as its *word*: a tuple
``w`` of length n where ``w[k]`` is the 1-based index of the block
containing k+1, and the set of values is exactly {1,...,p} for some p.
All hot loops (enumeration, quasi-meet, incidence convolutions, brute-force
coefficient tables) work on these plain tuples.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, product
from math import comb, factorial, lcm, prod
from operator import itemgetter


def fubini(n: int) -> int:
    """Number of ordered set partitions of an n-set."""
    if n < 0:
        raise ValueError("n must be >= 0")
    row = [1]
    for m in range(1, n + 1):
        row.append(sum(comb(m, k) * row[m - k] for k in range(1, m + 1)))
    return row[n]


OSP_WORDS_CAP = 7


@lru_cache(maxsize=None)
def osp_words(n: int) -> tuple:
    """All ordered-set-partition words of [n], by block count then lex.

    Materialized and cached, so capped at OSP_WORDS_CAP; stream beyond it.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > OSP_WORDS_CAP:
        raise ValueError(f"osp_words is capped at n = {OSP_WORDS_CAP}; "
                         "stream instead")
    return tuple(iter_osp_words(n))


@lru_cache(maxsize=None)
def _tails(p: int, size: int, gaps: tuple) -> tuple:
    """Every word of the given size over 1..p that uses each block in gaps,
    in lex order."""
    need = set(gaps)
    return tuple(s for s in product(range(1, p + 1), repeat=size)
                 if need.issubset(s))


def iter_osp_words(n: int):
    """Yield every OP word of [n] exactly once (p ascending, then lex).

    For each p a successor rule walks the heads (all but the last three
    letters) in lex order: it raises the rightmost letter that can rise and
    still leave room for every block the head misses, then refills the
    letters after it lex-first.  Each head is followed by its tails.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    size = min(n, 3)
    m = n - size
    for p in range(1, n + 1):
        w = ([1] * (n - p + 1) + list(range(2, p + 1)))[:m]
        cnt = [w.count(b) for b in range(p + 1)]
        while True:
            gaps = tuple(b for b in range(1, p + 1) if not cnt[b])
            yield from map(tuple(w).__add__, _tails(p, size, gaps))
            missing = len(gaps)
            for i in range(m - 1, -1, -1):
                cnt[w[i]] -= 1
                missing += not cnt[w[i]]
                room = n - 1 - i
                y = next((b for b in range(w[i] + 1, p + 1)
                          if missing - (not cnt[b]) <= room), 0)
                if y:
                    break
            else:
                break
            w[i] = y
            cnt[y] += 1
            rest = [b for b in range(2, p + 1) if not cnt[b]]
            w[i + 1:] = ([1] * (room - len(rest)) + rest)[:m - 1 - i]
            for b in w[i + 1:]:
                cnt[b] += 1


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


def relative_word(u, v):
    """The v-block holding each u-block, in u's block order.

    None when the lengths differ or some u-block meets two v-blocks, i.e.
    when the underlying partition of u does not refine that of v.
    """
    if len(u) != len(v):
        return None
    hosts = [0] * max(u)
    for a, b in zip(u, v):
        h = hosts[a - 1]
        if h != b:
            if h:
                return None
            hosts[a - 1] = b
    return tuple(hosts)


def order_type(u, v):
    """type(u, v) = (k_1,...,k_q), the number of u-blocks in each v-block,
    or None unless u <= v.

    u <= v when every v-block is the union of a run of consecutive u-blocks:
    the relative word climbs 1, 2, ..., q in steps of 0 or 1.
    """
    rw = relative_word(u, v)
    if rw is None:
        return None
    t = []
    for b in rw:
        if b == len(t) + 1:
            t.append(1)
        elif b == len(t) > 0:
            t[-1] += 1
        else:
            return None
    return tuple(t)


def leq_words(u, v) -> bool:
    """Order test sigma <= pi on words."""
    return order_type(u, v) is not None


def interval_type_words(u, v) -> tuple:
    """Composition (k_1,...,k_p): number of sigma-blocks in each pi-block."""
    t = order_type(u, v)
    if t is None:
        raise ValueError("incomparable words")
    return t


def segments(seq, lengths) -> list:
    """Cut a sequence into consecutive pieces of the given lengths."""
    if sum(lengths) != len(seq):
        raise ValueError("lengths do not add up to the sequence length")
    return [seq[end - ln:end] for ln, end in zip(lengths, accumulate(lengths))]


@lru_cache(maxsize=None)
def compositions(k: int) -> tuple:
    if k == 0:
        return ((),)
    return tuple((first,) + rest for first in range(1, k + 1)
                 for rest in compositions(k - first))


@lru_cache(maxsize=None)
def _lifted(k: int, off: int) -> tuple:
    """(w + off, max(w)) for every OP word w of [k]."""
    return tuple((tuple(x + off for x in w), max(w)) for w in osp_words(k))


@lru_cache(maxsize=None)
def _block_sizes(v) -> tuple:
    return tuple(map(v.count, range(1, max(v) + 1)))


def _representative(sizes) -> tuple:
    """The word 1...1 2...2 ... whose blocks have these sizes, in order.

    Every word v with the same block sizes is it with its positions permuted
    by _carrier(v), and so are the ideal and the oracle rows of v.
    """
    return tuple(j for j, k in enumerate(sizes, 1) for _ in range(k))


def _carrier(v):
    """The position permutation taking _representative(_block_sizes(v)) to v,
    as a map on words: position k of the result reads position place[k] of
    its argument, where place[k] is k's index once v's positions are sorted
    (stably) by block.

    quasi-meet, the order and the interval types commute with it, so it
    takes every sigma <= the representative, and every oracle row of the
    representative, to those of v.
    """
    order = sorted(range(len(v)), key=v.__getitem__)
    place = sorted(range(len(v)), key=order.__getitem__)
    # itemgetter of one index returns the item, not a 1-tuple
    return itemgetter(*place) if len(place) > 1 else tuple


def _carry_row(row, v):
    """An oracle row of _representative(_block_sizes(v)), carried to v."""
    return dict(zip(map(_carrier(v), row), row.values()))


@lru_cache(maxsize=None)
def _ideal_rows(sizes) -> tuple:
    """(words, types) of typed_ideal(_representative(sizes)).

    Each sigma concatenates one OP word per block, lifted past the blocks
    of the words before it, and the block counts of those words are its
    type.  Equal types are one shared tuple.
    """
    rows = [((), (), 0)]
    for k in sizes:
        rows = [(c + w, t + (p,), off + p) for c, t, off in rows
                for w, p in _lifted(k, off)]
    shared = {}
    return (tuple(c for c, _, _ in rows),
            tuple(shared.setdefault(t, t) for _, t, _ in rows))


@lru_cache(maxsize=None)
def typed_ideal(v) -> tuple:
    """(words, types): every sigma <= v and type(sigma, v), as two parallel
    tuples.

    The rows of v's block sizes are built once (_ideal_rows) and carried to
    v by its position permutation; the types tuple is theirs, shared by
    every word of those block sizes.
    """
    words, types = _ideal_rows(_block_sizes(v))
    return tuple(map(_carrier(v), words)), types


def ideal_words(v) -> tuple:
    """All sigma <= v, as concatenations of OP's of v's blocks."""
    return typed_ideal(v)[0]


def _interval_types(t):
    """Yield (type(u, rho), type(rho, v)) for every u <= rho <= v, from
    t = type(u, v) alone.

    The u-blocks inside the j-th v-block form a run of t[j] consecutive
    indices, and each rho cuts every run by a composition: the compositions,
    concatenated, are type(u, rho), and their part counts are type(rho, v).
    Order: the product of the per-run composition lists, each in
    `compositions` order.
    """
    for combo in product(*map(compositions, t)):
        yield sum(combo, ()), tuple(map(len, combo))


def interval_words(u, v) -> list:
    """All rho with u <= rho <= v, in the order of `_interval_types`:
    rho labels the u-blocks by the parts of type(u, rho)."""
    out = []
    for t1, _ in _interval_types(interval_type_words(u, v)):
        lab = [0] + [label for label, part in enumerate(t1, 1)
                     for _ in range(part)]
        out.append(tuple(map(lab.__getitem__, u)))
    return out


@lru_cache(maxsize=None)
def mu_tilde_type(t) -> Fraction:
    """Factorial Moebius function on an interval of type t:
    (-1)^(sum(t) - len(t)) / prod(t)."""
    return Fraction((-1) ** (sum(t) - len(t)), prod(t))


@lru_cache(maxsize=None)
def zeta_tilde_type(t) -> Fraction:
    """Factorial zeta function on an interval of type t: 1 / prod(t_j!)."""
    return Fraction(1, prod(factorial(k) for k in t))


def cleared(values) -> tuple:
    """(d, {key: int}): the exact values of a dict as integers over their
    least common denominator d."""
    d = lcm(*(c.denominator for c in values.values()))
    return d, {k: c.numerator * (d // c.denominator)
               for k, c in values.items()}


def divided(ints, d) -> dict:
    """{key: v / d} over the nonzero v of ints, for exact numerators (int
    or Fraction) and a positive int d: an int by one divmod when integral,
    else a Fraction, one quotient object per distinct numerator.
    The integer loops feeding it (projector, CBH, series) add by
    `acc[k] = get(k, 0) + c` and leave their zeros to it: adding through
    symbolic.add_into made the cbh-lie workload 7-11 % slower."""
    quotients = {}
    out = {}
    for k, v in ints.items():
        if v:
            q = quotients.get(v)
            if q is None:
                q, r = divmod(v, d)
                q = quotients[v] = Fraction(v, d) if r else q
            out[k] = q
    return out


def truncated_product(p, q, order) -> dict:
    """Concatenation product of two {word: int} dicts without the words
    longer than order: each left word meets only the right words that
    fit.  Cancelled words stay, as zeros, for `divided` to drop."""
    by_length = {}
    for w2, c2 in q.items():
        by_length.setdefault(len(w2), []).append((w2, c2))
    by_length = sorted(by_length.items())
    out = {}
    get = out.get
    for w1, c1 in p.items():
        room = order - len(w1)
        for length, group in by_length:
            if length > room:
                break
            for w2, c2 in group:
                w = w1 + w2
                out[w] = get(w, 0) + c1 * c2
    return out


def series_compose(x, coeffs, order) -> dict:
    """sum_k coeffs[k] x^k, k = 0..order, truncated at order, for a
    {word: exact} dict x without the empty word (higher powers vanish).

    With x = X / d and coeffs[k] = A_k / L in integers, the sum is
    (sum_k A_k X^k d^(order - k)) / (L d^order): the powers and the sum
    are formed in ints, and each word is divided once.
    """
    d, big_x = cleared(x)
    scale, a = cleared(dict(enumerate(coeffs)))
    acc = {(): a[0] * d ** order}
    get = acc.get
    power = {(): 1}
    for k in range(1, order + 1):
        power = truncated_product(power, big_x, order)
        ak = a[k] * d ** (order - k)
        for w, c in power.items():
            acc[w] = get(w, 0) + c * ak
    return divided(acc, scale * d ** order)


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
    return prod(comb(x, k) for k in t)


def _holds_per_type(n: int, holds) -> bool:
    """True when holds(t) for the type t = type(u, v) of every comparable
    pair of OP_n, each judged once: the compositions of m = 1..n, as t is
    the type of u <= v when v's block sizes are t with n - m added to one
    part and u splits the j-th v-block into t_j blocks."""
    if isinstance(n, bool) or not isinstance(n, int):
        raise TypeError("n must be an int")
    if not 1 <= n <= OSP_WORDS_CAP:
        raise ValueError(f"n must be in 1..{OSP_WORDS_CAP}")
    return all(holds(t) for m in range(1, n + 1) for t in compositions(m))


def mu_zeta_identity(n: int) -> bool:
    """Check mu~ * zeta~ = zeta~ * mu~ = delta on every comparable pair.

    Both sums over [u, v] are taken times (max(u)!)**2, in exact integers.
    u == v exactly when t = type(u, v) is all ones, and max(u) = sum(t).
    """
    def holds(tv):
        s_mz = s_zm = 0
        for t1, t2 in _interval_types(tv):
            mz, zm = _mu_zeta_scaled(t1, t2)
            s_mz += mz
            s_zm += zm
        expect = factorial(sum(tv)) ** 2 if max(tv) == 1 else 0
        return s_mz == s_zm == expect

    return _holds_per_type(n, holds)


def beta_semigroup_identity(n: int, s: int, t: int) -> bool:
    """Check beta_s * beta_t = beta_{st} on every comparable pair."""
    if s < 0 or t < 0:
        raise ValueError(f"s and t must be >= 0, got s = {s}, t = {t}")
    return _holds_per_type(n, lambda tv: sum(
        _beta_type(s, t1) * _beta_type(t, t2)
        for t1, t2 in _interval_types(tv)) == _beta_type(s * t, tv))


class _Quotients(dict):
    """x -> Fraction(x, d), made once per distinct numerator x."""

    def __init__(self, d: int):
        super().__init__()
        self.d = d

    def __missing__(self, x):
        q = self[x] = Fraction(x, self.d)
        return q


@lru_cache(maxsize=None)
def _weisner_scaled(n: int) -> tuple:
    """(L, table): L = lcm(1..n) and the integers L * w(tau, eta) as
    table[eta][tau], zeros omitted.

    Only the representative eta of each block-size composition is swept:
    over all of OP_n, L mu~(sigma, 1^) = (-1)^(p-1) L/p is bucketed by
    sigma's quasi-meet with it, 2^(n-1) Fubini(n) quasi-meets in all.
    sigma -> sigma o g permutes OP_n and commutes with the quasi-meet, so
    every other eta gets its representative's row carried by _carrier(eta).
    Cached for both oracle tables, which only read it.
    """
    words = osp_words(n)
    scale = lcm(*range(1, n + 1))
    mu_top = [(-1) ** (max(w) - 1) * (scale // max(w)) for w in words]
    rows = {}
    for sizes in compositions(n):
        rep = _representative(sizes)
        acc = {}
        for sig, m in zip(words, mu_top):
            tau = quasi_meet(sig, rep)
            acc[tau] = acc.get(tau, 0) + m
        rows[sizes] = {k: val for k, val in acc.items() if val}
    return scale, {eta: _carry_row(rows[_block_sizes(eta)], eta)
                   for eta in words}


def weisner_oracle_table(n: int) -> dict:
    """Brute-force w(tau,eta) for all pairs: table[eta][tau], zeros omitted."""
    scale, table = _weisner_scaled(n)
    q = _Quotients(scale)
    return {eta: {tau: q[x] for tau, x in row.items()}
            for eta, row in table.items()}


def goldberg_oracle_table(n: int) -> dict:
    """Brute-force g(tau,eta) = sum_{sigma>=tau} zeta~(tau,sigma) w(sigma,eta),
    summed as integers n! zeta~ times L w and divided once per entry.

    The sum runs for the representative eta of each block-size composition
    only; every other eta gets its row carried by _carrier(eta), since
    sigma -> sigma o g keeps both zeta~ and w.
    """
    scale, wtab = _weisner_scaled(n)
    nf = factorial(n)
    q = _Quotients(scale * nf)
    # n! zeta~ on the types of each block-size row of OP_n: integers, since
    # prod(t_j!) divides sum(t)!, which divides n!
    zetas = {sizes: [nf // prod(map(factorial, t))
                     for t in _ideal_rows(sizes)[1]]
             for sizes in compositions(n)}
    rows = {}
    for sizes in compositions(n):
        acc = {}
        for sig, wval in wtab[_representative(sizes)].items():
            for tau, z in zip(typed_ideal(sig)[0],
                              zetas[_block_sizes(sig)]):
                acc[tau] = acc.get(tau, 0) + z * wval
        rows[sizes] = {k: q[val] for k, val in acc.items() if val}
    return {eta: _carry_row(rows[_block_sizes(eta)], eta)
            for eta in osp_words(n)}
