"""Symbolic moment/cumulant engines for the five product constructions.

Each engine evaluates the partitioned expectation phi_pi(X_1,...,X_n) over
formal variables, in one shared commutative polynomial ring (ospart.symbolic)
so cross-engine identities are directly comparable:

  tensor     product of joint moments over the blocks
  boolean    product over the maximal interval partition below the blocks
  monotone   iterated peeling of maximal-index runs of the block word
  free       sum of free-cumulant products over noncrossing refinements
  cmonotone  two-state recursion with a second (psi) symbol family

On top of phi_pi sit the moment<->cumulant transforms, the dot-operation
dilation, partial cumulants with their evolution equations, mixed-cumulant
expansions through Weisner/Goldberg coefficients, independence and
exchangeability checks, and central-limit moments.

Tensor, free and Boolean independence are exchangeable: their phi_pi
depends only on the underlying set partition of pi, never on the order of
its blocks (Lehner, Math. Z. 248, 2004).  Monotone and c-monotone
independence are only spreadable, which is why every engine works on
ordered set partitions.  Engines marked `exchangeable` sum central-limit
moments over set partitions; every other method, exchangeability_check
included, evaluates on ordered ones.
"""

from collections import defaultdict
from fractions import Fraction
from functools import lru_cache
from itertools import chain, islice, repeat
from math import factorial, lcm, prod

from . import _kernels as K
from .coefficients import goldberg3, weisner3
from .incidence import generalized_binomial
from .partitions import (NC, OrderedSetPartition, _nesting_parents,
                         enumerate_partitions, iter_pair_set_words,
                         iter_pair_words)
from .symbolic import (FREE_CUMULANT, MOMENT, PSI_MOMENT, Poly, _mono_mul,
                       add_into, exact, free_cumulant_symbol, scalar_symbol,
                       time_symbol)

ONE = Poly.const(1)
ZERO = Poly()


class Atoms:
    """Primitive expectations handed to an engine during evaluation.

    Every engine speaks one protocol to its atoms: `product(runs, family)`,
    the product of one family's atoms over a list of runs, each an
    ascending tuple of 0-based positions of the current word, and `sum`,
    which adds the values of such products.  The family is MOMENT (the
    psi family when `moment_kind` is PSI_MOMENT), PSI_MOMENT or
    FREE_CUMULANT.  Here a product is one monomial in the symbols of the
    runs' labels, built once per distinct list of factors; labels range(n)
    name each atom by its positions, as check_independence does.

    The other provider, CLT_ATOMS, gives plain integers.  c-monotone
    evaluates its rule V in the provider's ring when the provider has no
    `term`, so on CLT_ATOMS it skips the terms a zero atom multiplies.
    On Atoms it expands rule V in its private ring _Terms, which answers
    the same protocol, and asks `term(factors)`, the product over
    (family, run) pairs of mixed families, once per distinct signed term,
    keeping those terms in `_rule_v` by syllable sequence so the words of
    one atoms object share them.  The one sum over an ideal, _ideal_sum,
    adds the values' terms in integers outside the atoms.
    """

    sum = staticmethod(Poly.sum)

    def __init__(self, labels, moment_kind=MOMENT):
        self.labels = tuple(labels)
        self.moment_kind = moment_kind
        self._products = {}
        self._rule_v = {}

    def product(self, runs, family=MOMENT):
        """The product over runs of the family's atoms, as one monomial."""
        return self.term(tuple((family, tuple(run)) for run in runs))

    def term(self, factors):
        """The product of the atoms over (family, run) pairs, as one
        monomial, built once per distinct factors tuple."""
        val = self._products.get(factors)
        if val is None:
            kind, labels = self.moment_kind, self.labels
            val = self._products[factors] = Poly.monomial(
                (kind if family == MOMENT else family,
                 tuple(labels[i] for i in run)) for family, run in factors)
        return val


def _positions_by_block(word):
    out = {}
    for pos, b in enumerate(word):
        out.setdefault(b, []).append(pos)
    return out


def _per_element(n, values, what="variable label"):
    """values as a tuple; ValueError unless it holds one entry per element
    of [n]."""
    values = tuple(values)
    if len(values) != n:
        raise ValueError(f"need one {what} per element: got {len(values)} "
                         f"for n = {n}")
    return values


def _check_size(n):
    if n < 1:
        raise ValueError(f"n must be >= 1: got {n}")


def _labels_or_default(n, labels):
    """One label per element of [n]: X1..Xn when labels is None."""
    return _default_labels(n) if labels is None else _per_element(n, labels)


def _syllables(word):
    """The maximal runs of equal letters of word, as (letter, positions)."""
    syls = []
    for pos, v in enumerate(word):
        if syls and syls[-1][0] == v:
            syls[-1][1].append(pos)
        else:
            syls.append((v, [pos]))
    return tuple([(v, tuple(ps)) for v, ps in syls])


def _monotone_runs(word):
    """The positions of each block that no smaller value separates
    (peeling the maximal-value runs yields the same runs).  The open runs
    form a stack, values increasing upwards."""
    runs = []
    stack = []
    for pos, v in enumerate(word):
        while stack and stack[-1][0] > v:
            runs.append(stack.pop()[1])
        if stack and stack[-1][0] == v:
            stack[-1][1].append(pos)
        else:
            stack.append((v, [pos]))
    runs.extend(run for _, run in stack)
    return runs


class Engine:
    """Shared machinery; subclasses provide _phi_word."""

    name = "abstract"
    # phi_pi depends only on the underlying set partition of pi
    exchangeable = False

    def _phi_word(self, word, atoms):
        raise NotImplementedError

    def _memo_phi(self, at):
        """w -> phi_w on the atoms at, each word evaluated once per call."""
        return lru_cache(maxsize=None)(lambda w: self._phi_word(w, at))

    # -- partitioned moments ------------------------------------------------

    def phi_pi(self, pi, labels, atoms=None):
        """phi_pi(X_1,...,X_n) as a polynomial in primitive symbols."""
        labels = _per_element(pi.n, labels)
        return self._phi_word(pi.word, atoms or Atoms(labels))

    def phi_pi_indexed(self, pi, labels, indices):
        """phi_pi of upper-indexed copies: evaluates at pi quasi-meet kernel."""
        indices = _per_element(pi.n, indices, "index")
        labels = _per_element(pi.n, labels)
        w = K.quasi_meet(pi.word, K.kernel_word(indices))
        return self._phi_word(w, Atoms(labels))

    # -- cumulants ----------------------------------------------------------

    def cumulant(self, pi, labels, atoms=None):
        """K_pi = sum over sigma <= pi of phi_sigma mu~(sigma,pi)."""
        labels = _per_element(pi.n, labels)
        at = atoms or Atoms(labels)
        return _ideal_sum(pi.word, lambda w: self._phi_word(w, at),
                          K.mu_tilde_type)

    def cumulant_n(self, labels, atoms=None):
        """K_n, the cumulant of the one-block partition."""
        labels = tuple(labels)
        _check_size(len(labels))
        return self.cumulant(OrderedSetPartition.one_block(len(labels)),
                             labels, atoms)

    def cumulant_indexed(self, pi, labels, indices):
        """K_pi with entries X_k^(i_k): Mobius sum of quasi-met moments."""
        indices = _per_element(pi.n, indices, "index")
        labels = _per_element(pi.n, labels)
        eta_w = K.kernel_word(indices)
        at = Atoms(labels)
        return _ideal_sum(pi.word, lambda w: self._phi_word(
            K.quasi_meet(w, eta_w), at), K.mu_tilde_type)

    def cumulant_table(self, n, labels=None):
        """{word: K_pi} over all of OP_n."""
        at = Atoms(_labels_or_default(n, labels))
        return _mu_tilde_table({w: self._phi_word(w, at)
                                for w in K.osp_words(n)})

    def multiplicative_cumulant(self, pi, labels):
        """K_(pi): product of one-block cumulants over the blocks of pi."""
        labels = _per_element(pi.n, labels)
        total = ONE
        for blk in pi.blocks:
            total = total * self.cumulant_n([labels[x - 1] for x in blk])
        return total

    # -- dilation (dot operation) -------------------------------------------

    def dilate(self, pi, labels, scale, atoms=None):
        """phi_pi(N.X_1,...,N.X_n); polynomial in a symbolic scale.

        Accepts an int/Fraction, a Poly, or a string naming a scalar symbol.
        """
        return self.dilate_blockwise(pi, labels, [scale] * len(pi), atoms)

    def dilate_blockwise(self, pi, labels, scales, atoms=None):
        """phi_pi(N_{pi(1)}.X_1, ..., N_{pi(n)}.X_n) with one scale per block."""
        labels = _per_element(pi.n, labels)
        at = atoms or Atoms(labels)
        return _ideal_sum(pi.word, lambda w: self._phi_word(w, at),
                          _block_scales(pi, scales))

    def cumulant_dilated(self, pi, labels, scales):
        """K_pi(N_{pi(1)}.X_1, ..., N_{pi(n)}.X_n)."""
        labels = _per_element(pi.n, labels)
        scales = _block_scales(pi, scales)
        phi = self._memo_phi(Atoms(labels))
        # each sigma-block dilates by the scale of the pi-block holding it
        return _ideal_sum(pi.word, lambda w: _ideal_sum(w, phi, [
            scales[b - 1] for b in K.relative_word(w, pi.word)]),
            K.mu_tilde_type)

    def dilate_iterated(self, pi, labels, inner, outer):
        """phi_pi(M.(N.X_1), ..., M.(N.X_n)) via the two-step expansion."""
        labels = _per_element(pi.n, labels)
        phi = self._memo_phi(Atoms(labels))
        inner, outer = _as_scale(inner), _as_scale(outer)
        return _ideal_sum(pi.word, lambda w: _ideal_sum(
            w, phi, repeat(inner)), repeat(outer))

    # -- time evolution -----------------------------------------------------

    def phi_t(self, pi, labels, params=None, atoms=None):
        """phi^t_pi: dilation with a formal parameter per block."""
        if params is None:
            params = [Poly.sym(time_symbol(j)) for j in range(1, len(pi) + 1)]
        params = list(params)
        if len(params) != len(pi):
            raise ValueError("need one parameter per block")
        return self.dilate_blockwise(pi, labels, params, atoms)

    def partial_cumulant(self, pi, labels, j):
        """d/dt_j at t_j = 0 of phi^t_pi, a polynomial in the other t's:
        its [t_j^1] coefficient, read off the weight rows with slot j
        _LINEAR, so no Poly in t_j is formed."""
        if not 1 <= j <= len(pi):
            raise ValueError("block index out of range")
        params = [Poly.sym(time_symbol(i)) for i in range(1, len(pi) + 1)]
        params[j - 1] = _LINEAR
        return self.phi_t(pi, labels, params)

    def diffeq_residuals(self, pi, labels, j):
        """Residuals of both evolution identities for d/dt_j phi^t_pi.

        Splitting the j-th block P into (A, P\\A) with the fresh parameter s
        on A gives the first form; (P\\A, A) gives the second.  Each split
        phi^t is read at its [s^1] coefficient off the weight rows, with s's
        slot _LINEAR, so no Poly in s is formed.  Both residuals vanish
        identically for the product engines.
        """
        labels = _per_element(pi.n, labels)
        if not 1 <= j <= len(pi):
            raise ValueError("block index out of range")
        phi = self._memo_phi(Atoms(labels))
        ts = [Poly.sym(time_symbol(i)) for i in range(1, len(pi) + 1)]
        lhs = _ideal_sum(pi.word, phi, ts).diff(time_symbol(j))
        pj = pi.blocks[j - 1]
        rhs = [{}, {}]
        for mask in range(1, 1 << len(pj)):
            a = [x for i, x in enumerate(pj) if mask >> i & 1]
            rest = [x for x in pj if x not in a]
            split = [(a, _LINEAR)] + ([(rest, ts[j - 1])] if rest else [])
            for form in (0, 1):
                mid = split if form == 0 else split[::-1]
                pi2 = OrderedSetPartition(pi.n, [
                    *pi.blocks[:j - 1], *(b for b, _ in mid), *pi.blocks[j:]])
                params = [*ts[:j - 1], *(x for _, x in mid), *ts[j:]]
                add_into(rhs[form],
                         _ideal_sum(pi2.word, phi, params).terms.items())
        return lhs - Poly(rhs[0]), lhs - Poly(rhs[1])

    # -- central limit ------------------------------------------------------

    def clt_moment(self, n) -> Fraction:
        """Limit moment of the normalized sum with phi(X)=0, phi(X^2)=1.

        The sum of 1/|pi|! phi_pi over the ordered pair partitions pi of
        [n].  When the engine is exchangeable, the |pi|! block orders of a
        pair set partition share one phi_pi and cancel the 1/|pi|!, so the
        sum runs over the pair set partitions with weight 1: 105 words
        instead of 2,520 at n = 8.  Each phi_pi is evaluated on CLT_ATOMS,
        straight into the integers: no symbol is formed or substituted.
        """
        if n < 0:
            raise ValueError(f"n must be >= 0: got {n}")
        if n % 2:
            return Fraction(0)
        if n == 0:
            return Fraction(1)  # the empty product, in every engine
        if self.exchangeable:
            words, weight = iter_pair_set_words(n), 1
        else:
            words, weight = iter_pair_words(n), factorial(n // 2)
        return Fraction(sum(self._phi_word(w, CLT_ATOMS) for w in words),
                        weight)

    # -- structural checks ----------------------------------------------

    def check_independence(self, indices, labels=None):
        """Verify phi_pi = phi_{pi qm kernel} over the engine's own copies.

        Variables X_k live in copy indices[k].  The left side evaluates
        phi_pi on atoms named by their positions, then substitutes the
        engine's value on the copies for each atom (_copy_values); the
        right side quasi-meets first.
        """
        indices = tuple(indices)
        n = len(indices)
        labels = _labels_or_default(n, labels)
        copies = _copy_values(self, labels, indices)
        positions = Atoms(range(n))
        plain = Atoms(labels)
        eta_w = K.kernel_word(indices)
        failures = []
        for w in K.osp_words(n):
            lhs = self._phi_word(w, positions).substitute(copies)
            rhs = self._phi_word(K.quasi_meet(w, eta_w), plain)
            if lhs != rhs:
                failures.append(OrderedSetPartition._raw(n, w))
        return failures

    def exchangeability_check(self, n, labels=None):
        """Block-permutation invariance of K_pi; returns the witnesses."""
        from itertools import permutations
        table = self.cumulant_table(n, labels)
        failures = []
        for w, kval in table.items():
            pi = OrderedSetPartition._raw(n, w)
            p = len(pi)
            for h in permutations(range(1, p + 1)):
                if table[pi.permute_blocks(h).word] != kval:
                    failures.append((pi, h))
        return failures


def _default_labels(n):
    return tuple(f"X{k}" for k in range(1, n + 1))


def _as_scale(x):
    if isinstance(x, str):
        return Poly.sym(scalar_symbol(x))
    if isinstance(x, Poly) or x is _LINEAR:
        return x
    return Fraction(exact(x))


def _block_scales(pi, scales):
    """The scales through _as_scale, one per block of pi at least."""
    scales = [_as_scale(s) for s in scales]
    if len(scales) < len(pi):
        raise ValueError("need one scale per block")
    return scales


class _CLTAtoms:
    """Centered atoms of unit variance, as plain integers.

    Every family gives 0 on one position and 1 on two, the same for all
    labels; a pair partition never asks for a longer atom.  There is no
    `term`: c-monotone multiplies single atoms here, where a zero atom
    skips the terms it multiplies.
    """

    sum = staticmethod(sum)
    term = None

    @staticmethod
    def product(runs, family=MOMENT):
        value = 1
        for run in runs:
            if len(run) != 2:
                if len(run) > 2:
                    raise ValueError(
                        "pair partitions cannot produce longer atoms")
                value = 0
        return value


CLT_ATOMS = _CLTAtoms()


def _copy_values(engine, labels, tags):
    """The map from a position symbol (family, positions) to the value of
    its atom on the tagged copies, each symbol evaluated once.

    A joint moment is the engine's own evaluation of the kernel word of
    the tags at its positions, a psi moment the monotone evaluation of it
    in the psi family, and a free cumulant vanishes across distinct tags.
    """
    @lru_cache(maxsize=None)
    def value(sym):
        kind, pos = sym
        sub_labels = tuple(labels[i] for i in pos)
        sub_tags = tuple(tags[i] for i in pos)
        if kind == FREE_CUMULANT:
            return (Poly.sym(free_cumulant_symbol(sub_labels))
                    if len(set(sub_tags)) == 1 else ZERO)
        return (engine if kind == MOMENT else MONOTONE)._phi_word(
            K.kernel_word(sub_tags), Atoms(sub_labels, moment_kind=kind))
    return value


# ---------------------------------------------------------------------------
# the five engines
# ---------------------------------------------------------------------------

class TensorEngine(Engine):
    name = "tensor"
    exchangeable = True

    def _phi_word(self, word, atoms):
        return atoms.product(_positions_by_block(word).values())


class BooleanEngine(Engine):
    name = "boolean"
    exchangeable = True

    def _phi_word(self, word, atoms):
        # the maximal interval partition below the word's partition has the
        # word's syllables for blocks
        return atoms.product([run for _, run in _syllables(word)])


class MonotoneEngine(Engine):
    name = "monotone"

    def _phi_word(self, word, atoms):
        return atoms.product(_monotone_runs(word))


class FreeEngine(Engine):
    name = "free"
    exchangeable = True

    def _phi_word(self, word, atoms):
        # sum of free-cumulant products over the noncrossing refinements of
        # the word's partition (Kreweras, 1972).  Scanning left to right, a
        # position opens a block or joins an open block of the same value;
        # joining closes every block opened after it, which is exactly what
        # keeps the partition noncrossing.
        n = len(word)
        blocks = []
        terms = []

        def scan(i, open_blocks):
            if i == n:
                terms.append(atoms.product(blocks, FREE_CUMULANT))
                return
            for depth, blk in enumerate(open_blocks):
                if word[blk[0]] == word[i]:
                    blk.append(i)
                    scan(i + 1, open_blocks[:depth + 1])
                    blk.pop()
            blocks.append([i])
            scan(i + 1, open_blocks + [blocks[-1]])
            blocks.pop()

        scan(0, [])
        return atoms.sum(terms)


class _Terms(dict):
    """A sum of signed products of atoms, {factors: integer}: factors is
    a sorted tuple of (family, run) pairs, one per atom of the product.
    The class answers the atoms protocol itself, so c-monotone expands
    rule V in it: a product is the one-factor sum of its single run."""

    __slots__ = ()

    @classmethod
    def product(cls, runs, family=MOMENT):
        (run,) = runs
        return cls({((family, run),): 1})

    @classmethod
    def sum(cls, summands):
        return add_into(cls(), chain.from_iterable(
            s.items() for s in summands))

    def __mul__(self, other):
        # rule V multiplies terms on disjoint positions, so every pair of
        # terms gives a key of its own: there is nothing to add up
        return _Terms({tuple(sorted(f1 + f2)): c1 * c2
                       for f1, c1 in self.items() for f2, c2 in other.items()})

    def __sub__(self, other):
        return add_into(_Terms(self), [(key, -c) for key, c in other.items()])


class CMonotoneEngine(Engine):
    name = "cmonotone"

    def _phi_word(self, word, atoms):
        syls = _syllables(word)
        # the rule-V branches share their sub-sequences, and so do the words
        # of one Atoms object.  The word itself is computed, not stored: the
        # recursion of no other word meets all of its positions.  CLT_ATOMS
        # keep a memo per word, since one shared over the pair words of
        # clt_moment(10) costs more than it saves
        memo = getattr(atoms, "_rule_v", {})
        term = atoms.term
        if term is None:
            # multiply in the provider's ring, which collapses as it goes:
            # CLT_ATOMS skip every term a zero atom multiplies
            return self._compute(syls, atoms, memo)
        # expand into signed terms, then ask the atoms once per term
        terms = self._compute(syls, _Terms, memo)
        return Poly(add_into({}, ((mono, c * k) for f, k in terms.items()
                                  for mono, c in term(f).terms.items())))

    def _eval(self, syls, atoms, memo):
        """phi of a syllable sequence; memo maps each sequence met to its
        value, which the sequence fixes for one atoms object."""
        val = memo.get(syls)
        if val is None:
            val = memo[syls] = self._compute(syls, atoms, memo)
        return val

    def _compute(self, syls, atoms, memo):
        # a zero factor skips the evaluation it would multiply; on CLT_ATOMS
        # every singleton moment and every moment - psi gap is 0, and the
        # skips cut c-monotone clt_moment(10) about fourfold
        if len(syls) == 1:
            return atoms.product((syls[0][1],))
        if syls[0][0] > syls[1][0]:
            head = atoms.product((syls[0][1],))
            return head * self._eval(syls[1:], atoms, memo) if head else head
        if syls[-1][0] > syls[-2][0]:
            tail = atoms.product((syls[-1][1],))
            return self._eval(syls[:-1], atoms, memo) * tail if tail else tail
        for j in range(1, len(syls) - 1):
            if syls[j - 1][0] < syls[j][0] > syls[j + 1][0]:
                left, mid, right = syls[:j], syls[j][1], syls[j + 1:]
                psi = atoms.product((mid,), PSI_MOMENT)
                gap = atoms.product((mid,)) - psi
                terms = []
                if gap:
                    terms.append(self._eval(left, atoms, memo) * gap
                                 * self._eval(right, atoms, memo))
                if psi:
                    if left[-1][0] == right[0][0]:
                        merged = left[:-1] + (
                            (left[-1][0],
                             tuple(sorted(left[-1][1] + right[0][1]))),
                        ) + right[1:]
                    else:
                        merged = left + right
                    terms.append(psi * self._eval(merged, atoms, memo))
                return atoms.sum(terms)
        raise AssertionError("no local maximum in a non-monotone word")


TENSOR = TensorEngine()
FREE = FreeEngine()
BOOLEAN = BooleanEngine()
MONOTONE = MonotoneEngine()
CMONOTONE = CMonotoneEngine()

ENGINES = {e.name: e for e in (TENSOR, FREE, BOOLEAN, MONOTONE, CMONOTONE)}


def engine(name: str) -> Engine:
    try:
        return ENGINES[name]
    except KeyError:
        raise ValueError(f"unknown system {name!r}; pick from "
                         f"{sorted(ENGINES)}") from None


# ---------------------------------------------------------------------------
# module-level operations
# ---------------------------------------------------------------------------

def _mu_tilde_table(phis):
    """{v: K_v} for every word v of phis, which holds a Poly for each word
    of OP_n: K_v is the sum of phis[sigma] mu~(sigma, v) over sigma <= v.

    Each phi is flattened once into (monomial id, coefficient) rows, one id
    per distinct monomial of the table.  Each K_v adds the integers c k,
    with D mu~ = k read off the weight rows of v's ideal, into a dict keyed
    by id, and is divided by its D once.
    """
    ids = {}
    rows = {w: [(ids.setdefault(mono, len(ids)), c)
                for mono, c in x.terms.items()] for w, x in phis.items()}
    monos = list(ids)
    table = {}
    for v in phis:
        words, types = K.typed_ideal(v)
        d, weights = _weight_rows(K.mu_tilde_type, types)
        acc = {}
        get = acc.get
        for w, ((_, k),) in zip(words, weights):
            for i, c in rows[w]:
                old = get(i)
                acc[i] = c * k if old is None else old + c * k
        table[v] = Poly({monos[i]: c for i, c in acc.items() if c}
                        ) * Fraction(1, d)
    return table


_LINEAR = object()  # a parameter slot read at its linear coefficient


@lru_cache(maxsize=4096)
def _weight_rows(weight, types):
    """(D, rows per type of types): ((scale monomial, int), ...), D times
    the type's weight over the least common denominator D.  The weight is
    K.mu_tilde_type(t) or K.zeta_tilde_type(t), or prod_j binom(weight[j],
    t[j]) for a parameter tuple, where a _LINEAR slot gives [x^1]
    binom(x, k) = (-1)^(k-1)/k, mu~ on the type (k,).  Ints carry no type,
    so the equal keys 2, Fraction(2) and Poly.const(2) may share a table."""
    terms = {}  # {(type, scale monomial): exact}
    for t in set(types):
        if callable(weight):
            terms[t, ()] = weight(t)
            continue
        w = ONE
        for x, k in zip(weight, t):
            w = w * (K.mu_tilde_type((k,)) if x is _LINEAR
                     else generalized_binomial(x, k))
        terms.update(((t, s), c) for s, c in w.terms.items())
    denom, ints = K.cleared(terms)
    rows = dict.fromkeys(types, ())
    for (t, s), k in ints.items():
        rows[t] += ((s, k),)
    return denom, tuple(map(rows.__getitem__, types))


def _ideal_sum(v, value, weight):
    """Sum of value(sigma) * weight(type(sigma, v)) over every sigma <= v,
    for a weight of _weight_rows (parameters sliced to max(v)).  Each value
    term times each row adds as an integer under its scale and value
    monomials, each pair forms its monomial once, and the sum divides by D
    once.  A zero weight evaluates no value but the first, which names the
    ring: a Poly when a value or a parameter is one, else a number."""
    params = () if callable(weight) else tuple(islice(weight, max(v)))
    words, types = K.typed_ideal(v)
    denom, weights = _weight_rows(params or weight, types)
    parts = defaultdict(dict)  # {scale monomial: {value monomial: int}}
    x = None
    for w, rows in zip(words, weights):
        if rows or x is None:  # the first value names the ring
            x = value(w)
            terms = x.terms.items() if isinstance(x, Poly) else (((), x),)
            for smono, k in rows:
                part = parts[smono]
                for vmono, c in terms:
                    part[vmono] = part.get(vmono, 0) + c * k
    # exact, and integers unless a value has Fraction coefficients
    out = K.divided(add_into(parts.pop((), {}), (
        (_mono_mul(vmono, smono), c) for smono, part in parts.items()
        for vmono, c in part.items())), denom)
    poly = isinstance(x, Poly) or any(isinstance(y, Poly) for y in params)
    return Poly(out) if poly else sum(out.values())


def moments_from_cumulants(table, pi):
    """phi_pi = sum over sigma <= pi of K_sigma zeta~(sigma,pi)."""
    if any(w not in table for w in K.ideal_words(pi.word)):
        raise ValueError("cumulant table does not cover the ideal")
    return _ideal_sum(pi.word, table.__getitem__, K.zeta_tilde_type)


def monotone_mc_defect(n, labels=None):
    """phi(X_1...X_n) minus the monotone-partition cumulant sum (must be 0)."""
    _check_size(n)
    labels = _labels_or_default(n, labels)
    lhs = MONOTONE.phi_pi(OrderedSetPartition.one_block(n), labels)
    return lhs - _monotone_cumulant_sum(labels)


@lru_cache(maxsize=None)
def _monotone_block_rows(k):
    """(D, rows): D K_k of the monotone engine on positions 0..k-1 as
    (runs, int) rows, its mu~ sum over OP_k evaluated once per size k.
    Each phi is the Poly keyed by its runs, a sorted tuple of position
    tuples, so the rows serve every label tuple of length k."""
    d, rows = K.cleared(_ideal_sum((1,) * k, lambda w: Poly(
        {tuple(sorted(map(tuple, _monotone_runs(w)))): 1}),
        K.mu_tilde_type).terms)
    return d, tuple(rows.items())


@lru_cache(maxsize=None)
def _monotone_partition_rows(n):
    """(L, rows): one row (f, blocks) per noncrossing set partition pi of
    [n], blocks its position tuples in the order of their smallest element,
    and f / L = 1 / (tau(pi)! prod_B D_|B|) with the integer L the least
    common denominator.

    tau(pi)! is the tree factorial of pi's nesting forest: the product over
    the blocks B of h(B), the number of blocks in the subtree rooted at B.
    """
    rows = []
    for pi in enumerate_partitions(n, NC):
        parent = _nesting_parents(pi.word)
        # a restricted growth string opens each block after its parent
        h = [1] * len(parent)
        for b in range(len(parent) - 1, 0, -1):
            h[parent[b]] += h[b]
        blocks = tuple(map(tuple, _positions_by_block(pi.word).values()))
        rows.append((prod(h[1:]) * prod(_monotone_block_rows(len(blk))[0]
                                        for blk in blocks), blocks))
    denom = lcm(*(d for d, _ in rows))
    return denom, tuple((denom // d, blocks) for d, blocks in rows)


def _monotone_cumulant_sum(labels):
    """The sum of 1/|pi|! prod_B K_B over the monotone partitions pi.

    Each noncrossing set partition pi is the underlying partition of
    |pi|!/tau(pi)! monotone ones, tau(pi)! its tree factorial, so the sum
    runs over the noncrossing set partitions with weight 1/tau(pi)!
    (Hasebe-Saigo, The monotone cumulants, Ann. IHP Probab. Stat. 47,
    2011).  The block cumulants are one integer row set per block size, on
    positions (_monotone_block_rows), and the weights one integer per
    partition (_monotone_partition_rows).  Each call expands the products
    in integers, with each block's runs read through its positions, forms
    one monomial per distinct run set and divides once by L.  The tests
    keep the sum over the monotone partitions as the oracle.
    """
    denom, rows = _monotone_partition_rows(len(labels))
    acc = {}
    for f, blocks in rows:
        terms = [((), f)]
        for blk in blocks:
            at = blk.__getitem__
            carried = [(tuple(tuple(map(at, run)) for run in block_runs), k)
                       for block_runs, k in _monotone_block_rows(len(blk))[1]]
            terms = [(runs + block_runs, c * k) for block_runs, k in carried
                     for runs, c in terms]
        add_into(acc, [(tuple(sorted(runs)), c) for runs, c in terms])
    atoms = Atoms(labels)
    return Poly(K.divided(add_into({}, (
        (mono, c * k) for runs, c in acc.items()
        for mono, k in atoms.product(runs).terms.items())), denom))


def _mixed_sum(pi, eta, value, coefficient):
    """Sum of value(sigma) coefficient(sigma, eta, pi) over sigma <= pi."""
    out = {}
    for w in K.ideal_words(pi.word):
        coeff = coefficient(OrderedSetPartition._raw(pi.n, w), eta, pi)
        if coeff:
            add_into(out, (value(w) * coeff).terms.items())
    return Poly(out)


def mixed_cumulant_moment(pi, eta, eng, labels):
    """K_pi of copy-indexed entries via Weisner coefficients over moments."""
    at = Atoms(_per_element(pi.n, labels))
    return _mixed_sum(pi, eta, lambda w: eng._phi_word(w, at), weisner3)


def mixed_cumulant_cumulant(pi, eta, eng, labels):
    """K_pi of copy-indexed entries via Goldberg coefficients over cumulants:
    K_sigma over pi's ideal only, all from one memo of phi."""
    phi = eng._memo_phi(Atoms(_per_element(pi.n, labels)))
    return _mixed_sum(pi, eta, lambda w: _ideal_sum(w, phi, K.mu_tilde_type),
                      goldberg3)


def singleton_defect(eng, pi, labels, k):
    """phi_pi with the order-one symbols of variable k set to zero.

    Zero for every engine whenever {k} is a singleton block of pi (both
    symbol families are centered; the two-state system needs both).
    """
    labels = _per_element(pi.n, labels)
    if not 1 <= k <= pi.n:
        raise ValueError(f"k must be in 1..{pi.n}: got {k}")
    target = (labels[k - 1],)

    def subst(sym):
        kind, payload = sym
        if kind in (MOMENT, FREE_CUMULANT, PSI_MOMENT) and payload == target:
            return 0
        return None

    return eng.phi_pi(pi, labels).substitute(subst)
