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
ordered set partitions.  Each engine names its `pair_class`, the pair
partitions on which phi_pi of centered unit-variance atoms is 1 (it is 0
on the others), so its central-limit moments count that class by closed
form.

Each engine also names its `support`, the class off which K_pi vanishes:
every partition for tensor, the noncrossing ones for free (Speicher, Math.
Ann. 298, 1994), the interval ones for Boolean and the monotone ones for
monotone and c-monotone (Hasebe-Saigo, Ann. IHP 47, 2011).  On its
support every engine's K_pi depends only on the set partition of pi (on
the monotone ones it is the product of one-block cumulants), so
cumulant_table computes one K per set partition.  cumulant_table and
cumulant on the default atoms give ZERO off the support without a sum.
On it, an exchangeable engine's cumulant is Moebius inversion on the set
partition lattice, sum of mu_Pi(c, pi) phi_c over the set partitions c
refining pi's, with the integer mu_Pi; the monotone one-block cumulants of
the moment-cumulant formula come from the monotone tables' recursion.
Caller-given atoms, copies (cumulant_indexed), the dilations and
exchangeability_check, which tests an invariance and must not assume it,
sum over the whole ideal.
"""

from collections import defaultdict
from fractions import Fraction
from functools import lru_cache
from itertools import chain, islice, product, repeat
from math import factorial, lcm, prod

from . import _kernels as K
from .coefficients import goldberg3, weisner3
from .incidence import generalized_binomial
from .partitions import (ALL, MONOTONE as MONOTONE_CLASS, NC, OI, ONC, PAIR,
                         PAIR_IP, PAIR_MONOTONE, PAIR_NC, OrderedSetPartition,
                         _class_test, _nesting_parents, class_count,
                         enumerate_partitions)
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
    FREE_CUMULANT.  Atoms is the one provider: a product is one monomial
    in the symbols of the runs' labels, built once per distinct list of
    factors; labels range(n) name each atom by its positions, as
    check_independence does.

    An integer provider of the tests has no `term`, and c-monotone
    multiplies its rule V in that provider's ring.  On Atoms it expands
    rule V in its private ring _Terms, which answers the same protocol,
    and asks `term(factors)`, the product over (family, run) pairs of mixed
    families, once per distinct signed term, keeping those terms in
    `_rule_v` by syllable sequence so the words of one atoms object share
    them.  The one sum over an ideal, _ideal_sum, adds the values' terms in
    integers outside the atoms.
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
    """TypeError unless n is an int, ValueError unless n >= 1."""
    if isinstance(n, bool) or not isinstance(n, int):
        raise TypeError(f"n must be an int: got {n!r}")
    if n < 1:
        raise ValueError(f"n must be >= 1: got {n}")


def _check_index(name, value, top):
    """TypeError unless value is an int, ValueError unless in 1..top."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{name} must be an int")
    if not 1 <= value <= top:
        raise ValueError(f"{name} must be in 1..{top}: got {value}")


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
    # the pair partitions on which phi_pi of centered unit-variance atoms
    # is 1; it is 0 on every other pair partition
    pair_class = None
    # the class off which K_pi vanishes on every atoms.  Any class but
    # ALL, the default, also holds the restricted growth string of each
    # of its words, and on it K_pi depends only on pi's set partition
    support = ALL

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
        """K_pi = sum over sigma <= pi of phi_sigma mu~(sigma,pi).

        On the default atoms, K_pi off the engine's support is ZERO with no
        phi evaluated.  On it, an exchangeable engine sums on the set
        partition lattice: K_pi is the sum of mu_Pi(c, u) phi_c over the set
        partitions c that refine pi's, u (_refinement_rows).  Caller-given
        atoms, which may live in another ring, always take the mu~ sum over
        pi's ideal.
        """
        labels = _per_element(pi.n, labels)
        if atoms is None:
            if not _on_support(self.support, pi.word):
                return ZERO
            if self.exchangeable:
                at = Atoms(labels)
                acc = {}
                get = acc.get
                for c, mu in _refinement_rows(K.rgs_word(pi.word)):
                    for mono, x in self._phi_word(c, at).terms.items():
                        acc[mono] = get(mono, 0) + x * mu
                return Poly({mono: x for mono, x in acc.items() if x})
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
        """{word: K_pi} over all of OP_n, ZERO off the engine's support.

        An exchangeable engine evaluates phi and the mu~ sum once per set
        partition, at its restricted growth string u, and gives every word
        the K_u of its set partition.  That is exact: relabelling v's
        blocks by h maps ideal(v) onto ideal(v o h), keeping the set
        partition of each sigma and its interval type up to the order of
        the parts; the exchangeable supports (ALL, ONC, OI) are unions of
        set partition classes too.

        Any other engine that names a support (monotone and c-monotone)
        computes K_u once per set partition of the support, at u, by the
        moment-cumulant recursion (_support_table), with phi evaluated at
        those u alone, and gives it to every supported word of the class.
        An engine that names none evaluates phi on every word of OP_n and
        sums mu~ over each word's ideal.
        """
        _check_size(n)
        if self.support == ALL and not self.exchangeable:
            return self._ordered_table(n, labels)
        at = Atoms(_labels_or_default(n, labels))
        if self.exchangeable:
            classes = _rgs_classes(n)
            table = _mu_tilde_table({u: self._phi_word(u, at) for u in
                                     dict.fromkeys(classes.values())},
                                    classes, self.support)
        else:
            classes, steps = _support_steps(self.support, n)
            table = _support_table(lambda u: self._phi_word(u, at), steps)
        return {w: table.get(u, ZERO) for w, u in classes.items()}

    def _ordered_table(self, n, labels):
        """cumulant_table from every word's own phi, and the mu~ sum of
        each word over its ideal."""
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
        _check_index("j", j, len(pi))
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
        _check_index("j", j, len(pi))
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

        The sum of phi_pi / |pi|! over the ordered pair partitions pi of
        [n], where phi_pi is 1 on pair_class and 0 on every other pair
        partition: class_count(n, pair_class) / (n/2)!.  That is (n-1)!!
        for tensor (Gaussian), Catalan(n/2) for free (semicircle), 1 for
        Boolean (Bernoulli) and binom(n, n/2) / 2^(n/2) for monotone and
        c-monotone (arcsine; Hasebe-Saigo, Ann. IHP 47, 2011).  The tests
        keep the phi-sum as the oracle.
        """
        if isinstance(n, bool) or not isinstance(n, int):
            raise TypeError(f"n must be an int: got {n!r}")
        if n < 0:
            raise ValueError(f"n must be >= 0: got {n}")
        if n % 2:
            return Fraction(0)
        if n == 0:
            return Fraction(1)  # the empty product, in every engine
        return Fraction(class_count(n, self.pair_class), factorial(n // 2))

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
        _check_size(n)
        # each word's own K, every word's sum: the table must not assume
        # what it tests
        table = self._ordered_table(n, labels)
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
    pair_class = PAIR

    def _phi_word(self, word, atoms):
        return atoms.product(_positions_by_block(word).values())


class BooleanEngine(Engine):
    name = "boolean"
    exchangeable = True
    pair_class = PAIR_IP
    support = OI

    def _phi_word(self, word, atoms):
        # the maximal interval partition below the word's partition has the
        # word's syllables for blocks
        return atoms.product([run for _, run in _syllables(word)])


class MonotoneEngine(Engine):
    name = "monotone"
    pair_class = PAIR_MONOTONE
    support = MONOTONE_CLASS

    def _phi_word(self, word, atoms):
        return atoms.product(_monotone_runs(word))


class FreeEngine(Engine):
    name = "free"
    exchangeable = True
    pair_class = PAIR_NC
    support = ONC

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
    pair_class = PAIR_MONOTONE
    support = MONOTONE_CLASS

    def _phi_word(self, word, atoms):
        syls = _syllables(word)
        # the rule-V branches share their sub-sequences, and so do the words
        # of one Atoms object.  The word itself is computed, not stored: the
        # recursion of no other word meets all of its positions.  A
        # provider without _rule_v keeps a memo per word
        memo = getattr(atoms, "_rule_v", {})
        term = atoms.term
        if term is None:  # multiply in the provider's own ring
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
        if len(syls) == 1:
            return atoms.product((syls[0][1],))
        if syls[0][0] > syls[1][0]:
            return (atoms.product((syls[0][1],))
                    * self._eval(syls[1:], atoms, memo))
        if syls[-1][0] > syls[-2][0]:
            return (self._eval(syls[:-1], atoms, memo)
                    * atoms.product((syls[-1][1],)))
        for j in range(1, len(syls) - 1):
            if syls[j - 1][0] < syls[j][0] > syls[j + 1][0]:
                left, mid, right = syls[:j], syls[j][1], syls[j + 1:]
                psi = atoms.product((mid,), PSI_MOMENT)
                gap = atoms.product((mid,)) - psi
                merged = left + right
                if left[-1][0] == right[0][0]:  # the two syllables join
                    merged = left[:-1] + ((left[-1][0], tuple(sorted(
                        left[-1][1] + right[0][1]))),) + right[1:]
                return atoms.sum([self._eval(left, atoms, memo) * gap
                                  * self._eval(right, atoms, memo),
                                  psi * self._eval(merged, atoms, memo)])
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

def _on_support(support, word):
    """Whether word lies in the partition class support."""
    test = _class_test(support)
    return test is None or test(word)


@lru_cache(maxsize=None)
def _rgs_classes(n):
    """{word: its restricted growth string} over OP_n, in osp_words order,
    each string one shared tuple.  Read-only: every caller shares it."""
    words, shared = K.osp_words(n), {}
    return {w: shared.setdefault(u, u)
            for w, u in zip(words, map(K.rgs_word, words))}


@lru_cache(maxsize=None)
def _refinement_rows(u):
    """((c, mu), ...) over the set partitions c that refine the restricted
    growth string u, each c its restricted growth string, and mu the
    integer Moebius function mu_Pi(c, u) = prod over u's blocks B of
    (-1)^(t_B - 1) (t_B - 1)!, t_B the number of c's blocks inside B.

    For an exchangeable engine, mu_Pi(c, u) phi_c is the mu~ sum over the
    sigma <= u of class c: they order c's t_B blocks inside each B in t_B!
    ways, each with mu~ = prod_B (-1)^(t_B - 1) / t_B and phi_sigma =
    phi_c.  Each block of size k takes the set partitions of [k] from
    _rgs_classes(k), so a block larger than OSP_WORDS_CAP is refused as
    osp_words refuses it."""
    blocks = tuple(_positions_by_block(u).values())
    rows = []
    for subs in product(*(dict.fromkeys(_rgs_classes(len(blk)).values())
                          for blk in blocks)):
        word, off, mu = [0] * len(u), 0, 1
        for blk, s in zip(blocks, subs):
            t = max(s)
            for pos, x in zip(blk, s):
                word[pos] = off + x
            off += t
            mu *= (-1) ** (t - 1) * factorial(t - 1)
        rows.append((K.rgs_word(word), mu))
    return tuple(rows)


def _mu_tilde_table(phis, classes=None, support=ALL):
    """{v: K_v} for every word v of phis: K_v is the sum of phi_sigma
    mu~(sigma, v) over sigma <= v for v in the class support, and ZERO,
    with no ideal walked, for v off it.  phis holds a Poly for each word of
    OP_n, or, given classes, which maps each word of OP_n to a word of
    phis, for each class: sigma reads phis[classes[sigma]].

    Each phi is flattened once into (monomial id, coefficient) rows, one id
    per distinct monomial of the table.  Each K_v adds the integers c k,
    with D mu~ = k read off the weight rows of v's ideal, into a dict keyed
    by id, and is divided by its D once.
    """
    ids = {}
    rows = {w: [(ids.setdefault(mono, len(ids)), c)
                for mono, c in x.terms.items()] for w, x in phis.items()}
    if classes is not None:
        rows = {w: rows[u] for w, u in classes.items()}
    monos = list(ids)
    table = {}
    for v in phis:
        if not _on_support(support, v):
            table[v] = ZERO
            continue
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


@lru_cache(maxsize=None)
def _support_steps(support, n):
    """(classes, steps) of the moment-cumulant recursion on a support:
    classes maps each word of OP_n to its restricted growth string u, or to
    None off the support, and steps holds (u, D, rows) for each u, by
    decreasing block count.  rows pairs the class c of each supported
    sigma < u with D times the sum of zeta~(sigma, u) over the sigma of
    class c, an int."""
    classes = {w: u if _on_support(support, w) else None
               for w, u in _rgs_classes(n).items()}
    steps = []
    for u in sorted(filter(None, dict.fromkeys(classes.values())), key=max,
                    reverse=True):
        words, types = K.typed_ideal(u)
        d, weights = _weight_rows(K.zeta_tilde_type, types)
        rows = {}
        for w, ((_, k),) in zip(words, weights):
            c = classes[w]
            if c is not None and w != u:
                rows[c] = rows.get(c, 0) + k
        steps.append((u, d, tuple(rows.items())))
    return classes, tuple(steps)


def _support_table(phi, steps):
    """{u: K_u} for the classes u of _support_steps, from phi at u alone.

    phi = K * zeta~ (mu~ * zeta~ = delta), K vanishes off the support and
    takes the value K_c on each supported sigma of class c, so
    K_u = phi_u - sum over the rows (c, k) of K_c k / D, and each K_c has
    more blocks than u.  Each K_u adds phi_u and the K_c's integer
    numerators, keyed by monomial id, as integers over one denominator
    and is divided by it once.
    """
    ids, monos = {}, []
    cleared = {}  # {u: (d, {monomial id: int})}, K_u = ints / d
    table = {}
    for u, d, rows in steps:
        denom = d * lcm(*(cleared[c][0] for c, _ in rows))
        acc = {}
        for mono, c in phi(u).terms.items():
            i = ids.get(mono)
            if i is None:
                i = ids[mono] = len(monos)
                monos.append(mono)
            acc[i] = c * denom
        get = acc.get
        for c, k in rows:
            dc, ints = cleared[c]
            f = k * (denom // (d * dc))
            for i, x in ints.items():
                acc[i] = get(i, 0) - f * x
        out = K.divided(acc, denom)
        cleared[u] = K.cleared(out)
        table[u] = Poly({monos[i]: c for i, c in out.items()})
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
    """phi_pi = sum over sigma <= pi of K_sigma zeta~(sigma,pi).

    zeta~ vanishes nowhere, so the sum reads every sigma of pi's ideal once,
    and a sigma missing from the table raises ValueError."""
    def value(w):
        try:
            return table[w]
        except KeyError:
            raise ValueError("cumulant table does not cover the ideal"
                             ) from None
    return _ideal_sum(pi.word, value, K.zeta_tilde_type)


def monotone_mc_defect(n, labels=None):
    """phi(X_1...X_n) minus the monotone-partition cumulant sum (must be 0)."""
    _check_size(n)
    labels = _labels_or_default(n, labels)
    lhs = MONOTONE.phi_pi(OrderedSetPartition.one_block(n), labels)
    return lhs - _monotone_cumulant_sum(labels)


@lru_cache(maxsize=None)
def _monotone_block_rows(k):
    """(D, rows): D K_k of the monotone engine on positions 0..k-1 as
    (runs, int) rows, computed once per size k by the recursion of the
    monotone tables (_support_table on _support_steps(MONOTONE, k)), so phi
    is evaluated at the Catalan(k) noncrossing classes alone.  Each phi is
    the Poly keyed by its runs, a sorted tuple of position tuples, so the
    rows serve every label tuple of length k."""
    table = _support_table(lambda u: Poly(
        {tuple(sorted(map(tuple, _monotone_runs(u)))): 1}),
        _support_steps(MONOTONE_CLASS, k)[1])
    d, rows = K.cleared(table[(1,) * k].terms)
    return d, tuple(rows.items())


def _tree_factorial(w):
    """tau(pi)! of the noncrossing restricted growth string w: the product
    over the blocks B of h(B), the number of blocks in the subtree of pi's
    nesting forest rooted at B."""
    parent = _nesting_parents(w)
    # a restricted growth string opens each block after its parent
    h = [1] * len(parent)
    for b in range(len(parent) - 1, 0, -1):
        h[parent[b]] += h[b]
    return prod(h[1:])


@lru_cache(maxsize=None)
def _monotone_partition_rows(n):
    """(L, rows): one row (f, blocks) per noncrossing set partition pi of
    [n], blocks its position tuples in the order of their smallest element,
    and f / L = 1 / (tau(pi)! prod_B D_|B|) with the integer L the least
    common denominator.

    tau(pi)! is the tree factorial of pi's nesting forest
    (_tree_factorial).
    """
    rows = []
    for pi in enumerate_partitions(n, NC):
        blocks = tuple(map(tuple, _positions_by_block(pi.word).values()))
        rows.append((_tree_factorial(pi.word) * prod(
            _monotone_block_rows(len(blk))[0] for blk in blocks), blocks))
    denom = lcm(*(d for d, _ in rows))
    return denom, tuple((denom // d, blocks) for d, blocks in rows)


@lru_cache(maxsize=None)
def _monotone_sum_rows(n):
    """(L, rows): L times the sum of _monotone_cumulant_sum on positions
    0..n-1, as (runs, int) rows, one per distinct run set.  The products
    of the block cumulants (_monotone_block_rows), each block's runs read
    through its positions, are expanded in integers once per n."""
    denom, rows = _monotone_partition_rows(n)
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
    return denom, tuple(acc.items())


def _monotone_cumulant_sum(labels):
    """The sum of 1/|pi|! prod_B K_B over the monotone partitions pi.

    Each noncrossing set partition pi is the underlying partition of
    |pi|!/tau(pi)! monotone ones, tau(pi)! its tree factorial, so the sum
    runs over the noncrossing set partitions with weight 1/tau(pi)!
    (Hasebe-Saigo, The monotone cumulants, Ann. IHP Probab. Stat. 47,
    2011).  The block cumulants are one integer row set per block size, on
    positions (_monotone_block_rows), and the weights one integer per
    partition (_monotone_partition_rows); their products on positions are
    expanded once per n (_monotone_sum_rows).  Each call forms one monomial
    per run set on its labels and divides once by L.  The tests keep the
    sum over the monotone partitions as the oracle.
    """
    denom, rows = _monotone_sum_rows(len(labels))
    atoms = Atoms(labels)
    return Poly(K.divided(add_into({}, (
        (mono, c * k) for runs, c in rows
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
    _check_index("k", k, pi.n)
    target = (labels[k - 1],)

    def subst(sym):
        kind, payload = sym
        if kind in (MOMENT, FREE_CUMULANT, PSI_MOMENT) and payload == target:
            return 0
        return None

    return eng.phi_pi(pi, labels).substitute(subst)
