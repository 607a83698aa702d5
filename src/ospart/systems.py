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
"""

from fractions import Fraction
from math import factorial

from . import _kernels as K
from .coefficients import goldberg3, weisner3
from .incidence import generalized_binomial
from .partitions import OrderedSetPartition, noncrossing_set_partitions
from .symbolic import (FREE_CUMULANT, MOMENT, PSI_MOMENT, Poly, add_into,
                       free_cumulant_symbol, moment_symbol, psi_moment_symbol,
                       scalar_symbol, time_symbol)

ONE = Poly.const(1)
ZERO = Poly()


class Atoms:
    """Primitive expectations handed to an engine during evaluation.

    Engines only ever ask for the value attached to an ascending tuple of
    0-based positions of the current word; the default provider emits the
    corresponding symbol of the requested family.
    """

    def __init__(self, labels, moment_kind=MOMENT):
        self.labels = tuple(labels)
        self.moment_kind = moment_kind

    def _labels_at(self, pos):
        return tuple(self.labels[i] for i in pos)

    def moment(self, pos):
        if self.moment_kind == PSI_MOMENT:
            return Poly.sym(psi_moment_symbol(self._labels_at(pos)))
        return Poly.sym(moment_symbol(self._labels_at(pos)))

    def psi_moment(self, pos):
        return Poly.sym(psi_moment_symbol(self._labels_at(pos)))

    def free_cumulant(self, pos):
        return Poly.sym(free_cumulant_symbol(self._labels_at(pos)))


def _positions_by_block(word):
    out = {}
    for pos, b in enumerate(word):
        out.setdefault(b, []).append(pos)
    return out


def _interval_runs(positions):
    runs = [[positions[0]]]
    for x in positions[1:]:
        if x == runs[-1][-1] + 1:
            runs[-1].append(x)
        else:
            runs.append([x])
    return runs


class Engine:
    """Shared machinery; subclasses provide _phi_word."""

    name = "abstract"

    def atoms(self, labels):
        return Atoms(labels)

    def _phi_word(self, word, atoms):
        raise NotImplementedError

    # -- partitioned moments ------------------------------------------------

    def phi_pi(self, pi, labels, atoms=None):
        """phi_pi(X_1,...,X_n) as a polynomial in primitive symbols."""
        labels = tuple(labels)
        if len(labels) != pi.n:
            raise ValueError("need one variable label per element")
        return self._phi_word(pi.word, atoms or self.atoms(labels))

    def phi_pi_indexed(self, pi, labels, indices):
        """phi_pi of upper-indexed copies: evaluates at pi quasi-meet kernel."""
        indices = tuple(indices)
        labels = tuple(labels)
        if len(indices) != pi.n or len(labels) != pi.n:
            raise ValueError("need one index and one label per element")
        w = K.quasi_meet(pi.word, K.kernel_word(indices))
        return self._phi_word(w, self.atoms(labels))

    # -- cumulants ----------------------------------------------------------

    def cumulant(self, pi, labels, atoms=None):
        """K_pi = sum over sigma <= pi of phi_sigma mu~(sigma,pi)."""
        labels = tuple(labels)
        if len(labels) != pi.n:
            raise ValueError("need one variable label per element")
        at = atoms or self.atoms(labels)
        return Poly.sum([self._phi_word(w, at) * K.mu_tilde_words(w, pi.word)
                         for w in K.ideal_words(pi.word)])

    def cumulant_n(self, labels, atoms=None):
        """K_n, the cumulant of the one-block partition."""
        return self.cumulant(OrderedSetPartition.one_block(len(tuple(labels))),
                             labels, atoms)

    def cumulant_indexed(self, pi, labels, indices):
        """K_pi with entries X_k^(i_k): Mobius sum of quasi-met moments."""
        indices = tuple(indices)
        eta_w = K.kernel_word(indices)
        at = self.atoms(labels)
        return Poly.sum([self._phi_word(K.quasi_meet(w, eta_w), at)
                         * K.mu_tilde_words(w, pi.word)
                         for w in K.ideal_words(pi.word)])

    def cumulant_table(self, n, labels=None):
        """{word: K_pi} over all of OP_n."""
        labels = tuple(labels) if labels is not None else _default_labels(n)
        at = self.atoms(labels)
        phis = {w: self._phi_word(w, at) for w in K.osp_words(n)}
        return {v: Poly.sum([phis[w] * K.mu_tilde_words(w, v)
                             for w in K.ideal_words(v)])
                for v in K.osp_words(n)}

    def multiplicative_cumulant(self, pi, labels):
        """K_(pi): product of one-block cumulants over the blocks of pi."""
        labels = tuple(labels)
        total = ONE
        for blk in pi.blocks:
            total = total * self.cumulant_n([labels[x - 1] for x in blk])
        return total

    # -- dilation (dot operation) -------------------------------------------

    def _phi_dilated(self, sigma_word, at, params, assignment):
        """phi_sigma with block-wise dot dilation.

        params[j-1] is the scale attached to pi-block j; assignment maps
        sigma-block index (1-based) to pi-block index.  Plain dilation is
        the identity assignment.
        """
        out = {}
        for w in K.ideal_words(sigma_word):
            t = K.interval_type_words(w, sigma_word)
            f = ONE
            for i, k in enumerate(t):
                f = f * generalized_binomial(params[assignment[i + 1] - 1], k)
            add_into(out, (self._phi_word(w, at) * f).terms.items())
        return Poly(out)

    def dilate(self, pi, labels, scale, atoms=None):
        """phi_pi(N.X_1,...,N.X_n); polynomial in a symbolic scale.

        Accepts an int/Fraction, a Poly, or a string naming a scalar symbol.
        """
        labels = tuple(labels)
        at = atoms or self.atoms(labels)
        scale = _as_scale(scale)
        p = len(pi)
        ident = list(range(p + 1))
        return self._phi_dilated(pi.word, at, [scale] * p, ident)

    def dilate_blockwise(self, pi, labels, scales, atoms=None):
        """phi_pi(N_{pi(1)}.X_1, ..., N_{pi(n)}.X_n) with one scale per block."""
        labels = tuple(labels)
        at = atoms or self.atoms(labels)
        scales = [_as_scale(s) for s in scales]
        if len(scales) < len(pi):
            raise ValueError("need one scale per block")
        ident = list(range(len(pi) + 1))
        return self._phi_dilated(pi.word, at, scales, ident)

    def cumulant_dilated(self, pi, labels, scales):
        """K_pi(N_{pi(1)}.X_1, ..., N_{pi(n)}.X_n)."""
        labels = tuple(labels)
        at = self.atoms(labels)
        scales = [_as_scale(s) for s in scales]
        return Poly.sum([self._phi_dilated(w, at, scales,
                                           K.block_map(w, pi.word))
                         * K.mu_tilde_words(w, pi.word)
                         for w in K.ideal_words(pi.word)])

    def dilate_iterated(self, pi, labels, inner, outer):
        """phi_pi(M.(N.X_1), ..., M.(N.X_n)) via the two-step expansion."""
        labels = tuple(labels)
        at = self.atoms(labels)
        inner = _as_scale(inner)
        outer = _as_scale(outer)
        out = {}
        for w in K.ideal_words(pi.word):
            sigma = OrderedSetPartition._raw(pi.n, w)
            f = ONE
            for k in K.interval_type_words(w, pi.word):
                f = f * generalized_binomial(outer, k)
            add_into(out, (self.dilate(sigma, labels, inner, atoms=at)
                           * f).terms.items())
        return Poly(out)

    # -- time evolution -----------------------------------------------------

    def phi_t(self, pi, labels, params=None, atoms=None):
        """phi^t_pi: dilation with a formal parameter per block."""
        labels = tuple(labels)
        at = atoms or self.atoms(labels)
        p = len(pi)
        if params is None:
            params = [Poly.sym(time_symbol(j)) for j in range(1, p + 1)]
        params = [_as_scale(x) for x in params]
        if len(params) != p:
            raise ValueError("need one parameter per block")
        ident = list(range(p + 1))
        return self._phi_dilated(pi.word, at, params, ident)

    def partial_cumulant(self, pi, labels, j):
        """d/dt_j at t_j = 0 of phi^t_pi; a polynomial in the other t's."""
        if not 1 <= j <= len(pi):
            raise ValueError("block index out of range")
        phi = self.phi_t(pi, labels)
        tj = time_symbol(j)
        return phi.diff(tj).substitute(lambda s: 0 if s == tj else None)

    def diffeq_residuals(self, pi, labels, j):
        """Residuals of both evolution identities for d/dt_j phi^t_pi.

        Splitting the j-th block P into (A, P\\A) with the fresh parameter on
        A gives the first form; (P\\A, A) gives the second.  Both residuals
        vanish identically for the product engines.
        """
        labels = tuple(labels)
        p = len(pi)
        if not 1 <= j <= p:
            raise ValueError("block index out of range")
        at = self.atoms(labels)
        ts = [Poly.sym(time_symbol(i)) for i in range(1, p + 1)]
        s_sym = scalar_symbol("s")
        s = Poly.sym(s_sym)
        lhs = self.phi_t(pi, labels, ts).diff(time_symbol(j))
        blocks = pi.blocks
        pj = blocks[j - 1]
        rhs = [{}, {}]
        for mask in range(1, 1 << len(pj)):
            a = [pj[i] for i in range(len(pj)) if mask >> i & 1]
            rest = [x for x in pj if x not in a]
            for form in (0, 1):
                split = [a, rest] if form == 0 else [rest, a]
                par = ([s, ts[j - 1]] if form == 0 else [ts[j - 1], s])
                newblocks = list(blocks[:j - 1])
                params = list(ts[:j - 1])
                for blk, pp in zip(split, par):
                    if blk:
                        newblocks.append(blk)
                        params.append(pp)
                newblocks.extend(blocks[j:])
                params.extend(ts[j:])
                pi2 = OrderedSetPartition(pi.n, newblocks)
                phi2 = self._phi_dilated(pi2.word, at, params,
                                         list(range(len(newblocks) + 1)))
                add_into(rhs[form], phi2.diff(s_sym).substitute(
                    lambda sym: 0 if sym == s_sym else None).terms.items())
        return lhs - Poly(rhs[0]), lhs - Poly(rhs[1])

    # -- central limit ------------------------------------------------------

    def clt_moment(self, n) -> Fraction:
        """Limit moment of the normalized sum with phi(X)=0, phi(X^2)=1."""
        if n % 2:
            return Fraction(0)
        at = self.atoms(("X",) * n)
        total = Fraction(0)
        from .partitions import PAIR, enumerate_partitions
        for pi in enumerate_partitions(n, PAIR):
            val = self._phi_word(pi.word, at).substitute(_clt_subst)
            total += Fraction(1, factorial(len(pi))) * val.constant_value()
        return total

    # -- structural checks ----------------------------------------------

    def check_independence(self, indices, n=None, labels=None):
        """Verify phi_pi = phi_{pi qm kernel} over the engine's own copies.

        Variables X_k live in copy indices[k]; the left side evaluates
        phi_pi treating them as atomic and expanding the primitive
        expectations inside the engine, the right side quasi-meets first.
        """
        indices = tuple(indices)
        if n is None:
            n = len(indices)
        if len(indices) != n:
            raise ValueError("need one copy index per element")
        labels = tuple(labels) if labels is not None else _default_labels(n)
        inner = _CopyAtoms(self, labels, indices)
        plain = self.atoms(labels)
        eta_w = K.kernel_word(indices)
        failures = []
        for w in K.osp_words(n):
            lhs = self._phi_word(w, inner)
            rhs = self._phi_word(K.quasi_meet(w, eta_w), plain)
            if lhs != rhs:
                failures.append(OrderedSetPartition._raw(n, w))
        return failures

    def exchangeability_check(self, n, labels=None):
        """Block-permutation invariance of K_pi; returns the witnesses."""
        from itertools import permutations
        labels = tuple(labels) if labels is not None else _default_labels(n)
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
    if isinstance(x, Poly):
        return x
    return Fraction(x)


def _clt_subst(sym):
    kind, payload = sym
    if kind in (MOMENT, FREE_CUMULANT, PSI_MOMENT):
        if len(payload) == 1:
            return 0
        if len(payload) == 2:
            return 1
        raise ValueError("pair partitions cannot produce longer atoms")
    return None


class _CopyAtoms:
    """Primitive expectations of tagged copies, expanded inside the engine.

    A joint moment of a sub-tuple is the engine's own evaluation of the
    kernel word of its copy tags; a free cumulant of a sub-tuple vanishes
    across distinct tags; psi moments evaluate in the monotone psi system.
    """

    def __init__(self, engine, labels, tags):
        self.engine = engine
        self.labels = tuple(labels)
        self.tags = tuple(tags)

    def _sub(self, pos):
        return (tuple(self.labels[i] for i in pos),
                tuple(self.tags[i] for i in pos))

    def moment(self, pos):
        sub_labels, sub_tags = self._sub(pos)
        return self.engine._phi_word(K.kernel_word(sub_tags), Atoms(sub_labels))

    def psi_moment(self, pos):
        sub_labels, sub_tags = self._sub(pos)
        return MONOTONE._phi_word(K.kernel_word(sub_tags),
                                  Atoms(sub_labels, moment_kind=PSI_MOMENT))

    def free_cumulant(self, pos):
        sub_labels, sub_tags = self._sub(pos)
        if len(set(sub_tags)) > 1:
            return ZERO
        return Poly.sym(free_cumulant_symbol(sub_labels))


# ---------------------------------------------------------------------------
# the five engines
# ---------------------------------------------------------------------------

class TensorEngine(Engine):
    name = "tensor"

    def _phi_word(self, word, atoms):
        total = ONE
        for positions in _positions_by_block(word).values():
            total = total * atoms.moment(tuple(positions))
        return total


class BooleanEngine(Engine):
    name = "boolean"

    def _phi_word(self, word, atoms):
        # maximal interval partition dominated by the underlying partition
        total = ONE
        for positions in _positions_by_block(word).values():
            for run in _interval_runs(positions):
                total = total * atoms.moment(tuple(run))
        return total


class MonotoneEngine(Engine):
    name = "monotone"

    def _phi_word(self, word, atoms):
        # peel maximal-value contiguous runs; each is a strict local maximum
        items = list(enumerate(word))
        total = ONE
        while items:
            top = max(v for _, v in items)
            rest = []
            run = []
            for pos, v in items:
                if v == top:
                    run.append(pos)
                else:
                    if run:
                        total = total * atoms.moment(tuple(run))
                        run = []
                    rest.append((pos, v))
            if run:
                total = total * atoms.moment(tuple(run))
            items = rest
        return total


class FreeEngine(Engine):
    name = "free"

    def _phi_word(self, word, atoms):
        # sum of free-cumulant products over noncrossing refinements
        n = len(word)
        out = {}
        for blocks in noncrossing_set_partitions(n):
            ok = True
            for blk in blocks:
                b0 = word[blk[0] - 1]
                if any(word[x - 1] != b0 for x in blk[1:]):
                    ok = False
                    break
            if not ok:
                continue
            term = ONE
            for blk in blocks:
                term = term * atoms.free_cumulant(tuple(x - 1 for x in blk))
            add_into(out, term.terms.items())
        return Poly(out)


class CMonotoneEngine(Engine):
    name = "cmonotone"

    def _phi_word(self, word, atoms):
        syls = []
        for pos, v in enumerate(word):
            if syls and syls[-1][0] == v:
                syls[-1][1].append(pos)
            else:
                syls.append((v, [pos]))
        syls = tuple((v, tuple(ps)) for v, ps in syls)
        return self._eval(syls, atoms)

    def _eval(self, syls, atoms):
        if len(syls) == 1:
            return atoms.moment(syls[0][1])
        if syls[0][0] > syls[1][0]:
            return atoms.moment(syls[0][1]) * self._eval(syls[1:], atoms)
        if syls[-1][0] > syls[-2][0]:
            return self._eval(syls[:-1], atoms) * atoms.moment(syls[-1][1])
        for j in range(1, len(syls) - 1):
            if syls[j - 1][0] < syls[j][0] > syls[j + 1][0]:
                left, mid, right = syls[:j], syls[j], syls[j + 1:]
                phi_l = self._eval(left, atoms)
                phi_r = self._eval(right, atoms)
                direct = phi_l * (atoms.moment(mid[1])
                                  - atoms.psi_moment(mid[1])) * phi_r
                if left[-1][0] == right[0][0]:
                    merged = left[:-1] + (
                        (left[-1][0],
                         tuple(sorted(left[-1][1] + right[0][1]))),
                    ) + right[1:]
                else:
                    merged = left + right
                return direct + atoms.psi_moment(mid[1]) * self._eval(merged,
                                                                      atoms)
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

def moments_from_cumulants(table, pi):
    """phi_pi = sum over sigma <= pi of K_sigma zeta~(sigma,pi)."""
    ideal = K.ideal_words(pi.word)
    if any(w not in table for w in ideal):
        raise ValueError("cumulant table does not cover the ideal")
    return Poly.sum([table[w] * K.zeta_tilde_words(w, pi.word)
                     for w in ideal])


def monotone_mc_defect(n, labels=None):
    """phi(X_1...X_n) minus the monotone-partition cumulant sum (must be 0)."""
    from .partitions import MONOTONE as MONO_CLASS, enumerate_partitions
    labels = tuple(labels) if labels is not None else _default_labels(n)
    lhs = MONOTONE.phi_pi(OrderedSetPartition.one_block(n), labels)
    rhs = Poly.sum([MONOTONE.multiplicative_cumulant(pi, labels)
                    * Fraction(1, factorial(len(pi)))
                    for pi in enumerate_partitions(n, MONO_CLASS)])
    return lhs - rhs


def mixed_cumulant_moment(pi, eta, eng, labels):
    """K_pi of copy-indexed entries via Weisner coefficients over moments."""
    labels = tuple(labels)
    at = eng.atoms(labels)
    out = {}
    for w in K.osp_words(pi.n):
        coeff = weisner3(OrderedSetPartition._raw(pi.n, w), eta, pi)
        if coeff:
            add_into(out, (eng._phi_word(w, at) * coeff).terms.items())
    return Poly(out)


def mixed_cumulant_cumulant(pi, eta, eng, labels):
    """K_pi of copy-indexed entries via Goldberg coefficients over cumulants."""
    labels = tuple(labels)
    table = eng.cumulant_table(pi.n, labels)
    out = {}
    for w in K.osp_words(pi.n):
        coeff = goldberg3(OrderedSetPartition._raw(pi.n, w), eta, pi)
        if coeff:
            add_into(out, (table[w] * coeff).terms.items())
    return Poly(out)


def singleton_defect(eng, pi, labels, k):
    """phi_pi with the order-one symbols of variable k set to zero.

    Zero for every engine whenever {k} is a singleton block of pi (both
    symbol families are centered; the two-state system needs both).
    """
    labels = tuple(labels)
    target = (labels[k - 1],)

    def subst(sym):
        kind, payload = sym
        if kind in (MOMENT, FREE_CUMULANT, PSI_MOMENT) and payload == target:
            return 0
        return None

    return eng.phi_pi(pi, labels).substitute(subst)
