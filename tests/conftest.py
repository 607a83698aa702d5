import os
from fractions import Fraction
from math import prod

import pytest

from ospart import _kernels as K
from ospart import systems as S

# OSPART_FULL=1 raises the exhaustive bounds (slow: minutes, not seconds)
FULL = os.environ.get("OSPART_FULL") == "1"


@pytest.fixture(scope="session")
def full_mode():
    return FULL


def definition_table(eng, n, labels=None):
    """{word: {monomial: coefficient}} over OP_n by the definition: every
    word's own phi, and K_v the sum of phi_sigma mu~(sigma, v) over all of
    v's ideal, mu~ = (-1)^(sum(t) - len(t)) / prod(t) on the interval type
    t, with no support assumed.  A coefficient is an int when integral."""
    at = S.Atoms(S._labels_or_default(n, labels))
    phis = {w: eng._phi_word(w, at) for w in K.osp_words(n)}
    table = {}
    for v in phis:
        acc = {}
        for w, t in zip(*K.typed_ideal(v)):
            mu = Fraction((-1) ** (sum(t) - len(t)), prod(t))
            for mono, c in phis[w].terms.items():
                acc[mono] = acc.get(mono, 0) + c * mu
        table[v] = {mono: c.numerator if c.denominator == 1 else c
                    for mono, c in acc.items() if c}
    return table
