"""Request kinds of the in-process workloads: the call and its check.

`RUN[kind](request)` makes the call into ospart that the timer measures.
`CHECK[kind](request, result)` verifies the result exactly by another
route, after the timed loop: a second CBH route, a definition-level
oracle, a closed form from `oracles`, or a round trip through the inverse
transform.  A check returns False (or raises) on a wrong value.
"""

from collections import Counter
from fractions import Fraction
from functools import lru_cache

import oracles as R
from ospart import _kernels as K
from ospart import coefficients as C
from ospart import freelie as FL
from ospart import incidence as I
from ospart import partitions as P
from ospart import systems as S


def _osp(word):
    return P.OrderedSetPartition.from_word(word)


def _ncpoly(pairs):
    total = {}
    for word, coeff in pairs:
        w = tuple(word)
        total[w] = total.get(w, 0) + Fraction(coeff)
    return FL.NCPoly({w: c for w, c in total.items() if c})


# ---------------------------------------------------------------------------
# cbh-lie
# ---------------------------------------------------------------------------

# Library functions are looked up when called, never bound at import, so
# that the tracer's wrappers see every call the benchmark makes.

_ROUTES = ("direct", "cumulant", "goldberg")


def _cbh(route):
    def run(req):
        fn = getattr(FL, "cbh_" + route)
        return fn(tuple(req["letters"]), req["degree"])

    def check(req, res):
        other = "direct" if route == "goldberg" else "goldberg"
        ref = getattr(FL, "cbh_" + other)(tuple(req["letters"]),
                                          req["degree"])
        return res.order == req["degree"] and res.poly.terms == ref.poly.terms
    return run, check


@lru_cache(maxsize=None)
def _projector_on_positions(n):
    return FL.pi_convolution_oracle(tuple(range(n))).terms


def _projector_ref(word):
    """The projector by its coproduct definition; for distinct letters, the
    one on positions 0..n-1 renamed (the projector commutes with
    renaming letters)."""
    word = tuple(word)
    if len(set(word)) < len(word):
        return FL.pi_convolution_oracle(word).terms
    return {tuple(word[i] for i in w): c
            for w, c in _projector_on_positions(len(word)).items()}


def _check_pi_on_poly(req, res):
    expect = {}
    for w, c in _ncpoly(req["poly"]).terms.items():
        R.nc_add_into(expect, _projector_ref(w), c)
    return res.terms == R.nonzero(expect)


def _check_dynkin(req, res):
    expect = {}
    for w, c in _ncpoly(req["poly"]).terms.items():
        R.nc_add_into(expect, R.right_nested_bracket(w), c / len(w))
    return res.terms == R.nonzero(expect)


def _check_nct(req, res):
    # the projector on distinct atoms 0..n-1, then each atom replaced by
    # its element: the cumulant is multilinear in the elements
    elements = [_ncpoly(e).terms for e in req["elements"]]
    expect = {}
    for order, coeff in _projector_on_positions(len(elements)).items():
        term = {(): Fraction(1)}
        for i in order:
            term = R.nc_mul(term, elements[i])
        R.nc_add_into(expect, term, coeff)
    return res.terms == R.nonzero(expect)


def _check_pi_k(req, res):
    coeffs = FL.dilation_coefficients(tuple(req["word"]))
    return res == coeffs[req["k"] - 1]


# ---------------------------------------------------------------------------
# cumulant-engines
# ---------------------------------------------------------------------------

def _ideal(pi):
    """Every sigma <= pi: an ordered partition of each pi-block in turn."""
    out = [[0] * len(pi)]
    offset_of = [0]
    for blk in R.blocks(pi):
        subs = R.op_words(len(blk))
        nxt, nxt_off = [], []
        for w, off in zip(out, offset_of):
            for sub in subs:
                w2 = list(w)
                for pos, v in zip(blk, sub):
                    w2[pos - 1] = off + v
                nxt.append(w2)
                nxt_off.append(off + max(sub))
        out, offset_of = nxt, nxt_off
    return [tuple(w) for w in out]


def _mu_tilde(sigma, pi):
    t = R.interval_type(sigma, pi)
    d = 1
    for k in t:
        d *= k
    return Fraction((-1) ** (sum(t) - len(t)), d)


def _zeta_tilde(sigma, pi):
    d = 1
    for k in R.interval_type(sigma, pi):
        for j in range(2, k + 1):
            d *= j
    return Fraction(1, d)


def _engine_labels(req):
    return S.engine(req["system"]), tuple(req["labels"])


def _run_cumulant_table(req):
    eng, labels = _engine_labels(req)
    return eng.cumulant_table(req["n"], labels)


def _check_cumulant_table(req, res):
    eng, labels = _engine_labels(req)
    words = R.op_words(req["n"])
    if set(res) != set(words):
        return False
    return all(S.moments_from_cumulants(res, _osp(w)) ==
               eng.phi_pi(_osp(w), labels) for w in words)


def _run_cumulant(req):
    eng, labels = _engine_labels(req)
    return eng.cumulant(_osp(req["pi"]), labels)


def _check_cumulant(req, res):
    # K_pi = sum over sigma <= pi of phi_sigma mu~(sigma, pi)
    eng, labels = _engine_labels(req)
    pi = tuple(req["pi"])
    expect = S.Poly()
    for sigma in _ideal(pi):
        expect = expect + eng.phi_pi(_osp(sigma), labels) * _mu_tilde(sigma,
                                                                     pi)
    return res == expect


def _run_phi_pi(req):
    eng, labels = _engine_labels(req)
    return eng.phi_pi(_osp(req["pi"]), labels)


def _check_phi_pi(req, res):
    # phi_pi = sum over sigma <= pi of K_sigma zeta~(sigma, pi)
    eng, labels = _engine_labels(req)
    pi = tuple(req["pi"])
    expect = S.Poly()
    for sigma in _ideal(pi):
        expect = expect + eng.cumulant(_osp(sigma), labels) * _zeta_tilde(
            sigma, pi)
    return res == expect


def _run_diffeq(req):
    eng, labels = _engine_labels(req)
    return eng.diffeq_residuals(_osp(req["pi"]), labels, req["j"])


# ---------------------------------------------------------------------------
# oracle-scan
# ---------------------------------------------------------------------------

def _check_table(closed_form):
    def check(req, res):
        words = R.op_words(req["n"])
        if set(res) != set(words):
            return False
        for eta in words:
            row = res[eta]
            nonzero = 0
            for tau in words:
                want = closed_form(tau, eta)
                if row.get(tau, 0) != want:
                    return False
                nonzero += want != 0
            if len(row) != nonzero:
                return False
        return True
    return check


def _run_sweep(req):
    words = K.osp_words(req["n"])
    qm = K.quasi_meet
    return Counter(qm(u, v) for u in words for v in words)


def _check_sweep(req, res):
    words = R.op_words(req["n"])
    expect = Counter()
    for u in words:
        for v in words:
            expect[R.kernel(list(zip(u, v)))] += 1
    return res == expect


def _check_enumeration(req, res):
    n = req["n"]
    return (len(res) == R.fubini(n) and len(set(res)) == len(res)
            and all(len(w) == n and set(w) == set(range(1, max(w) + 1))
                    for w in res))


def _closed(name):
    """A batch of closed-form queries: [[tau, eta(, pi)], ...]."""
    ref = getattr(R, name)

    def run(req):
        fn = getattr(C, name)
        return [fn(*(_osp(w) for w in q)) for q in req["queries"]]

    def check(req, res):
        return res == [ref(*(tuple(w) for w in q)) for q in req["queries"]]
    return run, check


def _run_convolve(req):
    s, t = req["s"], req["t"]

    def gam(sg, rh, pi):
        return I.gamma_vec(s, sg, rh, pi)

    def bet(rh, pi):
        return I.beta_vec(t, rh, pi)

    return I.convolve_tri(gam, bet, _osp(req["sigma"]), _osp(req["pi"]))


def _check_convolve(req, res):
    return res == R.beta_product(req["s"], req["t"], tuple(req["sigma"]),
                                 tuple(req["pi"]))


def _is_true(req, res):
    return res is True


def _clt_run(req):
    return S.engine(req["system"]).clt_moment(req["n"])


def _clt_check(req, res):
    return res == R.clt_moment(req["system"], req["n"])


RUN = {}
CHECK = {}


def _add(kind, run, check):
    RUN[kind] = run
    CHECK[kind] = check


for _route in _ROUTES:
    _add(f"freelie.cbh_{_route}", *_cbh(_route))
_add("freelie.cbh_cumulant.ab7", *_cbh("cumulant"))
_add("freelie.pi_projector",
     lambda req: FL.pi_projector(tuple(req["word"])),
     lambda req, res: res.terms == _projector_ref(req["word"]))
_add("freelie.pi_on_poly", lambda req: FL.pi_on_poly(_ncpoly(req["poly"])),
     _check_pi_on_poly)
_add("freelie.dynkin", lambda req: FL.dynkin(_ncpoly(req["poly"])),
     _check_dynkin)
_add("freelie.nct_cumulant",
     lambda req: FL.nct_cumulant([_ncpoly(e) for e in req["elements"]]),
     _check_nct)
_add("freelie.pi_k", lambda req: FL.pi_k(tuple(req["word"]), req["k"]),
     _check_pi_k)

_add("systems.clt_moment", _clt_run, _clt_check)
_add("systems.clt_moment.free8", _clt_run, _clt_check)
_add("systems.clt_moment.cmonotone8", _clt_run, _clt_check)
_add("systems.cumulant_table", _run_cumulant_table, _check_cumulant_table)
_add("systems.cumulant", _run_cumulant, _check_cumulant)
_add("systems.phi_pi", _run_phi_pi, _check_phi_pi)
_add("systems.monotone_mc_defect",
     lambda req: S.monotone_mc_defect(req["n"], tuple(req["labels"])),
     lambda req, res: res.is_zero())
_add("systems.diffeq_residuals", _run_diffeq,
     lambda req, res: res[0].is_zero() and res[1].is_zero())

for _kind in ("kernels.mu_zeta_identity", "kernels.mu_zeta_identity.n6"):
    _add(_kind, lambda req: K.mu_zeta_identity(req["n"]), _is_true)
for _kind in ("kernels.beta_semigroup_identity",
              "kernels.beta_semigroup_identity.n5"):
    _add(_kind, lambda req: K.beta_semigroup_identity(req["n"], req["s"],
                                                      req["t"]), _is_true)
for _suffix in ("", ".n5"):
    _add("coefficients.weisner_oracle_table" + _suffix,
         lambda req: C.weisner_oracle_table(req["n"]),
         _check_table(R.weisner))
    _add("coefficients.goldberg_oracle_table" + _suffix,
         lambda req: C.goldberg_oracle_table(req["n"]),
         _check_table(R.goldberg))
_add("kernels.quasi_meet.sweep5", _run_sweep, _check_sweep)
_add("kernels.iter_osp_words.n7",
     lambda req: list(K.iter_osp_words(req["n"])), _check_enumeration)
for _name in ("weisner", "goldberg", "weisner3", "goldberg3"):
    _add(f"coefficients.{_name}", *_closed(_name))
_add("incidence.convolve_tri", _run_convolve, _check_convolve)
