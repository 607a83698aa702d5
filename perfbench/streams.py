"""Seeded request streams for the four workloads.

Each workload is a fixed list of slots.  A slot fixes a request kind and
the sizes that set its cost (degree, n, block shape, term lengths); the
seed draws the rest (letters, labels, which partition of that shape,
coefficients, output format) and the order of the requests.  So every
seed gives a stream with the same mix and cost profile, and a second seed
is held-out data for the same claim.  Contents come from small pools, so
some requests repeat exactly (CBH letters, oracle tables, identity scans),
and all of them share the library's caches (OP_n words, ideals, projector
tables) as calls in a user's script do.  The slowest single requests are
kept apart as named cases (NAMED).

A request is a JSON object: {"kind": ..., parameters...}.  `generate`
returns the list and `encode` its canonical bytes.
"""

import json
import random

WORKLOADS = ("cbh-lie", "cumulant-engines", "oracle-scan", "cli-cold")

ENGINES = ("tensor", "free", "boolean", "monotone", "cmonotone")
ENUM_CLASSES_OP = ("all", "onc", "oi", "monotone")
ENUM_CLASSES_SP = ("sp", "nc", "ip")
ENUM_CLASSES_PAIR = ("pair", "pair-nc", "pair-ip", "monotone-pair")
FORMATS = ("json", "csv", "text")


def _frac(rng):
    num = rng.choice((-3, -2, -1, 1, 2, 3))
    return f"{num}/{rng.choice((1, 1, 2, 3))}"


def _word(rng, length, alphabet="abcdefgh"):
    """Distinct letters, so that the cost depends on the length alone."""
    return "".join(rng.sample(alphabet, length))


def _ncpoly(rng, lengths, alphabet="abcdefghijkl"):
    """Terms over disjoint sets of distinct letters, so that the cost
    depends on the lengths alone."""
    letters = rng.sample(alphabet, sum(lengths))
    out, pos = [], 0
    for ln in lengths:
        out.append(["".join(letters[pos:pos + ln]), _frac(rng)])
        pos += ln
    return out


def _osp_of_shape(rng, shape):
    """Random ordered set partition word of [sum(shape)] with these block
    sizes, in this block order."""
    n = sum(shape)
    elems = list(range(n))
    rng.shuffle(elems)
    word = [0] * n
    pos = 0
    for b, size in enumerate(shape, start=1):
        for e in elems[pos:pos + size]:
            word[e] = b
        pos += size
    return word


def _random_osp(rng, n):
    """Random ordered set partition word of [n]: the kernel of n draws."""
    w = [rng.randint(1, n) for _ in range(n)]
    rank = {v: i + 1 for i, v in enumerate(sorted(set(w)))}
    return [rank[v] for v in w]


def _refinement(rng, eta):
    """A random ordered partition tau whose blocks refine eta's blocks."""
    pieces = []
    for b in range(1, max(eta) + 1):
        members = [i for i, v in enumerate(eta) if v == b]
        k = rng.randint(1, len(members))
        groups = {}
        for m in members:
            groups.setdefault(rng.randint(1, k), []).append(m)
        pieces.extend(groups.values())
    rng.shuffle(pieces)
    tau = [0] * len(eta)
    for idx, piece in enumerate(pieces, start=1):
        for m in piece:
            tau[m] = idx
    return tau


def _coarsening(rng, tau):
    """A random pi >= tau: merge runs of consecutive tau-blocks."""
    p = max(tau)
    label = []
    cur = 1
    for i in range(p):
        if i and rng.random() < 0.5:
            cur += 1
        label.append(cur)
    return [label[t - 1] for t in tau]


def _ideal_member(rng, pi):
    """A random sigma <= pi: an ordered partition of each pi-block in turn."""
    sigma = [0] * len(pi)
    offset = 0
    for b in range(1, max(pi) + 1):
        members = [i for i, v in enumerate(pi) if v == b]
        sub = _random_osp(rng, len(members))
        for m, v in zip(members, sub):
            sigma[m] = offset + v
        offset += max(sub)
    return sigma


def _part_text(word):
    return "".join(str(x) for x in word)


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def _cbh_lie(rng):
    out = []
    for route in ("direct", "cumulant", "goldberg"):
        for nletters, degrees in ((2, range(2, 8)), (3, range(2, 7))):
            for degree in degrees:
                if (route, nletters, degree) == ("cumulant", 2, 7):
                    continue  # a named case
                letters = "".join(rng.sample("abcxyz", nletters))
                out.append({"kind": f"freelie.cbh_{route}",
                            "letters": letters, "degree": degree})
    for length in (1, 2, 3, 4, 5) * 8:
        out.append({"kind": "freelie.pi_projector",
                    "word": _word(rng, length)})
    for lengths in ((5, 3), (4, 4, 2), (5, 2, 1), (3, 3, 3)) * 5:
        out.append({"kind": "freelie.pi_on_poly",
                    "poly": _ncpoly(rng, lengths)})
    for lengths in ((5, 3), (4, 4, 2), (5, 2, 1), (3, 3, 3)) * 5:
        out.append({"kind": "freelie.dynkin",
                    "poly": _ncpoly(rng, lengths)})
    for n in (3, 4, 5) * 5:
        # element k is a letter plus a two-letter word over its own three
        # letters, so no two products of elements collide
        out.append({"kind": "freelie.nct_cumulant",
                    "elements": [_ncpoly(rng, (1, 2),
                                         "abcdefghijklmno"[3 * k:3 * k + 3])
                                 for k in range(n)]})
    for length in (2, 3, 4, 5) * 2:
        for k in range(1, length + 1):
            out.append({"kind": "freelie.pi_k",
                        "word": _word(rng, length), "k": k})
    return out


_CUMULANT_SHAPES = ((1, 1), (2, 1), (2, 2), (3, 1), (2, 1, 1), (3, 2),
                    (2, 2, 1), (2, 2, 2), (3, 2, 1))
_DIFFEQ_SHAPES = ((1, 1), (2,), (2, 1), (3,), (2, 2), (3, 1))


def _labels(rng, n):
    """n distinct variable labels: distinct labels keep the cost fixed."""
    return "".join(rng.sample("UVWXYZ", n))


def _cumulant_engines(rng):
    out = []
    for system in ENGINES:
        for n in (2, 4, 6, 8):
            if (system, n) not in (("free", 8), ("cmonotone", 8)):  # named
                out.append({"kind": "systems.clt_moment", "system": system,
                            "n": n})
        for n in (3, 4, 5):
            out.append({"kind": "systems.cumulant_table", "system": system,
                        "n": n, "labels": _labels(rng, n)})
        for shape in _CUMULANT_SHAPES:
            for kind in ("systems.cumulant", "systems.phi_pi"):
                out.append({"kind": kind, "system": system,
                            "pi": _osp_of_shape(rng, shape),
                            "labels": _labels(rng, sum(shape))})
    for n in (3, 4, 5) * 2:
        out.append({"kind": "systems.monotone_mc_defect", "n": n,
                    "labels": _labels(rng, n)})
    for system in ("tensor", "boolean", "monotone"):
        for shape in _DIFFEQ_SHAPES:
            pi = _osp_of_shape(rng, shape)
            out.append({"kind": "systems.diffeq_residuals", "system": system,
                        "pi": pi, "labels": _labels(rng, len(pi)), "j": 1})
    return out


def _coefficient_queries(rng, n, with_pi, count=8):
    """Closed-form queries on [n]; three in four are nonzero cases: tau
    refines eta and, for the three-argument forms, pi coarsens tau."""
    out = []
    for i in range(count):
        eta = _random_osp(rng, n)
        tau = _refinement(rng, eta) if i % 4 != 3 else _random_osp(rng, n)
        query = [tau, eta]
        if with_pi:
            query.append(_coarsening(rng, tau) if i % 4 != 1
                         else _random_osp(rng, n))
        out.append(query)
    return out


def _oracle_scan(rng):
    out = []
    for n in (1, 2, 3, 4, 5, 5, 5):
        out.append({"kind": "kernels.mu_zeta_identity", "n": n})
    for n in (2, 3, 4, 5) * 2:
        out.append({"kind": "kernels.beta_semigroup_identity", "n": n,
                    "s": rng.randint(1, 5), "t": rng.randint(1, 5)})
    for kind in ("coefficients.weisner_oracle_table",
                 "coefficients.goldberg_oracle_table"):
        out += [{"kind": kind, "n": 4}] * 2
    for fn in ("weisner", "goldberg", "weisner3", "goldberg3"):
        for n in tuple(range(2, 9)) * 4:
            out.append({"kind": f"coefficients.{fn}",
                        "queries": _coefficient_queries(rng, n,
                                                        fn.endswith("3"))})
    for n in (1, 2, 3, 4) * 4:
        pi = _random_osp(rng, n)
        p = max(pi)
        out.append({"kind": "incidence.convolve_tri", "pi": pi,
                    "sigma": _ideal_member(rng, pi),
                    "s": [rng.randint(1, 3) for _ in range(p)],
                    "t": [rng.randint(1, 3) for _ in range(p)]})
    return out


def _cli_cold(rng):
    out = []

    def add(kind, argv):
        fmt = FORMATS[len(out) % len(FORMATS)]
        out.append({"kind": kind, "argv": argv + ["--format", fmt]})

    # OP-filtered classes walk all of OP_n even to count, so they stay at
    # n <= 7; the full listing at n = 8 is a named case.
    out.append({"kind": "cli.cmd_enumerate",
                "argv": ["enumerate", "-n", "7", "--format", "json"]})
    classes = ENUM_CLASSES_OP[1:] + ENUM_CLASSES_SP + ENUM_CLASSES_PAIR
    for i, cls in enumerate(classes):
        n = "6" if cls in ENUM_CLASSES_OP else "8"
        add("cli.cmd_enumerate", ["enumerate", "-n", n, "--class", cls]
            + (["--count-only"] if i % 2 else []))
    for i, n in enumerate((3, 4, 5, 5)):
        eta = _random_osp(rng, n)
        tau = _refinement(rng, eta) if i != 3 else _random_osp(rng, n)
        argv = ["coeff", ("weisner", "goldberg")[i % 2],
                "--tau", _part_text(tau), "--eta", _part_text(eta)]
        if i >= 2:
            argv += ["--pi", _part_text(_coarsening(rng, tau))]
        add("cli.cmd_coeff", argv)
    for n, direction in ((2, "m2c"), (3, "c2m"), (4, "m2c"), (4, "c2m")):
        add("cli.cmd_cumulants", ["cumulants", "--system", rng.choice(ENGINES),
                                  "-n", str(n), "--direction", direction])
    for degree, nletters, route in ((4, 3, "all"), (6, 2, "cumulant"),
                                    (6, 3, "goldberg")):
        add("cli.cmd_cbh", ["cbh", "--letters",
                            "".join(rng.sample("abxy", nletters)),
                            "--degree", str(degree), "--route", route])
    for system, n in zip(rng.sample(ENGINES, len(ENGINES)), (2, 3, 4, 6, 6)):
        add("cli.cmd_clt", ["clt", "--system", system, "-n", str(n)])
    return out


# The slowest single requests, 0.1 to 8 s each in ospart 0.1.0 with the
# pure kernels: the baselines listed in ROADMAP.md, the cases of
# benchmarks/bench_kernels.py and the two CLT moments that took 40% of
# their stream.  A stream holding one would be timed mostly by that one
# request and fit few passes in a run, so each traced run makes one pass
# of them alone and reports their latencies as `<kind>.p50_ms`.
NAMED = {
    "cbh-lie": [
        {"kind": "freelie.cbh_cumulant.ab7", "letters": "ab", "degree": 7},
    ],
    "cumulant-engines": [
        {"kind": "systems.clt_moment.free8", "system": "free", "n": 8},
        {"kind": "systems.clt_moment.cmonotone8", "system": "cmonotone",
         "n": 8},
    ],
    "oracle-scan": [
        {"kind": "kernels.mu_zeta_identity.n6", "n": 6},
        {"kind": "coefficients.weisner_oracle_table.n5", "n": 5},
        {"kind": "coefficients.goldberg_oracle_table.n5", "n": 5},
        {"kind": "kernels.beta_semigroup_identity.n5", "n": 5, "s": 3,
         "t": 4},
        {"kind": "kernels.quasi_meet.sweep5", "n": 5},
        {"kind": "kernels.iter_osp_words.n7", "n": 7},
    ],
    "cli-cold": [
        {"kind": "cli.cmd_enumerate.n8",
         "argv": ["enumerate", "-n", "8", "--format", "json"]},
    ],
}

_BUILDERS = {
    "cbh-lie": _cbh_lie,
    "cumulant-engines": _cumulant_engines,
    "oracle-scan": _oracle_scan,
    "cli-cold": _cli_cold,
}


def generate(workload, seed):
    """The request stream of a workload for a seed (same seed, same list)."""
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}; "
                         f"pick from {', '.join(WORKLOADS)}")
    rng = random.Random(f"{workload}:{seed}")
    stream = _BUILDERS[workload](rng)
    rng.shuffle(stream)
    return stream


def encode(stream):
    return json.dumps(stream, sort_keys=True, separators=(",", ":")).encode()
