"""Command-line surface with machine-readable exact output.

Subcommands: enumerate, coeff, cumulants, cbh, clt.  Formats json (default),
csv and text; every rational prints as "p/q" and identical invocations are
byte-identical.  Exit codes: 0 success, 2 parse/validation error,
3 resource-cap refusal (override with --force).
"""

import argparse
import json
import os
import sys
from decimal import Decimal
from fractions import Fraction

from . import coefficients as coeffs
from . import freelie as fl
from . import partitions as parts
from . import systems
from ._kernels import OSP_WORDS_CAP

ENUMERATE_CAP = 8
# bound on the words of length 1..degree over the letters (sum of L^k);
# the slowest `--route all` it allows, `abcd` at degree 7, takes about
# 0.9 s and 32 MB on a 2-core host
CBH_WORD_CAP = 25_000
CUMULANTS_CAP = 5
# a CLT moment is a closed count, so the cap bounds the printed number: at
# n = 10,000 the slowest system, tensor, prints its 17,880 digits of
# (n-1)!! in about 0.12 s and 18 MB from a fresh process on a 2-core host,
# against 0.07 s for n = 10,001 (odd, so 0); n = 20,000 takes 0.25 s
CLT_CAP = 10_000

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_CAP = 3

class CapError(Exception):
    pass


class UsageError(Exception):
    pass


def _default_format():
    return os.environ.get("OSPART_FORMAT", "json")


def _rat(x) -> str:
    """x as "p/q", or "p" when integral, at any size: a Decimal prints an
    int exactly, past the interpreter's digit limit on str(int)."""
    x = Fraction(x)
    p = str(Decimal(x.numerator))
    return p if x.denominator == 1 else f"{p}/{Decimal(x.denominator)}"


def _emit(doc, fmt, out):
    if fmt == "json":
        out.write(json.dumps(doc["json"], separators=(", ", ": ")))
        out.write("\n")
    elif fmt == "csv":
        for row in doc["csv"]:
            out.write(",".join(str(x) for x in row))
            out.write("\n")
    else:
        for line in doc["text"]:
            out.write(line)
            out.write("\n")


def _parse_partition(text):
    try:
        return parts.OrderedSetPartition.parse(text)
    except ValueError as exc:
        raise UsageError(f"bad partition {text!r}: {exc}") from None


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_enumerate(args):
    if args.n < 1:
        raise UsageError("n must be >= 1")
    if args.n > ENUMERATE_CAP and not args.force:
        raise CapError(
            f"enumeration cap is n = {ENUMERATE_CAP} (Fubini growth); "
            "pass --force to override")
    if args.count_only:
        count = parts.class_count(args.n, args.klass)
        return {
            "json": {"command": "enumerate", "n": args.n, "class": args.klass,
                     "count": count},
            "csv": [("n", "class", "count"), (args.n, args.klass, count)],
            "text": [str(count)],
        }
    items = list(parts.enumerate_block_strings(args.n, args.klass))
    return {
        "json": {"command": "enumerate", "n": args.n, "class": args.klass,
                 "count": len(items), "items": items},
        "csv": [("partition",)] + [(s,) for s in items],
        "text": items + [f"count: {len(items)}"],
    }


def cmd_coeff(args):
    tau = _parse_partition(args.tau)
    eta = _parse_partition(args.eta)
    pi = _parse_partition(args.pi) if args.pi is not None else None
    ns = {tau.n, eta.n} | ({pi.n} if pi else set())
    if len(ns) != 1:
        raise UsageError("tau, eta (and pi) must share a ground set")
    fn3 = coeffs.goldberg3 if args.kind == "goldberg" else coeffs.weisner3
    fn2 = coeffs.goldberg if args.kind == "goldberg" else coeffs.weisner
    reason = None
    try:
        coeffs.relative_word(tau, eta)
    except ValueError:
        reason = "tau does not refine eta"
    if pi is not None and reason is None and not parts.leq(tau, pi):
        reason = "tau is not below pi"
    value = fn3(tau, eta, pi) if pi is not None else fn2(tau, eta)
    doc = {"command": "coeff", "kind": args.kind, "tau": str(tau),
           "eta": str(eta), "pi": str(pi) if pi else None,
           "value": _rat(value), "degenerate_reason": reason}
    return {
        "json": doc,
        "csv": [("kind", "tau", "eta", "pi", "value"),
                (args.kind, str(tau), str(eta), str(pi) if pi else "", _rat(value))],
        "text": [f"{args.kind}({tau}; {eta}"
                 + (f"; {pi}) = {_rat(value)}" if pi else f") = {_rat(value)}")
                 + (f"   [{reason}]" if reason else "")],
    }


def cmd_cumulants(args):
    if args.n < 1:
        raise UsageError("n must be >= 1")
    if args.n > OSP_WORDS_CAP:  # every table holds all of OP_n
        raise UsageError(f"cumulants stops at n = {OSP_WORDS_CAP}, even "
                         f"with --force: got {args.n}")
    if args.n > CUMULANTS_CAP and not args.force:
        raise CapError(f"cumulants cap is n = {CUMULANTS_CAP}; "
                       "pass --force to override")
    eng = systems.engine(args.system)
    labels = tuple(str(k) for k in range(1, args.n + 1))
    table = {}
    if args.direction == "m2c":
        # engine-evaluated cumulants in primitive moment symbols
        raw = eng.cumulant_table(args.n, labels)
        # the words of one set partition share one K: render each once,
        # keyed by id while raw holds the objects
        rendered = {}
        for pi in parts.enumerate_partitions(args.n):
            k = raw[pi.word]
            out = rendered.get(id(k))
            if out is None:
                out = rendered[id(k)] = k.render_map()
            table[str(pi)] = out
        head = "K"
        symbols = eng.name
    else:
        # the universal reconstruction phi = sum zeta~ K over formal K's
        from .symbolic import Poly, scalar_symbol
        pis = list(parts.enumerate_partitions(args.n))
        formal = {pi.word: Poly.sym(scalar_symbol(
            "K[" + "".join(map(str, pi.word)) + "]")) for pi in pis}
        for pi in pis:
            table[str(pi)] = systems.moments_from_cumulants(
                formal, pi).render_map()
        head = "phi"
        symbols = "formal"
    doc = {"command": "cumulants", "system": args.system, "n": args.n,
           "direction": args.direction, "symbols": symbols, "table": table}
    csv_rows = [("partition", "monomial", "coefficient")]
    text = []
    for key, poly_map in table.items():
        text.append(f"{head}[{key}] = " + " + ".join(
            f"({c}) {m}" for m, c in poly_map.items()) if poly_map else
            f"{head}[{key}] = 0")
        for mono, c in poly_map.items():
            csv_rows.append((key, mono, c))
    return {"json": doc, "csv": csv_rows, "text": text}


def cmd_cbh(args):
    letters = tuple(args.letters)
    if len(set(letters)) != len(letters):
        raise UsageError("letters must be distinct")
    if args.degree < 1:
        raise UsageError("degree must be >= 1")
    if not args.force:
        if args.degree > fl.DEFAULT_DEGREE_CAP:
            raise CapError(f"cbh degree cap is {fl.DEFAULT_DEGREE_CAP}; "
                           "pass --force to override")
        words = sum(len(letters) ** k for k in range(1, args.degree + 1))
        if words > CBH_WORD_CAP:
            raise CapError(
                f"cbh word cap is {CBH_WORD_CAP}: {len(letters)} letters "
                f"to degree {args.degree} make {words} words; "
                "pass --force to override")
    routes = {
        "direct": fl.cbh_direct,
        "cumulant": fl.cbh_cumulant,
        "goldberg": fl.cbh_goldberg,
    }
    if args.route == "all":
        results = {name: fn(letters, args.degree, cap=None)
                   for name, fn in routes.items()}
        agree = (results["direct"] == results["cumulant"]
                 == results["goldberg"])
        series = results["direct"]
    else:
        series = routes[args.route](letters, args.degree, cap=None)
        agree = None
    series_map = _series_map(series)
    doc = {"command": "cbh", "letters": "".join(letters),
           "degree": args.degree, "route": args.route, "series": series_map}
    if agree is not None:
        doc["routes_agree"] = agree
    csv_rows = [("word", "coefficient")] + list(series_map.items())
    text = [f"{w}: {c}" for w, c in series_map.items()]
    if agree is not None:
        text.append(f"routes_agree: {agree}")
    return {"json": doc, "csv": csv_rows, "text": text}


def _series_map(series):
    keys = sorted(series.poly.terms,
                  key=lambda w: (len(w), tuple(str(x) for x in w)))
    return {"".join(str(x) for x in w): _rat(series.poly.terms[w])
            for w in keys}


def cmd_clt(args):
    if args.n < 1:
        raise UsageError("n must be >= 1")
    if args.n > CLT_CAP and not args.force:
        raise CapError(f"clt cap is n = {CLT_CAP}; pass --force to override")
    eng = systems.engine(args.system)
    value = eng.clt_moment(args.n)
    return {
        "json": {"command": "clt", "system": args.system, "n": args.n,
                 "value": _rat(value)},
        "csv": [("system", "n", "value"), (args.system, args.n, _rat(value))],
        "text": [_rat(value)],
    }


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "csv", "text"),
                        default=None, help="output format (env OSPART_FORMAT)")
    p = argparse.ArgumentParser(
        prog="ospart",
        parents=[common],
        description="Exact ordered-set-partition combinatorics: enumeration, "
                    "Weisner/Goldberg coefficients, cumulant transforms and "
                    "CBH expansion.")
    sub = p.add_subparsers(dest="cmd", required=True)

    e = sub.add_parser("enumerate", parents=[common],
                       help="list partitions of a class")
    e.add_argument("-n", type=int, required=True)
    e.add_argument("--class", dest="klass", default="all",
                   choices=sorted(parts.CLASSES))
    e.add_argument("--count-only", action="store_true")
    e.add_argument("--force", action="store_true")
    e.set_defaults(fn=cmd_enumerate)

    c = sub.add_parser("coeff", parents=[common], help="Weisner / Goldberg coefficients")
    c.add_argument("kind", choices=("weisner", "goldberg"))
    c.add_argument("--tau", required=True)
    c.add_argument("--eta", required=True)
    c.add_argument("--pi", default=None)
    c.set_defaults(fn=cmd_coeff)

    k = sub.add_parser("cumulants", parents=[common], help="moment/cumulant tables")
    k.add_argument("--system", required=True, choices=sorted(systems.ENGINES))
    k.add_argument("-n", type=int, required=True)
    k.add_argument("--direction", choices=("m2c", "c2m"), default="m2c")
    k.add_argument("--force", action="store_true")
    k.set_defaults(fn=cmd_cumulants)

    b = sub.add_parser("cbh", parents=[common], help="CBH series expansion")
    b.add_argument("--letters", required=True)
    b.add_argument("--degree", type=int, required=True)
    b.add_argument("--route", choices=("direct", "cumulant", "goldberg", "all"),
                   default="all")
    b.add_argument("--force", action="store_true")
    b.set_defaults(fn=cmd_cbh)

    t = sub.add_parser("clt", parents=[common], help="central limit moments")
    t.add_argument("--system", required=True, choices=sorted(systems.ENGINES))
    t.add_argument("-n", type=int, required=True)
    t.add_argument("--force", action="store_true")
    t.set_defaults(fn=cmd_clt)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    fmt = args.format or _default_format()
    if fmt not in ("json", "csv", "text"):
        print(f"ospart: bad format {fmt!r}", file=sys.stderr)
        return EXIT_USAGE
    try:
        doc = args.fn(args)
    except (UsageError, ValueError) as exc:
        print(f"ospart: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CapError as exc:
        print(f"ospart: {exc}", file=sys.stderr)
        return EXIT_CAP
    try:
        _emit(doc, fmt, sys.stdout)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed the pipe (`ospart ... | head`); send what is
        # still buffered to devnull so the flush at exit stays quiet
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
