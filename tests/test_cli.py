import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ospart
from ospart import cli
from ospart import partitions as P
from ospart.partitions import OrderedSetPartition

# a fresh interpreter that imports these ospart sources
_ENV = dict(os.environ, PYTHONPATH=str(Path(ospart.__file__).parents[1]))


def run(*argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(list(argv))
    return code, buf.getvalue()


def run_json(*argv):
    code, out = run(*argv)
    assert code == 0, out
    return json.loads(out)


def test_enumerate_count_only():
    doc = run_json("enumerate", "-n", "3", "--class", "all", "--count-only")
    assert doc["count"] == 13
    doc = run_json("enumerate", "-n", "4", "--class", "monotone-pair",
                   "--count-only")
    assert doc["count"] == 3
    doc = run_json("enumerate", "-n", "6", "--class", "all", "--count-only")
    assert doc["count"] == 4683


def test_enumerate_count_only_equals_listing_length():
    for cls in P.CLASSES:
        for n in range(1, 8):
            doc = run_json("enumerate", "-n", str(n), "--class", cls,
                           "--count-only")
            assert doc["count"] == sum(
                1 for _ in P.enumerate_block_strings(n, cls)), (cls, n)


def test_enumerate_listing_roundtrips():
    doc = run_json("enumerate", "-n", "3", "--class", "all")
    assert doc["count"] == 13 and len(doc["items"]) == 13
    parsed = [OrderedSetPartition.parse(s) for s in doc["items"]]
    assert len(set(parsed)) == 13
    code, out = run("enumerate", "-n", "1", "--class", "all", "--format", "text")
    assert code == 0 and out.splitlines()[0] == "1"


def test_enumerate_cap():
    code, _ = run("enumerate", "-n", "10", "--class", "all", "--count-only")
    assert code == cli.EXIT_CAP
    doc = run_json("enumerate", "-n", "10", "--class", "all", "--count-only",
                   "--force")
    assert doc["count"] == 102247563
    # every class counts by closed form, so a forced count walks no words
    doc = run_json("enumerate", "-n", "14", "--class", "monotone-pair",
                   "--count-only", "--force")
    assert doc["count"] == 135135


def test_enumerate_cap_refuses_n9_listing():
    # n = 9 lists 7,087,261 words (about 38 s and 1.3 GB on a 2-core host);
    # n = 8 is the largest listing allowed without --force
    assert cli.ENUMERATE_CAP == 8
    code, out = run("enumerate", "-n", "9", "--class", "all")
    assert code == cli.EXIT_CAP and out == ""
    assert run_json("enumerate", "-n", "8", "--class", "all",
                    "--count-only")["count"] == 545835


def test_coeff_values():
    doc = run_json("coeff", "goldberg", "--tau", "12", "--eta", "12")
    assert doc["value"] == "1/2"
    doc = run_json("coeff", "weisner", "--tau", "231", "--eta", "112")
    assert doc["value"] == "1/3"
    doc = run_json("coeff", "goldberg", "--tau", "3|4|2|1", "--eta", "1,2,3|4")
    assert doc["value"] == "0" and doc["degenerate_reason"] is None
    doc = run_json("coeff", "goldberg", "--tau", "1,3|2", "--eta", "1,2|3")
    assert doc["value"] == "0"
    assert doc["degenerate_reason"] == "tau does not refine eta"
    Fraction(doc["value"])  # exact round-trip parse


def test_coeff_with_pi():
    doc = run_json("coeff", "weisner", "--tau", "12", "--eta", "12",
                   "--pi", "1,2")
    assert doc["value"] == "1/2"
    doc = run_json("coeff", "goldberg", "--tau", "12", "--eta", "12",
                   "--pi", "1|2")
    assert Fraction(doc["value"]) == 1


def test_coeff_goldberg_on_600_singletons_in_one_block():
    # the a^n coefficient of log(e^a) = a, zero for n >= 2; its Eulerian
    # polynomial of degree 599 is built by a loop, not a recursion
    n = 600
    code, out = run("coeff", "goldberg",
                    "--tau", "|".join(map(str, range(1, n + 1))),
                    "--eta", ",".join(map(str, range(1, n + 1))))
    assert code == 0 and '"value": "0"' in out


def test_coeff_usage_errors():
    code, _ = run("coeff", "goldberg", "--tau", "xx", "--eta", "12")
    assert code == cli.EXIT_USAGE
    code, _ = run("coeff", "goldberg", "--tau", "12", "--eta", "123")
    assert code == cli.EXIT_USAGE
    code, _ = run("coeff", "weisner", "--tau", "1,,2", "--eta", "11")
    assert code == cli.EXIT_USAGE
    code, _ = run("coeff", "weisner", "--tau", "12", "--eta", "11", "--pi", "")
    assert code == cli.EXIT_USAGE


def test_cumulants_m2c():
    doc = run_json("cumulants", "--system", "monotone", "-n", "2",
                   "--direction", "m2c")
    table = doc["table"]
    assert table["1,2"] == {"m[1]*m[2]": "-1", "m[12]": "1"}
    assert table["1|2"] == {"m[1]*m[2]": "1"}
    doc = run_json("cumulants", "--system", "free", "-n", "1")
    assert doc["table"]["1"] == {"c[1]": "1"}


def test_cumulants_c2m():
    doc = run_json("cumulants", "--system", "monotone", "-n", "3",
                   "--direction", "c2m")
    assert doc["table"]["1,2|3"] == {"K[112]": "1", "K[123]": "1/2",
                                     "K[213]": "1/2"}


def test_cumulants_cap():
    code, _ = run("cumulants", "--system", "tensor", "-n", "6")
    assert code == cli.EXIT_CAP
    for n in ("0", "-3"):
        code, _ = run("cumulants", "--system", "tensor", "-n", n)
        assert code == cli.EXIT_USAGE


def test_cbh_routes():
    doc = run_json("cbh", "--letters", "ab", "--degree", "3", "--route", "all")
    assert doc["routes_agree"] is True
    series = doc["series"]
    assert series["a"] == "1" and series["ab"] == "1/2"
    assert series["ba"] == "-1/2" and series["aab"] == "1/12"
    assert series["aba"] == "-1/6"
    single = run_json("cbh", "--letters", "ab", "--degree", "4",
                      "--route", "goldberg")
    direct = run_json("cbh", "--letters", "ab", "--degree", "4",
                      "--route", "direct")
    assert single["series"] == direct["series"]


def test_cbh_degree_one_and_cap():
    doc = run_json("cbh", "--letters", "abc", "--degree", "1")
    assert doc["series"] == {"a": "1", "b": "1", "c": "1"}
    code, _ = run("cbh", "--letters", "ab", "--degree", "8")
    assert code == cli.EXIT_CAP
    code, _ = run("cbh", "--letters", "aa", "--degree", "2")
    assert code == cli.EXIT_USAGE


def test_cbh_word_cap():
    # the first refused letter count at degrees 7 and 2
    many = "".join(chr(0x4e00 + i) for i in range(158))
    assert sum(157 ** k for k in (1, 2)) <= cli.CBH_WORD_CAP
    assert sum(158 ** k for k in (1, 2)) > cli.CBH_WORD_CAP
    assert sum(4 ** k for k in range(1, 8)) <= cli.CBH_WORD_CAP
    for letters, degree in (("abcde", "7"), (many, "2")):
        for route in ("all", "goldberg"):
            code, out = run("cbh", "--letters", letters, "--degree", degree,
                            "--route", route)
            assert code == cli.EXIT_CAP and out == ""
    # every size the cli-cold stream asks for stays allowed, and so does
    # two letters at the degree cap
    assert sum(3 ** k for k in range(1, 7)) <= cli.CBH_WORD_CAP
    doc = run_json("cbh", "--letters", "ab", "--degree", "7",
                   "--route", "goldberg")
    assert doc["series"]["aab"] == "1/12"


def test_clt():
    assert run_json("clt", "--system", "monotone", "-n", "4")["value"] == "3/2"
    assert run_json("clt", "--system", "free", "-n", "6")["value"] == "5"
    assert run_json("clt", "--system", "tensor", "-n", "7")["value"] == "0"


def test_clt_cap():
    # cap + 2, the first even n above the cap
    for system in ("free", "monotone"):
        code, out = run("clt", "--system", system, "-n", "12")
        assert code == cli.EXIT_CAP and out == ""
    # odd moments vanish at once, so --force is checked without a long sum
    assert run_json("clt", "--system", "free", "-n", "11",
                    "--force")["value"] == "0"
    code, _ = run("clt", "--system", "free", "-n", "0")
    assert code == cli.EXIT_USAGE


def test_determinism():
    args = ("cbh", "--letters", "ab", "--degree", "4", "--route", "all")
    assert run(*args) == run(*args)
    args = ("cumulants", "--system", "boolean", "-n", "3")
    assert run(*args) == run(*args)


def test_formats():
    code, out = run("clt", "--system", "free", "-n", "4", "--format", "csv")
    assert code == 0 and out == "system,n,value\nfree,4,2\n"
    code, out = run("clt", "--system", "free", "-n", "4", "--format", "text")
    assert code == 0 and out == "2\n"


def test_format_env(monkeypatch):
    monkeypatch.setenv("OSPART_FORMAT", "text")
    code, out = run("clt", "--system", "boolean", "-n", "4")
    assert code == 0 and out == "1\n"


def test_closed_pipe_exits_quietly():
    proc = subprocess.Popen(
        [sys.executable, "-m", "ospart.cli", "enumerate", "-n", "7",
         "--format", "text"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_ENV)
    # the listing is far larger than a pipe buffer, so the CLI is still
    # writing when the reader goes away after the first line
    assert proc.stdout.readline() == b"1,2,3,4,5,6,7\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == cli.EXIT_OK
    assert err == b""


# argv for the fuzz test.  Half are well formed: a subcommand with every
# option, in any order, each value in range (a flag present or not).  The
# rest drop each option one time in ten and its value one time in twenty,
# take values in range or wrong in kind, and add a stray token one time in
# five.  In-range numbers keep every command below its cap and fast (cbh to
# degree 4 on 3 letters, cumulants to n = 3).  "-h" is left out, as help
# exits 0.
_JUNK = st.text("0123456789,|ab -x", max_size=6).filter(
    lambda s: not s.startswith(("-h", "--h")))
_ENGINES = st.sampled_from(sorted(cli.systems.ENGINES))
_FLAG = (None, None)
_OPTIONS = {  # name: (value in range, value wrong in kind)
    "enumerate": {
        "-n": (st.integers(1, 5).map(str), st.integers(-2, 0).map(str)),
        "--class": (st.sampled_from(sorted(P.CLASSES)),
                    st.just("pairs")),
        "--count-only": _FLAG, "--force": _FLAG},
    "coeff": {"--tau": (st.sampled_from(["12", "1|2", "2,1|3", "21"]), _JUNK),
              "--eta": (st.sampled_from(["12", "11", "1,2|3", "1"]), _JUNK),
              "--pi": (st.sampled_from(["1,2", "1,2,3", "2|1"]), _JUNK)},
    "cumulants": {"--system": (_ENGINES, st.just("v-monotone")),
                  "-n": (st.integers(1, 3).map(str), st.just("0")),
                  "--direction": (st.sampled_from(["m2c", "c2m"]),
                                  st.just("up")),
                  "--force": _FLAG},
    "cbh": {"--letters": (st.sampled_from(["a", "ab", "ba", "abc"]),
                          st.sampled_from(["", "aa", "a b"])),
            "--degree": (st.integers(1, 4).map(str), st.just("-1")),
            "--route": (st.sampled_from(["direct", "cumulant", "goldberg",
                                         "all"]), st.just("fast")),
            "--force": _FLAG},
    "clt": {"--system": (_ENGINES, _JUNK),
            "-n": (st.integers(1, 6).map(str), st.integers(-1, 0).map(str)),
            "--force": _FLAG},
}
_FORMAT = (st.sampled_from(["json", "csv", "text"]), st.just("xml"))


def _one_in(k):
    return st.sampled_from([False] * (k - 1) + [True])


@st.composite
def _argv(draw):
    cmd = draw(st.sampled_from(sorted(_OPTIONS) + ["", "enum"]))
    options = dict(_OPTIONS.get(cmd, {}), **{"--format": _FORMAT})
    well_formed = draw(st.booleans())
    argv = [cmd] if cmd else []
    if cmd == "coeff":
        kinds = ["weisner", "goldberg"] + ([] if well_formed else ["mobius"])
        argv.append(draw(st.sampled_from(kinds)))
    if well_formed:
        kept = [name for name in sorted(options)
                if options[name] is not _FLAG or draw(st.booleans())]
    else:
        kept = [name for name in sorted(options) if not draw(_one_in(10))]
    for name in draw(st.permutations(kept)):
        argv.append(name)
        good, bad = options[name]
        if well_formed:
            if good is not None:
                argv.append(draw(good))
        elif good is not None and not draw(_one_in(20)):
            argv.append(draw(good | bad))
    if not well_formed and draw(_one_in(5)):
        argv.append(draw(_JUNK))
    return argv


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_argv())
def test_fuzzed_argv_exits_with_a_documented_code(argv):
    # any argv returns 0, 2 or 3, or leaves through argparse's exit 2;
    # no other exception escapes, and no traceback is printed
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
            assert code == cli.EXIT_USAGE, argv
    assert code in (cli.EXIT_OK, cli.EXIT_USAGE, cli.EXIT_CAP), argv
    assert "Traceback" not in err.getvalue(), argv
    assert bool(out.getvalue()) == (code == cli.EXIT_OK), argv


def test_cli_import_loads_every_layer_and_no_dataclasses():
    layers = ("_kernels", "partitions", "incidence", "coefficients",
              "symbolic", "systems", "freelie")
    probe = "import sys, ospart.cli; print(*sys.modules, sep='\\n')"
    loaded = set(subprocess.run(
        [sys.executable, "-c", probe], env=_ENV, check=True,
        capture_output=True, text=True, timeout=60).stdout.split())
    assert {"ospart." + name for name in layers} <= loaded
    assert "dataclasses" not in loaded
