"""One pass of a workload's request stream, in a fresh interpreter.

Reads the stream (JSON) on stdin, issues the requests closed-loop from a
single client (each after the previous one completed) and prints one JSON
line: per request its latency at the reference speed (speed.py), the raw
latency, a digest of the result and the verdict; the pass's peak RSS
and, when traced, the per-layer totals.

    python3 perfbench/worker.py --workload W --src SRC [--check]
                                [--trace --spans FILE --scratch DIR]

With --check every result is checked exactly after the timed loop.
Without it the caller compares the digests with those of a checked pass
of the same stream.  The in-process workloads call ospart directly;
`cli-cold` runs each request as `python -m ospart.cli ARGV` and checks
its stdout against an in-process `cli.main` call on the same argv.
"""

import argparse
import hashlib
import io
import json
import os
import resource
import subprocess
import sys
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path
from time import perf_counter

from speed import SpeedProbe, child_probe

HERE = Path(__file__).resolve().parent


def _error(exc):
    return f"{type(exc).__name__}: {exc}"[:300]


def _digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _timed_loop(stream, call, probe, on_request=None):
    """Issue the requests one after another; a raising request fails."""
    outcomes = []
    for i, req in enumerate(stream):
        if on_request is not None:
            on_request(i)
        probe.maybe_probe()
        t0 = perf_counter()
        try:
            result, error = call(i, req), None
        except Exception as exc:  # a raising request is a failed request
            result, error = None, _error(exc)
        t1 = perf_counter()
        outcomes.append({"kind": req["kind"], "start": t0, "raw_s": t1 - t0,
                         "result": result, "error": error})
    probe.probe()
    for out in outcomes:
        start = out.pop("start")
        out["latency_s"] = out["raw_s"] * probe.scale(start,
                                                      start + out["raw_s"])
    return outcomes


def run_inprocess(stream, check, trace, spans_path):
    import kinds
    import ospart

    tracer = None
    if trace:
        from tracer import Tracer
        tracer = Tracer().install()
    probe = SpeedProbe()

    def call(i, req):
        return kinds.RUN[req["kind"]](req)

    def on_request(i):
        tracer.request = i

    outcomes = _timed_loop(stream, call, probe,
                           on_request if tracer is not None else None)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    layers = None
    if tracer is not None:
        tracer.stop()
        layers = tracer.summary()
        if spans_path:
            tracer.write_spans(spans_path)
    for req, out in zip(stream, outcomes):
        result = out.pop("result")
        if out["error"] is not None:
            continue
        out["digest"] = _digest(repr(result))
        if not check:
            continue
        try:
            ok = kinds.CHECK[req["kind"]](req, result)
        except Exception as exc:  # a crashing check fails the request
            out["error"] = "check raised " + _error(exc)
            continue
        if not ok:
            out["error"] = "wrong result"
    return {"backend": ospart.BACKEND, "peak_kib": peak_kib,
            "scale": probe.overall_scale(), "outcomes": outcomes,
            "layers": layers}


# ---------------------------------------------------------------------------
# cli-cold
# ---------------------------------------------------------------------------

def _spawn(argv, env, trace_file):
    """Run one ospart command; return (stdout sha256, bytes)."""
    if trace_file is None:
        cmd = [sys.executable, "-m", "ospart.cli", *argv]
    else:
        cmd = [sys.executable, str(HERE / "clitrace.py"), trace_file, *argv]
    digest = hashlib.sha256()
    size = 0
    with subprocess.Popen(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, env=env) as proc:
        while True:
            chunk = proc.stdout.read(1 << 16)
            if not chunk:
                break
            digest.update(chunk)
            size += len(chunk)
        code = proc.wait()
    if code != 0:
        raise RuntimeError(f"exit code {code}")
    return digest.hexdigest(), size


def _inprocess_cli(argv, probe):
    """Exit code, stdout and reference-speed time of cli.main(argv)."""
    from ospart import cli
    buf = io.StringIO()
    probe.probe()
    t0 = perf_counter()
    try:
        with redirect_stdout(buf):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    t1 = perf_counter()
    probe.probe()
    return code, buf.getvalue(), (t1 - t0) * probe.scale(t0, t1)


def _semantic_check(argv, text):
    """Known values for what the command printed (after byte equality)."""
    import oracles as R
    fmt = argv[argv.index("--format") + 1]
    cmd = argv[0]
    if cmd == "enumerate":
        n = int(argv[argv.index("-n") + 1])
        cls = argv[argv.index("--class") + 1] if "--class" in argv else "all"
        want = R.class_count(cls, n)
        lines = text.splitlines()
        if fmt == "json":
            doc = json.loads(text)
            got = doc["count"]
            if "items" in doc and len(doc["items"]) != got:
                return False
        elif fmt == "csv":
            got = int(lines[1].split(",")[2]) if "--count-only" in argv \
                else len(lines) - 1
        else:
            got = int(lines[-1].split()[-1])
        return want is None or got == want
    if fmt != "json":
        return True
    doc = json.loads(text)
    if cmd == "clt":
        return Fraction(doc["value"]) == R.clt_moment(doc["system"], doc["n"])
    if cmd == "cbh":
        return doc.get("routes_agree", True) is True
    if cmd == "coeff":
        def word(flag):
            return tuple(int(c) for c in argv[argv.index(flag) + 1])
        if "--pi" in argv:
            ref = getattr(R, doc["kind"] + "3")(word("--tau"), word("--eta"),
                                                word("--pi"))
        else:
            ref = getattr(R, doc["kind"])(word("--tau"), word("--eta"))
        return Fraction(doc["value"]) == ref
    return True


def run_cli(stream, check, trace, src, spans_path, scratch):
    env = dict(os.environ, PYTHONPATH=src)
    probe = child_probe(env)
    sizes = {}

    def call(i, req):
        trace_file = str(Path(scratch) / f"child-{i}.json") if trace else None
        digest, sizes[i] = _spawn(req["argv"], env, trace_file)
        return digest

    outcomes = _timed_loop(stream, call, probe)
    # every child was waited for, so this is the largest child's peak
    peak_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    layers = _merge_children(stream, scratch, spans_path) if trace else None

    import ospart
    inprocess_probe = SpeedProbe()
    for i, (req, out) in enumerate(zip(stream, outcomes)):
        out["digest"] = out.pop("result")
        out["stdout_bytes"] = sizes.get(i, 0)
        if not check or out["error"] is not None:
            continue
        try:
            code, text, out["inprocess_s"] = _inprocess_cli(req["argv"],
                                                            inprocess_probe)
            same = code == 0 and _digest(text) == out["digest"]
            ok = same and _semantic_check(req["argv"], text)
        except Exception as exc:  # a crashing check fails the request
            out["error"] = "check raised " + _error(exc)
            continue
        if not ok:
            out["error"] = ("wrong result" if same
                            else "stdout differs from in-process cli.main")
    return {"backend": ospart.BACKEND, "peak_kib": peak_kib,
            "scale": probe.overall_scale(), "outcomes": outcomes,
            "layers": layers}


def _merge_children(stream, scratch, spans_path):
    """Sum the per-layer totals the traced children wrote."""
    total = None
    for i in range(len(stream)):
        path = Path(scratch) / f"child-{i}.json"
        if not path.exists():
            continue
        child = json.loads(path.read_text())
        path.unlink()
        spans = child.pop("spans")
        if spans_path:
            with open(spans_path, "a") as fh:
                for row in spans:
                    row[4] = i
                    fh.write(json.dumps(row) + "\n")
        if total is None:
            total = child
            continue
        for layer, vals in child["layers"].items():
            total["layers"][layer] = [a + b for a, b in
                                      zip(total["layers"][layer], vals)]
        for key, val in child["counters"].items():
            total["counters"][key] += val
        for name, (hits, misses, size) in child["caches"].items():
            h, m, s = total["caches"][name]
            total["caches"][name] = [h + hits, m + misses, max(s, size)]
        total["spans_total"] += child["spans_total"]
        total["spans_kept"] += child["spans_kept"]
    return total


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--src", required=True)
    ap.add_argument("--check", action="store_true")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--spans", default=None)
    ap.add_argument("--scratch", default=None)
    args = ap.parse_args()
    stream = json.loads(sys.stdin.buffer.read())
    sys.path.insert(0, args.src)
    if args.workload == "cli-cold":
        res = run_cli(stream, args.check, args.trace, args.src, args.spans,
                      args.scratch)
    else:
        res = run_inprocess(stream, args.check, args.trace, args.spans)
    sys.stdout.write(json.dumps(res) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
