"""The ospart benchmark: seeded closed-loop workloads, end-to-end and
per-layer metrics.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

It imports ospart from the checkout's `src/` and needs nothing installed.
The stream of requests comes from `--seed` alone (perfbench/streams.py).
One pass issues the whole stream from a single client, one request at a
time, in a fresh interpreter (so the library's caches and the peak RSS
start empty).  Passes repeat while another one fits in `--seconds`.  The
first pass checks every result exactly after its timed loop; later passes
must reproduce its result digests.  Times are taken at the reference
speed of the host (perfbench/speed.py), and each request keeps its median
latency over the passes.

With `--trace 0` the result holds the end-to-end metrics:

  setup_s      median time for a fresh interpreter to `import ospart.cli`
  wall_s       time to complete the stream: the sum of request latencies
  op_p50_ms    median request latency
  op_tail_ms   latency at the highest quantile with 10 requests of the
               stream above it (both quantiles Harrell-Davis estimates)
  peak_rss_mb  peak RSS of the pass process (median over passes); for
               cli-cold, of the largest ospart child
  ok_frac      requests that returned, exited 0 and passed their check,
               over requests attempted

With `--trace 1` it makes three passes: the stream untraced, the stream
traced (perfbench/tracer.py), and the named cases (streams.NAMED).  It
reports the per-layer metrics: calls, self time and errors of each of the
eight layers, cache and work counters, the median latency of each request
kind, and the tracing overhead (traced over untraced stream time).

The last line of stdout is the result, the line before it the run's
metadata (backend, Python, git sha, source digest, nproc, seed, passes,
tail percentile, raw unscaled times).  Both are also saved under
.perfbench/results/, which perfbench/compare.py reads.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
sys.path.insert(0, str(HERE))

import streams  # noqa: E402
from speed import REF_S, child_probe  # noqa: E402
from tracer import CACHES, LAYERS, metric_layer  # noqa: E402

SETUP_STARTS = 9
TAIL_BEYOND = 10
RUN_LIMIT_S = 170

END_TO_END = {
    "setup_s": "s", "wall_s": "s", "op_p50_ms": "ms", "op_tail_ms": "ms",
    "peak_rss_mb": "MB", "ok_frac": "ratio",
}


def _kinds_by_workload():
    out = {}
    for workload in streams.WORKLOADS:
        reqs = streams.generate(workload, 0) + streams.NAMED[workload]
        out[workload] = sorted({req["kind"] for req in reqs})
    return out


def per_layer_units():
    """Every per-layer metric name with its unit."""
    units = {}
    for layer in LAYERS:
        name = metric_layer(layer)
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
        units[f"{name}.errors"] = "count"
    units["kernels.words_out"] = "count"
    for cache in CACHES:
        units[f"kernels.{cache}.hit_ratio"] = "ratio"
    units["kernels.mu_tilde_words.entries"] = "count"
    units["freelie.projector.terms_summed"] = "count"
    units["freelie.projector.useful_ratio"] = "ratio"
    units["freelie.ncpoly_add.terms_copied"] = "count"
    units["symbolic.poly_add.terms_copied"] = "count"
    units["symbolic.poly_mul.calls"] = "count"
    units["partitions.items_enumerated"] = "count"
    units["cli.stdout_bytes"] = "B"
    units["cli.start_s"] = "s"
    for kinds in _kinds_by_workload().values():
        for kind in kinds:
            units[f"{kind}.p50_ms"] = "ms"
    units["trace.overhead_ratio"] = "ratio"
    return units


# ---------------------------------------------------------------------------
# measuring
# ---------------------------------------------------------------------------

def _env():
    """Environment of every process the benchmark starts: ospart from
    src/, with its bytecode cached as in an installed package (the first
    start writes it) even where PYTHONDONTWRITEBYTECODE is set."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def measure_setup():
    """Seconds of each start of a fresh interpreter that imports
    ospart.cli, at the speed where a bare interpreter start takes
    speed.CHILD_REF_S, and raw.

    The wait ends at the child's end of output, not by polling, which
    would round the times to its polling steps.
    """
    cmd = [sys.executable, "-c", "import ospart.cli"]
    probe = child_probe(_env())
    samples, raw = [], []
    for i in range(SETUP_STARTS + 1):
        probe.probe()
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, env=_env()) as proc:
            try:
                _, err = proc.communicate(timeout=60)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.communicate()
                raise RuntimeError("import ospart.cli took over 60 s")
        t1 = time.perf_counter()
        if proc.returncode != 0:
            raise RuntimeError("import ospart.cli failed: "
                               + err.decode(errors="replace")[-300:])
        if i:  # the first start may compile bytecode
            raw.append(t1 - t0)
            samples.append(t0)
    probe.probe()
    return [took * probe.scale(t0, t0 + took)
            for t0, took in zip(samples, raw)], raw


def run_pass(workload, blob, trace, check, timeout, spans):
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--src", str(SRC)]
    if check:
        cmd.append("--check")
    scratch = OUT / "tmp"
    if trace:
        scratch.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace", "--spans", str(spans), "--scratch", str(scratch)]
    t0 = time.perf_counter()
    # its own session, so that a timeout also stops the ospart children
    with subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, env=_env(),
                          start_new_session=True) as proc:
        try:
            out, err = proc.communicate(blob, timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            return None, f"pass timed out after {timeout:.0f} s"
    took = time.perf_counter() - t0
    if proc.returncode != 0:
        tail = err.decode(errors="replace").strip().splitlines()[-3:]
        return None, f"worker exited {proc.returncode}: {' | '.join(tail)}"
    res = json.loads(out.decode().strip().splitlines()[-1])
    res["process_s"] = took
    return res, None


def compare_to_checked(checked, res):
    """Fail each request of an unchecked pass unless the checked pass of
    the same stream passed it with the same result digest."""
    for ref, out in zip(checked["outcomes"], res["outcomes"]):
        if out["error"] is None and (ref["error"] is not None
                                     or out["digest"] != ref["digest"]):
            out["error"] = "result not confirmed by the checked pass"


def quantile(values, q):
    """Harrell-Davis estimate of the q-quantile.

    A Beta((n+1)q, (n+1)(1-q))-weighted mean of the order statistics.  A
    stream's latencies come in clusters, one per request kind and size;
    the plain order statistic jumps from one cluster to the next when a
    few requests change, this estimate moves smoothly.
    """
    xs = sorted(values)
    n = len(xs)
    a, b = q * (n + 1), (1 - q) * (n + 1)
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    weights = [0.0] * n
    steps = 40  # midpoint rule per order statistic
    for j in range(steps * n):
        x = (j + 0.5) / (steps * n)
        weights[j // steps] += math.exp((a - 1) * math.log(x)
                                        + (b - 1) * math.log1p(-x) - log_beta)
    return sum(w * v for w, v in zip(weights, xs)) / sum(weights)


def tail_quantile(n):
    """The highest quantile with TAIL_BEYOND of n requests above it."""
    return (n - TAIL_BEYOND) / n


def request_latencies(passes, key="latency_s"):
    """Each request's median latency over the passes.

    Every pass issues the same stream from a cold interpreter, so request
    i of one pass is the same work as request i of another.
    """
    return [statistics.median(lat) for lat in
            zip(*([o[key] for o in p["outcomes"]] for p in passes))]


def end_to_end(setup, passes):
    lat = request_latencies(passes)
    return {
        "setup_s": statistics.median(setup),
        "wall_s": sum(lat),
        "op_p50_ms": quantile(lat, 0.5) * 1e3,
        "op_tail_ms": quantile(lat, tail_quantile(len(lat))) * 1e3,
        "peak_rss_mb": statistics.median(p["peak_kib"] for p in passes)
        / 1024,
    }


def layer_metrics(untraced, traced, named, units):
    """Per-layer metrics: totals of the traced pass, latencies of the
    untraced one and of the named cases."""
    tot = traced["layers"]
    out = dict.fromkeys(units, 0)
    for layer, (calls, self_ns, errors) in tot["layers"].items():
        name = metric_layer(layer)
        out[f"{name}.calls"] = calls
        out[f"{name}.self_s"] = self_ns / 1e9 * traced["scale"]
        out[f"{name}.errors"] = errors
    counters = tot["counters"]
    for key in ("kernels.words_out", "freelie.projector.terms_summed",
                "freelie.ncpoly_add.terms_copied",
                "symbolic.poly_add.terms_copied", "symbolic.poly_mul.calls",
                "partitions.items_enumerated"):
        out[key] = counters[key]
    summed = counters["freelie.projector.terms_summed"]
    out["freelie.projector.useful_ratio"] = (
        counters["freelie.projector.terms_out"] / summed if summed else 0)
    for cache, (hits, misses, size) in tot["caches"].items():
        out[f"kernels.{cache}.hit_ratio"] = (hits / (hits + misses)
                                             if hits + misses else 0)
        if cache == "mu_tilde_words":
            out["kernels.mu_tilde_words.entries"] = size
    by_kind = {}
    for o in untraced["outcomes"] + named["outcomes"]:
        by_kind.setdefault(o["kind"], []).append(o["latency_s"])
    for kind, lat in by_kind.items():
        out[f"{kind}.p50_ms"] = statistics.median(lat) * 1e3
    timed = [o for o in untraced["outcomes"] if "inprocess_s" in o]
    if timed:  # cli-cold
        out["cli.stdout_bytes"] = sum(o["stdout_bytes"]
                                      for o in untraced["outcomes"])
        out["cli.start_s"] = statistics.median(
            o["latency_s"] - o["inprocess_s"] for o in timed)
    out["trace.overhead_ratio"] = (
        sum(o["latency_s"] for o in traced["outcomes"])
        / sum(o["latency_s"] for o in untraced["outcomes"]))
    return out


# ---------------------------------------------------------------------------
# metadata
# ---------------------------------------------------------------------------

def git_sha():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def source_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "ospart").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------

def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=streams.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "ospart" / "cli.py").is_file():
        print(f"perfbench: no ospart sources under {SRC}; run from the root "
              "of a checkout", file=sys.stderr)
        return 2

    run_start = time.perf_counter()
    stream = streams.generate(args.workload, args.seed)
    blob = streams.encode(stream)
    try:
        setup, setup_raw = measure_setup()
    except RuntimeError as exc:
        print(f"perfbench: {exc}; no result", file=sys.stderr)
        return 1
    OUT.mkdir(exist_ok=True)
    (OUT / "results").mkdir(exist_ok=True)
    spans = OUT / "spans" / f"{args.workload}-seed{args.seed}.jsonl"
    if args.trace:
        spans.parent.mkdir(exist_ok=True)
        spans.unlink(missing_ok=True)

    # (stream, traced, checked); unchecked passes must reproduce the
    # digests of the checked pass of the same stream
    if args.trace:
        plan = [(blob, False, True), (blob, True, False),
                (streams.encode(streams.NAMED[args.workload]), False, True)]
    else:
        plan = None
    passes, problems = [], []
    budget_start = time.perf_counter()
    while True:
        pass_blob, trace, check = (plan[len(passes)] if plan
                                   else (blob, False, not passes))
        remaining = RUN_LIMIT_S - (time.perf_counter() - run_start)
        res, problem = run_pass(args.workload, pass_blob, trace, check,
                                remaining, spans)
        if res is None:
            # a crashed or hung pass fails every request it held
            problems.append((problem, len(json.loads(pass_blob))))
            break
        if not check:
            compare_to_checked(passes[0], res)
        passes.append(res)
        spent = time.perf_counter() - budget_start
        if plan:
            if len(passes) == len(plan):
                break
        elif spent + res["process_s"] > args.seconds:
            break
    shutil.rmtree(OUT / "tmp", ignore_errors=True)

    attempted = sum(len(p["outcomes"]) for p in passes) + \
        sum(n for _, n in problems)
    failed = sum(o["error"] is not None for p in passes
                 for o in p["outcomes"]) + sum(n for _, n in problems)
    failures = [f"{o['kind']}: {o['error']}" for p in passes
                for o in p["outcomes"] if o["error"] is not None]
    failures += [problem for problem, _ in problems]
    for line in failures[:20]:
        print(f"perfbench: failed {line}", file=sys.stderr)

    if not passes or (plan and len(passes) < len(plan)):
        print("perfbench: too few complete passes; no result",
              file=sys.stderr)
        return 1
    if args.trace:
        units = per_layer_units()
        values = layer_metrics(*passes, units)
    else:
        units = END_TO_END
        values = end_to_end(setup, passes)
        values["ok_frac"] = 1 - failed / attempted
    metrics = {k: {"value": values[k], "unit": units[k]} for k in units}

    stream_passes = passes[:2] if args.trace else passes
    raw = request_latencies(stream_passes, "raw_s")
    meta = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "backend": passes[0]["backend"], "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "git_sha": git_sha(), "source_sha256": source_digest(),
        "nproc": os.cpu_count(), "passes": len(passes),
        "requests_per_pass": len(stream),
        "stream_sha256": hashlib.sha256(blob).hexdigest(),
        "tail_percentile": round(100 * tail_quantile(len(stream)), 2),
        "tail_samples": len(stream),
        "reference_s": REF_S,
        "pass_speed_scale": [p["scale"] for p in passes],
        "raw": {"setup_s": statistics.median(setup_raw), "wall_s": sum(raw),
                "op_p50_ms": quantile(raw, 0.5) * 1e3,
                "op_tail_ms": quantile(raw, tail_quantile(len(raw))) * 1e3},
        "pass_process_s": [p["process_s"] for p in passes],
        "failures": failures[:20],
    }
    if args.trace:
        meta["spans"] = {"path": str(spans.relative_to(ROOT)),
                         "kept": passes[1]["layers"]["spans_kept"],
                         "total": passes[1]["layers"]["spans_total"]}
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    latencies = [[[o["latency_s"], o["raw_s"]] for o in p["outcomes"]]
                 for p in passes]
    (OUT / "results" / name).write_text(json.dumps(
        {"meta": meta, "result": result, "latencies_s": latencies}) + "\n")
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
