"""Tests of the benchmark itself: python -m pytest perfbench"""

import json
import shutil
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import compare  # noqa: E402
import run  # noqa: E402
import streams  # noqa: E402
import worker  # noqa: E402


@pytest.mark.parametrize("workload", streams.WORKLOADS)
def test_stream_is_a_function_of_the_seed(workload):
    a = streams.encode(streams.generate(workload, 7))
    assert a == streams.encode(streams.generate(workload, 7))
    other = streams.generate(workload, 8)
    assert streams.encode(other) != a
    # same mix of request kinds for every seed
    kinds = Counter(req["kind"] for req in json.loads(a))
    assert Counter(req["kind"] for req in other) == kinds


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        run.per_layer_units()


STREAM = [
    {"kind": "systems.clt_moment", "system": "free", "n": 4},
    {"kind": "coefficients.goldberg",
     "queries": [[[2, 3, 1], [1, 1, 2]], [[1, 2], [1, 1]]]},
    {"kind": "freelie.cbh_cumulant", "letters": "ab", "degree": 3},
    {"kind": "coefficients.weisner_oracle_table", "n": 3},
]


def _failures(stream):
    res = worker.run_inprocess(stream, check=True, trace=False,
                               spans_path=None)
    return {o["kind"]: o["error"] for o in res["outcomes"]
            if o["error"] is not None}


def test_correct_results_pass():
    assert _failures(STREAM) == {}


def test_planted_wrong_values_are_counted_as_failures(monkeypatch):
    from ospart import coefficients, freelie, systems

    clt = systems.Engine.clt_moment
    monkeypatch.setattr(systems.Engine, "clt_moment",
                        lambda self, n: clt(self, n) + 1)
    goldberg = coefficients.goldberg
    monkeypatch.setattr(coefficients, "goldberg",
                        lambda tau, eta: goldberg(tau, eta) * 2)
    cbh = freelie.cbh_cumulant

    def wrong_cbh(letters, order):
        series = cbh(letters, order)
        series.poly.terms[tuple(letters)] += 1
        return series
    monkeypatch.setattr(freelie, "cbh_cumulant", wrong_cbh)
    table = coefficients.weisner_oracle_table

    def wrong_table(n):
        out = table(n)
        eta = next(iter(out))
        out[eta] = dict(out[eta])
        out[eta].popitem()
        return out
    monkeypatch.setattr(coefficients, "weisner_oracle_table", wrong_table)

    assert _failures(STREAM) == dict.fromkeys(
        (req["kind"] for req in STREAM), "wrong result")


def test_raising_request_is_a_failure(monkeypatch):
    from ospart import systems

    def boom(self, n):
        raise RuntimeError("planted")
    monkeypatch.setattr(systems.Engine, "clt_moment", boom)
    assert _failures(STREAM[:1]) == {
        "systems.clt_moment": "RuntimeError: planted"}


def test_unchecked_pass_must_repeat_the_checked_results():
    checked = {"outcomes": [{"digest": "a", "error": None},
                            {"digest": "b", "error": "wrong result"}]}
    res = {"outcomes": [{"digest": "x", "error": None},
                        {"digest": "b", "error": None}]}
    run.compare_to_checked(checked, res)
    assert [o["error"] for o in res["outcomes"]] == [
        "result not confirmed by the checked pass"] * 2


def test_cli_output_checks():
    argv = ["enumerate", "-n", "4", "--format", "json", "--count-only"]
    assert worker._semantic_check(argv, '{"count": 75}')
    assert not worker._semantic_check(argv, '{"count": 74}')
    argv = ["clt", "--system", "free", "-n", "6", "--format", "json"]
    assert worker._semantic_check(
        argv, '{"system": "free", "n": 6, "value": "5"}')
    assert not worker._semantic_check(
        argv, '{"system": "free", "n": 6, "value": "6"}')


def test_tracer_sees_layers_and_restores_bindings():
    from tracer import Tracer

    import ospart._kernels as K
    from ospart import systems
    original = K.ideal_words
    tracer = Tracer().install()
    try:
        systems.TENSOR.cumulant_table(3)
    finally:
        tracer.stop()
        tracer.uninstall()
    layers = tracer.summary()["layers"]
    assert layers["systems"][0] == 1  # one entry from the caller
    assert layers["symbolic"][0] > 0 and layers["_kernels"][0] > 0
    assert layers["freelie"][0] == 0
    assert tracer.counters["symbolic.poly_mul.calls"] > 0
    assert K.ideal_words is original


def test_compare_refuses_mixed_backends():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {"wall_s": {"value": 1.0, "unit": "s"}}
    old = {"meta": {"backend": "pure"}, "result": {"metrics": metrics}}
    new = {"meta": {"backend": "cython"}, "result": {"metrics": metrics}}
    with pytest.raises(compare.BackendMismatch):
        compare.compare(old, new, spec)
    slower = {"meta": {"backend": "pure"},
              "result": {"metrics": {"wall_s": {"value": 1.5, "unit": "s"}}}}
    assert compare.compare(old, slower, spec)[0][4] == "WORSE"


def test_no_result_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cbh-lie",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_digests_repeat_across_processes():
    # unchecked passes are verified by these digests
    code = ("import json, sys, worker; "
            "res = worker.run_inprocess(json.loads(sys.argv[1]), False, "
            "False, None); "
            "print(json.dumps([o['digest'] for o in res['outcomes']]))")
    stream = json.dumps(streams.generate("cbh-lie", 3)[:40] + STREAM)
    env = {"PYTHONPATH": f"{HERE}:{ROOT / 'src'}"}
    runs = [subprocess.run([sys.executable, "-c", code, stream], env=env,
                           capture_output=True, text=True, check=True,
                           timeout=120).stdout for _ in range(2)]
    assert runs[0] == runs[1]


def test_reference_values():
    import oracles as R
    assert [R.fubini(n) for n in range(6)] == [1, 1, 3, 13, 75, 541]
    assert R.clt_moment("monotone", 8) == Fraction(35, 8)
    assert R.weisner((1, 2), (1, 1)) == Fraction(-1, 2)
