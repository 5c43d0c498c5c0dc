"""Tests of the benchmark's tracer and workload wiring.

Run from the root of a checkout:  python3 -m pytest perfbench/tests
"""

import json
import sys

import pytest

import worker  # puts the checkout's src first on sys.path
import run
import tracer
from tracer import SPANS, Tracer, covered, summarize

import shapes

PREDICTIONS = json.loads((run.HERE / "predictions.json").read_text())


def _bindings():
    """Every (owner, attribute, object) that the tracer should replace."""
    modules = [m for n, m in sys.modules.items() if n == "shapes" or n.startswith("shapes.")]
    found = []
    for targets in SPANS.values():
        for module_name, path in targets:
            owner_name, _, attr = path.rpartition(".")
            if owner_name:
                cls = getattr(sys.modules[module_name], owner_name)
                raw = cls.__dict__[attr]
                found += [(cls, k, raw) for k, v in vars(cls).items() if v is raw]
            else:
                raw = getattr(sys.modules[module_name], attr)
                found += [(m, k, raw) for m in modules for k, v in vars(m).items() if v is raw]
    return found


def test_wrappers_cover_every_binding_and_restore_the_originals():
    before = _bindings()
    names = {(getattr(o, "__name__", ""), k) for o, k, _ in before}
    # Names copied by ``from .x import y`` and class aliases are bindings too.
    assert ("shapes.shapegen", "deflate_sparse") in names
    assert ("shapes.cli", "one_particle_density") in names
    assert ("ExactPolynomial", "__rmul__") in names
    t = Tracer()
    t.install()
    try:
        for owner, attr, raw in before:
            assert owner.__dict__[attr] is not raw, (owner, attr)
    finally:
        t.uninstall()
    for owner, attr, raw in before:
        assert owner.__dict__[attr] is raw, (owner, attr)
    assert _bindings() == before


def test_traced_catalog_digest_equals_untraced():
    plain = worker.catalog_digest(shapes.generate_shapes(3, 2, shapes.FERMION))
    t = Tracer()
    t.install()
    try:
        t.begin(tracer.ROOT_SPAN)
        catalog = shapes.generate_shapes(3, 2, shapes.FERMION)
        t.end()
    finally:
        t.uninstall()
    assert worker.catalog_digest(catalog) == plain
    assert summarize(t.spans)["shapegen"]["calls"] == 1
    metrics = tracer.layer_metrics(t)
    assert metrics["shapegen.independent_ratio"] == 1.0
    assert metrics["trace.self_sum_s"] == pytest.approx(metrics["trace.wall_s"], abs=1e-9)


def test_self_time_is_span_minus_covered_child_time():
    clock = iter([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 6.5, 9.0, 10.0]).__next__
    t = Tracer(clock=clock)
    t.begin("root")       # 0
    t.begin("a")          # 1
    t.begin("a")          # 2  same name nested: inclusive time counts once
    t.end()               # 3
    t.end()               # 4
    t.begin("b")          # 5
    t.begin("c")          # 6
    t.end()               # 6.5
    t.end()               # 9
    t.end()               # 10
    s = summarize(t.spans)
    assert s["root"] == {"calls": 1, "s": 10.0, "self_s": 10.0 - 3.0 - 4.0}
    assert s["a"] == {"calls": 2, "s": 3.0, "self_s": 2.0 + 1.0}
    assert s["b"] == {"calls": 1, "s": 4.0, "self_s": 3.5}
    assert s["c"] == {"calls": 1, "s": 0.5, "self_s": 0.5}
    assert sum(row["self_s"] for row in s.values()) == pytest.approx(10.0)
    # Overlapping or out-of-range children are counted once and clipped.
    assert covered([(1, 4), (3, 6), (9, 12)], 0, 10) == 6.0


def test_benchmark_json_matches_the_harness():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert sorted(run.WORKLOADS) == sorted(worker.WORKLOADS)
    assert sorted(run.WORKLOADS) == sorted(PREDICTIONS["workloads"])
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_every_predicted_span_records_calls(name, tmp_path):
    record = worker.run_pass(worker.WORKLOADS[name], tmp_path, seed=0, trace=True, spawned=0.0)
    assert [op["error"] for op in record["ops"]] == [None] * len(record["ops"])
    layers = record["layers"]
    assert layers["trace.self_sum_s"] == pytest.approx(layers["trace.wall_s"], abs=1e-6)
    for span in PREDICTIONS["workloads"][name]["active_spans"]:
        assert record["span_calls"].get(span, 0) >= 1, span
    if name.startswith("gen-"):
        assert layers["shapegen.independent_ratio"] == 1.0
    else:
        assert layers["shapegen.self_s"] == 0
