"""Per-layer ``engine.layer`` spans of the batched executor."""

from __future__ import annotations

import json
from collections import Counter

import numpy as np
import pytest

from repro import telemetry
from repro.harness.experiment import build_cluster, build_workload


def traced_steps(workload: str, steps: int = 4, num_workers: int = 4):
    cluster = build_cluster(build_workload(workload), num_workers=num_workers, seed=0)
    try:
        cluster.compute_gradients_all(cluster.next_batches())  # warm up untraced
        telemetry.configure(tracing=True)
        for _ in range(steps):
            cluster.compute_gradients_all(cluster.next_batches())
        return cluster.matrix.grads.copy(), telemetry.get_tracer().drain()
    finally:
        telemetry.configure(tracing=False)
        cluster.close()


@pytest.mark.parametrize("workload", ["resnet101", "transformer"])
def test_layer_spans_cover_forward_and_backward(workload):
    _, spans = traced_steps(workload)
    passes = {
        span["span_id"]: span
        for span in spans
        if span["name"] in ("engine.forward", "engine.backward")
    }
    layers = [
        span for span in spans
        if span["name"] == "engine.layer" and span["parent_id"] in passes
    ]
    covered = sum(span["duration"] for span in layers)
    total = sum(span["duration"] for span in passes.values())
    assert len(passes) == 8
    assert covered >= 0.95 * total, (covered, total)


def test_spans_name_kernel_kind_and_pass():
    _, spans = traced_steps("transformer", steps=1)
    kinds = Counter(
        (span["attrs"]["kind"], span["attrs"]["pass"])
        for span in spans
        if span["name"] == "engine.layer"
    )
    for kind in ("embedding", "residual", "layernorm", "selfattention", "linear", "relu"):
        assert kinds[(kind, "forward")] > 0, kind
    assert kinds[("cross_entropy", "backward")] == 1
    # The head (embedding) computes only its weight gradient, once.
    assert kinds[("embedding", "backward")] == 1
    assert kinds[("positionalencoding", "backward")] == 1


def test_tracing_leaves_gradients_unchanged():
    traced, _ = traced_steps("resnet101", steps=2)
    cluster = build_cluster(build_workload("resnet101"), num_workers=4, seed=0)
    try:
        for _ in range(3):
            cluster.compute_gradients_all(cluster.next_batches())
        np.testing.assert_array_equal(traced.view(np.int64), cluster.matrix.grads.view(np.int64))
    finally:
        cluster.close()


def test_untraced_steps_emit_no_layer_spans():
    cluster = build_cluster(build_workload("deep_mlp"), num_workers=2, seed=0)
    try:
        cluster.compute_gradients_all(cluster.next_batches())
        assert cluster.replica_exec._traced_layers is None
        assert telemetry.get_tracer().drain() == []
    finally:
        cluster.close()


def test_summary_breaks_layer_time_out_by_kind(tmp_path):
    path = str(tmp_path / "trace.jsonl")
    cluster = build_cluster(build_workload("resnet101"), num_workers=2, seed=0)
    try:
        telemetry.configure(trace_file=path)
        cluster.compute_gradients_all(cluster.next_batches())
        telemetry.flush()
    finally:
        telemetry.configure(tracing=False, trace_file=None)
        cluster.close()
    phases = telemetry.summarize_trace(path)["phases"]
    assert "engine.layer" not in phases
    for kind in ("linear", "relu", "residual", "layernorm", "cross_entropy"):
        assert phases[f"engine.layer[{kind}]"]["count"] > 0, kind


def test_residual_branch_layers_nest_under_their_residual_span():
    _, spans = traced_steps("resnet101", steps=1)
    by_id = {span["span_id"]: span for span in spans}
    layer_spans = [span for span in spans if span["name"] == "engine.layer"]
    nested = [
        span for span in layer_spans
        if by_id[span["parent_id"]]["name"] == "engine.layer"
    ]
    assert nested
    for span in nested:
        parent = by_id[span["parent_id"]]
        assert parent["attrs"] == {"kind": "residual", "pass": span["attrs"]["pass"]}
        assert parent["start"] <= span["start"]
        assert span["start"] + span["duration"] <= parent["start"] + parent["duration"]


def test_add_timed_links_children_and_keeps_phase_totals():
    tracer = telemetry.Tracer()
    with tracer.span("outer") as outer:
        pass
    tracer.drain()
    timings = [
        (1.0, 2.0, {"kind": "a"}, 0),  # child of the "c" timing below
        (2.0, 3.0, {"kind": "b"}, 1),  # child of "c"
        (0.5, 3.5, {"kind": "c"}, 0),  # parents the two above
        (4.0, 4.5, {"kind": "d"}, 3),  # sibling of "c"
    ]
    tracer.add_timed(outer, "engine.layer", timings)
    assert tracer.phase_totals()["engine.layer"] == pytest.approx(5.5)
    records = {r["attrs"]["kind"]: r for r in tracer.drain()}
    assert records["a"]["parent_id"] == records["c"]["span_id"]
    assert records["b"]["parent_id"] == records["c"]["span_id"]
    assert records["c"]["parent_id"] == outer.span_id
    assert records["d"]["parent_id"] == outer.span_id
    assert {r["trace_id"] for r in records.values()} == {outer.trace_id}
    assert records["d"]["duration"] == 0.5


def test_sink_writes_timed_batches_as_json_dumps_would(tmp_path):
    """The sink formats timed batches directly; each line is ``json.dumps``'s."""
    path = tmp_path / "trace.jsonl"
    tracer = telemetry.Tracer(str(path))
    with tracer.span("outer") as outer:
        pass
    note = {"kind": "a", "note": 'quo"te\n'}
    timings = [
        (1.0, 2.0, note, 0),
        (2.0, 3.25, {"kind": "b"}, 1),
        (0.5, 3.5, {"kind": "c"}, 0),
    ]
    tracer.add_timed(outer, "engine.layer", timings)
    tracer.add_timed(outer, "engine.layer", timings[:1])
    assert tracer.flush() == 5
    lines = path.read_text(encoding="utf-8").splitlines()
    records = [json.loads(line) for line in lines]
    assert lines == [json.dumps(record) for record in records]
    first, second = records[1:4], records[4:]
    a, b, c = first
    assert (a["attrs"], b["attrs"], c["attrs"]) == (note, {"kind": "b"}, {"kind": "c"})
    assert a["parent_id"] == b["parent_id"] == c["span_id"]
    assert c["parent_id"] == second[0]["parent_id"] == outer.span_id
    assert [r["duration"] for r in records[1:]] == [1.0, 1.25, 3.0, 1.0]
    assert b["start"] - a["start"] == pytest.approx(1.0)
    assert {r["trace_id"] for r in records} == {outer.trace_id}
    assert len({r["span_id"] for r in records}) == 5
