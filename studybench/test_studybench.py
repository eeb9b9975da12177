"""Tests of the benchmark itself, on the tiny grid N = 8, 16.

    python3 -m pytest studybench -q
"""

import copy
import json

import pytest

from studybench import ROOT, checks, run, tracer, workloads

TINY = 16
ORIGINALS = {(module, attr): getattr(module, attr)
             for module, attr in tracer.WRAPPED}


@pytest.fixture(scope="module")
def references():
    return checks.load_references()


@pytest.fixture(scope="module", params=workloads.WORKLOADS)
def traced_record(request, references):
    return run.run_workload(request.param, seed=3, seconds=0, trace=1,
                            n_max=TINY, references=references)


def test_untraced_run_emits_every_end_to_end_metric(references,
                                                     monkeypatch):
    monkeypatch.setattr(run, "SETUP_RUNS", 1)
    for name in workloads.WORKLOADS:
        record = run.run_workload(name, seed=3, seconds=0, trace=0,
                                  n_max=TINY, references=references)
        result = record["result"]
        assert result["correct"], record["problems"]
        assert result["failed"] == 0
        assert result["attempted"] == run.MIN_SWEEPS * len(
            workloads.cells(workloads.build_configs(record["settings"])))
        assert result["metrics"] == {
            key: {"value": result["metrics"][key]["value"], "unit": unit}
            for key, unit in run.END_TO_END_UNITS.items()}
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_emits_every_per_layer_metric(traced_record):
    result = traced_record["result"]
    assert result["correct"], traced_record["problems"]
    assert set(result["metrics"]) == set(run.PER_LAYER_UNITS)
    for key, metric in result["metrics"].items():
        assert metric["unit"] == run.PER_LAYER_UNITS[key]
    assert result["metrics"]["mesh.edges"]["value"] > 0
    assert 0 < result["metrics"]["solver.backward_error_max"]["value"] < 1e-8


def test_self_times_are_nonnegative_and_within_their_parent(traced_record):
    for spans in traced_record["spans"]:
        objs = [tracer.Span(s["id"], s["name"], s["start"], s["end"],
                            s["parent"], s["cell"]) for s in spans]
        own = tracer.self_times(objs)
        by_id = {s.id: s for s in objs}
        children = {}
        for s in objs:
            if s.parent is not None:
                children.setdefault(s.parent, []).append(s)
        for span in objs:
            assert own[span.id] >= 0.0, span
            if span.id in children:
                parts = own[span.id] + sum(
                    c.duration for c in children[span.id])
                assert parts <= span.duration + 1e-12
            if span.parent is not None:
                parent = by_id[span.parent]
                assert parent.start <= span.start <= span.end <= parent.end


def test_wrappers_are_restored_after_the_traced_run(traced_record):
    for (module, attr), fn in ORIGINALS.items():
        assert getattr(module, attr) is fn, attr


def test_perturbed_reference_fails_the_check(references):
    perturbed = copy.deepcopy(references)
    cell = perturbed["k1-chain"][(1, 1e-5, 16)]
    cell["e_IN"] *= 1.0 + 1e-6
    record = run.run_workload("k1-chain", seed=3, seconds=0, trace=1,
                              n_max=TINY, references=perturbed)
    result = record["result"]
    assert not result["correct"]
    assert result["failed"] >= 1
    assert "(1, 1e-05, 16)" in record["problems"]


def test_eps_band_rejects_an_error_off_the_band(references):
    configs = workloads.build_configs(
        workloads.settings("eps-sweep", seed=5, n_max=8))
    _, outputs = run.timed_sweep(configs)
    report = outputs[0][0]
    report.rows[0].e_in *= 1.01
    found = checks.check_sweep("eps-sweep", configs, outputs, references)
    cell = (1, report.rows[0].eps, 8)
    assert any("within" in p for p in found[cell])
    assert any("round-trip" in p for p in found[cell])


def test_missing_layer_fails_instead_of_reporting_zero(monkeypatch):
    monkeypatch.delattr(tracer.mesh, "classify_edges")
    with pytest.raises(tracer.TracerError, match="classify_edges"):
        with tracer.Tracer([]).installed():
            pass


def test_layer_skipped_in_a_cell_fails_the_coverage_guard():
    configs = workloads.build_configs(
        workloads.settings("k1-chain", seed=0, n_max=8))
    cells = workloads.cells(configs)
    tr = tracer.Tracer(cells)
    with tr.installed():
        run.timed_sweep(configs, tr.span)
    tr.check_coverage()
    tr.spans = [s for s in tr.spans if s.name != "analysis.broken_l2_error"]
    with pytest.raises(tracer.TracerError, match="broken_l2_error"):
        tr.check_coverage()


def test_eps_sweep_inputs_follow_the_seed():
    assert (workloads.settings("eps-sweep", 7)
            == workloads.settings("eps-sweep", 7))
    assert (workloads.settings("eps-sweep", 7)
            != workloads.settings("eps-sweep", 8))


def test_benchmark_json_declares_the_emitted_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert ({m["name"]: m["unit"] for m in spec["end_to_end"]}
            == run.END_TO_END_UNITS)
    assert ({m["name"]: m["unit"] for m in spec["per_layer"]}
            == run.PER_LAYER_UNITS)
