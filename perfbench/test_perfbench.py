"""Self-tests of the benchmark: python3 -m pytest perfbench -q"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_tiny_smoke_run(name):
    tasks = workloads.build(name, seed=7, tiny=True)
    rows, _ = run.timed_loop(tasks, 1)
    outcomes = run.Outcomes(workloads, tasks)
    for index, out, err, _, _ in rows:
        outcomes.record(index, out, err)
    assert outcomes.correct, outcomes.messages
    assert outcomes.failed == 0


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_seed_changes_inputs_not_mix(name):
    first = workloads.build(name, seed=1)
    again = workloads.build(name, seed=1)
    other = workloads.build(name, seed=2)
    assert [t.kind for t in first] == [t.kind for t in other]
    assert [t.label for t in first] == [t.label for t in again]
    assert [t.label for t in first] != [t.label for t in other]


def test_workload_names_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_traced_run_reports_every_per_layer_metric_in_its_unit():
    for name in workloads.WORKLOADS:
        tasks = workloads.build(name, seed=3, tiny=True)
        result = run.traced_pass(workloads, tasks)
        assert result["outcomes"].correct, result["outcomes"].messages
        units = {k: unit for k, (_, unit) in result["metrics"].items()}
        assert units == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    # the tracer is removed again: nothing in the package stays wrapped
    for mod_name, mod in list(sys.modules.items()):
        if mod_name.startswith("nijcalc."):
            assert not any(hasattr(v, "__wrapped__") for v in vars(mod).values())


def test_tracer_rebinds_imported_aliases():
    import tracer
    from nijcalc import classify, jets, tensor, invariants

    tr = tracer.Tracer()
    tr.install()
    try:
        assert jets.post_compose is tensor.post_compose
        assert jets.nijenhuis_tensor is invariants.nijenhuis_tensor
        assert classify.nijenhuis_tensor is invariants.nijenhuis_tensor
        assert hasattr(jets.post_compose, "__wrapped__")
        assert tr.rebound_aliases > 0
    finally:
        tr.uninstall()
    assert not hasattr(jets.post_compose, "__wrapped__")


def test_known_defect_is_counted_in_error_rate_only():
    tasks = [t for t in workloads.build("frame4", seed=5, tiny=True)
             if t.kind == "bundled"]
    outcomes = run.Outcomes(workloads, tasks)
    for i, task in enumerate(tasks):
        outcomes.record(i, *run.run_task(task))
    assert outcomes.failed == 0 and outcomes.correct
    # drops to 0 once bracket_identity_report is fixed; a wrong report fails
    assert outcomes.error_rate in (0.0, 1.0)


def test_scaled_divides_out_the_probe_speed():
    ref = run.PROBE_REF_S
    assert run.scaled([1.0, 2.0], [ref, ref, ref]) == [1.0, 2.0]
    # a host at half speed doubles the probe time; the scaled time stays put
    assert run.scaled([2.0], [2 * ref, 2 * ref]) == [1.0]
    # the estimate for wall k averages probes k-1 .. k+2
    assert run.scaled([0.0, 1.0, 0.0], [ref, ref, 3 * ref, 3 * ref]) == [0.0, 0.5, 0.0]
