"""Self-tests of the benchmark (about two minutes on one core):

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json

import pytest

import run
import tracer
import workloads

WORKLOADS = workloads.all_workloads()
GOLDENS = workloads.load_goldens()
# per-layer metrics that count work, so later changes can cite them exactly
COUNT_METRICS = [
    "linalg.rref_calls",
    "linalg.rref_cells",
    "linalg.rref_per_colon",
    "groebner.buchberger_calls",
    "groebner.buchberger_repeat_frac",
    "groebner.normal_form_calls",
    "diffops.apply_calls",
    "diffops.apply_repeat_frac",
    "uniformity.colon_tests",
    "uniformity.colon_dim_sum",
]


def test_seed_zero_keeps_inputs_and_other_seeds_change_them():
    data = WORKLOADS["paper_suite"].configs["artin_rees_two_primes"]
    assert workloads.scramble_config(data, workloads.seeded_rng(0)) is data
    for seed in (1, 2, 3):
        scrambled = workloads.scramble_config(data, workloads.seeded_rng(seed))
        assert scrambled["ring"] != data["ring"]
        assert scrambled["ideals"] != data["ideals"]
        assert scrambled["operators"]["compute"] != data["operators"]["compute"]


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("name", ["paper_suite", "groebner_powers", "dual_ops"])
def test_seeded_inputs_give_the_seed_zero_outputs(name, seed):
    p = run.one_pass(WORKLOADS[name], seed, GOLDENS[name], traced=False)
    assert p.attempted > 0
    assert p.failed == []


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_counts_repeat_exactly(name):
    first, second = (run.one_pass(WORKLOADS[name], 1, GOLDENS[name], traced=True) for _ in range(2))
    assert first.failed == [] and second.failed == []
    counts = [{k: p.trace.metrics()[k] for k in COUNT_METRICS} for p in (first, second)]
    assert counts[0] == counts[1]
    assert counts[0]["uniformity.colon_tests"] == WORKLOADS[name].colon_tests(first.outputs)


def test_wrappers_reach_names_imported_elsewhere():
    trace = tracer.PassTrace()
    modules = workloads.import_program()
    tracer.install(trace, modules)
    assert modules["uniformity"].operator_kernel is modules["diffops"].operator_kernel
    assert modules["uniformity"].verify_noetherian_ops is modules["noetherian"].verify_noetherian_ops
    assert modules["closures"].saturate is modules["groebner"].saturate
    assert modules["closures"].find_min_c is modules["uniformity"].find_min_c
    for module_name, attr, _ in tracer.SPANS + tracer.COUNTERS:
        obj = modules[module_name]
        for part in attr.split("."):
            obj = getattr(obj, part)
        assert hasattr(obj, "__wrapped__"), f"{module_name}.{attr} is not wrapped"


def test_benchmark_json_lists_what_the_runs_report():
    with open(workloads.ROOT / "BENCHMARK.json", "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracer.LAYER_METRICS
    assert set(tracer.PassTrace().metrics()) | {"trace.overhead_frac"} == set(tracer.LAYER_METRICS)
