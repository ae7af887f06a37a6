"""Tests of the benchmark's own logic: span arithmetic, output checks, and
the generated workload inputs."""

import json
from pathlib import Path

import pytest

from mbench.check import mismatches, reference_failures, reference_of, row_failures
from mbench.report import E2E_UNITS, LAYER_UNITS
from mbench.tracer import Tracer, self_times
from mbench.workloads import WORKLOADS, wide_theta_bytes

ROOT = Path(__file__).resolve().parent.parent


def span(name, start, end, parent=-1):
    return (name, start, end, parent, 0, -1)


def test_self_time_nested_spans():
    spans = [span("a", 0, 100), span("b", 10, 60, 0), span("c", 20, 30, 1)]
    assert self_times(spans) == [50, 40, 10]


def test_self_time_sibling_spans():
    spans = [span("a", 0, 100), span("b", 10, 30, 0), span("c", 50, 90, 0)]
    assert self_times(spans) == [40, 20, 40]


def test_self_time_counts_overlapping_and_overhanging_children_once():
    spans = [span("a", 0, 100), span("b", 10, 50, 0), span("c", 40, 120, 0)]
    assert self_times(spans)[0] == 10


def test_tracer_records_parents_cells_and_rows():
    tracer = Tracer()

    def leaf(rows):
        return len(rows)

    inner = tracer.wrap(leaf, "leaf", rows=True)
    cell = tracer.wrap(lambda: inner([1, 2, 3]), "cell", cell=True)
    outer = tracer.wrap(lambda: [cell(), cell()], "root")
    assert outer() == [3, 3]
    names = [(s[0], s[3], s[4], s[5]) for s in tracer.spans]
    assert names == [
        ("root", -1, 0, -1),
        ("cell", 0, 1, -1),
        ("leaf", 1, 1, 3),
        ("cell", 0, 2, -1),
        ("leaf", 3, 2, 3),
    ]


def results(**overrides):
    rows = []
    for vid, iterations in (("em", "10"), ("mb-0.1", "100")):
        row = {
            "variant": vid, "rep": "0", "seed": "7", "status": "ok",
            "loglik": "-2.5", "loglik_per_obs": "-0.25", "se": "0.5", "ari": "0.9",
            "iterations": iterations, "truncation_events": "0",
            "wall_time_s": "1.0", "cpu_time_s": "1.0",
        }
        row.update(overrides.get(vid, {}))
        rows.append(row)
    return rows


EXPECTED = {"em": 10, "mb-0.1": 100}


def test_check_accepts_clean_results_and_timing_differences():
    assert row_failures(results(), EXPECTED) == {}
    rerun = results(em={"wall_time_s": "2.0", "cpu_time_s": "1.9"})
    assert mismatches(rerun, results()) == {}
    assert reference_failures(results(), reference_of(results())) == {}


def test_check_rejects_short_iteration_count_and_bad_status():
    bad = results(**{"mb-0.1": {"iterations": "99"}, "em": {"status": "error:X"}})
    assert set(row_failures(bad, EXPECTED)) == {"em", "mb-0.1"}
    assert set(row_failures(results()[:1], EXPECTED)) == {"mb-0.1"}


@pytest.mark.parametrize("column", ["loglik", "se", "ari", "truncation_events"])
def test_check_rejects_perturbed_results(column):
    perturbed = results(em={column: "0.123"})
    assert set(mismatches(perturbed, results())) == {"em"}


def test_check_rejects_quality_outside_reference_tolerance():
    reference = reference_of(results())
    assert reference_failures(results(em={"ari": "0.90005"}), reference) == {}
    assert set(reference_failures(results(em={"ari": "0.9002"}), reference)) == {"em"}
    assert set(reference_failures(results(em={"se": "nan"}), reference)) == {"em"}


def test_wide_generator_is_deterministic_and_seeded():
    wide = WORKLOADS["wide"]
    first = wide_theta_bytes(3, wide.d, wide.g)
    assert first == wide_theta_bytes(3, wide.d, wide.g)
    assert first != wide_theta_bytes(4, wide.d, wide.g)
    theta = json.loads(first)
    assert len(theta["weights"]) == wide.g and min(theta["weights"]) > 0
    assert len(theta["components"][0]["mean"]) == wide.d


def test_expected_iterations_follow_epochs_times_batches():
    assert WORKLOADS["iris-grid"].expected_iterations() == {
        "em": 10, "mb-0.1": 100, "mb-0.1-polyak": 100, "mb-0.2": 50, "mb-0.2-polyak": 50,
        "mb-0.1-trunc": 100, "mb-0.1-trunc-polyak": 100,
        "mb-0.2-trunc": 50, "mb-0.2-trunc-polyak": 50,
    }
    assert WORKLOADS["online"].expected_iterations()["mb-0.0002-trunc"] == 5000


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    for key, units in (("end_to_end", E2E_UNITS), ("per_layer", LAYER_UNITS)):
        assert {m["name"]: m["unit"] for m in spec[key]} == units
