import json
import os

import cases
import layers
import run

SPEC = os.path.join(os.path.dirname(run.HERE), "BENCHMARK.json")


def _load():
    with open(SPEC, encoding="utf-8") as fh:
        return json.load(fh)


def test_benchmark_json_lists_what_the_runner_reports():
    spec = _load()
    assert [w["name"] for w in spec["workloads"]] == list(cases.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        row[:3] for row in layers.PER_LAYER
    ]


def test_every_workload_builds_distinct_case_ids(tmp_path):
    for workload in cases.WORKLOADS:
        built, warmup = cases.build(workload, 3, cases.Inputs(str(tmp_path), "w"))
        ids = [c.id for c in built]
        assert len(ids) == len(set(ids)) and warmup
        assert all(c.expect in (0, 1) for c in built)
        assert all(bool(c.argv) != bool(c.qchar) for c in built)


def test_same_seed_same_inputs(tmp_path):
    def files(seed, sub):
        inp = cases.Inputs(str(tmp_path), sub)
        cases.build("rational-canonical", seed, inp)
        d = tmp_path / sub
        return {p.name: p.read_text() for p in d.iterdir()}

    assert files(5, "a") == files(5, "b")
    assert files(5, "a") != files(6, "c")


def test_known_defects_name_real_cases(tmp_path):
    built, _ = cases.build("chain-numeric", 0, cases.Inputs(str(tmp_path), "w"))
    assert set(cases.KNOWN_DEFECTS) <= {c.id for c in built}
