"""Tests of the benchmark's span arithmetic, wrapper hygiene and checks."""

import sys
import types

import pytest

from roundbench.check import ReferenceStore, check_runs, source_hash
from roundbench.tracing import Span, Tracer, calls_per_version, summarize
from roundbench.workloads import WORKLOADS

FAKE = "roundbench_fake_layer"


@pytest.fixture
def fake_module():
    """A module whose functions call each other through module lookups."""
    module = types.ModuleType(FAKE)

    def leaf(x):
        return x + 1

    def middle(x):
        return module.leaf(x) + module.leaf(x)

    def outer(x):
        return module.middle(x) * 2

    class Box:
        def method(self, x):
            return module.outer(x)

    def broken():
        raise ValueError("boom")

    module.leaf, module.middle, module.outer, module.Box = leaf, middle, outer, Box
    module.broken = broken
    sys.modules[FAKE] = module
    yield module
    del sys.modules[FAKE]


BOUNDS = (("t.outer", FAKE, "outer"), ("t.middle", FAKE, "middle"),
          ("t.leaf", FAKE, "leaf"), ("t.method", FAKE, "Box.method"),
          ("t.broken", FAKE, "broken"))


def test_self_time_subtracts_direct_children():
    spans = [Span("a", 0.0, 10.0, -1),
             Span("b", 1.0, 4.0, 0),
             Span("c", 2.0, 3.0, 1),
             Span("b", 5.0, 9.0, 0)]
    stats = summarize(spans)
    assert stats["a"].calls == 1 and stats["b"].calls == 2
    assert stats["a"].self_s == pytest.approx(10.0 - 3.0 - 4.0)
    assert stats["b"].self_s == pytest.approx((3.0 - 1.0) + 4.0)
    assert stats["c"].self_s == pytest.approx(1.0)
    assert stats["a"].total_s == pytest.approx(10.0)
    assert stats["b"].total_s == pytest.approx(7.0)
    # self times partition the root's interval
    assert sum(s.self_s for s in stats.values()) == pytest.approx(10.0)


def test_reentrant_boundary_counts_total_once():
    spans = [Span("f", 0.0, 6.0, -1), Span("g", 1.0, 5.0, 0), Span("f", 2.0, 4.0, 1)]
    stats = summarize(spans)
    assert stats["f"].calls == 2
    assert stats["f"].total_s == pytest.approx(6.0)
    assert stats["f"].self_s == pytest.approx(2.0 + 2.0)


def test_wrappers_record_nesting_and_keep_results(fake_module):
    with Tracer(BOUNDS) as tracer:
        tracer.recorder.active = True
        assert fake_module.Box().method(1) == 8
    spans = tracer.recorder.spans
    names = [span.name for span in spans]
    assert names == ["t.method", "t.outer", "t.middle", "t.leaf", "t.leaf"]
    parents = [spans[span.parent].name if span.parent >= 0 else None for span in spans]
    assert parents == [None, "t.method", "t.outer", "t.middle", "t.middle"]
    assert all(span.end >= span.start for span in spans)
    stats = summarize(spans)
    assert stats["t.leaf"].calls == 2
    for name in ("t.method", "t.outer", "t.middle"):
        assert stats[name].total_s >= stats[name].self_s >= 0.0


def test_inactive_recorder_records_nothing(fake_module):
    with Tracer(BOUNDS) as tracer:
        fake_module.outer(1)
    assert tracer.recorder.spans == []


def test_restore_puts_back_every_original(fake_module):
    import repro.comm
    import repro.core.flux_client
    from repro.federated.server import ParameterServer

    originals = {name: getattr(fake_module, name) for name in ("outer", "middle", "leaf")}
    method = fake_module.Box.__dict__["method"]
    real = (repro.comm.encode_update, repro.core.flux_client.estimate_expert_gradient,
            ParameterServer.__dict__["model_snapshot"])
    with pytest.raises(RuntimeError):
        with Tracer(BOUNDS + (("x.encode", "repro.comm", "encode_update"),
                              ("x.probe", "repro.core.flux_client", "estimate_expert_gradient"),
                              ("x.snap", "repro.federated.server",
                               "ParameterServer.model_snapshot"))):
            assert fake_module.outer is not originals["outer"]
            assert repro.comm.encode_update is not real[0]
            raise RuntimeError("run failed")
    for name, fn in originals.items():
        assert getattr(fake_module, name) is fn
    assert fake_module.Box.__dict__["method"] is method
    assert (repro.comm.encode_update, repro.core.flux_client.estimate_expert_gradient,
            ParameterServer.__dict__["model_snapshot"]) == real


def test_missing_boundary_is_reported_not_fatal(fake_module):
    bounds = BOUNDS + (("t.gone", FAKE, "no_such_function"),
                       ("t.gone_module", "roundbench_no_such_module", "f"),
                       ("t.gone_method", FAKE, "Box.no_such_method"))
    with Tracer(bounds) as tracer:
        tracer.recorder.active = True
        fake_module.leaf(0)
    assert tracer.missing == ["t.gone", "t.gone_method", "t.gone_module"]
    assert [span.name for span in tracer.recorder.spans] == ["t.leaf"]


def test_raising_call_is_counted_and_propagates(fake_module):
    with Tracer(BOUNDS) as tracer:
        tracer.recorder.active = True
        with pytest.raises(ValueError):
            fake_module.broken()
    assert tracer.recorder.errors == {"t.broken": 1}
    assert tracer.recorder.stack == []
    assert [span.name for span in tracer.recorder.spans] == ["t.broken"]


def test_calls_per_version():
    agg = "federated.aggregate"
    q = "quantization.quantize_model"
    spans = [Span(q, 0, 1, -1), Span(q, 1, 2, -1), Span(agg, 2, 3, -1),
             Span(q, 4, 5, -1), Span(q, 5, 6, -1), Span(agg, 6, 7, -1)]
    assert calls_per_version(spans, q) == 2.0
    assert calls_per_version(spans[2:3], q) == 0.0


def _record(seed=0):
    rounds = [[5.0 - 0.1 * i, 0.1 * i, 30.0 * (i + 1), 0.0, 0.0, 8, 8, 0, 0]
              for i in range(WORKLOADS["fmd_llama"].num_rounds)]
    return {"seed": seed, "rounds": rounds, "payloads": 0}


def test_check_accepts_identical_runs():
    workload = WORKLOADS["fmd_llama"]
    references = {}
    tally = check_runs(workload, [_record(), _record()], references)
    assert tally.failed == 0 and not tally.problems
    assert tally.attempted == 2 * workload.num_rounds * workload.per_round
    assert references == {0: _record()["rounds"]}


@pytest.mark.parametrize("index,value", [(0, 5.0 + 1e-12), (1, 0.7), (2, 31.0),
                                         (3, 1.0), (4, 1.0)])
def test_check_catches_perturbed_round_result(index, value):
    perturbed = _record()
    perturbed["rounds"][3][index] = value
    tally = check_runs(WORKLOADS["fmd_llama"], [_record(), perturbed], {})
    assert tally.failed == 1
    assert "differ" in tally.problems[0]


def test_check_compares_with_stored_reference_per_seed(tmp_path):
    store = ReferenceStore(str(tmp_path), "fmd_llama")
    first = {}
    assert check_runs(WORKLOADS["fmd_llama"], [_record(0), _record(1)], first).failed == 0
    store.save(first)
    perturbed = _record(1)
    perturbed["rounds"][-1][2] += 1.0
    later = store.load({0, 1, 2})
    assert set(later) == {0, 1}
    tally = check_runs(WORKLOADS["fmd_llama"], [_record(0), perturbed, _record(2)], later)
    assert tally.failed == 1 and "seed 1" in tally.problems[0]


def test_source_hash_tracks_program_sources(tmp_path):
    (tmp_path / "src" / "pkg").mkdir(parents=True)
    (tmp_path / "roundbench").mkdir()
    module = tmp_path / "src" / "pkg" / "mod.py"
    module.write_text("x = 1\n")
    before = source_hash(str(tmp_path))
    (tmp_path / "src" / "pkg" / "notes.txt").write_text("ignored")
    assert source_hash(str(tmp_path)) == before
    module.write_text("x = 2\n")
    assert source_hash(str(tmp_path)) != before


def test_check_counts_dropped_clients_lost_payloads_and_nan():
    bad = _record()
    bad["rounds"][1][5] = 6          # two selected participants not aggregated
    bad["rounds"][2][7] = 3          # three payloads lost
    bad["rounds"][4][0] = float("nan")
    tally = check_runs(WORKLOADS["fmd_llama"], [bad], {})
    assert tally.failed == 2 + 3 + 1


def test_check_counts_crashed_run_and_decode_errors():
    workload = WORKLOADS["fmd_llama"]
    traced = dict(_record(), errors={"comm.decode": 2})
    tally = check_runs(workload, [_record(), None, traced], {})
    planned = workload.num_rounds * workload.per_round
    assert tally.failed == planned + 2
    assert tally.attempted == 3 * planned


def test_reported_metrics_match_benchmark_json():
    import json
    import os

    from roundbench.metrics import end_to_end, per_layer
    from roundbench.tracing import boundary_names

    root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    with open(os.path.join(root, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    run = dict(_record(), setup_s=1.0, round_s=[0.5] * 8, peak_rss_mb=100.0)
    traced = dict(run, layers={name: [1, 0.1, 0.2] for name in boundary_names()},
                  missing=[], errors={}, tallies={}, wall_s=1.0,
                  quantize_calls_per_version=0.0)
    reported = {**end_to_end([run], 5), **per_layer(run, traced)}
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    assert {name: m["unit"] for name, m in reported.items()} == declared
    assert set(end_to_end([run], 5)) == {m["name"] for m in spec["end_to_end"]}
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
