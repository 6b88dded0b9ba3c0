"""Self-tests of the benchmark: metric names, the result line, the output
checks (each must catch a corrupted output) and the seeded generators.
Ray is stubbed out wherever a test does not need it.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os

import pyarrow as pa
import pytest

from perfbench import checks, inputs, metrics, procstat, run, session, trace
from perfbench.workloads import WORKLOADS, OperatorMix, Workload

BENCH_JSON = os.path.join(session.ROOT, "BENCHMARK.json")


# ---------------------------------------------------------------------------
# metric names
# ---------------------------------------------------------------------------

def test_metric_names_are_valid():
    for name, unit in {**metrics.END_TO_END, **metrics.PER_LAYER}.items():
        assert metrics.NAME_RE.fullmatch(name), name
        assert 1 <= len(unit) <= 16, unit


def test_benchmark_json_lists_the_emitted_metrics():
    with open(BENCH_JSON) as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == metrics.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == metrics.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert spec["paths"] == ["perfbench"]


def test_operator_mix_queries_match_layer_names():
    assert list(OperatorMix.QUERY_TABLES) == metrics.QUERY_NAMES


# ---------------------------------------------------------------------------
# the run loop and result line, with Ray stubbed
# ---------------------------------------------------------------------------

class FakeWorkload(Workload):
    name = "fake"

    def __init__(self, work_dir, seed, corrupt=False):
        super().__init__(work_dir, seed)
        self.corrupt = corrupt

    def run(self):
        return {"rows": [1, 2, 3]}

    def check(self, info):
        want = [1, 2, 4] if self.corrupt else [1, 2, 3]
        v = checks.Verdict(*checks.multiset_pr(info["rows"], want))
        if (v.precision, v.recall) != (1.0, 1.0):
            v.errors.append("mismatch")
        return [v]

    def items(self, info):
        return len(info["rows"])

    def layers(self, info, spans):
        return {"pipelines.kg.extract_s": 0.5}


class FakeCluster:
    start_s = 0.0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        pass

    def wait_ready(self):
        pass

    def start_job(self, span_dir=None):
        pass

    def end_job(self):
        pass


@pytest.fixture
def stub_ray(monkeypatch, tmp_path):
    monkeypatch.setattr(session, "Cluster", FakeCluster)
    monkeypatch.setattr(run, "WORK_DIR", str(tmp_path))


@pytest.mark.parametrize("trace_flag,names", [
    (0, metrics.END_TO_END), (1, metrics.PER_LAYER)])
def test_result_line_carries_every_metric(stub_ray, monkeypatch, capsys,
                                          trace_flag, names):
    monkeypatch.setitem(WORKLOADS, "fake", FakeWorkload)
    assert run.main(["--workload", "fake", "--seed", "3", "--seconds", "0",
                     "--trace", str(trace_flag)]) == 0
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 2
    assert set(last["metrics"]) == set(names)
    for name, unit in names.items():
        assert last["metrics"][name]["unit"] == unit
        assert isinstance(last["metrics"][name]["value"], (int, float))


def test_failed_check_is_counted(stub_ray, monkeypatch, capsys):
    monkeypatch.setitem(WORKLOADS, "fake",
                        lambda d, s: FakeWorkload(d, s, corrupt=True))
    run.main(["--workload", "fake", "--seed", "3", "--seconds", "0"])
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert not last["correct"] and last["failed"] == last["attempted"]


def test_every_workload_layer_metric_is_declared():
    declared = set(metrics.PER_LAYER)
    assert set(metrics.from_spans([], 1.0)) <= declared
    kg = {f"pipelines.kg.{k}_s" for k in
          ("index", "extract", "triples", "link", "labels", "phase2")}
    assert kg <= declared
    assert {"state.index.build_s", "state.index.mem_bytes_est",
            "state.index.load_s", "state.index.load_rss_mb",
            "state.index.shard_load_s", "state.index.shard_load_rss_mb",
            "stages.extract.tables_kept_ratio",
            "stages.canonicalize.merged_uris",
            "stages.materialize.bytes_written"} <= declared


# ---------------------------------------------------------------------------
# spans
# ---------------------------------------------------------------------------

def _span(name, start, end, pid=1, rows_in=0, rows_out=0):
    return {"name": name, "start": start, "end": end, "pid": pid,
            "rows_in": rows_in, "rows_out": rows_out}


def test_self_time_subtracts_nested_spans():
    spans = trace.with_self_time([
        _span("canonicalize.lsh", 0.0, 10.0),
        _span("canonicalize.verify", 2.0, 5.0),
        _span("canonicalize.cc", 2.0, 4.0, pid=2),
    ])
    assert [round(s["self_s"], 6) for s in spans] == [7.0, 3.0, 2.0]


def test_span_metrics():
    spans = [
        _span("extract", 0, 1, rows_in=50, rows_out=20),
        _span("materialize.write_partition", 1, 2, rows_out=30),
        _span("materialize.write_partition", 2, 3, rows_out=10),
        _span("canonicalize.verify", 3, 4, rows_in=8, rows_out=2),
        _span("link.score_shard", 4, 5, rows_in=5),
        _span("link.gather", 5, 6, rows_out=5),
        _span("link.merge", 6, 7, rows_in=20),
    ]
    m = metrics.from_spans(spans, wall_s=10.0)
    assert m["stages.extract.pages_in"] == 50
    assert m["stages.materialize.part_skew"] == pytest.approx(1.5)
    assert m["stages.canonicalize.verify_ratio"] == pytest.approx(0.25)
    assert m["stages.link.route"] == 1.0
    assert m["stages.link.distinct_ratio"] == pytest.approx(0.25)
    assert m["pipelines.kg.unattributed_s"] == pytest.approx(3.0)


def test_wrappers_record_and_uninstall(tmp_path):
    from mannheimsearchjoinsengine_ray.stages import triples

    orig = triples.label_pairs_from_tables_batch
    trace.install(str(tmp_path))
    try:
        assert triples.label_pairs_from_tables_batch is not orig
        empty = pa.table({"headers": pa.array([], pa.list_(pa.string())),
                          "key_idx": pa.array([], pa.int32()),
                          "has_key": pa.array([], pa.bool_()),
                          "rows": pa.array([], pa.list_(pa.list_(pa.string())))})
        triples.label_pairs_from_tables_batch(empty)
    finally:
        trace.uninstall()
    assert triples.label_pairs_from_tables_batch is orig
    [span] = trace.load_spans(str(tmp_path))
    assert span["name"] == "labels" and span["pid"] == os.getpid()


# ---------------------------------------------------------------------------
# output checks: a corrupted output must fail
# ---------------------------------------------------------------------------

NS = "http://table.searchjoins.de/"
T = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"
L = "http://www.w3.org/2000/01/rdf-schema#label"


def _part(rows):
    cols = list(zip(*rows)) if rows else [[]] * 5
    return pa.table({n: pa.array(list(c), pa.string()) for n, c in
                     zip(("subj", "pred", "obj", "obj_type", "source_url"), cols)})


def test_triples_check_catches_a_dropped_triple():
    rows = sorted([(NS + "A1", T, NS + "Name", "uri", "u"),
                   (NS + "A1", L, "A 1", "string", "u"),
                   (NS + "B2", L, "B 2", "string", "u")])
    assert checks.check_triples([_part(rows)], rows).ok
    bad = checks.check_triples([_part(rows[:-1])], rows)
    assert not bad.ok and bad.recall < 1.0
    unsorted = checks.check_triples([_part(rows[::-1])], rows)
    assert not unsorted.ok


def _canon_case():
    orig, rot = NS + "RedRiver5", NS + "River5Red"
    phase1 = sorted([(orig, L, "Red River 5", "string", "u1"),
                     (rot, L, "River 5 Red", "string", "u2"),
                     (NS + "X", T, rot, "uri", "u2")])
    return phase1, {5: (orig, rot)}


def test_canon_check_accepts_the_planted_merge():
    phase1, rotated = _canon_case()
    final = sorted(checks.expected_canon_rows(
        phase1, {NS + "River5Red": NS + "RedRiver5"}))
    v = checks.check_canon([_part(phase1)], [_part(final)], rotated)
    assert v.ok and (v.precision, v.recall) == (1.0, 1.0)


def test_canon_check_catches_an_unmerged_alias():
    phase1, rotated = _canon_case()
    v = checks.check_canon([_part(phase1)], [_part(phase1)], rotated)
    assert not v.ok and v.recall == 0.0


def test_link_check_catches_a_flipped_link():
    want = [NS + "E1", NS + "E2", NS + "E3"]
    assert checks.check_links([0, 1, 2], list(want), want).ok
    flipped = checks.check_links([0, 1, 2], [NS + "E1", NS + "E9", NS + "E3"], want)
    assert not flipped.ok and flipped.precision == pytest.approx(2 / 3)
    twice = checks.check_links([0, 0, 1, 2], [want[0]] + want, want)
    assert not twice.ok


def test_query_check_catches_a_changed_value():
    import pandas as pd

    want = pd.DataFrame({"n_name": ["A", "B"], "revenue": [1.25, 2.5]})
    assert checks.check_query(want.iloc[::-1], want).ok
    got = want.assign(revenue=[1.25, 2.51])
    v = checks.check_query(got, want)
    assert not v.ok and v.precision == 0.5


# ---------------------------------------------------------------------------
# generators and process stats
# ---------------------------------------------------------------------------

def test_rotated_label_keeps_tokens():
    assert inputs.rotated_label("red river 5") == "river 5 red"


def test_perturb_is_one_edit():
    import numpy as np

    rng = np.random.default_rng(0)
    for _ in range(50):
        label = "abcde fghij 42"
        out = inputs.perturb(label, rng)
        diff = [(a, b) for a, b in zip(label, out) if a != b]
        assert len(out) == len(label) and len(diff) == 1


def test_kg_corpus_deterministic_sized_and_planted():
    a = inputs.kg_corpus(7, 3000, 0.3)
    b = inputs.kg_corpus(7, 3000, 0.3)
    assert a.rotated == b.rotated and a.golden == b.golden
    assert a.rotated_cells > 0 and 0.15 < a.rotated_cells / a.key_cells < 0.45
    assert len(a.golden) >= 3000
    assert len(inputs.kg_corpus(8, 3000, 0.3).golden) < 3000 + 2000
    for orig, rot in a.rotated.values():
        assert orig != rot


def test_mention_stream_deterministic_and_sized():
    t1, e1, p1 = inputs.mention_stream(3, 500, 100, 1000, 0.1)
    t2, e2, p2 = inputs.mention_stream(3, 500, 100, 1000, 0.1)
    assert t1.equals(t2) and (e1 == e2).all() and p1 == p2
    assert t1.num_rows == 500 and e1.max() < 1000
    assert len(set(t1.column("mention").to_pylist())) == 100
    assert len(set(e1.tolist())) == 100 and p1 > 0


def test_tables_deterministic(tmp_path):
    rows = []
    for sub in ("a", "b"):
        os.makedirs(tmp_path / sub)
        rows.append(inputs.write_tables(str(tmp_path / sub), 5, 60))
    assert rows[0] == rows[1]
    for name in rows[0]:
        assert (tmp_path / "a" / f"{name}.parquet").read_bytes() \
            == (tmp_path / "b" / f"{name}.parquet").read_bytes()


def test_procstat_sees_this_process():
    snap = procstat.tree()
    assert os.getpid() in snap
    assert procstat.peak_rss_mb([os.getpid()]) > 0
    assert procstat.cpu_delta(snap, procstat.tree()) >= 0
