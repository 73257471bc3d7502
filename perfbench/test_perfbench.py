"""Tests of the benchmark's own logic (not of the program it measures).

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import re
import statistics
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import catalog  # noqa: E402
import golden  # noqa: E402
import run  # noqa: E402
from stats import iqr_share, median, percentile, quartiles  # noqa: E402
from tracing import SpanRecorder, self_times  # noqa: E402


def _span(name, start, end, parent):
    return {"name": name, "start": start, "end": end, "parent": parent,
            "iteration": 0}


class TestSelfTime:
    def test_nested_and_overlapping_children(self):
        spans = [
            _span("root", 0.0, 10.0, None),
            _span("a", 1.0, 4.0, 0),
            _span("a.child", 2.0, 3.0, 1),
            _span("b", 3.0, 6.0, 0),  # overlaps a: union 1..6 is covered
        ]
        got = self_times(spans)
        assert got == pytest.approx(
            {"root": 5.0, "a": 2.0, "a.child": 1.0, "b": 3.0})
        # Self times partition the root interval exactly.
        assert sum(got.values()) - 1.0 == pytest.approx(10.0)

    def test_same_name_spans_add_up_and_children_are_clipped(self):
        spans = [
            _span("root", 0.0, 4.0, None),
            _span("x", 0.0, 1.0, 0),
            _span("x", 2.0, 3.0, 0),
            _span("late", 3.5, 5.0, 0),  # runs past its parent's end
        ]
        got = self_times(spans)
        assert got["x"] == pytest.approx(2.0)
        assert got["root"] == pytest.approx(1.5)

    def test_recorder_nesting_and_disabled(self):
        rec = SpanRecorder(iteration=3)
        with rec.span("outer"):
            with rec.span("inner"):
                pass
        with rec.span("next"):
            pass
        spans = rec.to_json()
        assert [s["name"] for s in spans] == ["outer", "inner", "next"]
        assert [s["parent"] for s in spans] == [None, 0, None]
        assert all(s["iteration"] == 3 and s["end"] >= s["start"]
                   for s in spans)
        off = SpanRecorder(enabled=False)
        with off.span("outer"):
            pass
        assert off.to_json() == []


class TestStats:
    def test_quartiles_match_statistics_quantiles(self):
        values = [3.0, 1.0, 4.0, 1.5, 9.0, 2.6, 5.0, 3.5, 8.0, 7.0]
        assert quartiles(values) == tuple(statistics.quantiles(values, n=4))
        q1, q2, q3 = quartiles(values)
        assert iqr_share(values) == pytest.approx((q3 - q1) / q2)
        assert median(values) == q2

    def test_single_value_and_zero_median(self):
        assert quartiles([2.5]) == (2.5, 2.5, 2.5)
        assert iqr_share([0.0, 0.0, 0.0]) == 0.0

    def test_percentile_nearest_rank(self):
        values = list(range(1, 101))
        assert percentile(values, 50) == 50
        assert percentile(values, 90) == 90
        assert percentile(values, 100) == 100
        assert percentile(values, 0) == 1
        assert percentile([7.0], 99) == 7.0
        with pytest.raises(ValueError):
            percentile(values, 101)
        with pytest.raises(ValueError):
            percentile([], 50)


class TestCatalog:
    def test_metric_names_use_allowed_characters(self):
        catalog.check_catalog()
        for name in catalog.metric_names():
            assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name)

    def test_bad_name_is_rejected(self, monkeypatch):
        monkeypatch.setattr(catalog, "PER_LAYER",
                            [("bad name", "s", "lower", "", "", "")])
        with pytest.raises(ValueError):
            catalog.check_catalog()

    def test_benchmark_json_is_current(self):
        on_disk = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        assert on_disk == catalog.benchmark_json()
        assert [w["name"] for w in on_disk["workloads"]] == [
            "reference", "sweep", "volumes", "variants"]
        assert "setup_s" in {m["name"] for m in on_disk["end_to_end"]}
        assert all(m["bound"] <= 0.25 for m in on_disk["end_to_end"])


def _result(digests, traced=False):
    return {
        "setup_s": 1.0, "wall_s": 2.0, "work_per_s": 3.0, "peak_rss_mb": 4.0,
        "layers": {}, "digests": digests, "attempted": 1, "failures": [],
        "traced": traced, "elapsed_s": 3.0,
    }


GOOD = {"run": {"makespan": "0x1p-9", "events": 10, "stats": "abc"}}
BAD = {"run": {"makespan": "0x1p-9", "events": 11, "stats": "abc"}}


class TestGoldenCheck:
    def test_compare_names_every_difference(self):
        assert golden.compare(GOOD, GOOD) == []
        assert golden.compare(GOOD, BAD) == ["run"]
        assert golden.compare(GOOD, {}) == ["run"]
        assert golden.compare({}, GOOD) == ["run"]

    def test_mismatch_counts_as_failure(self):
        goldens = {"reference": {str(run.DEFAULT_SEED): GOOD}}
        n, bad = run.golden_failures(
            "reference", run.DEFAULT_SEED, [_result(BAD)], goldens)
        assert n == 1 and bad == ["golden mismatch: run"]
        n, bad = run.golden_failures(
            "reference", run.DEFAULT_SEED, [_result(GOOD)], goldens)
        assert n == 1 and bad == []
        # A held-out seed has no golden but iterations must still agree.
        n, bad = run.golden_failures(
            "reference", 7, [_result(GOOD), _result(BAD)], goldens)
        assert n == 1 and len(bad) == 1

    def test_mismatch_exits_nonzero_with_result(self, monkeypatch, capsys):
        monkeypatch.setattr(
            run, "iterate", lambda *a: ([_result(BAD), _result(BAD)], None))
        monkeypatch.setattr(
            run, "load_goldens",
            lambda: {"reference": {str(run.DEFAULT_SEED): GOOD}})
        code = run.main(["--workload", "reference", "--seconds", "1"])
        out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert code == 1
        assert out["correct"] is False
        assert out["failed"] == 2 and out["attempted"] >= out["failed"]
        assert set(out["metrics"]) == {m[0] for m in catalog.END_TO_END}

    def test_missing_program_exits_without_result(self, monkeypatch, tmp_path,
                                                  capsys):
        monkeypatch.setattr(run, "ROOT", tmp_path)
        assert run.main(["--workload", "volumes"]) == 2
        assert capsys.readouterr().out == ""


class TestDigest:
    @pytest.fixture(scope="class")
    def tiny_run(self):
        from repro.core import ProcessorGrid, SimulatedPSelInv
        from repro.runner import ExperimentSpec, RunRecord
        from repro.sparse import analyze
        from repro.workloads import make_workload

        prob = analyze(make_workload("audikw_1", "tiny"), max_supernode=8)
        grid = ProcessorGrid(2, 2)
        res = SimulatedPSelInv(prob.struct, grid, "binary", seed=1).run()
        rec = RunRecord.from_result(
            ExperimentSpec("audikw_1", (2, 2), "binary", scale="tiny"), res)
        return res, rec

    def test_stats_and_record_digest_alike(self, tiny_run):
        res, rec = tiny_run
        assert golden.des_digest(res.makespan, res.events, res.stats) == \
            golden.des_digest(rec.makespan, rec.events, rec)

    def test_one_byte_changes_the_digest(self, tiny_run):
        _, rec = tiny_run
        before = golden.stats_digest(rec)
        kind = next(iter(rec.sent))
        rec.sent[kind] = rec.sent[kind].copy()
        rec.sent[kind][0] += 8
        assert golden.stats_digest(rec) != before
