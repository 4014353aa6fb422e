"""CLI observability surface: --trace / --metrics-dir, trace, profile."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.cli import main

NETLIST = str(Path(__file__).resolve().parents[2]
              / "examples" / "netlists" / "fig1.sp")
SWEEP = ["--sweep", "C1=0.5:4:4", "--sweep", "C2=0.5:3:4"]
BUILD = [NETLIST, "-o", "out", "-s", "C1,C2"]

# the acceptance taxonomy: one `repro sweep --trace` must show the whole
# compile -> sweep pipeline
REQUIRED_SPANS = {
    "netlist.parse", "mna.assemble", "partition.build",
    "moments.assemble", "moments.recursion", "pade.closed_form",
    "compile.moments", "compile.codegen", "cache.lookup", "cache.build",
    "sweep.total", "sweep.evaluate", "sweep.shard",
}


def _span_names(trace_file):
    payload = json.loads(trace_file.read_text())
    return {e["name"] for e in payload["traceEvents"] if e.get("ph") == "B"}


@pytest.fixture(scope="module")
def model_file(fig1_model, tmp_path_factory):
    path = tmp_path_factory.mktemp("models") / "fig1.tape"
    fig1_model.model.tape.save(path)
    return path


class TestSweepTrace:
    def test_sweep_trace_covers_pipeline(self, tmp_path, capsys,
                                         fresh_registry):
        trace = tmp_path / "trace.json"
        rc = main(["sweep", *BUILD, *SWEEP, "--shards", "2",
                   "--trace", str(trace)])
        assert rc == 0
        missing = REQUIRED_SPANS - _span_names(trace)
        assert not missing, f"trace is missing spans: {sorted(missing)}"
        out = capsys.readouterr().out
        assert "perfetto" in out

    def test_trace_is_balanced(self, tmp_path, capsys, fresh_registry):
        trace = tmp_path / "trace.json"
        assert main(["sweep", *BUILD, *SWEEP, "--trace", str(trace)]) == 0
        events = json.loads(trace.read_text())["traceEvents"]
        depth = {}
        for e in events:
            if e.get("ph") == "B":
                depth[e["tid"]] = depth.get(e["tid"], 0) + 1
            elif e.get("ph") == "E":
                depth[e["tid"]] = depth[e["tid"]] - 1
                assert depth[e["tid"]] >= 0
        assert all(d == 0 for d in depth.values())

    def test_metrics_dir_export(self, tmp_path, capsys, fresh_registry):
        mdir = tmp_path / "metrics"
        rc = main(["sweep", *BUILD, *SWEEP, "--metrics-dir", str(mdir)])
        assert rc == 0
        prom = (mdir / "metrics.prom").read_text()
        assert "repro_sweep_runs_total 1" in prom
        assert "repro_sweep_points_total 16" in prom
        assert "repro_compile_programs_total" in prom
        lines = (mdir / "events.jsonl").read_text().splitlines()
        assert json.loads(lines[0])["kind"] == "header"
        assert json.loads(lines[-1])["kind"] == "metrics"

    def test_stats_json(self, tmp_path, capsys, fresh_registry):
        stats = tmp_path / "stats.json"
        rc = main(["sweep", *BUILD, *SWEEP, "--stats-json", str(stats)])
        assert rc == 0
        payload = json.loads(stats.read_text())
        assert payload["points"] == 16
        assert "parallel_efficiency" in payload
        assert "points_per_second" in payload


class TestTraceCommand:
    def test_compile_only_trace(self, tmp_path, capsys, fresh_registry):
        out = tmp_path / "compile.json"
        rc = main(["trace", *BUILD, "--out", str(out)])
        assert rc == 0
        names = _span_names(out)
        assert "netlist.parse" in names
        assert "compile.moments" in names
        assert "sweep.total" not in names  # no --sweep requested

    def test_out_default_overridden_by_trace_flag(self, tmp_path, capsys,
                                                  fresh_registry):
        target = tmp_path / "explicit.json"
        rc = main(["trace", *BUILD, "--trace", str(target)])
        assert rc == 0
        assert target.exists()


class TestProfileCommand:
    def test_prints_hot_op_table(self, model_file, capsys, fresh_registry):
        rc = main(["profile", str(model_file), "--sweep", "C1=0.5:4:8",
                   "--sweep", "C2=0.5:3:8", "--top", "5"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "op profile:" in out
        assert "% attributed to ops" in out
        assert "expression" in out

    def test_json_export(self, model_file, tmp_path, capsys, fresh_registry):
        path = tmp_path / "profile.json"
        rc = main(["profile", str(model_file), "--sweep", "C1=0.5:4:8",
                   "--json", str(path)])
        assert rc == 0
        payload = json.loads(path.read_text())
        assert payload["coverage"] >= 0.9
        assert payload["entries"]

    def test_requires_sweep_grid(self, model_file, capsys, fresh_registry):
        rc = main(["profile", str(model_file)])
        assert rc == 1
        assert "needs at least one --sweep" in capsys.readouterr().err
