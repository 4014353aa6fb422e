"""CLI robustness surface: --strict / --lenient sweeps and `repro doctor`."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main

SRC = Path(__file__).resolve().parents[2] / "src"

DEGENERATE_SWEEP = ["--sweep", "G2=0:4:8", "--sweep", "C2=0.5:3:6"]
CLEAN_SWEEP = ["--sweep", "G2=0.5:4:8", "--sweep", "C2=0.5:3:6"]


@pytest.fixture(scope="module")
def model_file(fig1_model, tmp_path_factory):
    path = tmp_path_factory.mktemp("models") / "fig1.tape"
    fig1_model.model.tape.save(path)
    return path


class TestEvaluateModes:
    def test_lenient_default_completes_and_reports(self, model_file, capsys):
        rc = main(["evaluate", str(model_file), *DEGENERATE_SWEEP])
        assert rc == 0
        out = capsys.readouterr().out
        assert "6 NaN" in out            # the G2 == 0 column of the grid
        assert "6 point(s) quarantined" in out
        assert "repro doctor" in out

    def test_explicit_lenient_flag(self, model_file, capsys):
        rc = main(["evaluate", str(model_file), "--lenient",
                   *DEGENERATE_SWEEP])
        assert rc == 0

    def test_strict_fails_fast(self, model_file, capsys):
        rc = main(["evaluate", str(model_file), "--strict",
                   *DEGENERATE_SWEEP])
        assert rc == 1
        err = capsys.readouterr().err
        assert "error:" in err
        assert "singular" in err

    def test_strict_on_clean_range_passes(self, model_file, capsys):
        rc = main(["evaluate", str(model_file), "--strict", *CLEAN_SWEEP])
        assert rc == 0
        assert "quarantined" not in capsys.readouterr().out

    def test_diagnostics_json_export(self, model_file, tmp_path, capsys):
        report = tmp_path / "diag.json"
        rc = main(["evaluate", str(model_file), *DEGENERATE_SWEEP,
                   "--diagnostics", str(report)])
        assert rc == 0
        payload = json.loads(report.read_text())
        assert payload["points"] == 48
        assert len(payload["quarantined"]) == 6


class TestDoctor:
    def test_degenerate_sweep_is_unhealthy(self, model_file, tmp_path,
                                           capsys):
        report = tmp_path / "doctor.json"
        rc = main(["doctor", str(model_file), *DEGENERATE_SWEEP,
                   "--json", str(report)])
        assert rc == 1
        out = capsys.readouterr().out
        assert "sweep diagnostics (lenient)" in out
        assert "quarantined" in out
        payload = json.loads(report.read_text())
        assert payload["quarantined"][0]["stage"] == "moments"

    def test_clean_sweep_is_healthy(self, model_file, capsys):
        rc = main(["doctor", str(model_file), *CLEAN_SWEEP])
        assert rc == 0
        assert "0 quarantined" in capsys.readouterr().out

    def test_cache_scan_reports_and_fixes(self, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        cache_dir.mkdir()
        (cache_dir / "awesym-feedface.json").write_text("{broken")

        rc = main(["doctor", "--cache-dir", str(cache_dir)])
        assert rc == 2  # corrupt entries are severity 2, not a mere warning
        assert "1 unhealthy" in capsys.readouterr().out

        rc = main(["doctor", "--cache-dir", str(cache_dir), "--fix"])
        assert rc == 2  # reported while fixing
        assert "quarantined" in capsys.readouterr().out

        rc = main(["doctor", "--cache-dir", str(cache_dir)])
        assert rc == 0  # now clean
        assert "0 unhealthy" in capsys.readouterr().out

    def test_orphan_tmp_is_a_warning_not_corruption(self, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        cache_dir.mkdir()
        (cache_dir / "awesym-feedface.json.tmp.123").write_text("partial")

        rc = main(["doctor", "--cache-dir", str(cache_dir)])
        assert rc == 1  # untidy (crashed writer), but no data is at risk
        assert "orphan-tmp" in capsys.readouterr().out

    @pytest.mark.parametrize("orphans,status", [(0, 0), (2000, 2)])
    def test_closed_pipe_keeps_the_graded_status(self, tmp_path, orphans,
                                                 status):
        """``repro doctor --cache-dir D | head -1``: the reader closes the
        pipe after one line.  Doctor exits with its graded status and
        writes nothing to stderr, whether its report fitted in the pipe
        (a healthy cache) or was cut short by the closed pipe (2,000
        orphaned temp files and a corrupt entry: a report larger than
        the pipe's buffer)."""
        cache_dir = tmp_path / "cache"
        cache_dir.mkdir()
        if orphans:
            (cache_dir / "awesym-feedface.json").write_text("{broken")
        for i in range(orphans):
            (cache_dir / f"awesym-{i:032x}.json.tmp.1").write_text("")
        env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONUNBUFFERED="1")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "doctor", "--cache-dir",
             str(cache_dir)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=120) == status
        assert first.startswith(b"cache ")
        assert err == b""

    def test_doctor_needs_a_target(self, capsys):
        rc = main(["doctor"])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_doctor_model_needs_sweep(self, model_file, capsys):
        rc = main(["doctor", str(model_file)])
        assert rc == 1
        assert "--sweep" in capsys.readouterr().err
