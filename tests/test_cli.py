import pytest

from repro.cli import main

LINEAR = """* demo lowpass
Vin in 0 AC 1
R1 in out 1k
C1 out 0 1n
.end
"""

DEVICE = """* one-transistor amplifier
Vcc vcc 0 10
Vin b 0 DC 0.65 AC 1
Rc vcc c 5k
Q1 c b 0 IS=1e-15 BF=100 VAF=75 CJE=2p CJC=1p TF=0.5n
.end
"""


@pytest.fixture
def linear_netlist(tmp_path):
    path = tmp_path / "lowpass.sp"
    path.write_text(LINEAR)
    return path


@pytest.fixture
def device_netlist(tmp_path):
    path = tmp_path / "amp.sp"
    path.write_text(DEVICE)
    return path


class TestAnalyze:
    def test_plain_awe(self, linear_netlist, capsys):
        rc = main(["analyze", str(linear_netlist), "-o", "out", "--order", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "dc gain     1" in out
        assert "pole -1e+06" in out

    def test_explicit_symbols(self, linear_netlist, capsys):
        rc = main(["analyze", str(linear_netlist), "-o", "out",
                   "--symbols", "C1", "--order", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "symbolic blocks: C1" in out
        assert "symbolic first-order pole" in out

    def test_auto_symbols(self, linear_netlist, capsys):
        rc = main(["analyze", str(linear_netlist), "-o", "out",
                   "--auto-symbols", "2", "--order", "1"])
        assert rc == 0
        assert "symbolic blocks" in capsys.readouterr().out

    def test_at_overrides(self, linear_netlist, capsys):
        rc = main(["analyze", str(linear_netlist), "-o", "out",
                   "--symbols", "C1", "--order", "1", "--at", "C1=2n"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "at C1=2n" in out
        assert "-500000" in out  # pole halves when C doubles

    def test_devices_flow(self, device_netlist, capsys):
        rc = main(["analyze", str(device_netlist), "-o", "c", "--devices",
                   "--order", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "DC operating point" in out
        assert "Q1" in out
        assert "dc gain" in out

    def test_bad_at_spec(self, linear_netlist, capsys):
        rc = main(["analyze", str(linear_netlist), "-o", "out",
                   "--symbols", "C1", "--at", "C1"])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_unknown_output_reports_error(self, linear_netlist, capsys):
        rc = main(["analyze", str(linear_netlist), "-o", "nope"])
        assert rc == 1
        assert "error:" in capsys.readouterr().err


class TestSaveEvaluate:
    def test_save_then_evaluate(self, linear_netlist, tmp_path, capsys):
        saved = tmp_path / "model.json"
        rc = main(["analyze", str(linear_netlist), "-o", "out",
                   "--symbols", "C1", "--order", "1",
                   "--save", str(saved)])
        assert rc == 0
        assert saved.exists()
        capsys.readouterr()
        rc = main(["evaluate", str(saved), "--at", "C1=2n"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "saved model" in out
        assert "-500000" in out  # pole at doubled C

    def test_save_writes_the_emitted_tape(self, linear_netlist, tmp_path,
                                          capsys):
        """One artifact: a cold ``analyze --save``, a disk-hit one and
        ``compile --emit-tape`` write the same bytes."""
        build = [str(linear_netlist), "-o", "out", "--symbols", "C1",
                 "--order", "1"]
        cache = ["--cache-dir", str(tmp_path / "cache")]
        cold, warm = tmp_path / "cold.json", tmp_path / "warm.json"
        emitted = tmp_path / "lowpass.tape"
        assert main(["analyze", *build, *cache, "--save", str(cold)]) == 0
        assert main(["analyze", *build, *cache, "--save", str(warm)]) == 0
        assert "disk 1 hits" in capsys.readouterr().out
        assert main(["compile", *build, "--emit-tape", str(emitted)]) == 0
        assert cold.read_bytes() == warm.read_bytes() == \
            emitted.read_bytes()

    def test_evaluate_bad_override(self, linear_netlist, tmp_path, capsys):
        saved = tmp_path / "model.json"
        main(["analyze", str(linear_netlist), "-o", "out",
              "--symbols", "C1", "--order", "1", "--save", str(saved)])
        capsys.readouterr()
        rc = main(["evaluate", str(saved), "--at", "R1=5"])
        assert rc == 1
        assert "error:" in capsys.readouterr().err


class TestCompileTape:
    def test_compile_emit_then_sweep_tape(self, linear_netlist, tmp_path,
                                          capsys):
        tape = tmp_path / "lowpass.tape"
        rc = main(["compile", str(linear_netlist), "-o", "out",
                   "--symbols", "C1", "--order", "1",
                   "--emit-tape", str(tape)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "op tape:" in out and tape.exists()
        rc = main(["sweep", "--tape", str(tape),
                   "--sweep", "C1=0.5n:2n:5", "--metric",
                   "dominant_pole_hz"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "tape model:" in out
        assert "5 points, 0 NaN" in out

    def test_sweep_without_netlist_or_tape_errors(self, capsys):
        rc = main(["sweep", "--sweep", "C1=0.5n:2n:5"])
        assert rc == 1
        assert "netlist" in capsys.readouterr().err

    def test_sweep_corrupt_tape_refused(self, linear_netlist, tmp_path,
                                        capsys):
        import json

        tape = tmp_path / "lowpass.tape"
        main(["compile", str(linear_netlist), "-o", "out",
              "--symbols", "C1", "--order", "1", "--emit-tape", str(tape)])
        capsys.readouterr()
        payload = json.loads(tape.read_text())
        payload["consts"][0] = repr(float(payload["consts"][0]) + 0.5)
        tape.write_text(json.dumps(payload))
        rc = main(["sweep", "--tape", str(tape),
                   "--sweep", "C1=0.5n:2n:5"])
        assert rc == 1
        assert "corrupt" in capsys.readouterr().err


class TestProfile:
    """``profile`` reads the model tape that ``analyze --save`` (the
    ``json`` case) and ``compile --emit-tape`` (``tape``) write."""

    @pytest.fixture
    def inputs(self, linear_netlist, tmp_path, capsys):
        saved = tmp_path / "model.json"
        tape = tmp_path / "lowpass.tape"
        main(["analyze", str(linear_netlist), "-o", "out",
              "--symbols", "C1", "--order", "1", "--save", str(saved)])
        main(["compile", str(linear_netlist), "-o", "out",
              "--symbols", "C1", "--order", "1", "--emit-tape", str(tape)])
        capsys.readouterr()
        return {"json": saved, "tape": tape}

    @pytest.mark.parametrize("kind", ["json", "tape"])
    def test_profile_each_input_kind(self, inputs, kind, tmp_path, capsys):
        import json

        report = tmp_path / f"profile-{kind}.json"
        rc = main(["profile", str(inputs[kind]), "--sweep", "C1=0.5n:2n:64",
                   "--top", "3", "--json", str(report)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "op profile:" in out and "64 points/batch" in out
        payload = json.loads(report.read_text())
        assert payload["n_points"] == 64
        assert payload["n_entries"] > 0
        assert any("C1" in e["expr"] for e in payload["entries"])

    def test_profile_rejects_unknown_json(self, tmp_path, capsys):
        bogus = tmp_path / "bogus.json"
        bogus.write_text("{}")
        rc = main(["profile", str(bogus), "--sweep", "C1=0.5n:2n:4"])
        assert rc == 1
        err = capsys.readouterr().err
        assert "not an op tape" in err and "repro analyze --save" in err


class TestMisc:
    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_figures_command(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_SEGMENTS", "25")
        import repro.reporting.figures as figures
        monkeypatch.setattr(figures, "GRID_N", 2)
        rc = main(["figures", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "table1_runtimes.csv").exists()
