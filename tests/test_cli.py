"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main

#: layers a plain ``synth`` never executes, so must never import
COLD_SYNTH_UNUSED = (
    "repro.explore.engine",
    "repro.obs.history",
    "repro.obs.events",
    "repro.map.mapper",
    "repro.opt.manager",
    "repro.place.runner",
    "repro.verify.runner",
    "concurrent.futures.process",
)


class TestParser:
    def test_version(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_parser_has_all_subcommands(self):
        parser = build_parser()
        text = parser.format_help()
        for command in ("list-designs", "synth", "compare", "table1", "table2"):
            assert command in text


class TestCommands:
    def test_list_designs(self, capsys):
        assert main(["list-designs"]) == 0
        out = capsys.readouterr().out
        assert "x2" in out
        assert "serial_adapter" in out

    def test_synth_with_reports(self, capsys):
        code = main(
            ["synth", "--design", "x2", "--method", "fa_aot", "--timing", "--power"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "fa_aot" in out
        assert "Timing report" in out
        assert "Power report" in out

    def test_synth_writes_verilog(self, tmp_path, capsys):
        target = tmp_path / "x2.v"
        code = main(["synth", "--design", "x2", "--verilog", str(target)])
        assert code == 0
        text = target.read_text()
        assert "module x2_fa_aot(" in text
        assert "endmodule" in text

    def test_synth_random_probabilities(self, capsys):
        assert main(["synth", "--design", "x2", "--random-probabilities"]) == 0

    def test_synth_unit_library(self, capsys):
        assert main(["synth", "--design", "x2", "--library", "unit"]) == 0

    def test_unknown_library_rejected(self):
        with pytest.raises(SystemExit):
            main(["synth", "--design", "x2", "--library", "bogus"])

    def test_compare(self, capsys):
        code = main(["compare", "--design", "x2", "--methods", "fa_aot", "wallace"])
        assert code == 0
        out = capsys.readouterr().out
        assert "fa_aot" in out and "wallace" in out

    def test_table1_single_design(self, capsys):
        code = main(["table1", "--designs", "x2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Table 1" in out

    def test_table2_single_design(self, capsys):
        code = main(["table2", "--designs", "serial_adapter"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Table 2" in out


class TestOptFlags:
    def test_synth_with_opt(self, capsys):
        assert main(["synth", "--design", "x2", "--opt", "2", "--opt-validate"]) == 0
        out = capsys.readouterr().out
        assert "-O2" in out
        assert "Optimization pipeline" in out
        assert "equivalence: ok" in out

    def test_synth_opt_json_records_level(self, capsys):
        assert main(["synth", "--design", "x2", "--opt", "1", "--json", "-"]) == 0
        out = capsys.readouterr().out
        payload = json.loads(out[out.index("{"):])
        assert payload["opt_level"] == 1
        assert payload["pre_opt_cell_count"] >= payload["cell_count"]

    def test_synth_rejects_bad_opt_level(self):
        with pytest.raises(SystemExit):
            main(["synth", "--design", "x2", "--opt", "5"])

    def test_compare_with_opt(self, capsys):
        code = main(
            ["compare", "--design", "x2", "--methods", "fa_aot", "--opt", "2"]
        )
        assert code == 0
        assert "-O2" in capsys.readouterr().out

    def test_explore_opt_levels_axis(self, capsys):
        code = main(
            ["explore", "--designs", "x2", "--methods", "fa_aot",
             "--opt-levels", "0", "2"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "-O0" in out and "-O2" in out


class TestColdStart:
    def test_synth_imports_only_the_layers_it_runs(self, fresh_interpreter):
        loaded = fresh_interpreter(
            "import contextlib, io, json, sys\n"
            "from repro.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert main(['synth', '--design', 'x2']) == 0\n"
            "print(json.dumps(sorted(sys.modules)))\n"
        )
        assert sorted(set(COLD_SYNTH_UNUSED) & set(loaded)) == []

    def test_sweep_imports_stage_backends_before_the_pool_forks(
        self, fresh_interpreter
    ):
        report = fresh_interpreter(
            "import json, sys\n"
            "import repro.explore\n"
            "from repro.explore import SweepSpec, run_sweep\n"
            "from repro.explore import engine\n"
            "forks = []\n"
            "start_worker = engine._start_worker\n"
            "def recording_start(worker):\n"
            "    forks.append(sorted(sys.modules))\n"
            "    return start_worker(worker)\n"
            "engine._start_worker = recording_start\n"
            "spec = SweepSpec(designs=('x2',), methods=('fa_aot', 'wallace'))\n"
            "sweep = run_sweep(spec, jobs=2)\n"
            "print(json.dumps({'ok': sweep.ok, 'forks': forks}))\n"
        )
        from repro.api.stages import BACKEND_MODULES

        assert report["ok"] and report["forks"]
        for loaded in report["forks"]:
            assert sorted(set(BACKEND_MODULES) - set(loaded)) == []

    def test_flow_imports_its_backends_before_the_spans_open(self, fresh_interpreter):
        """A cold run's stage spans time the stage's work, not its import."""
        loaded = fresh_interpreter(
            "import json, sys\n"
            "from repro import obs\n"
            "from repro.api import Flow, FlowConfig\n"
            "from repro.api.stages import BACKEND_MODULES\n"
            "opened = {}\n"
            "class Tracer(obs.Tracer):\n"
            "    def span(self, name, **attrs):\n"
            "        backends = [m for m in BACKEND_MODULES if m in sys.modules]\n"
            "        opened.setdefault(name, backends)\n"
            "        return super().span(name, **attrs)\n"
            "config = FlowConfig(method='wallace', opt_level=2,\n"
            "                    target_lib='nand2_basis', place=True)\n"
            "with obs.tracing(Tracer()):\n"
            "    Flow(config).run('x2')\n"
            "print(json.dumps(opened['flow.run']))\n"
        )
        assert loaded == [
            "repro.baselines.wallace",
            "repro.map.mapper",
            "repro.opt.manager",
            "repro.place.runner",
        ]
