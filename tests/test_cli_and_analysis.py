"""Tests for the CLI and the analysis helpers."""

import pytest

from repro.analysis.report import (
    build_report,
    result_to_markdown,
    run_experiments,
)
from repro.analysis.shapes import (
    crossover_load,
    improvement_factor,
    is_flat,
    is_monotonic_increasing,
    saturates,
)
from repro.cli import build_parser, main
from repro.experiments import EXPERIMENT_MODULES, load_experiment
from repro.experiments.common import ExperimentResult, ExperimentScale
from repro.sweep import RunSpec

MICRO = ExperimentScale(
    name="micro",
    num_tors=8,
    ports_per_tor=2,
    awgr_ports=4,
    duration_ns=60_000.0,
    loads=(0.5,),
    incast_degrees=(1, 3),
    alltoall_flow_kb=(1, 5),
    max_flow_bytes=100_000,
)


class TestShapes:
    def test_improvement_factor(self):
        assert improvement_factor(100.0, 10.0) == pytest.approx(10.0)
        with pytest.raises(ValueError):
            improvement_factor(1.0, 0.0)

    def test_is_flat(self):
        assert is_flat([10.0, 11.0, 10.5])
        assert not is_flat([10.0, 20.0])
        with pytest.raises(ValueError):
            is_flat([])
        with pytest.raises(ValueError):
            is_flat([0.0, 1.0])

    def test_is_monotonic_increasing(self):
        assert is_monotonic_increasing([1.0, 2.0, 3.0])
        assert not is_monotonic_increasing([1.0, 0.5])
        assert is_monotonic_increasing([1.0, 0.95], slack=0.1)

    def test_saturates(self):
        loads = [0.1, 0.5, 1.0]
        assert saturates(loads, [0.1, 0.45, 0.6])
        assert not saturates(loads, [0.1, 0.49, 0.95])
        with pytest.raises(ValueError):
            saturates([0.1], [0.1])

    def test_crossover_load(self):
        loads = [0.1, 0.5, 1.0]
        assert crossover_load(loads, [0.0, 0.6, 0.9], [0.1, 0.5, 0.6]) == 0.5
        assert crossover_load(loads, [0.0, 0.0, 0.0], [1.0, 1.0, 1.0]) is None


class TestReport:
    def sample_result(self):
        result = ExperimentResult(
            experiment="Table X",
            title="demo",
            headers=["a", "b"],
        )
        result.add_row("x", 1.2345)
        result.notes.append("a note")
        return result

    def test_markdown_rendering(self):
        text = result_to_markdown(self.sample_result())
        assert "### Table X — demo" in text
        assert "| a | b |" in text
        assert "| x | 1.234 |" in text
        assert "*a note*" in text

    def test_build_report_includes_scale(self):
        text = build_report({"x": self.sample_result()}, MICRO)
        assert "`micro`" in text
        assert "8 ToRs x 2 ports" in text

    def test_run_experiments_subset(self):
        results = run_experiments(["efficiency"], MICRO)
        assert set(results) == {"efficiency"}
        assert results["efficiency"].rows


class TestCLI:
    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig9" in out
        assert "paper" in out

    def test_run_unknown_experiment(self, capsys):
        assert main(["run", "fig99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_unknown_name_rejections_share_one_message_shape(self, capsys):
        """All unknown-name paths emit the identical exit-2 diagnostic.

        Before the _reject_unknown helper, run/golden said "(try: python -m
        repro list)" while sweep/bench said "(choose from ...)"; the shape
        is now pinned — via spec.unknown_name_message — so no path can
        drift apart again.  The system/engine cases additionally pin the
        registry contents: every message must enumerate ``adaptive``.
        """
        import re

        cases = [
            (["run", "fig99"], "experiment", "fig99"),
            (["golden", "fig99"], "experiment", "fig99"),
            (["sweep", "--scenario", "fig99", "--dry-run"], "scenario", "fig99"),
            (["bench", "--scenario", "fig99"], "scenario", "fig99"),
            (["sweep", "--system", "torus", "--dry-run"], "system", "torus"),
            (["simulate", "--system", "torus"], "system", "torus"),
            (
                ["bench", "--scale", "--engine", "torus", "--flows", "10"],
                "engine",
                "torus",
            ),
        ]
        shape = re.compile(
            r"^unknown (experiment|scenario|system|engine)\(s\): \w+ "
            r"\(choose from [\w, .-]+\)$"
        )
        for argv, kind, name in cases:
            assert main(argv) == 2, argv
            err = capsys.readouterr().err.strip()
            assert shape.fullmatch(err), (argv, err)
            assert err.startswith(f"unknown {kind}(s): {name} (choose from ")
            if kind in ("system", "engine"):
                assert "adaptive" in err, (argv, err)

    def test_spec_and_cli_unknown_system_messages_match(self):
        """The spec layer and the CLI reject unknown systems identically."""
        from repro.experiments.common import TINY, make_topology
        from repro.sweep.spec import SYSTEMS, TOPOLOGIES, unknown_name_message

        with pytest.raises(ValueError) as excinfo:
            RunSpec(scale="tiny", system="torus")
        assert str(excinfo.value) == unknown_name_message(
            "system", ["torus"], SYSTEMS
        )
        assert "adaptive" in str(excinfo.value)
        # Topologies share the shape, at the spec and at the fabric builder.
        expected = unknown_name_message("topology", ["torus"], TOPOLOGIES)
        with pytest.raises(ValueError) as excinfo:
            RunSpec(scale="tiny", topology="torus")
        assert str(excinfo.value) == expected
        with pytest.raises(ValueError) as excinfo:
            make_topology(TINY, "torus")
        assert str(excinfo.value) == expected

    @pytest.mark.parametrize("command", [["sweep"], ["campaign", "run"]])
    def test_dry_run_rejects_unsupported_system_features(
        self, command, tmp_path, capsys
    ):
        """A grid pairing a system with a feature it lacks fails the dry
        run (exit 2) instead of failing later inside a worker."""
        argv = [
            *command,
            "--scale", "micro",
            "--system", "negotiator",
            "--system", "oblivious",
            "--scheduler", "iterative",
            "--load", "0.5",
            "--dry-run",
        ]
        if command[0] == "campaign":
            argv += ["--store", str(tmp_path / "c.jsonl")]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert "scheduler variants apply to the negotiator" in captured.err
        assert "specs" not in captured.out

    def test_run_fast_experiment(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "tiny")
        assert main(["run", "efficiency"]) == 0
        out = capsys.readouterr().out
        assert "matching efficiency" in out

    def test_report_to_file(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "tiny")
        target = tmp_path / "report.md"
        assert main(
            ["report", "--experiments", "efficiency", "--output", str(target)]
        ) == 0
        assert "matching efficiency" in target.read_text()


class TestSimulateCommand:
    def test_simulate_negotiator(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "tiny")
        code = main(
            ["simulate", "--load", "0.5", "--duration-ms", "0.1", "--seed", "3"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "negotiator on parallel" in out
        assert "goodput" in out

    def test_simulate_oblivious_thinclos(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "tiny")
        code = main(
            ["simulate", "--system", "oblivious", "--topology", "thinclos",
             "--load", "0.5", "--duration-ms", "0.1"]
        )
        assert code == 0
        assert "oblivious on thinclos" in capsys.readouterr().out

    def test_simulate_rotor_thinclos(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "tiny")
        code = main(
            ["simulate", "--system", "rotor", "--topology", "thinclos",
             "--load", "0.5", "--duration-ms", "0.1"]
        )
        assert code == 0
        assert "rotor on thinclos" in capsys.readouterr().out

    def test_simulate_from_workload_file(self, capsys, tmp_path, monkeypatch):
        from repro.sim.flows import Flow
        from repro.workloads import trace_io

        monkeypatch.setenv("REPRO_SCALE", "tiny")
        path = tmp_path / "wl.csv"
        trace_io.save(
            [Flow(fid=0, src=0, dst=1, size_bytes=500, arrival_ns=0.0)], path
        )
        code = main(
            ["simulate", "--workload-file", str(path), "--duration-ms", "0.05"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "1/1" in out

    def test_simulate_rejects_oversized_workload_file(
        self, tmp_path, monkeypatch
    ):
        from repro.sim.flows import Flow
        from repro.workloads import trace_io

        monkeypatch.setenv("REPRO_SCALE", "tiny")
        path = tmp_path / "wl.csv"
        trace_io.save(
            [Flow(fid=0, src=0, dst=99, size_bytes=500, arrival_ns=0.0)], path
        )
        with pytest.raises(ValueError, match="out of range"):
            main(["simulate", "--workload-file", str(path)])

    def test_simulate_no_pq(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "tiny")
        code = main(
            ["simulate", "--no-pq", "--load", "0.3", "--duration-ms", "0.1"]
        )
        assert code == 0


class TestExperimentRegistry:
    def test_registry_is_complete(self):
        """Every table and figure of the evaluation has an experiment."""
        expected = {
            "table2", "table3", "table4", "table5", "table6",
            "fig6", "fig7a", "fig7b", "fig8", "fig9", "fig10", "fig11",
            "fig12", "fig13", "fig14", "fig15", "fig17_18", "fig19",
            "fig9_rotor_baseline", "fig9_adaptive_baseline", "efficiency",
        }
        assert set(EXPERIMENT_MODULES) == expected

    def test_load_experiment_unknown(self):
        with pytest.raises(ValueError):
            load_experiment("fig42")

    def test_every_module_has_run(self):
        for name in EXPERIMENT_MODULES:
            module = load_experiment(name)
            assert callable(module.run)
