"""Unit tests for the verification helpers and the command-line interface."""

import pytest

from repro.arch.devices import ibm_qx4
from repro.benchlib.generators import benchmark_circuit, random_clifford_t_circuit
from repro.circuit.circuit import QuantumCircuit
from repro.circuit.qasm import to_qasm
from repro.cli import build_parser, main
from repro.exact import sat_mapper
from repro.exact.dp_mapper import DPMapper
from repro.verify import check_coupling_compliance, count_added_operations, verify_result


@pytest.fixture(autouse=True)
def _no_cache_dir_from_environment(monkeypatch):
    # Without --cache-dir the CLI reads $REPRO_CACHE_DIR; no test here may
    # read or write the store of the environment it runs in.
    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)


class TestCompliance:
    def test_compliant_circuit(self):
        circuit = QuantumCircuit(5)
        circuit.cx(1, 0)
        circuit.cx(3, 4)
        report = check_coupling_compliance(circuit, ibm_qx4())
        assert report.compliant
        assert report.cnot_count == 2

    def test_violations_are_listed(self):
        circuit = QuantumCircuit(5)
        circuit.cx(0, 1)  # wrong direction
        circuit.cx(0, 4)  # not coupled at all
        report = check_coupling_compliance(circuit, ibm_qx4())
        assert not report.compliant
        assert (0, 0, 1) in report.violations
        assert (1, 0, 4) in report.violations

    def test_swap_gates_accepted_on_coupled_pairs(self):
        circuit = QuantumCircuit(5)
        circuit.swap(0, 1)
        assert check_coupling_compliance(circuit, ibm_qx4()).compliant
        circuit.swap(0, 4)
        assert not check_coupling_compliance(circuit, ibm_qx4()).compliant

    def test_count_added_operations(self):
        original = QuantumCircuit(2)
        original.cx(0, 1)
        mapped = QuantumCircuit(5)
        mapped.cx(1, 0)
        mapped.h(0)
        mapped.h(1)
        mapped.h(0)
        mapped.h(1)
        assert count_added_operations(original, mapped) == 4

    def test_verify_result_checks_cost_bookkeeping(self):
        circuit = random_clifford_t_circuit(4, 3, 6, seed=1)
        result = DPMapper(ibm_qx4()).map(circuit)
        report = verify_result(result, ibm_qx4())
        assert report.compliant


class TestCLI:
    def _write_qasm(self, tmp_path, circuit):
        path = tmp_path / "circuit.qasm"
        path.write_text(to_qasm(circuit))
        return str(path)

    def test_parser_defaults(self):
        parser = build_parser()
        args = parser.parse_args(["file.qasm"])
        assert args.arch == "ibm_qx4"
        assert args.engine == "dp"

    def test_dp_engine_end_to_end(self, tmp_path, capsys):
        circuit = QuantumCircuit(3)
        circuit.h(0)
        circuit.cx(0, 1)
        circuit.cx(1, 2)
        path = self._write_qasm(tmp_path, circuit)
        exit_code = main([path, "--arch", "qx4", "--engine", "dp", "--verify"])
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "added operations" in captured
        assert "equivalence check : passed" in captured

    def test_output_file_is_written(self, tmp_path, capsys):
        circuit = QuantumCircuit(2)
        circuit.cx(0, 1)
        path = self._write_qasm(tmp_path, circuit)
        output = tmp_path / "mapped.qasm"
        exit_code = main([path, "--engine", "stochastic", "--trials", "2",
                          "--output", str(output)])
        assert exit_code == 0
        assert output.exists()
        text = output.read_text()
        assert text.startswith("OPENQASM 2.0;")

    def test_heuristic_engines(self, tmp_path, capsys):
        circuit = QuantumCircuit(3)
        circuit.cx(0, 1)
        circuit.cx(1, 2)
        circuit.cx(0, 2)
        path = self._write_qasm(tmp_path, circuit)
        assert main([path, "--engine", "sabre"]) == 0
        assert main([path, "--engine", "stochastic", "--trials", "1"]) == 0

    def test_sat_engine_with_strategy(self, tmp_path, capsys):
        circuit = QuantumCircuit(3)
        circuit.cx(0, 1)
        circuit.cx(1, 2)
        path = self._write_qasm(tmp_path, circuit)
        exit_code = main(
            [path, "--engine", "sat", "--strategy", "triangle", "--subsets"]
        )
        assert exit_code == 0

    def test_split_window_promotes_sat_engine(self, tmp_path, capsys):
        circuit = QuantumCircuit(6)
        circuit.cx(0, 1)
        circuit.cx(2, 3)
        circuit.cx(4, 5)
        circuit.cx(0, 5)
        path = self._write_qasm(tmp_path, circuit)
        exit_code = main(
            [path, "--arch", "ibm_qx5", "--engine", "sat",
             "--split-window", "2", "--verify"]
        )
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "engine            : sat_split" in captured
        assert "equivalence check : passed" in captured

    def test_split_window_rejects_other_engines(self, tmp_path):
        circuit = QuantumCircuit(2)
        circuit.cx(0, 1)
        path = self._write_qasm(tmp_path, circuit)
        with pytest.raises(SystemExit):
            main([path, "--engine", "dp", "--split-window", "4"])
        with pytest.raises(SystemExit):
            main([path, "--engine", "sat", "--split-window", "0"])

    def test_unknown_architecture_errors(self, tmp_path):
        circuit = QuantumCircuit(2)
        circuit.cx(0, 1)
        path = self._write_qasm(tmp_path, circuit)
        with pytest.raises(SystemExit):
            main([path, "--arch", "made_up_device"])

    def test_sat_engine_end_to_end(self, tmp_path, capsys):
        circuit = QuantumCircuit(3)
        circuit.h(0)
        circuit.cx(0, 1)
        circuit.cx(1, 2)
        path = self._write_qasm(tmp_path, circuit)
        exit_code = main([path, "--engine", "sat", "--verify"])
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "engine            : sat" in captured
        assert "equivalence check : passed" in captured

    def test_registry_alias_engine(self, tmp_path, capsys):
        circuit = QuantumCircuit(3)
        circuit.cx(0, 1)
        circuit.cx(1, 2)
        path = self._write_qasm(tmp_path, circuit)
        exit_code = main([path, "--engine", "sabre_lite"])
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "engine            : sabre_lite" in captured

    def test_registry_portfolio_engine(self, tmp_path, capsys):
        # The portfolio engine is gone: the registry rejects its name.
        circuit = QuantumCircuit(2)
        circuit.cx(0, 1)
        path = self._write_qasm(tmp_path, circuit)
        with pytest.raises(SystemExit) as exit_info:
            main([path, "--engine", "portfolio"])
        assert exit_info.value.code == 2
        assert "unknown mapper 'portfolio'" in capsys.readouterr().err

    def test_custom_registered_engine(self, tmp_path, monkeypatch):
        from repro.exact.dp_mapper import DPMapper
        from repro.pipeline.registry import DEFAULT_REGISTRY

        monkeypatch.setattr(
            DEFAULT_REGISTRY, "_factories", dict(DEFAULT_REGISTRY._factories)
        )
        DEFAULT_REGISTRY.register(
            "test_cli_engine", lambda coupling, **opts: DPMapper(coupling),
            overwrite=True,
        )
        circuit = QuantumCircuit(2)
        circuit.cx(0, 1)
        path = self._write_qasm(tmp_path, circuit)
        assert main([path, "--engine", "test_cli_engine"]) == 0

    def test_unknown_engine_errors(self, tmp_path):
        circuit = QuantumCircuit(2)
        circuit.cx(0, 1)
        path = self._write_qasm(tmp_path, circuit)
        with pytest.raises(SystemExit):
            main([path, "--engine", "made_up_engine"])

    def test_list_engines(self, capsys):
        assert main(["--list-engines"]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "dp", "sabre", "sat", "sat_split", "stochastic"
        ]

    def test_missing_qasm_errors(self):
        with pytest.raises(SystemExit):
            main([])

    def test_nonexistent_qasm_file_errors_cleanly(self, tmp_path, capsys):
        missing = str(tmp_path / "missing.qasm")
        with pytest.raises(SystemExit) as exit_info:
            main([missing])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert f"repro-map: error: cannot read {missing}" in err
        assert "Traceback" not in err

    def test_unknown_strategy_errors_cleanly(self, tmp_path, capsys):
        circuit = QuantumCircuit(2)
        circuit.cx(0, 1)
        path = self._write_qasm(tmp_path, circuit)
        with pytest.raises(SystemExit) as exit_info:
            main([path, "--strategy", "bogus"])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "repro-map: error: unknown strategy 'bogus'" in err

    @pytest.mark.parametrize("command, message", [
        (["serve", "{qasm}", "--arch", "bogus"], "unknown architecture 'bogus'"),
        (["serve", "{qasm}", "--engine", "sat", "--time-limit", "-1"],
         "--time-limit must be positive"),
        (["{qasm}", "--engine", "stochastic", "--trials", "0"],
         "--trials must be at least 1"),
        (["serve", "{qasm}", "--strategy", "bogus"], "unknown strategy 'bogus'"),
        (["listen", "--strategy", "bogus"], "unknown strategy 'bogus'"),
        (["listen", "--workers", "1", "--arch", "bogus"],
         "unknown architecture 'bogus'"),
        (["listen", "--engine", "dp", "--optimizer", "core"],
         "--optimizer only applies to the sat and sat_split engines"),
    ])
    def test_engine_flags_are_checked_before_anything_runs(
        self, tmp_path, capsys, command, message
    ):
        # map, serve and listen share one validation: a bad engine flag or
        # architecture is one usage error, never a traceback or a failed job.
        circuit = QuantumCircuit(2)
        circuit.cx(0, 1)
        path = self._write_qasm(tmp_path, circuit)
        with pytest.raises(SystemExit) as exit_info:
            main([part.format(qasm=path) for part in command])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        errors = [line for line in err.splitlines() if "error:" in line]
        assert len(errors) == 1 and message in errors[0]
        assert "Traceback" not in err


class TestCLIServiceSubcommands:
    """The cache admin and async serve front ends of the CLI."""

    def _write_qasm(self, tmp_path, circuit, name="circuit.qasm"):
        from repro.circuit.qasm import to_qasm

        path = tmp_path / name
        path.write_text(to_qasm(circuit))
        return str(path)

    def test_cache_stats_without_directory(self, capsys):
        assert main(["cache", "stats"]) == 0
        out = capsys.readouterr().out
        assert "in-process caches" in out
        assert "no cache directory configured" in out

    def test_cache_stats_with_directory(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        assert main(["cache", "stats", "--cache-dir", cache_dir]) == 0
        out = capsys.readouterr().out
        assert "result store" in out
        assert "disk_entries" in out

    def test_map_uses_persistent_result_cache(self, tmp_path, capsys):
        circuit = QuantumCircuit(3)
        circuit.cx(0, 1)
        circuit.cx(1, 2)
        path = self._write_qasm(tmp_path, circuit)
        cache_dir = str(tmp_path / "cache")
        assert main([path, "--engine", "dp", "--cache-dir", cache_dir]) == 0
        first = capsys.readouterr().out
        assert "result cache      : miss" in first
        assert main([path, "--engine", "dp", "--cache-dir", cache_dir]) == 0
        second = capsys.readouterr().out
        assert "result cache      : hit" in second

    def test_cache_clear_reports_removals(self, tmp_path, capsys):
        circuit = QuantumCircuit(3)
        circuit.cx(0, 1)
        path = self._write_qasm(tmp_path, circuit)
        cache_dir = str(tmp_path / "cache")
        assert main([path, "--engine", "dp", "--cache-dir", cache_dir]) == 0
        capsys.readouterr()
        assert main(["cache", "clear", "--cache-dir", cache_dir]) == 0
        out = capsys.readouterr().out
        assert "in-process caches cleared" in out
        assert "1 results" in out
        assert "permutation tables" not in out
        # After clearing, the same mapping is a miss again.
        assert main([path, "--engine", "dp", "--cache-dir", cache_dir]) == 0
        assert "result cache      : miss" in capsys.readouterr().out

    def test_env_var_enables_result_cache(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "envcache"))
        circuit = QuantumCircuit(2)
        circuit.cx(0, 1)
        path = self._write_qasm(tmp_path, circuit)
        assert main([path, "--engine", "dp"]) == 0
        assert "result cache      : miss" in capsys.readouterr().out
        assert main([path, "--engine", "dp"]) == 0
        assert "result cache      : hit" in capsys.readouterr().out

    def test_serve_batch_with_caching_and_routing(self, tmp_path, capsys):
        small = QuantumCircuit(3, name="small")
        small.cx(0, 1)
        small.cx(1, 2)
        wide = QuantumCircuit(9, name="wide")
        wide.cx(0, 8)
        a = self._write_qasm(tmp_path, small, "a.qasm")
        b = self._write_qasm(tmp_path, wide, "b.qasm")
        cache_dir = str(tmp_path / "cache")
        exit_code = main([
            "serve", a, b, a,
            "--arch", "ibm_qx4", "--arch", "ibm_qx5",
            "--engine", "sabre", "--cache-dir", cache_dir,
        ])
        out = capsys.readouterr().out
        assert exit_code == 0
        assert "3 submitted" in out
        assert "arch=ibm_qx5" in out  # the wide circuit was routed up
        # The duplicate submission was deduplicated (cache hit or coalesced).
        assert ("cache" in out) or ("coalesced" in out)

    def test_serve_reports_failures_per_job(self, tmp_path, capsys):
        wide = QuantumCircuit(16, name="very_wide")
        wide.cx(0, 15)
        path = self._write_qasm(tmp_path, wide, "wide.qasm")
        exit_code = main([
            "serve", path, "--arch", "ibm_qx5", "--engine", "dp",
        ])
        out = capsys.readouterr().out
        assert exit_code == 1
        assert "FAILED" in out


class TestCLIBoundsAndPrune:
    """The upper-bound flag, the result store and the cache prune subcommand."""

    def _write_qasm(self, tmp_path, circuit, name="circuit.qasm"):
        from repro.circuit.qasm import to_qasm

        path = tmp_path / name
        path.write_text(to_qasm(circuit))
        return str(path)

    def _nontrivial_circuit(self):
        circuit = QuantumCircuit(4)
        circuit.cx(0, 1)
        circuit.cx(1, 2)
        circuit.cx(2, 3)
        circuit.cx(3, 0)
        return circuit

    def test_static_upper_bound_flag(self, tmp_path, capsys):
        path = self._write_qasm(tmp_path, self._nontrivial_circuit())
        assert main([path, "--engine", "sat", "--upper-bound", "11"]) == 0
        out = capsys.readouterr().out
        assert "bound seeded      : 11 (--upper-bound)" in out

    def test_unachievable_upper_bound_fails_cleanly(self, tmp_path, capsys):
        path = self._write_qasm(tmp_path, self._nontrivial_circuit())
        assert main([path, "--engine", "sat", "--upper-bound", "1"]) == 1
        err = capsys.readouterr().err
        assert "upper-bound" in err

    def _unreadable_store(self, tmp_path):
        cache_dir = tmp_path / "cache"
        cache_dir.mkdir()
        (cache_dir / "results.sqlite").write_bytes(bytes(range(256)) * 16)
        return str(cache_dir)

    def test_map_warns_and_maps_without_an_unreadable_store(
        self, tmp_path, capsys
    ):
        path = self._write_qasm(tmp_path, self._nontrivial_circuit())
        cache_dir = self._unreadable_store(tmp_path)
        assert main([path, "--engine", "dp", "--cache-dir", cache_dir]) == 0
        captured = capsys.readouterr()
        assert "added operations" in captured.out
        assert "result cache" not in captured.out
        (warning,) = captured.err.splitlines()
        assert warning.startswith("warning: ")
        assert "without the result store" in warning

    def test_serve_warns_and_serves_from_memory_without_an_unreadable_store(
        self, tmp_path, capsys
    ):
        path = self._write_qasm(tmp_path, self._nontrivial_circuit())
        cache_dir = self._unreadable_store(tmp_path)
        assert main(["serve", path, path, "--engine", "dp",
                     "--cache-dir", cache_dir]) == 0
        captured = capsys.readouterr()
        assert "1 solved" in captured.out
        assert "persistent store" not in captured.out
        (warning,) = captured.err.splitlines()
        assert warning.startswith("warning: ")
        assert "memory-only store" in warning

    def test_cache_prune_drops_old_results(self, tmp_path, capsys):
        import sqlite3
        import time as _time

        path = self._write_qasm(tmp_path, self._nontrivial_circuit())
        cache_dir = str(tmp_path / "cache")
        assert main([path, "--engine", "dp", "--cache-dir", cache_dir]) == 0
        capsys.readouterr()
        with sqlite3.connect(str(tmp_path / "cache" / "results.sqlite")) as conn:
            conn.execute("UPDATE results SET created_at = ?", (_time.time() - 120,))
        assert main(["cache", "prune", "--ttl", "60", "--cache-dir", cache_dir]) == 0
        import json as _json

        report = _json.loads(capsys.readouterr().out)
        assert report["rows_pruned"] == 1
        assert report["bytes_reclaimed"] > 0
        assert report["cache_dir"] == cache_dir
        # Pruned entry is gone: the next run is a miss again.
        assert main([path, "--engine", "dp", "--cache-dir", cache_dir]) == 0
        assert "result cache      : miss" in capsys.readouterr().out

    def test_cache_prune_requires_ttl_and_directory(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["cache", "prune", "--cache-dir", str(tmp_path / "cache")])
        with pytest.raises(SystemExit):
            main(["cache", "prune", "--ttl", "60"])

    def test_cache_dir_applies_to_one_call(self, tmp_path, capsys, monkeypatch):
        path = self._write_qasm(tmp_path, self._nontrivial_circuit())
        cache_dir = str(tmp_path / "cache")
        assert main([path, "--engine", "dp", "--cache-dir", cache_dir]) == 0
        assert main([path, "--engine", "dp", "--cache-dir", cache_dir]) == 0
        assert "result cache      : hit" in capsys.readouterr().out
        # A later call without --cache-dir reads the environment's store,
        # not the one that holds the result.
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "own"))
        assert main([path, "--engine", "dp"]) == 0
        assert "result cache      : miss" in capsys.readouterr().out
        monkeypatch.delenv("REPRO_CACHE_DIR")
        assert main([path, "--engine", "dp"]) == 0
        assert "result cache" not in capsys.readouterr().out
        # The directory still holds the result, and nothing else.
        assert main(["cache", "clear", "--cache-dir", cache_dir]) == 0
        assert "1 results" in capsys.readouterr().out
        assert [p.name for p in (tmp_path / "cache").iterdir()] == [
            "results.sqlite"
        ]

    def test_map_and_serve_share_one_cache_key(self, tmp_path, capsys):
        path = self._write_qasm(tmp_path, self._nontrivial_circuit())
        cache_dir = str(tmp_path / "cache")
        assert main([path, "--engine", "sat", "--cache-dir", cache_dir]) == 0
        assert "result cache      : miss" in capsys.readouterr().out
        assert main(["serve", path, "--engine", "sat",
                     "--cache-dir", cache_dir]) == 0
        out = capsys.readouterr().out
        assert " cache " in out
        assert "1 cache hits" in out

    def test_time_limit_is_not_part_of_the_cache_key(self, tmp_path, capsys):
        path = self._write_qasm(tmp_path, self._nontrivial_circuit())
        cache_dir = str(tmp_path / "cache")
        assert main([path, "--engine", "sat", "--time-limit", "30",
                     "--cache-dir", cache_dir]) == 0
        assert "result cache      : miss" in capsys.readouterr().out
        assert main([path, "--engine", "sat", "--cache-dir", cache_dir]) == 0
        assert "result cache      : hit" in capsys.readouterr().out

    def test_result_cut_short_by_the_time_limit_is_not_cached(
        self, tmp_path, capsys, monkeypatch
    ):
        # The budget runs out after the first family, so the sweep returns
        # its best schedule so far without proving it minimal.
        calls = []

        def remaining(self, start):
            calls.append(start)
            return 30.0 if len(calls) == 1 else 0.0

        path = self._write_qasm(tmp_path, self._nontrivial_circuit())
        cache_dir = str(tmp_path / "cache")
        with monkeypatch.context() as patch:
            patch.setattr(sat_mapper.SATMapper, "_remaining_time", remaining)
            assert main([path, "--engine", "sat", "--subsets",
                         "--time-limit", "30", "--cache-dir", cache_dir]) == 0
        assert "proven minimal    : False" in capsys.readouterr().out
        assert len(calls) > 1
        assert main([path, "--engine", "sat", "--subsets",
                     "--cache-dir", cache_dir]) == 0
        assert "result cache      : miss" in capsys.readouterr().out
        # A run without a limit is stored, proven minimal or not.
        assert main([path, "--engine", "sat", "--subsets",
                     "--cache-dir", cache_dir]) == 0
        assert "result cache      : hit" in capsys.readouterr().out

    @pytest.mark.parametrize("action", [
        ["stats"], ["clear"], ["prune", "--ttl", "60"], ["artifacts"],
    ])
    def test_cache_commands_report_a_sick_store(self, tmp_path, capsys, action):
        cache_dir = tmp_path / "cache"
        cache_dir.mkdir()
        (cache_dir / "results.sqlite").write_bytes(b"not a database " * 100)
        assert main(["cache", *action, "--cache-dir", str(cache_dir)]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: ")

    @pytest.mark.parametrize("subcommand", [
        ["listen", "--port", "0", "--workers", "0"],
        ["listen", "--port", "0", "--workers", "1"],
        ["serve", "--engine", "dp"],
    ])
    @pytest.mark.parametrize("ttl", ["0", "-5", "soon"])
    def test_bad_result_ttl_is_an_argparse_error(self, subcommand, ttl, capsys):
        # Rejected while parsing: no store is opened, no worker started.
        with pytest.raises(SystemExit) as excinfo:
            main(subcommand + ["--result-ttl", ttl])
        assert excinfo.value.code == 2
        assert "--result-ttl" in capsys.readouterr().err

    def test_result_ttl_flag_expires_cache_hits(self, tmp_path, capsys):
        import sqlite3
        import time as _time

        path = self._write_qasm(tmp_path, self._nontrivial_circuit())
        cache_dir = str(tmp_path / "cache")
        assert main([path, "--engine", "dp", "--cache-dir", cache_dir]) == 0
        capsys.readouterr()
        with sqlite3.connect(str(tmp_path / "cache" / "results.sqlite")) as conn:
            conn.execute("UPDATE results SET created_at = ?", (_time.time() - 120,))
        assert main([path, "--engine", "dp", "--cache-dir", cache_dir,
                     "--result-ttl", "60"]) == 0
        assert "result cache      : miss" in capsys.readouterr().out


class TestCLIOptimizerFlags:
    """The optimizer-strategy layer's CLI surface."""

    def _write_qasm(self, tmp_path, circuit):
        path = tmp_path / "circuit.qasm"
        path.write_text(to_qasm(circuit))
        return str(path)

    def _paper_circuit(self):
        circuit = QuantumCircuit(4)
        circuit.cx(2, 3)
        circuit.cx(0, 1)
        circuit.cx(1, 2)
        circuit.cx(2, 1)
        circuit.cx(0, 1)
        return circuit

    def test_list_optimizers(self, capsys):
        assert main(["--list-optimizers"]) == 0
        out = capsys.readouterr().out
        for name in ("linear", "core"):
            assert name in out
        assert not any(
            line.startswith(("race", "binary")) for line in out.splitlines()
        )
        # Descriptions ride along.
        assert "core-guided" in out

    def test_unknown_optimizer_errors_early(self, tmp_path):
        circuit = QuantumCircuit(2)
        circuit.cx(0, 1)
        path = self._write_qasm(tmp_path, circuit)
        with pytest.raises(SystemExit):
            main([path, "--engine", "sat", "--optimizer", "made_up"])

    def test_race_is_an_unknown_optimizer(self, tmp_path, capsys):
        circuit = QuantumCircuit(2)
        circuit.cx(0, 1)
        path = self._write_qasm(tmp_path, circuit)
        for engine in ("sat", "sat_split"):
            with pytest.raises(SystemExit):
                main([path, "--engine", engine, "--optimizer", "race"])
            assert "unknown --optimizer 'race'" in capsys.readouterr().err

    def test_binary_is_an_unknown_optimizer(self, tmp_path, capsys):
        circuit = QuantumCircuit(2)
        circuit.cx(0, 1)
        path = self._write_qasm(tmp_path, circuit)
        with pytest.raises(SystemExit) as exit_info:
            main([path, "--engine", "sat", "--optimizer", "binary"])
        assert exit_info.value.code == 2
        assert "unknown --optimizer 'binary'" in capsys.readouterr().err

    def test_optimizer_rejected_for_non_sat_engines(self, tmp_path):
        circuit = QuantumCircuit(2)
        circuit.cx(0, 1)
        path = self._write_qasm(tmp_path, circuit)
        with pytest.raises(SystemExit):
            main([path, "--engine", "dp", "--optimizer", "core"])

    def test_core_optimizer_end_to_end(self, tmp_path, capsys):
        path = self._write_qasm(tmp_path, self._paper_circuit())
        assert main([path, "--engine", "sat", "--optimizer", "core"]) == 0
        out = capsys.readouterr().out
        assert "added operations  : 4" in out
        assert "proven minimal    : True" in out

    def test_default_optimizer_named_explicitly_hits_the_cache(
        self, tmp_path, capsys
    ):
        circuit = QuantumCircuit(3)
        circuit.cx(0, 1).cx(1, 2)
        path = self._write_qasm(tmp_path, circuit)
        cache = ["--cache-dir", str(tmp_path / "cache")]
        assert main([path, "--engine", "sat"] + cache) == 0
        assert "result cache      : miss" in capsys.readouterr().out
        assert main([path, "--engine", "sat", "--optimizer", "core"] + cache) == 0
        assert "result cache      : hit" in capsys.readouterr().out
        # Another descent is another job.
        assert main(
            [path, "--engine", "sat", "--optimizer", "linear"] + cache
        ) == 0
        assert "result cache      : miss" in capsys.readouterr().out

    def test_explain_prints_final_core(self, tmp_path, capsys, monkeypatch):
        # Beyond DP's state limit the core descent starts cold and ends on
        # a core of objective terms (within it, DP's schedule closes the
        # paper example on its structural bound).
        monkeypatch.setattr(sat_mapper, "MAX_MAPPING_STATES", 0)
        path = self._write_qasm(tmp_path, self._paper_circuit())
        assert main(
            [path, "--engine", "sat", "--optimizer", "core", "--explain"]
        ) == 0
        out = capsys.readouterr().out
        assert "final UNSAT core" in out
        assert "objective term" in out

    def test_explain_without_core_reports_gracefully(self, tmp_path, capsys):
        # Linear descent proves optimality via committed bounds: no core.
        path = self._write_qasm(tmp_path, benchmark_circuit("ex-1_166"))
        assert main(
            [path, "--engine", "sat", "--optimizer", "linear", "--explain"]
        ) == 0
        out = capsys.readouterr().out
        assert "no UNSAT core recorded" in out

    def test_explain_reports_a_proof_by_one_refutation(self, tmp_path, capsys):
        # DP's schedule (cost 8) is the incumbent; the core descent refutes
        # F <= 7 once, on the objective bound alone.
        path = self._write_qasm(tmp_path, benchmark_circuit("ex-1_166"))
        assert main([path, "--engine", "sat", "--explain"]) == 0
        out = capsys.readouterr().out
        assert "proof              : one refutation" in out
        assert "a schedule of cost 8 exists" in out
        assert "<= 7" in out
        assert "final UNSAT core" not in out

    def test_explain_reports_a_closure(self, tmp_path, capsys):
        # DP's schedule costs 4, the structural lower bound: no solver call.
        path = self._write_qasm(tmp_path, self._paper_circuit())
        assert main([path, "--engine", "sat", "--explain"]) == 0
        out = capsys.readouterr().out
        assert "proven without a solver call" in out
