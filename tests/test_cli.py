import json
import subprocess
import sys

import pytest

from qparch import cli


def run_cli(args, tmp_path, name="out"):
    path = tmp_path / name
    code = cli.main(args + ["--output", str(path)])
    return code, path.read_bytes() if path.exists() else b""


class TestQecDistance:
    def test_minimal_and_report_distances(self, tmp_path):
        code, payload = run_cli(
            ["qec", "distance", "--target-logical-error", "8.6e-19"], tmp_path
        )
        assert code == 0
        result = json.loads(payload)
        assert result["minimal"]["distance"] == 29
        assert result["report_distance"] == 31
        assert result["report"]["virtual_per_logical"] == 6240

    def test_explicit_distance(self, tmp_path):
        code, payload = run_cli(["qec", "distance", "--distance", "31"], tmp_path)
        assert code == 0
        result = json.loads(payload)
        assert result["requested"]["logical_error_rate"] == pytest.approx(2.6e-20, rel=0.05)

    def test_error_per_gate_at_threshold_is_infeasible(self, capsys):
        assert cli.main(["qec", "distance", "--error-per-gate", "9e-3"]) == 3
        assert "unreachable target" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_error_per_gate_is_usage_error(self, value, tmp_path, capsys):
        code, payload = run_cli(["qec", "distance", "--error-per-gate", value], tmp_path)
        assert code == 2
        assert payload == b""
        assert capsys.readouterr().err.startswith("error: error_per_virtual_gate must be")

    @pytest.mark.parametrize("command", [
        ["qec", "distance"],
        ["estimate", "shor", "--bits", "1024"],
    ], ids=["qec-distance", "estimate-shor"])
    @pytest.mark.parametrize("error", [9e-3, 0.01])
    def test_profile_at_or_above_threshold_is_infeasible(self, command, error, tmp_path, capsys):
        profile = tmp_path / "profile.json"
        profile.write_text(json.dumps({"error_per_virtual_gate": error}))
        code, payload = run_cli([*command, "--profile", str(profile)], tmp_path)
        assert code == 3
        assert payload == b""
        err = capsys.readouterr().err
        assert err.startswith("error: unreachable target") and "error_per_virtual_gate" in err

    def test_json_key_order(self, tmp_path):
        point_keys = [
            "distance", "logical_error_rate", "virtual_per_logical", "cnot_lattice_steps",
            "hadamard_lattice_steps", "cnot_time_s", "hadamard_time_s", "measurement_time_s",
        ]
        _, payload = run_cli(["qec", "distance", "--target-logical-error", "8.6e-19"], tmp_path)
        result = json.loads(payload)
        assert list(result) == ["target_logical_error", "minimal", "report_distance", "report"]
        assert list(result["minimal"]) == point_keys
        assert list(result["report"]) == point_keys
        _, payload = run_cli(["qec", "distance", "--distance", "31"], tmp_path)
        result = json.loads(payload)
        assert list(result) == ["requested"]
        assert list(result["requested"]) == point_keys

    def test_profile_override_from_file(self, tmp_path):
        profile = tmp_path / "profile.json"
        profile.write_text(json.dumps({"error_per_virtual_gate": 2e-3}))
        code, payload = run_cli(
            ["qec", "distance", "--distance", "31", "--profile", str(profile)], tmp_path
        )
        assert code == 0
        result = json.loads(payload)
        assert result["requested"]["logical_error_rate"] > 2.6e-20

    def test_profile_env_fallback(self, tmp_path, monkeypatch):
        profile = tmp_path / "profile.json"
        profile.write_text(json.dumps({"error_per_virtual_gate": 2e-3}))
        monkeypatch.setenv(cli.PROFILE_ENV_VAR, str(profile))
        code, payload = run_cli(["qec", "distance", "--distance", "31"], tmp_path)
        assert json.loads(payload)["requested"]["logical_error_rate"] > 2.6e-20

    @pytest.mark.parametrize("value", ["0.1", float("nan"), float("inf"), True, None, 10 ** 400],
                             ids=["string", "nan", "inf", "bool", "null", "huge-int"])
    def test_non_numeric_profile_field_is_usage_error(self, value, tmp_path, capsys):
        profile = tmp_path / "profile.json"
        profile.write_text(json.dumps({"c1": value}))
        assert cli.main(["qec", "distance", "--profile", str(profile)]) == 2
        assert capsys.readouterr().err.startswith("error: c1 must be a finite real number")

    def test_unknown_profile_field_is_usage_error(self, tmp_path, capsys):
        profile = tmp_path / "profile.json"
        profile.write_text(json.dumps({"thresold": 9e-3}))
        assert cli.main(["qec", "distance", "--profile", str(profile)]) == 2
        assert "thresold" in capsys.readouterr().err


class TestEstimate:
    def test_shor_reference_json(self, tmp_path):
        code, payload = run_cli(["estimate", "shor", "--bits", "1024"], tmp_path)
        assert code == 0
        report = json.loads(payload)
        assert report["app_qubits"] == 6144
        assert report["distillation_qubits"] == pytest.approx(66564, rel=1e-3)
        assert report["total_logical_qubits"] == pytest.approx(72708, rel=1e-3)
        assert report["runtime_seconds"] == pytest.approx(1.81 * 86400, rel=0.02)

    def test_sim_reference_json(self, tmp_path):
        code, payload = run_cli(["estimate", "sim", "--particles", "61"], tmp_path)
        assert code == 0
        report = json.loads(payload)
        assert report["app_qubits"] == pytest.approx(6650, rel=0.01)
        assert report["distillation_qubits"] == 15860
        assert report["runtime_seconds"] == pytest.approx(13.7 * 86400, rel=0.02)

    def test_machine_too_small_exits_3(self, capsys):
        code = cli.main(
            ["estimate", "shor", "--bits", "1024", "--machine-logical-qubits", "6144"]
        )
        assert code == 3
        assert "no factory capacity" in capsys.readouterr().err
        # 390 - 6 * 64 = 6 spare qubits cannot hold one 12-qubit distillation circuit.
        code = cli.main(["estimate", "shor", "--bits", "64", "--machine-logical-qubits", "390"])
        assert code == 3
        assert "no factory capacity" in capsys.readouterr().err

    def test_bit_list_emits_sweep_csv(self, tmp_path):
        code, payload = run_cli(
            ["estimate", "shor", "--bits", "512,1024,2048",
             "--machine-logical-qubits", "100000"],
            tmp_path,
        )
        assert code == 0
        lines = payload.decode().strip().split("\n")
        assert lines[0] == ("N,app_qubits,distillation_qubits,production_rate,"
                            "consumption_rate,throttle,toffoli_depth,runtime_s")
        assert len(lines) == 4

    def test_malformed_bits_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["estimate", "shor", "--bits", "1024,two"])
        assert exc.value.code == 2


class TestPulseSweep:
    def test_grid_shape(self, tmp_path):
        code, payload = run_cli(
            ["pulse", "sweep", "--sequences", "8h,cp,udd",
             "--pulse-errors", "0,0.005,0.01", "--tau", "1e-9",
             "--samples", "50", "--seed", "7"],
            tmp_path,
        )
        assert code == 0
        lines = payload.decode().strip().split("\n")
        assert lines[0] == "sequence,pulse_error,tau_s,samples,seed,infidelity"
        assert len(lines) == 10

    def test_baseline_row_dominates_dephasing_only_rows(self, tmp_path):
        code, payload = run_cli(
            ["pulse", "sweep", "--sequences", "8h,cp,udd", "--pulse-errors", "0",
             "--samples", "400", "--seed", "7", "--baseline"],
            tmp_path,
        )
        assert code == 0
        lines = payload.decode().strip().split("\n")[1:]
        rows = {line.split(",")[0]: float(line.split(",")[-1]) for line in lines}
        assert set(rows) == {"8H", "CP", "UDD", "free"}
        for name in ("8H", "CP", "UDD"):
            assert rows[name] < rows["free"]

    def test_malformed_grid_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["pulse", "sweep", "--pulse-errors", "0;1"])
        assert exc.value.code == 2

    def test_unknown_sequence_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["pulse", "sweep", "--sequences", "xy8"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("flags", [
        ["--tau", "inf"],
        ["--tau", "nan"],
        ["--t2-star", "nan"],
        ["--pulse-errors", "nan"],
    ])
    def test_non_finite_input_is_usage_error(self, flags, tmp_path, capsys):
        code, payload = run_cli(["pulse", "sweep", "--samples", "4", *flags], tmp_path)
        assert code == 2
        assert payload == b""
        assert capsys.readouterr().err.startswith("error: ")


class TestFrameExec:
    def write_circuit(self, tmp_path, lines):
        path = tmp_path / "circuit.jsonl"
        path.write_text("\n".join(lines) + "\n" if lines else "")
        return str(path)

    def test_pauli_then_measure(self, tmp_path):
        circuit = self.write_circuit(
            tmp_path,
            ['{"op":"pauli","p":"X","q":0}', '{"op":"measure","basis":"Z","q":0,"raw":1}'],
        )
        code, payload = run_cli(["frame", "exec", circuit], tmp_path)
        assert code == 0
        result = json.loads(payload)
        assert result["outcomes"] == [-1]
        assert result["frame"] == ["I"]

    def test_empty_circuit(self, tmp_path):
        circuit = self.write_circuit(tmp_path, [])
        code, payload = run_cli(["frame", "exec", circuit, "--num-qubits", "2"], tmp_path)
        assert code == 0
        result = json.loads(payload)
        assert result["outcomes"] == []
        assert result["frame"] == ["I", "I"]

    def test_malformed_line_names_line_number(self, tmp_path, capsys):
        circuit = self.write_circuit(
            tmp_path, ['{"op":"pauli","p":"X","q":0}', "not json"]
        )
        assert cli.main(["frame", "exec", circuit]) == 2
        assert "line 2" in capsys.readouterr().err

    @pytest.mark.parametrize("line, args, expected", [
        ('{"op":"pauli","p":"X","q":1.9}', [], "line 2"),
        ('{"op":"pauli","p":"X","q":true}', [], "line 2"),
        ('{"op":"pauli","p":"X","q":-1}', [], "line 2"),
        ('{"op":"clifford","g":"CNOT","q":[0,1.0]}', [], "line 2"),
        ('{"op":"measure","basis":"Z","q":0,"raw":1.0}', [], "line 2"),
        ('{"op":"clifford","g":"MZ","q":0}', [], "line 2"),
        ('{"op":"pauli","p":"X","q":2}', ["--num-qubits", "2"], "--num-qubits 2"),
        ('{"op":"measure","basis":"Q","q":0,"raw":1}', [], "line 2"),
    ], ids=["float-qubit", "bool-qubit", "negative-qubit", "float-cnot-target", "float-raw",
            "measurement-gate", "num-qubits-too-small", "measurement-basis"])
    def test_invalid_instruction_is_usage_error(self, line, args, expected, tmp_path, capsys):
        circuit = self.write_circuit(tmp_path, ['{"op":"pauli","p":"X","q":0}', line])
        code, payload = run_cli(["frame", "exec", circuit, *args], tmp_path)
        assert code == 2
        assert payload == b""
        err = capsys.readouterr().err
        assert err.startswith("error: ") and expected in err

    def test_missing_file_is_usage_error(self, capsys):
        assert cli.main(["frame", "exec", "/nonexistent/circuit.jsonl"]) == 2


class TestDeterminism:
    @pytest.mark.parametrize(
        "args",
        [
            ["qec", "distance", "--target-logical-error", "8.6e-19"],
            ["estimate", "shor", "--bits", "1024"],
            ["estimate", "shor", "--bits", "512,1024", "--machine-logical-qubits", "100000"],
            ["estimate", "sim", "--particles", "61"],
            ["pulse", "sweep", "--sequences", "8h", "--pulse-errors", "0,0.01",
             "--samples", "200", "--seed", "7", "--baseline"],
        ],
    )
    def test_repeated_runs_are_byte_identical(self, args, tmp_path):
        _, first = run_cli(args, tmp_path, name="a")
        _, second = run_cli(args, tmp_path, name="b")
        assert first == second

    def test_frame_exec_byte_identical(self, tmp_path):
        circuit = tmp_path / "circuit.jsonl"
        circuit.write_text('{"op":"pauli","p":"Y","q":1}\n{"op":"measure","basis":"Y","q":1,"raw":-1}\n')
        _, first = run_cli(["frame", "exec", str(circuit)], tmp_path, name="a")
        _, second = run_cli(["frame", "exec", str(circuit)], tmp_path, name="b")
        assert first == second

    def test_identical_across_processes(self):
        command = [
            sys.executable, "-m", "qparch.cli", "pulse", "sweep",
            "--sequences", "cp", "--pulse-errors", "0,0.01",
            "--samples", "300", "--seed", "11",
        ]
        first = subprocess.run(command, capture_output=True, check=True)
        second = subprocess.run(command, capture_output=True, check=True)
        assert first.stdout == second.stdout
        assert first.stdout.startswith(b"sequence,pulse_error,")
