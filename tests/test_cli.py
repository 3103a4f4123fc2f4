import argparse
import json
import math
import random
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from qparch import cli, qec

GOLDEN = Path(__file__).resolve().parent / "golden"


def run_cli(args, tmp_path, name="out"):
    path = tmp_path / name
    code = cli.main(args + ["--output", str(path)])
    return code, path.read_bytes() if path.exists() else b""


def write_profile(tmp_path, **values):
    path = tmp_path / "profile.json"
    path.write_text(json.dumps(values))
    return str(path)


@pytest.mark.parametrize("name", qec.HardwareProfile._fields)
def test_every_profile_field_is_read(name, tmp_path):
    """Changing any one profile field changes the output of some command."""
    path = write_profile(tmp_path, **{name: getattr(qec.HardwareProfile(), name) * 1.25})
    readers = (
        ["qec", "distance", "--distance", "31"],
        ["estimate", "shor", "--bits", "1024"],
        ["pulse", "sweep", "--samples", "16"],
    )
    assert any(
        run_cli(argv, tmp_path, "default") != run_cli([*argv, "--profile", path], tmp_path, "changed")
        for argv in readers
    ), f"no output reads {name}"


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

    @pytest.mark.parametrize("command", [
        ["qec", "distance"],
        ["estimate", "shor", "--bits", "1024"],
        ["estimate", "sim", "--particles", "61"],
    ], ids=["qec-distance", "estimate-shor", "estimate-sim"])
    def test_distance_whose_rate_underflows_is_usage_error(self, command, tmp_path, capsys):
        code, payload = run_cli([*command, "--distance", "99999999999"], tmp_path)
        assert code == 2
        assert payload == b""
        err = capsys.readouterr().err
        assert err == (
            "error: the logical error rate at code distance 99999999999 underflows to 0.0\n"
        )

    @pytest.mark.parametrize("command", [
        ["qec", "distance"],
        ["estimate", "shor", "--bits", "1024"],
    ], ids=["qec-distance", "estimate-shor"])
    def test_profile_whose_rate_exceeds_one_is_usage_error(self, command, tmp_path, capsys):
        profile = tmp_path / "profile.json"
        profile.write_text(json.dumps({"c2": 5.0, "error_per_virtual_gate": 4e-3}))
        code, payload = run_cli(
            [*command, "--distance", "31", "--profile", str(profile)], tmp_path
        )
        assert code == 2
        assert payload == b""
        err = capsys.readouterr().err
        assert err.startswith("error: the logical error rate at code distance 31 is 45977.3, above 1")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("command", [
        ["qec", "distance"],
        ["estimate", "shor", "--bits", "1024"],
        ["estimate", "sim", "--particles", "61"],
    ], ids=["qec-distance", "estimate-shor", "estimate-sim"])
    @pytest.mark.parametrize("distance", [2 ** 53 + 1, 10 ** 400 + 1], ids=["2**53+1", "huge"])
    def test_distance_beyond_2_to_53_is_usage_error(self, command, distance, tmp_path, capsys):
        code, payload = run_cli([*command, "--distance", str(distance)], tmp_path)
        assert code == 2
        assert payload == b""
        assert capsys.readouterr().err == (
            "error: code distance must be between 1 and 2**53 (the largest integer a float "
            f"holds exactly), got {distance}\n"
        )

    @pytest.mark.parametrize("command", [
        ["estimate", "shor", "--bits", "1024"],
        ["estimate", "sim", "--particles", "61"],
    ], ids=["estimate-shor", "estimate-sim"])
    def test_a_cnot_longer_than_the_logical_cycle_is_infeasible(self, command, tmp_path, capsys):
        # 13 * ceil(37 / 4) = 130 lattice steps of 256 ns outlast the 30 us cycle; 117 do not.
        code, payload = run_cli([*command, "--distance", "37"], tmp_path)
        assert code == 3
        assert payload == b""
        assert capsys.readouterr().err == (
            "error: a CNOT at distance 37 takes 3.328e-05 s, longer than the 3e-05 s logical "
            "cycle: raise logical_cycle_time or lower the distance\n"
        )
        code, payload = run_cli([*command, "--distance", "35"], tmp_path)
        assert code == 0
        assert json.loads(payload)["code_distance"] == 35

    @pytest.mark.parametrize("value", ["1e-30", "1e-300"])
    def test_report_rate_that_underflows_is_null(self, value, tmp_path, capsys):
        code, payload = run_cli(["qec", "distance", "--error-per-gate", value], tmp_path)
        assert code == 0
        assert capsys.readouterr().err == ""
        result = json.loads(payload)
        assert list(result) == ["target_logical_error", "minimal", "report_distance", "report"]
        assert result["minimal"]["distance"] == 1 and result["minimal"]["logical_error_rate"] > 0
        assert result["report_distance"] == 31 and result["report"] is None

    def test_error_per_gate_at_threshold_is_infeasible(self, capsys):
        assert cli.main(["qec", "distance", "--error-per-gate", "9e-3"]) == 3
        assert "unreachable target" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_error_per_gate_is_usage_error(self, value, tmp_path, capsys):
        code, payload = run_cli(["qec", "distance", "--error-per-gate", value], tmp_path)
        assert code == 2
        assert payload == b""
        assert capsys.readouterr().err.startswith("error: error_per_virtual_gate must be")

    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_non_finite_target_is_usage_error(self, value, tmp_path, capsys):
        code, payload = run_cli(["qec", "distance", "--target-logical-error", value], tmp_path)
        assert code == 2
        assert payload == b""
        err = capsys.readouterr().err
        assert err.startswith("error: target_logical_error must be a finite number") and value in err

    @pytest.mark.parametrize("value, shown", [
        ("1.5", "1.5"), (repr(math.nextafter(1, 2)), "1.0000000000000002"), ("1e300", "1e+300"),
    ])
    def test_target_above_one_is_usage_error(self, value, shown, tmp_path, capsys):
        code, payload = run_cli(["qec", "distance", "--target-logical-error", value], tmp_path)
        assert code == 2
        assert payload == b""
        assert capsys.readouterr().err == (
            f"error: target_logical_error must be a finite number in (0, 1], got {shown}\n"
        )

    @pytest.mark.parametrize("command, flag, value", [
        pytest.param("qec distance", "--target-logical-error", "1e-400", id="1e-400"),
        pytest.param("qec distance", "--target-logical-error", "-1e-400", id="-1e-400"),
        pytest.param("qec distance", "--target-logical-error", "2e-324", id="2e-324"),
        pytest.param("qec distance", "--error-per-gate", "1e-400", id="error-per-gate"),
        pytest.param("pulse sweep", "--t2-star", "1e-400", id="t2-star"),
        pytest.param("pulse sweep", "--tau", "2e-324", id="tau"),
        pytest.param("pulse sweep", "--pulse-errors", "0,-1e-400", id="pulse-errors"),
    ])
    def test_target_that_underflows_a_float_is_usage_error(self, command, flag, value, capsys):
        with pytest.raises(SystemExit) as exited:
            cli.main([*command.split(), f"{flag}={value}"])
        assert exited.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines()[-1] == (
            f"qparch {command}: error: argument {flag}: "
            f"{value.split(',')[-1]} underflows a float to 0.0"
        )

    @settings(max_examples=200, deadline=None)
    @given(st.builds(
        lambda sign, whole, fraction, exponent: f"{sign}{whole}.{fraction}e{exponent}",
        st.sampled_from(["", "-", "+"]), st.text("00019\u0660\u0661", min_size=1, max_size=3),
        st.text("0001", max_size=3), st.integers(-420, 3),
    ))
    @example("\u0661.e-400")
    @example("\u0660.\u0660e-5")
    def test_a_float_option_reads_zero_exactly_when_decimal_does(self, text):
        from decimal import Decimal  # the exact reading, as an oracle

        if float(text) == 0 and Decimal(text) != 0:
            with pytest.raises(argparse.ArgumentTypeError, match="underflows a float to 0.0"):
                cli._float(text)
        else:
            assert cli._float(text) == float(text)

    @pytest.mark.parametrize("value, shown", [
        ("0", "0.0"), ("0.0", "0.0"), ("-0", "-0.0"), ("-1e-5", "-1e-05"), ("-5E-1", "-0.5"),
    ])
    def test_target_of_zero_keeps_the_range_message(self, value, shown, tmp_path, capsys):
        code, payload = run_cli(["qec", "distance", "--target-logical-error", value], tmp_path)
        assert code == 2
        assert payload == b""
        assert capsys.readouterr().err == (
            f"error: target_logical_error must be a finite number in (0, 1], got {shown}\n"
        )

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

    def test_distance_with_a_target_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["qec", "distance", "--distance", "31", "--target-logical-error", "1e-9"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "error: argument --target-logical-error: not allowed with argument --distance" in err

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

    def test_empty_profile_environment_variable_means_unset(self, tmp_path, monkeypatch):
        _, built_in = run_cli(["qec", "distance", "--distance", "31"], tmp_path, "built-in")
        monkeypatch.setenv(cli.PROFILE_ENV_VAR, "")
        assert run_cli(["qec", "distance", "--distance", "31"], tmp_path) == (0, built_in)

    @pytest.mark.parametrize("flag, named", [
        ("--output", "--output/-o"), ("-o", "--output/-o"), ("--profile", "--profile"),
    ])
    def test_an_empty_path_is_usage_error(self, flag, named, tmp_path, monkeypatch, capsys):
        """``-o ""`` is not stdout, and ``--profile ""`` neither the environment's profile nor the built-in."""
        monkeypatch.setenv(cli.PROFILE_ENV_VAR, write_profile(tmp_path, c2=0.5))
        with pytest.raises(SystemExit) as exc:
            cli.main(["qec", "distance", "--distance", "31", flag, ""])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.count("error:") == 1
        assert err.endswith(f"error: argument {named}: expected a file path, got ''\n")

    @pytest.mark.parametrize("value", ["0.1", float("nan"), float("inf"), True, None, 10 ** 400],
                             ids=["string", "nan", "inf", "bool", "null", "huge-int"])
    def test_non_numeric_profile_field_is_usage_error(self, value, tmp_path, capsys):
        profile = tmp_path / "profile.json"
        profile.write_text(json.dumps({"c1": value}))
        assert cli.main(["qec", "distance", "--profile", str(profile)]) == 2
        assert capsys.readouterr().err.startswith("error: c1 must be a finite real number")

    # A typo, and the four times no formula read.
    @pytest.mark.parametrize("name", [
        "thresold", "pulse_duration", "virtual_gate_time", "entangling_gate_time",
        "qnd_readout_time",
    ])
    def test_unknown_profile_field_is_usage_error(self, name, tmp_path, capsys):
        profile = tmp_path / "profile.json"
        profile.write_text(json.dumps({name: 9e-3}))
        assert cli.main(["qec", "distance", "--profile", str(profile)]) == 2
        assert capsys.readouterr().err == f"error: unknown hardware profile field(s): {name}\n"

    @pytest.mark.parametrize("text, names", [
        ('{"c2": 1, "c2": 2}', "c2"),
        ('{"c2": 0.61, "c1": 0.13, "c2": 0.61, "c1": 0.2, "c1": 0.3}', "c1, c2"),
    ], ids=["one", "two"])
    def test_duplicate_profile_field_is_usage_error(self, text, names, tmp_path, capsys):
        """A field given twice is refused, even with the same value, not read as its last value."""
        profile = tmp_path / "profile.json"
        profile.write_text(text)
        assert cli.main(["qec", "distance", "--profile", str(profile)]) == 2
        assert capsys.readouterr().err == f"error: duplicate hardware profile field(s): {names}\n"

    def test_a_key_repeated_inside_a_field_value_is_that_fields_error(self, tmp_path, capsys):
        profile = tmp_path / "profile.json"
        profile.write_text('{"c1": {"a": 1, "a": 2}}')
        assert cli.main(["qec", "distance", "--profile", str(profile)]) == 2
        assert capsys.readouterr().err == "error: c1 must be a finite real number > 0, got {'a': 2}\n"

    def test_profile_with_an_oversized_integer_names_the_file(self, tmp_path, capsys):
        profile = tmp_path / "profile.json"
        profile.write_text('{"c1": 1' + "0" * 5000 + "}")
        assert cli.main(["qec", "distance", "--profile", str(profile)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: hardware profile {profile}: invalid JSON (")
        assert err.count("\n") == 1


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
        # 1024 bits need 6144 application qubits plus 12 for one distillation
        # circuit; 390 - 6 * 64 = 6 spare qubits cannot hold that circuit either.
        for bits, machine in [(1024, 0), (1024, 1), (1024, 6144), (1024, 6155), (64, 390)]:
            argv = ["estimate", "shor", "--bits", str(bits), "--machine-logical-qubits", str(machine)]
            assert cli.main(argv) == 3
            err = capsys.readouterr().err
            assert err.startswith(f"error: no factory capacity: machine has {machine} logical qubits")
            assert err.count("\n") == 1

    def test_negative_machine_size_is_usage_error(self, tmp_path, capsys):
        code, payload = run_cli(
            ["estimate", "shor", "--bits", "1024", "--machine-logical-qubits", "-5"], tmp_path
        )
        assert code == 2
        assert payload == b""
        assert capsys.readouterr().err == (
            "error: machine_logical_qubits must be between 0 and 2**53 (the largest integer a "
            "float holds exactly), got -5\n"
        )

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

    @pytest.mark.parametrize("args", [
        ["shor", "--bits", "1024", "--level", "100000"],
        ["shor", "--bits", "1024", "--machine-logical-qubits", "100000", "--level", "100000"],
        ["sim", "--particles", "10", "--level", "100000"],
        ["shor", "--bits", "1024", "--level", "11"],
        ["shor", "--bits", "1024", "--level", "0"],
    ], ids=["shor-sized", "shor-fixed-machine", "sim", "one-past-limit", "zero"])
    def test_level_out_of_range_is_usage_error(self, args, tmp_path, capsys):
        code, payload = run_cli(["estimate", *args], tmp_path)
        assert code == 2
        assert payload == b""
        err = capsys.readouterr().err
        assert err.startswith("error: distillation level must be between 1 and 10")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("args, field, low, value", [
        (["shor", "--bits", str(10 ** 400)], "bits", 4, 10 ** 400),
        (["sim", "--particles", str(10 ** 34)], "particles", 1, 10 ** 34),
        (["sim", "--particles", "61", "--timesteps", str(10 ** 400)], "timesteps", 1, 10 ** 400),
        (["shor", "--bits", "1024", "--machine-logical-qubits", str(10 ** 400)],
         "machine_logical_qubits", 0, 10 ** 400),
        (["shor", "--bits", str(10 ** 153)], "bits", 4, 10 ** 153),
        (["sim", "--particles", "61", "--timesteps", str(10 ** 303)], "timesteps", 1, 10 ** 303),
    ], ids=["shor-bits-overflow", "sim-particles", "sim-timesteps-overflow", "shor-machine",
            "shor-bits-infinity", "sim-timesteps-infinity"])
    def test_count_beyond_2_to_53_is_usage_error(self, args, field, low, value, tmp_path, capsys):
        code, payload = run_cli(["estimate", *args], tmp_path)
        assert code == 2
        assert payload == b""
        assert capsys.readouterr().err == (
            f"error: {field} must be between {low} and 2**53 (the largest integer a float holds "
            f"exactly), got {value}\n"
        )

    @pytest.mark.parametrize("args", [
        ["shor", "--bits", str(2 ** 53)],
        ["shor", "--bits", "1024", "--machine-logical-qubits", str(2 ** 53)],
        ["sim", "--particles", str(2 ** 53), "--timesteps", str(2 ** 53),
         "--bits-precision", str(2 ** 53)],
    ], ids=["shor-bits", "shor-machine", "sim"])
    def test_count_at_2_to_53_gives_a_finite_report(self, args, tmp_path):
        code, payload = run_cli(["estimate", *args], tmp_path)
        assert code == 0

        def reject(constant):
            raise AssertionError(f"non-finite {constant} in the report")

        json.loads(payload, parse_constant=reject)


@pytest.mark.parametrize("argv", [
    ["estimate", "shor", "--bits", ","],
    ["estimate", "shor", "--bits", ""],
    ["pulse", "sweep", "--pulse-errors", ",,"],
    ["pulse", "sweep", "--sequences", ","],
], ids=["bits-comma", "bits-empty", "pulse-errors", "sequences"])
def test_empty_comma_list_is_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert "expected at least one" in capsys.readouterr().err


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

    def test_unknown_sequence_is_usage_error(self, capsys, monkeypatch):
        from qparch import pulses

        def process_infidelities(*args):
            raise AssertionError("a sequence ran before every name was checked")

        monkeypatch.setattr(pulses, "process_infidelities", process_infidelities)
        assert cli.main(["pulse", "sweep", "--sequences", "8h,xy8"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: unknown sequence kind: 'XY8' (choose from 8H, CP, UDD)\n"

    @pytest.mark.parametrize("sequences", ["xy8,8h", "cp,XY8,udd", "8h,cp,udd,xy8"],
                             ids=["first", "middle", "last"])
    def test_an_unknown_sequence_anywhere_stops_the_sweep_before_any_run(
        self, sequences, tmp_path, capsys, monkeypatch
    ):
        from qparch import pulses

        def process_infidelities(*args):
            raise AssertionError("a sequence ran before every name was checked")

        monkeypatch.setattr(pulses, "process_infidelities", process_infidelities)
        code, payload = run_cli(["pulse", "sweep", "--sequences", sequences, "--baseline"], tmp_path)
        assert code == 2
        assert payload == b""
        assert capsys.readouterr().err == (
            "error: unknown sequence kind: 'XY8' (choose from 8H, CP, UDD)\n"
        )

    @pytest.mark.parametrize("errors, shown", [
        ("-0.01,0,0.01", ["-0.01", "0.0", "0.01"]), ("-1e-3", ["-0.001"]), ("-.5E-2", ["-0.005"]),
    ], ids=["symmetric", "exponent", "point-exponent"])
    def test_a_negative_pulse_error_is_a_value_not_an_option(self, errors, shown, tmp_path):
        flags = ["pulse", "sweep", "--samples", "4", "--sequences", "8h", "--pulse-errors", errors]
        code, payload = run_cli(flags, tmp_path)
        assert code == 0
        assert [row.split(",")[1] for row in payload.decode().splitlines()[1:]] == shown

    @pytest.mark.parametrize("value", ["-inf", "-INF", "-Infinity", "-nan", "-NaN"])
    @pytest.mark.parametrize("command, option, rest", [
        (["qec", "distance"], "--target-logical-error", ""),
        (["pulse", "sweep", "--samples", "4"], "--tau", ""),
        (["pulse", "sweep", "--samples", "4"], "--pulse-errors", ",0"),
    ], ids=["target-logical-error", "tau", "pulse-errors"])
    def test_a_negative_non_finite_value_is_a_value_not_an_option(
        self, command, option, rest, value, tmp_path, capsys
    ):
        spaced = run_cli([*command, option, value + rest], tmp_path), capsys.readouterr().err
        joined = run_cli([*command, f"{option}={value}{rest}"], tmp_path), capsys.readouterr().err
        assert spaced == joined
        (code, payload), err = spaced
        assert (code, payload) == (2, b"")
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_sequence_names_are_stripped_and_upper_cased(self, tmp_path):
        flags = ["pulse", "sweep", "--samples", "4", "--pulse-errors", "0,0.01", "--baseline"]
        spaced = run_cli([*flags, "--sequences", " 8h , Cp ,udd"], tmp_path, "spaced")
        upper = run_cli([*flags, "--sequences", "8H,CP,UDD"], tmp_path, "upper")
        assert spaced[0] == 0
        assert spaced == upper

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

    @pytest.mark.parametrize("flags, line", [
        (["--tau", "nan"], "tau must be positive and finite, got nan"),
        (["--t2-star", "-1"],
         "t2_star must be positive and finite (or None to disable dephasing), got -1.0"),
        (["--pulse-errors", "inf"], "pulse_error must be finite, got inf"),
    ], ids=["tau", "t2-star", "pulse-errors"])
    def test_a_bad_real_is_named_with_its_value(self, flags, line, tmp_path, capsys):
        code, payload = run_cli(["pulse", "sweep", "--samples", "4", *flags], tmp_path)
        assert code == 2
        assert payload == b""
        assert capsys.readouterr().err == f"error: {line}\n"

    @pytest.mark.parametrize("sequence", ["8h", "cp", "udd"])
    def test_tau_beyond_finite_larmor_periods_is_usage_error(self, sequence, tmp_path, capsys):
        code, payload = run_cli(
            ["pulse", "sweep", "--samples", "4", "--sequences", sequence, "--tau", "1e300"], tmp_path
        )
        assert code == 2
        assert payload == b""
        assert capsys.readouterr().err == (
            "error: tau is too long to time: rounding the 8*tau window turns the Larmor phase by up to "
            "inf rad, past the 1e-06 rad resolution bound; at larmor_period 4e-11 s, tau must be at "
            "most 0.00717 s\n"
        )

    @pytest.mark.parametrize("flags", [["--t2-star", "1e-300"], ["--pulse-errors", "1e308"]])
    def test_overflowing_rotation_is_usage_error(self, flags, tmp_path, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy RuntimeWarning fails the test
            code, payload = run_cli(
                ["pulse", "sweep", "--samples", "4", "--sequences", "8h", *flags], tmp_path
            )
        assert code == 2
        assert payload == b""
        err = capsys.readouterr().err
        assert err.startswith("error: a segment's rotation overflows")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("flags, profile, reason", [
        (["--sequences", "udd", "--tau", "1e100"], {}, "tau is too long to time"),
        (["--sequences", "8h"], {"larmor_period": 1e-300}, "tau is too long to time"),
        (["--sequences", "8h", "--pulse-errors", "1e17"], {},
         "a segment's rotation overflows or is too large to resolve"),
    ], ids=["udd-tau-1e100", "8h-larmor-1e-300", "8h-pulse-error-1e17"])
    def test_unresolvable_larmor_phase_is_usage_error(self, flags, profile, reason, tmp_path,
                                                      capsys):
        # Noiseless, so a resolved answer is a rounding error from 0.  A sequence
        # whose 8*tau window rounds past the timing resolution is refused as it is
        # built; from 2**52 rad on, a tilted pulse's angle holds no fractional radian.
        path = write_profile(tmp_path, **profile)
        code, payload = run_cli(
            ["pulse", "sweep", "--samples", "4", "--t2-star", "0", *flags, "--profile", path],
            tmp_path,
        )
        assert code == 2
        assert payload == b""
        err = capsys.readouterr().err
        assert err.startswith(f"error: {reason}")
        assert "larmor_period" in err and err.count("\n") == 1

    @pytest.mark.parametrize("sequence", ["8h", "cp", "udd"])
    def test_tau_is_bounded_by_the_timing_resolution(self, sequence, tmp_path, capsys):
        flags = ["pulse", "sweep", "--samples", "4", "--t2-star", "0", "--sequences", sequence]
        code, payload = run_cli([*flags, "--tau", "1e3"], tmp_path)
        assert (code, payload) == (2, b"")
        assert capsys.readouterr().err == (
            "error: tau is too long to time: rounding the 8*tau window turns the Larmor phase "
            "by up to 0.1395 rad, past the 1e-06 rad resolution bound; at larmor_period 4e-11 s, "
            "tau must be at most 0.00717 s\n"
        )
        code, payload = run_cli([*flags, "--tau", "7e-3", "--baseline"], tmp_path)
        assert code == 0
        header, row, baseline = payload.decode().splitlines()
        assert header == cli.PULSE_CSV_HEADER and baseline.startswith("free,")
        assert 0 <= float(row.split(",")[-1]) <= 1e-13

    @pytest.mark.parametrize("samples", [2 ** 20 + 1, 2 ** 62, 10 ** 30],
                             ids=["limit+1", "2**62", "10**30"])
    def test_samples_beyond_the_limit_is_usage_error(self, samples, tmp_path, capsys, monkeypatch):
        from qparch import pulses

        def process_infidelities(*args):
            raise AssertionError("a run started: samples were allocated")

        monkeypatch.setattr(pulses, "process_infidelities", process_infidelities)
        code, payload = run_cli(["pulse", "sweep", "--samples", str(samples)], tmp_path)
        assert code == 2
        assert payload == b""
        assert capsys.readouterr().err == (
            f"error: samples must be between 1 and 1048576 (the sample limit), got {samples}\n"
        )


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

    def test_a_frame_larger_than_the_circuit_is_written_to_a_file_as_json_writes_it(self, tmp_path, capsys):
        circuit = self.write_circuit(tmp_path, [
            '{"op":"pauli","p":"Y","q":1}', '{"op":"clifford","g":"CNOT","q":[1,2]}',
            '{"op":"measure","basis":"X","q":2,"raw":1}', '{"op":"measure","basis":"Z","q":0,"raw":-1}',
        ])
        out = tmp_path / "report.json"
        assert cli.main(["frame", "exec", circuit, "--num-qubits", "5", "-o", str(out)]) == 0
        assert capsys.readouterr() == ("", "")
        expected = {"outcomes": [1, -1], "frame": ["I", "Y", "I", "I", "I"]}
        assert out.read_text(encoding="utf-8") == json.dumps(expected, indent=2) + "\n"

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
        ('{"op":"pauli","p":"X","q":2}', ["--num-qubits", "2"],
         "error: the circuit uses 3 qubits, more than the 2-qubit frame\n"),
        ('{"op":"measure","basis":"Q","q":0,"raw":1}', [], "line 2"),
        ('{"op":"pauli","p":"X","q":100000000000000}', [],
         "line 2: qubit index must be below 1048576 (the frame-size limit)"),
        ('{"op":"pauli","p":"X","q":1}', ["--num-qubits", "1000000000000000"],
         "num_qubits must be between 0 and 1048576 (the frame-size limit)"),
        ('{"op":"pauli","q":0}', [], "line 2: missing field 'p'\n"),
        ('{"op":"pauli","p":"X"}', [], "line 2: missing field 'q'\n"),
        ('{"op":"clifford","q":0}', [], "line 2: missing field 'g'\n"),
        ('{"op":"measure","q":0,"raw":1}', [], "line 2: missing field 'basis'\n"),
    ], ids=["float-qubit", "bool-qubit", "negative-qubit", "float-cnot-target", "float-raw",
            "measurement-gate", "num-qubits-too-small", "measurement-basis",
            "qubit-beyond-frame-limit", "num-qubits-beyond-frame-limit", "missing-pauli",
            "missing-qubit", "missing-gate", "missing-basis"])
    def test_invalid_instruction_is_usage_error(self, line, args, expected, tmp_path, capsys):
        circuit = self.write_circuit(tmp_path, ['{"op":"pauli","p":"X","q":0}', line])
        code, payload = run_cli(["frame", "exec", circuit, *args], tmp_path)
        assert code == 2
        assert payload == b""
        err = capsys.readouterr().err
        assert err.startswith("error: ") and expected in err

    @pytest.mark.parametrize("qubit, size, expected", [
        (0, "0", "error: the circuit uses 1 qubit, more than the 0-qubit frame\n"),
        (2, "2", "error: the circuit uses 3 qubits, more than the 2-qubit frame\n"),
    ], ids=["one-qubit", "three-qubits"])
    def test_frame_size_message_agrees_in_number(self, qubit, size, expected, tmp_path, capsys):
        circuit = self.write_circuit(tmp_path, [f'{{"op":"pauli","p":"X","q":{qubit}}}'])
        code, payload = run_cli(["frame", "exec", circuit, "--num-qubits", size], tmp_path)
        assert (code, payload) == (2, b"")
        assert capsys.readouterr().err == expected

    @pytest.mark.parametrize("lines", [[], ['{"op":"pauli","p":"X","q":0}']], ids=["empty", "one-qubit"])
    def test_negative_num_qubits_names_the_frame_size_limit(self, lines, tmp_path, capsys):
        circuit = self.write_circuit(tmp_path, lines)
        code, payload = run_cli(["frame", "exec", circuit, "--num-qubits", "-1"], tmp_path)
        assert code == 2
        assert payload == b""
        assert capsys.readouterr().err == (
            "error: num_qubits must be between 0 and 1048576 (the frame-size limit), got -1\n"
        )

    def test_bytes_that_are_not_utf8_name_their_line(self, tmp_path, capsys):
        lines = [b'{"op":"pauli","p":"X","q":0}'] * 6000
        lines[4999] = b'{"op":"pauli","p":"X","q":0,"note":"\xff"}'
        path = tmp_path / "circuit.jsonl"
        path.write_bytes(b"\n".join(lines) + b"\n")
        code, payload = run_cli(["frame", "exec", str(path)], tmp_path)
        assert code == 2
        assert payload == b""
        assert capsys.readouterr().err == "error: line 5000: not UTF-8 text\n"

    def test_peak_memory_per_instruction(self, tmp_path):
        """The packed circuit takes 5 bytes an instruction and 4 more per CNOT,
        and it is freed before the report is formatted, so the two do not stack."""
        rng = random.Random(20101022)
        lines = []
        for _ in range(20_000):  # 30% Paulis, 35% H/S/S_dagger, 20% CNOTs, 15% measurements
            r, q = rng.random(), rng.randrange(1000)
            if r < 0.30:
                lines.append(f'{{"op":"pauli","p":"{rng.choice("XYZ")}","q":{q}}}')
            elif r < 0.65:
                lines.append(f'{{"op":"clifford","g":"{rng.choice(("H", "S", "S_dagger"))}","q":{q}}}')
            elif r < 0.85:
                lines.append(f'{{"op":"clifford","g":"CNOT","q":[{q},{(q + rng.randrange(1, 1000)) % 1000}]}}')
            else:
                basis, raw = rng.choice("XYZ"), rng.choice((1, -1))
                lines.append(f'{{"op":"measure","basis":"{basis}","q":{q},"raw":{raw}}}')
        circuit = self.write_circuit(tmp_path, lines)
        argv = ["frame", "exec", circuit, "-o", str(tmp_path / "out.json")]
        assert cli.main(argv) == 0  # once first, so one-off allocations are not counted
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            assert cli.main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # 14.9 bytes with an action byte and a CNOT-only target column; 19.9 with 1+4+4-byte
        # op/qubit/arg columns; 38.7 with 8-byte ones and the circuit held to the end.
        assert (peak - before) / len(lines) < 28

    def test_measure_without_raw_names_its_line(self, tmp_path, capsys):
        circuit = self.write_circuit(tmp_path, ['{"op":"measure","basis":"Z","q":0}'])
        code, payload = run_cli(["frame", "exec", circuit], tmp_path)
        assert code == 2
        assert payload == b""
        assert capsys.readouterr().err == "error: line 1: measurement has no raw outcome\n"

    def test_oversized_json_integer_names_its_line(self, tmp_path, capsys):
        line = '{"op":"pauli","p":"X","q":1' + "0" * 5000 + "}"
        circuit = self.write_circuit(tmp_path, ['{"op":"pauli","p":"X","q":0}', line])
        code, payload = run_cli(["frame", "exec", circuit], tmp_path)
        assert code == 2
        assert payload == b""
        err = capsys.readouterr().err
        assert err.startswith("error: line 2: invalid JSON (")
        assert err.count("\n") == 1

    def test_missing_file_is_usage_error(self, capsys):
        assert cli.main(["frame", "exec", "/nonexistent/circuit.jsonl"]) == 2

    def test_profile_is_an_unrecognized_argument(self, capsys):
        """``frame exec`` reads no hardware profile, so it takes no ``--profile``."""
        argv = ["frame", "exec", str(GOLDEN / "frame_readme.jsonl"), "--profile", "/nonexistent.json"]
        with pytest.raises(SystemExit) as exit_info:
            cli.main(argv)
        assert exit_info.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "error: unrecognized arguments: --profile /nonexistent.json" in err


@pytest.mark.parametrize("name, argv", [
    ("qec_target", ["qec", "distance", "--target-logical-error", "8.6e-19"]),
    ("qec_d31", ["qec", "distance", "--distance", "31"]),
    ("shor_1024", ["estimate", "shor", "--bits", "1024"]),
    ("shor_sweep", ["estimate", "shor", "--bits", "512,1024,2048,4096,8192,16384",
                    "--machine-logical-qubits", "100000"]),
    ("shor_4096_fixed", ["estimate", "shor", "--bits", "4096",
                         "--machine-logical-qubits", "100000"]),
    ("sim_61", ["estimate", "sim", "--particles", "61"]),
    # The README's circuit, then each other gate kind and basis; one line has spaces.
    ("frame_readme", ["frame", "exec", str(GOLDEN / "frame_readme.jsonl")]),
    # The README's sweep.  Its bytes also pin numpy's standard_normal stream,
    # which NEP 19 lets a numpy release change: such a change shows up here.
    ("pulse_sweep_readme", ["pulse", "sweep", "--sequences", "8h,cp,udd", "--pulse-errors",
                            "0,0.005,0.01", "--tau", "1e-9", "--samples", "20000", "--seed", "7",
                            "--baseline"]),
])
def test_stdout_matches_golden_bytes(name, argv, capsys):
    """The README's deterministic commands print exactly the pinned bytes."""
    assert cli.main(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.encode("utf-8") == (GOLDEN / f"{name}.out").read_bytes()


@pytest.mark.parametrize("argv", [
    ["estimate", "shor", "--bits", "1024"],
    ["estimate", "shor", "--bits", "512,1024", "--machine-logical-qubits", "100000"],
    ["estimate", "sim", "--particles", "61"],
], ids=["shor", "shor-sweep", "sim"])
def test_omitted_distance_and_level_take_the_reference_values(argv, capsys):
    """Without ``--distance`` and ``--level`` an estimate runs at d = 31 and level 2."""
    assert cli.main(argv) == 0
    omitted = capsys.readouterr()
    assert cli.main([*argv, "--distance", "31", "--level", "2"]) == 0
    assert capsys.readouterr() == omitted


# Argument lists that name one leaf, and a few that name none; "CIRCUIT" stands for a circuit file.
PARSE_CORPUS = [
    [], ["-h"], ["qec"], ["qec", "-h"], ["estimate", "--help"], ["pulse", "-h"], ["frame", "-h"],
    ["bogus"], ["estimate", "bogus"], ["--", "estimate", "shor", "--bits", "1024"],
    ["estimate", "--", "shor", "--bits", "1024"],
    ["qec", "distance", "-h"], ["estimate", "shor", "-h"], ["estimate", "sim", "--help"],
    ["pulse", "sweep", "-h"], ["frame", "exec", "-h"],
    ["estimate", "shor"], ["estimate", "sim"], ["frame", "exec"], ["qec", "distance", "-o"],
    ["qec", "distance", "--distance", "31", "--target-logical-error", "1e-3"],
    ["qec", "distance", "--dist", "33", "--error-per-gate=2e-3"],
    ["estimate", "shor", "--bits", "x"],
    ["estimate", "shor", "--bits", "1024", "extra"],
    ["estimate", "shor", "extra", "--bits", "1024"],
    ["estimate", "shor", "--bit", "1024"],
    ["estimate", "shor", "--bits=1024"],
    ["estimate", "shor", "--bits", "1024", "--"],
    ["estimate", "shor", "--", "--bits", "1024"],
    ["estimate", "shor", "--bits", "1024", "--unknown", "-h"],
    ["estimate", "shor", "--bits", "512,1024", "--machine-logical-qubits=100000"],
    ["estimate", "shor", "--bits", "1024", "--machine-logical-qubits", "-5"],
    ["estimate", "sim", "--part", "61", "--level", "x"],
    ["pulse", "sweep", "--tau", "-1e-3"],
    ["pulse", "sweep", "--tau", "-inf"],
    ["pulse", "sweep", "--samples", "x"],
    ["pulse", "sweep", "--sequences", "cp", "extra"],
    ["frame", "exec", "CIRCUIT"],
    ["frame", "exec", "CIRCUIT", "--profile", "x"],
    ["frame", "exec", "CIRCUIT", "CIRCUIT"],
    ["frame", "exec", "--num-qubits=4", "--", "CIRCUIT"],
]


def outcome(argv, capsys):
    """``cli.main``'s exit code, stdout and stderr, whether it returns or exits."""
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    return (code, *capsys.readouterr())


@pytest.mark.parametrize("argv", PARSE_CORPUS, ids=lambda argv: " ".join(argv) or "no-arguments")
def test_the_leaf_parser_prints_what_the_full_tree_prints(argv, capsys, monkeypatch):
    """``cli.main`` parses with one leaf's parser; the whole tree must give the same bytes."""
    argv = [str(GOLDEN / "frame_readme.jsonl") if arg == "CIRCUIT" else arg for arg in argv]
    leaf = outcome(argv, capsys)
    monkeypatch.setattr(cli, "_parse", lambda argv: cli.build_parser().parse_args(argv))
    assert outcome(argv, capsys) == leaf


def reject_constant(constant):
    raise AssertionError(f"non-finite {constant} on stdout")


def assert_one_outcome(argv, capsys):
    """Exit 0 with finite output, or exit 2 or 3 with one error line."""
    capsys.readouterr()
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    out, err = capsys.readouterr()
    if code == 0:
        assert err == ""
        if out.startswith("{"):
            json.loads(out, parse_constant=reject_constant)
        else:
            for row in out.splitlines()[1:]:
                cells = row.split(",")
                if out.startswith(cli.PULSE_CSV_HEADER):
                    cells = cells[1:]  # the sequence name
                assert all(math.isfinite(float(cell)) for cell in cells if cell)
    else:
        assert code in (2, 3), (argv, code, err)
        assert out == ""
        assert sum("error:" in line for line in err.splitlines()) == 1, err
        assert "Traceback" not in err


# A profile time of 1e308 s, and the error its first overflowing product gives.
CNOT_OVERFLOW = ({"lattice_cycle_time": 1e308}, "the CNOT time at code distance")
RUNTIME_OVERFLOW = ({"logical_cycle_time": 1e308}, "the runtime overflows a float")


@pytest.mark.parametrize("argv, overflow", [
    (["qec", "distance", "--distance", "31"], CNOT_OVERFLOW),
    (["qec", "distance"], CNOT_OVERFLOW),
    (["estimate", "shor", "--bits", "1024"], CNOT_OVERFLOW),
    (["estimate", "shor", "--bits", "16384"], RUNTIME_OVERFLOW),
    (["estimate", "shor", "--bits", "1024,16384"], RUNTIME_OVERFLOW),
    (["estimate", "sim", "--particles", "61"], RUNTIME_OVERFLOW),
])
def test_time_that_overflows_is_usage_error(argv, overflow, tmp_path, capsys):
    profile, error = overflow
    argv = [*argv, "--profile", write_profile(tmp_path, **profile)]
    assert_one_outcome(argv, capsys)
    assert cli.main(argv) == 2
    assert capsys.readouterr().err.startswith(f"error: {error}")


EDGE_TOKENS = [
    "0", "-1", "-7", "nan", "inf", "-inf", "1e-300", "1e308", str(10 ** 30), str(10 ** 400),
    str(2 ** 53), str(2 ** 53 + 1), "9" * 5000, "",
]


def tokens(typical):
    """A flag value: an edge case, a typical value, or any int or float."""
    return st.one_of(
        st.sampled_from(EDGE_TOKENS),
        typical.map(str),
        st.integers().map(str),
        st.floats().map(repr),
    )


def argv_of(command, required, optional):
    def build(flags):
        return [*command, *required, *(item for pair in flags.items() for item in pair)]

    return st.fixed_dictionaries({}, optional=optional).map(build)


DISTANCES = tokens(st.integers(0, 60).map(lambda k: 2 * k + 1))
LEVELS = tokens(st.integers(0, 11))
BIT_LISTS = st.lists(st.one_of(tokens(st.integers(4, 20000)), st.just("")), min_size=1,
                     max_size=4).map(",".join)

QEC_DISTANCE = argv_of(["qec", "distance"], [], {
    "--target-logical-error": tokens(st.floats(1e-30, 1.0)),
    "--distance": DISTANCES,
    "--error-per-gate": tokens(st.floats(1e-6, 1e-2)),
})
ESTIMATE_SHOR = BIT_LISTS.flatmap(lambda bits: argv_of(["estimate", "shor"], ["--bits", bits], {
    "--machine-logical-qubits": tokens(st.integers(0, 300000)),
    "--distance": DISTANCES,
    "--level": LEVELS,
}))
ESTIMATE_SIM = tokens(st.integers(1, 500)).flatmap(
    lambda particles: argv_of(["estimate", "sim"], ["--particles", particles], {
        "--bits-precision": tokens(st.integers(1, 64)),
        "--timesteps": tokens(st.integers(1, 2 ** 20)),
        "--distance": DISTANCES,
        "--level": LEVELS,
    })
)
def mostly(typical, pinned, edges=tokens):
    """A flag value: three times in five a typical one, else a pinned one or an edge token."""
    typical = typical.map(repr)
    return st.one_of(typical, typical, typical, st.sampled_from(pinned), edges(typical))


# At most 64 samples a run, except values above the sample limit, which exit before any draw.
SAMPLES = mostly(st.integers(1, 64), ["0", "-1", str(2 ** 20 + 1), str(2 ** 62), str(10 ** 30)],
                 edges=lambda typical: st.sampled_from(["nan", "1.5", "9" * 5000, ""]))
PULSE_ERROR_LISTS = st.lists(mostly(st.floats(0, 0.05), ["-3", "nan", "inf", "1e308", ""]),
                             min_size=1, max_size=3).map(",".join)
PULSE_SWEEP = st.builds(
    lambda argv, baseline: argv + ["--baseline"] * baseline,
    SAMPLES.flatmap(lambda samples: argv_of(["pulse", "sweep"], ["--samples", samples], {
        "--sequences": st.lists(st.sampled_from(["8h", "CP", "udd", "x", ""]), min_size=1,
                                max_size=3).map(",".join),
        "--pulse-errors": PULSE_ERROR_LISTS,
        "--tau": mostly(st.floats(1e-10, 1e-8), ["1e-300", "1e300", "1e3"]),
        "--t2-star": mostly(st.floats(1e-9, 1e-7), ["0", "1e-300", "1e300"]),
        "--seed": mostly(st.integers(0, 2 ** 40), ["0", str(2 ** 32), str(2 ** 200)]),
    })),
    st.booleans(),
)
PROPERTY_SETTINGS = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


@PROPERTY_SETTINGS
@given(argv=QEC_DISTANCE)
@example(argv=["qec", "distance", "--distance", str(10 ** 400)])
@example(argv=["qec", "distance", "--error-per-gate", "1e-300"])
@example(argv=["qec", "distance", "--error-per-gate", "1e-30"])
def test_qec_distance_exits_0_with_finite_json_or_2_3_with_one_error_line(argv, capsys):
    assert_one_outcome(argv, capsys)


@PROPERTY_SETTINGS
@given(argv=ESTIMATE_SHOR)
@example(argv=["estimate", "shor", "--bits", "1024", "--machine-logical-qubits", "-5"])
@example(argv=["estimate", "shor", "--bits", "1024", "--distance", str(10 ** 400 + 1)])
@example(argv=["estimate", "shor", "--bits", ",", "--machine-logical-qubits", "100000"])
def test_estimate_shor_exits_0_with_finite_output_or_2_3_with_one_error_line(argv, capsys):
    assert_one_outcome(argv, capsys)


@PROPERTY_SETTINGS
@given(argv=ESTIMATE_SIM)
@example(argv=["estimate", "sim", "--particles", str(2 ** 53), "--timesteps", str(2 ** 53)])
@example(argv=["estimate", "sim", "--particles", "61", "--distance", str(10 ** 400)])
def test_estimate_sim_exits_0_with_finite_json_or_2_3_with_one_error_line(argv, capsys):
    assert_one_outcome(argv, capsys)


def pulse_sweep(*flags):
    return ["pulse", "sweep", "--samples", "8", "--sequences", "8h,cp", *flags]


@PROPERTY_SETTINGS
@given(argv=PULSE_SWEEP)
@example(argv=pulse_sweep("--tau", "1e-300"))
@example(argv=pulse_sweep("--tau", "1e300"))
@example(argv=pulse_sweep("--t2-star", "0", "--baseline"))
@example(argv=pulse_sweep("--t2-star", "1e-300", "--baseline"))
@example(argv=pulse_sweep("--t2-star", "1e300", "--baseline"))
@example(argv=pulse_sweep("--pulse-errors", "nan"))
@example(argv=pulse_sweep("--pulse-errors", "inf"))
@example(argv=pulse_sweep("--pulse-errors", "-3"))
@example(argv=pulse_sweep("--pulse-errors", "1e308"))
@example(argv=pulse_sweep("--seed", "0"))
@example(argv=pulse_sweep("--seed", str(2 ** 32)))
@example(argv=pulse_sweep("--seed", str(2 ** 200)))
@example(argv=pulse_sweep("--seed", str(10 ** 400)))
@example(argv=pulse_sweep("--pulse-errors", ","))
@example(argv=pulse_sweep("--sequences", ",,"))
@example(argv=["pulse", "sweep", "--samples", str(2 ** 20 + 1)])
@example(argv=["pulse", "sweep", "--samples", str(2 ** 62), "--t2-star", "0"])
def test_pulse_sweep_exits_0_with_finite_csv_or_2_3_with_one_error_line(argv, capsys):
    assert_one_outcome(argv, capsys)


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


class TestStartup:
    def test_only_pulse_commands_import_numpy(self, tmp_path):
        circuit = tmp_path / "circuit.jsonl"
        circuit.write_text('{"op":"pauli","p":"X","q":0}\n{"op":"measure","basis":"Z","q":0,"raw":1}\n')
        script = f"""
import contextlib, io, sys
from qparch import cli
for argv in (["qec", "distance"], ["estimate", "shor", "--bits", "1024"],
             ["estimate", "sim", "--particles", "61"], ["frame", "exec", {str(circuit)!r}]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, argv
assert "numpy" not in sys.modules, "a non-pulse command imported numpy"
from qparch.pulses import process_infidelity
assert "numpy" in sys.modules and callable(process_infidelity)
"""
        result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert result.returncode == 0, result.stderr

    def test_a_leaf_command_builds_one_parser(self, monkeypatch, capsys):
        built = []
        init = argparse.ArgumentParser.__init__

        def counted_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted_init)
        assert cli.main(["estimate", "shor", "--bits", "1024"]) == 0
        assert built == ["qparch estimate shor"]

    @pytest.mark.parametrize("argv, loaded", [
        (["pulse", "sweep", "--sequences", "8h", "--samples", "8"], False),
        (["frame", "exec", "COMPACT"], False),
        (["estimate", "shor", "--bits", "512,1024"], False),
        (["frame", "exec", "SPACED"], True),
        (["estimate", "shor", "--bits", "1024"], True),
        (["qec", "distance"], True),
    ], ids=["pulse-sweep", "frame-exec", "shor-csv", "frame-exec-spaced-line", "shor-json", "qec-json"])
    def test_json_is_loaded_only_where_json_is_read_or_written(self, argv, loaded, tmp_path):
        lines = {"COMPACT": '{"op":"pauli","p":"X","q":0}', "SPACED": '{"op": "pauli", "p": "X", "q": 0}'}
        for name, line in lines.items():
            (tmp_path / name).write_text(line + '\n{"op":"measure","basis":"Z","q":0,"raw":1}\n')
        argv = [str(tmp_path / arg) if arg in lines else arg for arg in argv]
        script = """
import contextlib, io, sys
from qparch import cli
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(sys.argv[1:]) == 0, sys.argv
print("json" in sys.modules)
"""
        result = subprocess.run([sys.executable, "-c", script, *argv], capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        assert result.stdout == f"{loaded}\n"

    @pytest.mark.parametrize("argv, absent", [
        (["qec", "distance"], {"pauli_frame", "pulses"}),
        (["estimate", "shor", "--bits", "1024"], {"pauli_frame", "pulses"}),
        (["estimate", "sim", "--particles", "61"], {"pauli_frame", "pulses"}),
        (["frame", "exec", "CIRCUIT"], {"distillation", "estimates", "pulses", "qec"}),
        (["pulse", "sweep", "--sequences", "8h", "--samples", "8"],
         {"distillation", "estimates", "pauli_frame"}),
        ([], {"cli", "distillation", "errors", "estimates", "pauli_frame", "pulses", "qec"}),
    ], ids=["qec-distance", "estimate-shor", "estimate-sim", "frame-exec", "pulse-sweep", "bare-import"])
    def test_each_command_imports_only_the_layers_it_runs(self, argv, absent, tmp_path):
        circuit = tmp_path / "circuit.jsonl"
        circuit.write_text('{"op":"pauli","p":"X","q":0}\n{"op":"measure","basis":"Z","q":0,"raw":1}\n')
        argv = [str(circuit) if arg == "CIRCUIT" else arg for arg in argv]
        script = """
import contextlib, io, sys
import qparch
if sys.argv[1:]:
    from qparch import cli
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(sys.argv[1:]) == 0, sys.argv
print(" ".join(name for name in sys.modules if name.startswith("qparch.")))
"""
        result = subprocess.run([sys.executable, "-c", script, *argv], capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        loaded = {name.removeprefix("qparch.") for name in result.stdout.split()}
        assert loaded & absent == set()
