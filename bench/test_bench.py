"""Tests of the benchmark itself: inputs, tracer, and that every check flags an altered output.

Run with ``PYTHONPATH=src python -m pytest -q bench``.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from pathlib import Path

import checks
import reference
import tracing
import virtual_gate
import workloads
from run import END_TO_END_UNITS, SETUP_UNITS, parse_importtime, tail

from qparch import cli

ROOT = Path(__file__).resolve().parent.parent


def _stdout(main, argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    return out.getvalue()


def _point(label, pulse_error, samples, seed, **extra) -> dict:
    point = {"label": label, "pulse_error": pulse_error, "tau": 1e-9, "t2_star": 2e-9,
             "samples": samples, "seed": seed, **extra}
    return reference.reference(point)


def _replace_last_field(text: str, row: int, value: float) -> str:
    lines = text.splitlines()
    fields = lines[row].split(",")
    fields[-1] = repr(value)
    lines[row] = ",".join(fields)
    return "\n".join(lines) + "\n"


def test_pulse_sweep_check_accepts_output_and_flags_alterations():
    points = [_point("8H", 0.01, 2000, 3), _point("free", 0.0, 2000, 3)]
    text = _stdout(cli.main, ["pulse", "sweep", "--sequences", "8h", "--pulse-errors", "0.01",
                              "--tau", "1e-9", "--samples", "2000", "--seed", "3", "--baseline"])
    assert checks.check_pulse_rows("cli", text, points) == []

    shifted = points[0]["mean"] + 6 * points[0]["se"]
    assert checks.check_pulse_rows("cli", _replace_last_field(text, 1, shifted), points)
    assert checks.check_pulse_rows("cli", _replace_last_field(text, 2, math.nan), points)
    assert checks.check_pulse_rows("cli", text.replace("infidelity", "infid"), points)
    assert checks.check_pulse_rows("cli", "\n".join(text.splitlines()[:2]) + "\n", points)
    assert checks.check_pulse_rows("cli", text.replace(",3,", ",4,"), points)


def test_virtual_gate_check_accepts_output_and_flags_alterations(monkeypatch):
    monkeypatch.setattr(virtual_gate, "SAMPLES", 1000)
    theta = math.pi / 2
    points = [_point("BB1", 0.01, 1000, 5, theta=theta)]
    text = _stdout(virtual_gate.main, ["--point", f"{theta!r},0.01,5"])
    assert checks.check_pulse_rows("virtual_gate", text, points) == []
    shifted = points[0]["mean"] - 6 * points[0]["se"]
    assert checks.check_pulse_rows("virtual_gate", _replace_last_field(text, 1, shifted), points)


def test_quadrature_reference_agrees_with_closed_form():
    # Free evolution over whole Larmor turns: 1 - F = (1 - exp(-(sigma t)^2 / 2)) / 2.
    point = _point("free", 0.0, 20000, 0)
    sigma_t = math.sqrt(2) / 2e-9 * 8e-9
    assert math.isclose(point["mean"], (1 - math.exp(-sigma_t ** 2 / 2)) / 2, rel_tol=1e-9)


def test_frame_tracker_matches_engine_and_check_flags_alterations(tmp_path):
    path = tmp_path / "circuit.jsonl"
    expect = workloads.write_circuit(path, seed=11, instructions=3000, num_qubits=25)
    assert len(expect["outcomes"]) > 300
    text = _stdout(cli.main, ["frame", "exec", str(path)])
    assert checks.check_frame(text, expect) == []

    result = json.loads(text)
    flipped = dict(result, outcomes=[-result["outcomes"][0]] + result["outcomes"][1:])
    assert checks.check_frame(json.dumps(flipped), expect)
    letters = result["frame"]
    altered = dict(result, frame=["X" if letters[0] != "X" else "Z"] + letters[1:])
    assert checks.check_frame(json.dumps(altered), expect)
    assert checks.check_frame(json.dumps({"outcomes": result["outcomes"]}), expect)


def test_estimate_checks_accept_every_command_and_flag_alterations():
    plan = workloads.estimate_cli_plan(seed=3)
    outputs = {}
    for command in plan.commands:
        text = _stdout(cli.main, list(command.argv))
        assert checks.check_output(command, text) == [], command.argv
        outputs[command.check] = outputs.get(command.check) or (command, text)

    command, text = outputs["shor_sweep"]
    assert checks.check_output(command, text.replace("81.47222222222223", "81.7"))
    assert checks.check_output(command, text.replace("runtime_s", "runtime"))

    command = plan.commands[0]  # the paper's 8.6e-19 target
    report = json.loads(_stdout(cli.main, list(command.argv)))
    report["minimal"]["distance"] = 31
    assert checks.check_output(command, json.dumps(report))

    command, text = outputs["shor"]
    report = json.loads(text)
    assert checks.check_output(command, json.dumps(dict(report, runtime_seconds=math.inf)))
    del report["throttle_factor"]
    assert checks.check_output(command, json.dumps(report))

    command, text = outputs["qec_distance"]
    report = json.loads(text)
    report["requested"]["distance"] += 2
    assert checks.check_output(command, json.dumps(report))


def test_plans_depend_on_the_seed_alone(tmp_path):
    for make in (workloads.pulse_sweep_plan, workloads.virtual_gate_plan, workloads.estimate_cli_plan):
        assert make(5).commands == make(5).commands
        assert make(5).commands != make(6).commands
    a = workloads.write_circuit(tmp_path / "a", 5, 500, 10)
    b = workloads.write_circuit(tmp_path / "b", 5, 500, 10)
    assert a == b and (tmp_path / "a").read_text() == (tmp_path / "b").read_text()


def test_tracer_records_layers_and_counts_missing_functions_as_zero(tmp_path, monkeypatch):
    path = tmp_path / "circuit.jsonl"
    workloads.write_circuit(path, seed=2, instructions=400, num_qubits=8)
    monkeypatch.setitem(tracing.LAYERS, "pauli_frame",
                        tracing.LAYERS["pauli_frame"] + ("no_longer_exists",))
    commands = [{"kind": "cli", "argv": ["frame", "exec", str(path)]},
                {"kind": "cli", "argv": ["estimate", "shor", "--bits", "1024"]}]
    result = tracing.run(commands, seconds=0)
    layers = result["layers"]
    assert set(layers) == set(tracing.LAYER_UNITS)
    assert layers["pauli_frame.instructions"] == 400
    assert layers["estimates.reports"] == 1 and layers["qec.calls"] > 0
    assert layers["pulses.process_infidelity.calls"] == 0
    assert 0 < layers["cli.self_s"] < layers["cli.main.s"]
    assert all(r["exit"] == 0 for p in result["passes"] for r in p["results"])
    from qparch import pauli_frame
    assert not hasattr(pauli_frame.load_circuit, "__wrapped__")


def test_self_time_subtracts_direct_children_only():
    S = tracing.Span
    spans = [S(0, "cli.main", 0.0, 10.0, None, 0),
             S(1, "pulses.process_infidelity", 1.0, 9.0, 0, 0, {"segment_products": 80}),
             S(2, "pulses.detuning_samples", 2.0, 7.0, 1, 0, {"draws": 10, "seed": 1}),
             S(3, "pulses.process_infidelity", 9.0, 10.0, 0, 0, {"segment_products": 20}),
             S(4, "pulses.detuning_samples", 9.0, 9.5, 3, 0, {"draws": 10, "seed": 1})]
    m = tracing.layer_metrics(spans, output_bytes=0)
    assert m["cli.self_s"] == 1.0
    assert m["pulses.process_infidelity.s"] == 9.0
    assert m["pulses.process_infidelity.self_s"] == 3.5
    assert m["pulses.draw_useful_ratio"] == 0.5
    assert m["pulses.segment_products_per_s"] == 100 / 3.5


def test_parse_importtime_splits_numpy_from_qparch():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        300 | site",
        "import time:      2000 |     150000 |       numpy",
        "import time:      1000 |     160000 |     qparch.pulses",
        "import time:      1000 |     170000 |   qparch",
        "import time:      4000 |     180000 | qparch.cli",
    ])
    assert parse_importtime(text) == (0.15, 0.03)
    assert parse_importtime(text.replace("numpy", "other")) == (0.0, 0.18)


def test_tail_needs_ten_samples_beyond():
    assert tail([1.0] * 10) is None
    value, percentile, n = tail([float(i) for i in range(40)])
    assert (value, percentile, n) == (29.0, 75.0, 40)


def test_benchmark_json_declares_what_the_benchmark_emits():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END_UNITS
    layer_units = {**SETUP_UNITS, **tracing.LAYER_UNITS}
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layer_units
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
