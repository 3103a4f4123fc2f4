"""Seeded inputs for the four benchmark workloads.

Everything a workload feeds the program is derived here from the benchmark
seed alone, before any timing starts: the pulse-sweep flags, the virtual-gate
seeds, the frame circuit file and the list of estimator invocations.  Each
command carries the check that its output must pass (see ``checks.py``).

This module uses the standard library only, because every timed
``virtual_gate.py`` process imports its constants.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from pathlib import Path

from checks import FrameTracker, format_instruction

WORKLOADS = ("pulse-sweep", "virtual-gate", "frame-exec", "estimate-cli")

# Confirm later performance claims on this seed; do not tune against it.
HELD_OUT_SEED = 20101022

SAMPLES = 20000
TAU = 1e-9
T2_STAR = 2e-9

SWEEP_SEQUENCES = ("8H", "CP", "UDD")
SWEEP_PULSE_ERRORS = (0.0, 0.005, 0.01)

VG_THETAS = (math.pi / 2, math.pi)
VG_PULSE_ERRORS = (0.0, 0.01)

FRAME_INSTRUCTIONS = 200_000
FRAME_QUBITS = 1000

PAPER_SWEEP_BITS = (512, 1024, 2048, 4096, 8192, 16384)
PAPER_MACHINE_QUBITS = 100_000
PAPER_TARGET_ERROR = 8.6e-19


@dataclass(frozen=True)
class Command:
    """One operation: a fresh ``python -m qparch.cli`` or virtual-gate process.

    ``kind`` is ``"cli"`` or ``"virtual_gate"``; ``argv`` is what follows the
    module or script; ``check`` names the output check and ``expect`` holds
    its parameters.
    """

    kind: str
    argv: tuple[str, ...]
    check: str
    expect: dict = field(default_factory=dict, compare=False)


@dataclass
class Plan:
    """A workload's inputs: the commands of one pass and the work they do.

    For a one-command pass, ``work`` counts what the command processes
    (Monte-Carlo samples times grid points, or circuit instructions) and
    ``rate`` names the resulting throughput metric.
    """

    workload: str
    seed: int
    commands: list[Command]
    work: int = 0
    rate: str = ""


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def pulse_sweep_plan(seed: int) -> Plan:
    points = [
        {"label": name, "pulse_error": error} for name in SWEEP_SEQUENCES for error in SWEEP_PULSE_ERRORS
    ]
    points.append({"label": "free", "pulse_error": 0.0})
    for point in points:
        point.update(tau=TAU, t2_star=T2_STAR, samples=SAMPLES, seed=seed)
    argv = (
        "pulse", "sweep",
        "--sequences", ",".join(name.lower() for name in SWEEP_SEQUENCES),
        "--pulse-errors", ",".join(repr(e) for e in SWEEP_PULSE_ERRORS),
        "--tau", repr(TAU), "--samples", str(SAMPLES), "--seed", str(seed), "--baseline",
    )
    command = Command("cli", argv, "pulse_rows", {"points": points})
    return Plan("pulse-sweep", seed, [command], work=SAMPLES * len(points), rate="samples_per_s")


def virtual_gate_plan(seed: int) -> Plan:
    rng = _rng("virtual-gate", seed)
    points = []
    argv: list[str] = []
    for theta in VG_THETAS:
        for error in VG_PULSE_ERRORS:
            point_seed = rng.randrange(2 ** 31)
            points.append({
                "label": "BB1", "theta": theta, "pulse_error": error, "tau": TAU,
                "t2_star": T2_STAR, "samples": SAMPLES, "seed": point_seed,
            })
            argv += ["--point", f"{theta!r},{error!r},{point_seed}"]
    command = Command("virtual_gate", tuple(argv), "pulse_rows", {"points": points})
    return Plan("virtual-gate", seed, [command], work=SAMPLES * len(points), rate="samples_per_s")


def random_instruction(rng: random.Random, num_qubits: int) -> tuple:
    """One frame instruction as ``(op, name, qubit, arg)``.

    ``arg`` is the CNOT target or the raw measurement outcome.  The mix is
    30% Pauli, 35% H/S/S_dagger, 20% CNOT and 15% measurement.
    """
    r = rng.random()
    q = rng.randrange(num_qubits)
    if r < 0.30:
        return ("pauli", rng.choice("XYZ"), q, None)
    if r < 0.45:
        return ("clifford", "H", q, None)
    if r < 0.55:
        return ("clifford", "S", q, None)
    if r < 0.65:
        return ("clifford", "S_dagger", q, None)
    if r < 0.85:
        t = rng.randrange(num_qubits - 1)
        return ("clifford", "CNOT", q, t + (t >= q))
    return ("measure", rng.choice("XYZ"), q, rng.choice((1, -1)))


def write_circuit(path: Path, seed: int, instructions: int, num_qubits: int) -> dict:
    """Write a seeded JSON-lines circuit and return what the frame must produce."""
    rng = _rng("frame-exec", seed)
    tracker = FrameTracker(num_qubits)
    highest = -1
    with open(path, "w", encoding="utf-8") as handle:
        for _ in range(instructions):
            instr = random_instruction(rng, num_qubits)
            handle.write(format_instruction(instr) + "\n")
            tracker.apply(instr)
            highest = max(highest, instr[2], instr[3] if instr[1] == "CNOT" else -1)
    return {"outcomes": tracker.outcomes, "frame": tracker.letters()[: highest + 1]}


def frame_exec_plan(seed: int, work_dir: Path) -> Plan:
    path = work_dir / f"circuit-{seed}.jsonl"
    expect = write_circuit(path, seed, FRAME_INSTRUCTIONS, FRAME_QUBITS)
    command = Command("cli", ("frame", "exec", str(path)), "frame", expect)
    return Plan("frame-exec", seed, [command], work=FRAME_INSTRUCTIONS, rate="instr_per_s")


def _odd_distance(rng: random.Random) -> int:
    return 2 * rng.randrange(1, 26) + 1


def _target(rng: random.Random) -> float:
    return float(f"{10 ** rng.uniform(-20, -3):.3e}")


def estimate_cli_plan(seed: int) -> Plan:
    """Twelve short invocations: two paper anchors plus ten seeded ones."""
    rng = _rng("estimate-cli", seed)
    cmds = [
        Command("cli", ("qec", "distance", "--target-logical-error", repr(PAPER_TARGET_ERROR)),
                "qec_target", {"target": PAPER_TARGET_ERROR, "minimal": 29, "report": 31}),
    ]
    for _ in range(2):
        target = _target(rng)
        cmds.append(Command("cli", ("qec", "distance", "--target-logical-error", repr(target)),
                            "qec_target", {"target": target}))
    for _ in range(2):
        d = _odd_distance(rng)
        cmds.append(Command("cli", ("qec", "distance", "--distance", str(d)), "qec_distance", {"distance": d}))
    for _ in range(2):
        bits = rng.randrange(64, 16385)
        cmds.append(Command("cli", ("estimate", "shor", "--bits", str(bits)), "shor",
                            {"bits": bits, "machine": None}))
    for _ in range(2):
        bits = rng.randrange(64, 16385)
        machine = 6 * bits + rng.randrange(100, 200_000)
        cmds.append(Command(
            "cli",
            ("estimate", "shor", "--bits", str(bits), "--machine-logical-qubits", str(machine)),
            "shor", {"bits": bits, "machine": machine},
        ))
    cmds.append(Command(
        "cli",
        ("estimate", "shor", "--bits", ",".join(map(str, PAPER_SWEEP_BITS)),
         "--machine-logical-qubits", str(PAPER_MACHINE_QUBITS)),
        "shor_sweep", {"bits": list(PAPER_SWEEP_BITS), "machine": PAPER_MACHINE_QUBITS},
    ))
    for _ in range(2):
        particles = rng.randrange(1, 201)
        cmds.append(Command("cli", ("estimate", "sim", "--particles", str(particles)), "sim",
                            {"particles": particles}))
    return Plan("estimate-cli", seed, cmds)


def make_plan(workload: str, seed: int, work_dir: Path) -> Plan:
    if workload == "pulse-sweep":
        return pulse_sweep_plan(seed)
    if workload == "virtual-gate":
        return virtual_gate_plan(seed)
    if workload == "frame-exec":
        return frame_exec_plan(seed, work_dir)
    if workload == "estimate-cli":
        return estimate_cli_plan(seed)
    raise ValueError(f"unknown workload {workload!r}")
