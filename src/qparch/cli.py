"""Command-line front end.

Subcommands: ``qec distance``, ``estimate shor``, ``estimate sim``,
``pulse sweep``, ``frame exec``.  Reports go to stdout or ``--output`` as
JSON/CSV.  Exit codes: 0 success, 2 usage or parse error, 3 infeasible
model input.  Every invocation is deterministic for fixed flags, profile
and seed.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys

from .errors import InfeasibleInputError

PROFILE_ENV_VAR = "QPARCH_PROFILE"
PULSE_CSV_HEADER = "sequence,pulse_error,tau_s,samples,seed,infidelity"

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INFEASIBLE = 3


def _comma_list(text: str, convert, what: str) -> list:
    """The comma-separated tokens of ``text``, each converted.

    Empty tokens are skipped; a list with none left is a usage error.
    """
    tokens = [tok for tok in text.split(",") if tok != ""]
    if not tokens:
        raise argparse.ArgumentTypeError(f"expected at least one {what}, got {text!r}")
    try:
        return [convert(tok) for tok in tokens]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated {what}s, got {text!r}") from exc


def _comma_ints(text: str) -> list[int]:
    return _comma_list(text, int, "integer")


def _comma_floats(text: str) -> list[float]:
    return _comma_list(text, _float, "number")


def _float(text: str) -> float:
    """``float(text)``, but a nonzero number that underflows to 0.0 is a usage error."""
    value = float(text)
    # A number is zero exactly when its digits before the exponent are all 0;
    # ``int`` reads any decimal digit ``float`` takes, such as "\u0661" (Arabic-Indic 1).
    if value == 0 and any(c.isdecimal() and int(c) for c in text.lower().partition("e")[0]):
        raise argparse.ArgumentTypeError(f"{text} underflows a float to 0.0")
    return value


_float.__name__ = "float"  # argparse names the type in "invalid float value"


def _comma_sequences(text: str) -> list[str]:
    """Upper-cased names; ``pulses.build_sequence`` checks them."""
    return _comma_list(text, lambda token: token.strip().upper(), "sequence")


def _load_profile(path: str | None):
    from . import qec

    path = path or os.environ.get(PROFILE_ENV_VAR)
    if path:
        return qec.HardwareProfile.from_json(path)
    return qec.HardwareProfile()


def _write_output(text: str, path: str | None) -> None:
    if path and path != "-":
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _write_json(value, path: str | None) -> None:
    _write_output(json.dumps(value, indent=2) + "\n", path)


def _given(args: argparse.Namespace, *names: str) -> dict:
    """The options among ``names`` given on the command line; their layers default the rest."""
    return {name: getattr(args, name) for name in names if hasattr(args, name)}


def _cmd_qec_distance(args: argparse.Namespace) -> int:
    from . import qec

    profile = _load_profile(args.profile)
    if args.error_per_gate is not None:
        values = {**profile._asdict(), "error_per_virtual_gate": args.error_per_gate}
        profile = qec.HardwareProfile(**values)  # the constructor checks the new rate

    if args.distance is not None:
        result = {"requested": qec.code_point(profile, args.distance)._asdict()}
    else:
        result = qec.distance_report(profile, args.target_logical_error)
    _write_json(result, args.output)
    return EXIT_OK


def _cmd_estimate(args: argparse.Namespace) -> int:
    """One report as JSON, or a factoring sweep's reports, one per bit size, as CSV."""
    from . import estimates, qec

    profile = _load_profile(args.profile)
    code = qec.code_point(profile, **_given(args, "distance"))
    level = _given(args, "level")
    if args.subcommand == "sim":
        workload = estimates.SimWorkload(**_given(args, *estimates.SimWorkload._fields))
        reports = [estimates.sim_estimate(workload, profile, code, **level)]
    else:
        reports = [
            estimates.shor_estimate(
                estimates.ShorWorkload(bits, args.machine_logical_qubits), profile, code, **level
            )
            for bits in args.bits
        ]
    if len(reports) == 1:
        _write_json(reports[0]._asdict(), args.output)
    else:
        _write_output(estimates.sweep_to_csv(reports), args.output)
    return EXIT_OK


def _cmd_pulse_sweep(args: argparse.Namespace) -> int:
    from . import pulses  # numpy is loaded only by the commands that simulate pulses

    profile = _load_profile(args.profile)
    t2_star = None if args.t2_star == 0 else args.t2_star
    # Every sequence is built, so every name and delay is checked, before any runs.
    runs = [
        (name, pulses.build_sequence(name, args.tau, profile.larmor_period), args.pulse_errors)
        for name in args.sequences
    ]
    if args.baseline:
        runs.append(("free", pulses.free_evolution(8 * args.tau, profile.larmor_period), [0.0]))
    rows = [PULSE_CSV_HEADER]
    for name, sequence, pulse_errors in runs:
        for pulse_error in pulse_errors:
            noise = pulses.NoiseModel(
                t2_star=t2_star, pulse_error=pulse_error, samples=args.samples, seed=args.seed
            )
            result = pulses.process_infidelity(sequence, noise)
            rows.append(
                f"{name},{pulse_error!r},{args.tau!r},{args.samples},{args.seed},"
                f"{result.infidelity!r}"
            )
    _write_output("\n".join(rows) + "\n", args.output)
    return EXIT_OK


def _cmd_frame_exec(args: argparse.Namespace) -> int:
    from . import pauli_frame

    circuit = pauli_frame.load_circuit(args.circuit)
    # The constructor checks the size's range, and ``run_circuit`` that the circuit fits.
    frame = pauli_frame.PauliFrame(circuit.num_qubits if args.num_qubits is None else args.num_qubits)
    final, outcomes = pauli_frame.run_circuit(frame, circuit)
    del circuit, frame  # free the columns before the report is formatted
    _write_output(pauli_frame.format_report(final, outcomes), args.output)
    return EXIT_OK


class _ArgumentParser(argparse.ArgumentParser):
    """Reads a token of "-" and a digit, "-." and a digit, or "-inf", "-infinity" or
    "-nan" in any case, as a number; subparsers inherit it."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # Private: argparse 3.10 to 3.13 ``match`` each token against it, and their
        # r"^-\d+$|^-\d*\.\d+$" takes "-1e-3", "-0.01,0,0.01" or "-inf" for an unknown option.
        self._negative_number_matcher = re.compile(r"-(\.?\d|(inf(inity)?|nan)\b)", re.IGNORECASE)


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="qparch",
        description="Resource estimation and control-layer simulation for a layered quantum computer.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    def add_output(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("--output", "-o", default="-", help="output file (default stdout)")

    def add_common(sub: argparse.ArgumentParser) -> None:
        """``--profile``, then ``--output``: the commands whose handler loads a profile."""
        sub.add_argument("--profile", help=f"hardware profile JSON (default: ${PROFILE_ENV_VAR} or built-in)")
        add_output(sub)

    def add_code_choice(sub: argparse.ArgumentParser) -> None:
        """``--distance`` and ``--level``; an omitted one takes its layer's default."""
        sub.add_argument("--distance", type=int, default=argparse.SUPPRESS,
                         help="code distance (default: the pinned reporting distance)")
        sub.add_argument("--level", type=int, default=argparse.SUPPRESS,
                         help="distillation level (default: the distillation layer's)")

    qec_parser = subparsers.add_parser("qec", help="surface-code sizing")
    qec_sub = qec_parser.add_subparsers(dest="subcommand", required=True)
    distance = qec_sub.add_parser("distance", help="code distance selection and logical error rates")
    add_common(distance)
    chosen = distance.add_mutually_exclusive_group()
    chosen.add_argument(
        "--target-logical-error",
        type=_float,
        default=1e-2,
        help="target error per logical gate for the minimal-distance search (default %(default)s)",
    )
    chosen.add_argument("--distance", type=int, help="evaluate one explicit code distance instead")
    distance.add_argument("--error-per-gate", type=_float, help="override the profile's error per virtual gate")
    distance.set_defaults(handler=_cmd_qec_distance)

    estimate = subparsers.add_parser("estimate", help="application resource budgets")
    estimate_sub = estimate.add_subparsers(dest="subcommand", required=True)

    shor = estimate_sub.add_parser("shor", help="integer-factoring budget")
    add_common(shor)
    shor.add_argument("--bits", type=_comma_ints, required=True,
                      help="key size in bits; a comma list emits a CSV sweep")
    shor.add_argument("--machine-logical-qubits", type=int,
                      help="fixed machine size; omitted = factory sized to demand")
    add_code_choice(shor)
    shor.set_defaults(handler=_cmd_estimate)

    sim = estimate_sub.add_parser("sim", help="molecular-simulation budget")
    add_common(sim)
    sim.add_argument("--particles", type=int, required=True)
    sim.add_argument("--bits-precision", type=int, default=argparse.SUPPRESS)
    sim.add_argument("--timesteps", type=int, default=argparse.SUPPRESS)
    add_code_choice(sim)
    sim.set_defaults(handler=_cmd_estimate)

    pulse = subparsers.add_parser("pulse", help="pulse-level simulation")
    pulse_sub = pulse.add_subparsers(dest="subcommand", required=True)
    sweep = pulse_sub.add_parser("sweep", help="decoupling infidelity sweep (CSV)")
    add_common(sweep)
    sweep.add_argument("--sequences", type=_comma_sequences, default=["8H", "CP", "UDD"],
                       help="comma list from 8h,cp,udd (default all)")
    sweep.add_argument("--pulse-errors", type=_comma_floats, default=[0.0],
                       help="comma list of relative pulse errors")
    sweep.add_argument("--tau", type=_float, default=1e-9, help="base delay in seconds (default %(default)s)")
    sweep.add_argument("--samples", type=int, default=20000)
    sweep.add_argument("--seed", type=int, default=0)
    sweep.add_argument("--t2-star", type=_float, default=2e-9,
                       help="ensemble dephasing time in seconds; 0 disables dephasing")
    sweep.add_argument("--baseline", action="store_true",
                       help="append a pulse-free evolution row of equal duration")
    sweep.set_defaults(handler=_cmd_pulse_sweep)

    frame = subparsers.add_parser("frame", help="Pauli-frame execution")
    frame_sub = frame.add_subparsers(dest="subcommand", required=True)
    execute = frame_sub.add_parser("exec", help="run a JSON-lines circuit against a fresh frame")
    add_output(execute)
    execute.add_argument("circuit", help="circuit file, one JSON instruction per line")
    execute.add_argument("--num-qubits", type=int, help="frame size (default: inferred)")
    execute.set_defaults(handler=_cmd_frame_exec)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except InfeasibleInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
