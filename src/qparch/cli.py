"""Command-line front end.

Subcommands: ``qec distance``, ``estimate shor``, ``estimate sim``,
``pulse sweep``, ``frame exec``.  Reports go to stdout or ``--output`` as
JSON/CSV.  Exit codes: 0 success, 2 usage or parse error, 3 infeasible
model input.  Every invocation is deterministic for fixed flags, profile
and seed.
"""

from __future__ import annotations

import argparse
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


def _path(text: str) -> str:
    if not text:  # "" names no file: it is neither stdout nor "no profile given"
        raise argparse.ArgumentTypeError("expected a file path, got ''")
    return text


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
    import json  # loaded only by the commands that write JSON
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
    # Every sequence and noise model is built, so every input is checked, before any runs.
    runs = [
        (name, pulses.build_sequence(name, args.tau, profile.larmor_period), args.pulse_errors)
        for name in args.sequences
    ]
    if args.baseline:
        runs.append(("free", pulses.free_evolution(8 * args.tau, profile.larmor_period), [0.0]))
    points = [
        (name, sequence, pulses.NoiseModel(t2_star=t2_star, pulse_error=pulse_error,
                                           samples=args.samples, seed=args.seed))
        for name, sequence, pulse_errors in runs for pulse_error in pulse_errors
    ]
    results = pulses.process_infidelities((sequence, noise, None) for _, sequence, noise in points)
    rows = [PULSE_CSV_HEADER]
    for (name, _, noise), result in zip(points, results):
        rows.append(
            f"{name},{noise.pulse_error!r},{args.tau!r},{args.samples},{args.seed},{result.infidelity!r}"
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


def _add_arguments(sub: argparse.ArgumentParser, command: str, subcommand: str) -> None:
    """Give ``sub``, the parser of the leaf ``command subcommand``, its options and handler."""
    if command != "frame":  # the commands whose handler loads a hardware profile
        sub.add_argument("--profile", type=_path,
                         help=f"hardware profile JSON (default: ${PROFILE_ENV_VAR} or built-in)")
    sub.add_argument("--output", "-o", type=_path, default="-", help="output file (default stdout)")
    if command == "qec":
        chosen = sub.add_mutually_exclusive_group()
        chosen.add_argument("--target-logical-error", type=_float, default=1e-2, help="target error per "
                            "logical gate for the minimal-distance search (default %(default)s)")
        chosen.add_argument("--distance", type=int, help="evaluate one explicit code distance instead")
        sub.add_argument("--error-per-gate", type=_float, help="override the profile's error per virtual gate")
        sub.set_defaults(handler=_cmd_qec_distance)
    elif command == "estimate":
        if subcommand == "shor":
            sub.add_argument("--bits", type=_comma_ints, required=True,
                             help="key size in bits; a comma list emits a CSV sweep")
            sub.add_argument("--machine-logical-qubits", type=int,
                             help="fixed machine size; omitted = factory sized to demand")
        else:
            sub.add_argument("--particles", type=int, required=True)
            sub.add_argument("--bits-precision", type=int, default=argparse.SUPPRESS)
            sub.add_argument("--timesteps", type=int, default=argparse.SUPPRESS)
        # An omitted --distance or --level takes its layer's default.
        sub.add_argument("--distance", type=int, default=argparse.SUPPRESS,
                         help="code distance (default: the pinned reporting distance)")
        sub.add_argument("--level", type=int, default=argparse.SUPPRESS,
                         help="distillation level (default: the distillation layer's)")
        sub.set_defaults(handler=_cmd_estimate)
    elif command == "pulse":
        sub.add_argument("--sequences", type=_comma_sequences, default=["8H", "CP", "UDD"],
                         help="comma list from 8h,cp,udd (default all)")
        sub.add_argument("--pulse-errors", type=_comma_floats, default=[0.0],
                         help="comma list of relative pulse errors")
        sub.add_argument("--tau", type=_float, default=1e-9, help="base delay in seconds (default %(default)s)")
        sub.add_argument("--samples", type=int, default=20000)
        sub.add_argument("--seed", type=int, default=0)
        sub.add_argument("--t2-star", type=_float, default=2e-9,
                         help="ensemble dephasing time in seconds; 0 disables dephasing")
        sub.add_argument("--baseline", action="store_true",
                         help="append a pulse-free evolution row of equal duration")
        sub.set_defaults(handler=_cmd_pulse_sweep)
    else:
        sub.add_argument("circuit", help="circuit file, one JSON instruction per line")
        sub.add_argument("--num-qubits", type=int, help="frame size (default: inferred)")
        sub.set_defaults(handler=_cmd_frame_exec)


# (command, subcommand) of each leaf: (command help, subcommand help)
_LEAVES = {
    ("qec", "distance"): ("surface-code sizing", "code distance selection and logical error rates"),
    ("estimate", "shor"): ("application resource budgets", "integer-factoring budget"),
    ("estimate", "sim"): ("application resource budgets", "molecular-simulation budget"),
    ("pulse", "sweep"): ("pulse-level simulation", "decoupling infidelity sweep (CSV)"),
    ("frame", "exec"): ("Pauli-frame execution", "run a JSON-lines circuit against a fresh frame"),
}


def build_parser() -> argparse.ArgumentParser:
    """The full command tree, the one that reports help, bad choices and unrecognized arguments."""
    parser = _ArgumentParser(
        prog="qparch",
        description="Resource estimation and control-layer simulation for a layered quantum computer.",
    )
    commands, subcommands = parser.add_subparsers(dest="command", required=True), {}
    for (command, subcommand), (command_help, subcommand_help) in _LEAVES.items():
        if command not in subcommands:
            parsers = commands.add_parser(command, help=command_help)
            subcommands[command] = parsers.add_subparsers(dest="subcommand", required=True)
        _add_arguments(subcommands[command].add_parser(subcommand, help=subcommand_help), command, subcommand)
    return parser


def _parse(argv: list[str] | None) -> argparse.Namespace:
    """``argv`` parsed by the parser of the leaf that ``argv[0:2]`` names, built alone.

    ``argv`` naming no leaf, or with arguments the leaf leaves over, goes to the full tree,
    so help, a bad choice and unrecognized arguments read as the tree prints them.
    """
    argv = sys.argv[1:] if argv is None else argv
    if tuple(argv[:2]) in _LEAVES:
        parser = _ArgumentParser(prog=f"qparch {argv[0]} {argv[1]}")
        _add_arguments(parser, *argv[:2])
        args, extras = parser.parse_known_args(argv[2:], argparse.Namespace(command=argv[0], subcommand=argv[1]))
        if not extras:
            return args
    return build_parser().parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
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
