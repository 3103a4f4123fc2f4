"""Process infidelity of the error-compensated (BB1) virtual gate.

The CLI cannot reach this sequence, so the benchmark runs it through this
script, as a user of the library would:

    PYTHONPATH=src python bench/virtual_gate.py --point 3.141592653589793,0.01,7

Each ``--point THETA,PULSE_ERROR,SEED`` prints one CSV row with the mean
infidelity of ``bb1_virtual_gate(THETA)`` against R_X(THETA), with the
workloads' delay, T2* and sample count.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from qparch import pulses

from workloads import SAMPLES, T2_STAR, TAU

CSV_HEADER = "theta,pulse_error,samples,seed,infidelity"


def rx(theta: float) -> np.ndarray:
    """R_X(theta) = exp(-i theta X / 2)."""
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)


def _point(text: str) -> tuple[float, float, int]:
    try:
        theta, error, seed = text.split(",")
        return float(theta), float(error), int(seed)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected THETA,PULSE_ERROR,SEED, got {text!r}") from exc


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--point", type=_point, action="append", required=True)
    args = parser.parse_args(argv)
    rows = [CSV_HEADER]
    for theta, error, seed in args.point:
        sequence = pulses.bb1_virtual_gate(theta, tau=TAU)
        noise = pulses.NoiseModel(t2_star=T2_STAR, pulse_error=error, samples=SAMPLES, seed=seed)
        result = pulses.process_infidelity(sequence, noise, target=rx(theta))
        rows.append(f"{theta!r},{error!r},{SAMPLES},{seed},{result.infidelity!r}")
    sys.stdout.write("\n".join(rows) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
