"""Gauss-Hermite references for the Monte-Carlo pulse workloads.

The only random variable of ``qparch.pulses.NoiseModel`` is one Gaussian
detuning per shot (sigma = sqrt(2)/T2*), so the mean infidelity is a 1-D
Gaussian integral of g(delta) = 1 - |tr(target^dag U(delta))|^2 / 4.  This
module integrates g and g^2 by probabilists' Gauss-Hermite quadrature, using
the public ``sequence_unitary``, doubling the node count until the mean is
converged to a thousandth of the Monte-Carlo standard error
sqrt(Var g / samples).
"""

from __future__ import annotations

import math

import numpy as np
from numpy.polynomial.hermite_e import hermegauss

from qparch import pulses

from virtual_gate import rx

FIRST_NODES = 16
MAX_NODES = 1024


def point_sequence(point: dict) -> tuple[pulses.PulseSequence, np.ndarray]:
    """The sequence and target unitary a grid point describes."""
    label, tau = point["label"], point["tau"]
    if label == "BB1":
        return pulses.bb1_virtual_gate(point["theta"], tau=tau), rx(point["theta"])
    if label == "free":
        return pulses.free_evolution(8 * tau), np.eye(2, dtype=complex)
    return pulses.build_sequence(label, tau), np.eye(2, dtype=complex)


def _moments(sequence, target, pulse_error: float, sigma: float, nodes: int) -> tuple[float, float]:
    x, w = hermegauss(nodes)
    w = w / math.sqrt(2 * math.pi)
    g = np.array([
        1.0 - min(1.0, abs(np.trace(target.conj().T @ pulses.sequence_unitary(
            sequence, detuning=sigma * xi, pulse_error=pulse_error))) ** 2 / 4)
        for xi in x
    ])
    return float(w @ g), float(w @ (g * g))


def reference(point: dict) -> dict:
    """Quadrature mean and Monte-Carlo standard error of one grid point."""
    sequence, target = point_sequence(point)
    sigma = math.sqrt(2) / point["t2_star"]
    nodes = FIRST_NODES
    mean, second = _moments(sequence, target, point["pulse_error"], sigma, nodes)
    while True:
        se = math.sqrt(max(second - mean * mean, 0.0) / point["samples"])
        nodes *= 2
        if nodes > MAX_NODES:
            raise RuntimeError(f"quadrature did not converge for {point}")
        new_mean, second = _moments(sequence, target, point["pulse_error"], sigma, nodes)
        converged = abs(new_mean - mean) <= 1e-3 * se
        mean = new_mean
        if converged:
            se = math.sqrt(max(second - mean * mean, 0.0) / point["samples"])
            return {**point, "mean": mean, "se": se, "nodes": nodes}

