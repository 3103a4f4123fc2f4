"""Executable model of a layered quantum-computer architecture.

One module per layer, each imported on its own: ``qec`` (surface-code
sizing), ``pauli_frame`` (classical Pauli-frame tracking), ``pulses``
(pulse-level simulation of the virtual-qubit control layer),
``distillation`` (magic-state throughput), ``estimates`` (end-to-end
budgets for integer factoring and first-quantized molecular simulation),
``errors`` (the shared exceptions and numeric-input rule) and ``cli``.
Importing the package loads none of them.
"""

__version__ = "0.1.0"
