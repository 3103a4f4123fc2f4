"""Traced in-process run: the per-layer split of a workload.

The tracer works from outside the program.  It replaces the public functions
of each ``qparch`` layer module by wrappers that record a span (name, start,
end, parent span, and the command it belongs to) plus the work counts the
call carries, then drives ``qparch.cli.main(argv)`` or the virtual-gate
driver's ``main(argv)`` in this process.  Spans stay in memory and are
written out when the run ends.  A function that no longer exists is not
wrapped, so it shows as zero calls.

Each round runs the workload's commands once untraced and once traced, in
this process, so that their difference is the tracing overhead.  The budget
is the run's ``--seconds``, and there are always at least three rounds.

Usage: ``PYTHONPATH=src python bench/tracing.py PLAN.json RESULT.json``,
where PLAN.json holds ``{"commands": [{"kind": ..., "argv": [...]}, ...],
"seconds": budget}``.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import io
import json
import statistics
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import asdict, dataclass, field

LAYERS = {
    "pulses": ("process_infidelity", "detuning_samples", "build_sequence", "bb1_virtual_gate",
               "free_evolution"),
    "pauli_frame": ("load_circuit", "run_circuit", "circuit_qubit_count"),
    "estimates": ("shor_estimate", "sim_estimate", "shor_sweep", "sweep_to_csv"),
    "qec": ("code_point", "min_code_distance", "logical_error_rate", "failure_probability",
            "footprint", "logical_gate_times"),
    "distillation": ("distillation_volume", "factory_rate", "required_factory_area", "toffoli_time"),
}
BUILDERS = ("pulses.build_sequence", "pulses.bb1_virtual_gate", "pulses.free_evolution")
REPORTS = ("estimates.shor_estimate", "estimates.sim_estimate")
MIN_ROUNDS = 3
MAX_ROUNDS = 20

# Every metric ``layer_metrics`` reports, with its unit.
LAYER_UNITS = {
    "pulses.process_infidelity.calls": "count",
    "pulses.process_infidelity.s": "s",
    "pulses.process_infidelity.self_s": "s",
    "pulses.detuning_samples.s": "s",
    "pulses.samples_drawn": "count",
    "pulses.draw_useful_ratio": "ratio",
    "pulses.segment_products": "count",
    "pulses.segment_products_per_s": "1/s",
    "pulses.build_s": "s",
    "pauli_frame.load_circuit.s": "s",
    "pauli_frame.run_circuit.s": "s",
    "pauli_frame.circuit_qubit_count.s": "s",
    "pauli_frame.instructions": "count",
    "pauli_frame.measurements": "count",
    "pauli_frame.parse_instr_per_s": "1/s",
    "pauli_frame.update_instr_per_s": "1/s",
    "estimates.reports": "count",
    "estimates.report_us": "us",
    "estimates.sweep_to_csv.s": "s",
    "qec.calls": "count",
    "qec.s": "s",
    "distillation.calls": "count",
    "cli.main.s": "s",
    "cli.self_s": "s",
    "cli.output_bytes": "bytes",
}


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    request: int
    work: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _arg(args, kwargs, index: int, name: str):
    return kwargs[name] if name in kwargs else args[index]


def _work(name: str, args, kwargs, result) -> dict:
    """Work counts recorded at the layer boundary, from arguments and results."""
    if name == "pulses.process_infidelity":
        sequence, noise = _arg(args, kwargs, 0, "sequence"), _arg(args, kwargs, 1, "noise")
        return {"segment_products": len(sequence.segments) * noise.samples}
    if name == "pulses.detuning_samples":
        noise = _arg(args, kwargs, 0, "noise")
        return {} if noise.t2_star is None else {"draws": noise.samples, "seed": noise.seed}
    if name == "pauli_frame.load_circuit":
        return {"instructions": len(result)}
    if name == "pauli_frame.run_circuit":
        return {"measurements": len(result[1])}
    return {}


class Tracer:
    """Records spans in memory while its wrappers are installed."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.request = 0
        self._stack: list[Span] = []
        self._clock = time.perf_counter

    def open(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, self._clock(), 0.0, parent, self.request)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = self._clock()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        span = self.open(name)
        try:
            yield span
        finally:
            self.close(span)

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            span.work = _work(name, args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every public layer function that exists; restore them on exit."""
        originals = []
        for layer, names in LAYERS.items():
            module = importlib.import_module(f"qparch.{layer}")
            for name in names:
                fn = getattr(module, name, None)
                if callable(fn):
                    originals.append((module, name, fn))
                    setattr(module, name, self._wrap(f"{layer}.{name}", fn))
        try:
            yield self
        finally:
            for module, name, fn in originals:
                setattr(module, name, fn)


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def layer_metrics(spans: list[Span], output_bytes: int) -> dict[str, float]:
    """Per-layer metrics of one traced pass."""
    by_id = {s.id: s for s in spans}
    child_seconds: dict[int, float] = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            child_seconds[s.parent] += s.seconds

    def named(*names):
        return [s for s in spans if s.name in names]

    def total(*names):
        return sum(s.seconds for s in named(*names))

    def self_seconds(name):
        return sum(s.seconds - child_seconds[s.id] for s in named(name))

    def outermost(names):
        return sum(
            s.seconds for s in spans
            if s.name in names and (s.parent is None or by_id[s.parent].name not in names)
        )

    draws_by_seed: dict[int, int] = defaultdict(int)
    draws = 0
    for s in named("pulses.detuning_samples"):
        if "draws" in s.work:
            draws += s.work["draws"]
            draws_by_seed[s.work["seed"]] = max(draws_by_seed[s.work["seed"]], s.work["draws"])
    products = sum(s.work.get("segment_products", 0) for s in named("pulses.process_infidelity"))
    pi_self = self_seconds("pulses.process_infidelity")
    instructions = sum(s.work.get("instructions", 0) for s in named("pauli_frame.load_circuit"))
    load_s = total("pauli_frame.load_circuit")
    run_s = total("pauli_frame.run_circuit")
    reports = len(named(*REPORTS))
    qec_names = {f"qec.{n}" for n in LAYERS["qec"]}
    return {
        "pulses.process_infidelity.calls": len(named("pulses.process_infidelity")),
        "pulses.process_infidelity.s": total("pulses.process_infidelity"),
        "pulses.process_infidelity.self_s": pi_self,
        "pulses.detuning_samples.s": total("pulses.detuning_samples"),
        "pulses.samples_drawn": draws,
        "pulses.draw_useful_ratio": _ratio(sum(draws_by_seed.values()), draws),
        "pulses.segment_products": products,
        "pulses.segment_products_per_s": _ratio(products, pi_self),
        "pulses.build_s": outermost(set(BUILDERS)),
        "pauli_frame.load_circuit.s": load_s,
        "pauli_frame.run_circuit.s": run_s,
        "pauli_frame.circuit_qubit_count.s": total("pauli_frame.circuit_qubit_count"),
        "pauli_frame.instructions": instructions,
        "pauli_frame.measurements": sum(
            s.work.get("measurements", 0) for s in named("pauli_frame.run_circuit")
        ),
        "pauli_frame.parse_instr_per_s": _ratio(instructions, load_s),
        "pauli_frame.update_instr_per_s": _ratio(instructions, run_s),
        "estimates.reports": reports,
        "estimates.report_us": 1e6 * _ratio(total(*REPORTS), reports),
        "estimates.sweep_to_csv.s": total("estimates.sweep_to_csv"),
        "qec.calls": sum(1 for s in spans if s.name in qec_names),
        "qec.s": outermost(qec_names),
        "distillation.calls": sum(1 for s in spans if s.name.startswith("distillation.")),
        "cli.main.s": total("cli.main"),
        "cli.self_s": self_seconds("cli.main"),
        "cli.output_bytes": output_bytes,
    }


def _entry(kind: str):
    if kind == "cli":
        return importlib.import_module("qparch.cli").main
    if kind == "virtual_gate":
        return importlib.import_module("virtual_gate").main
    raise ValueError(f"unknown command kind {kind!r}")


def run_command(kind: str, argv: list[str], tracer: Tracer | None) -> dict:
    """Run one command in this process, capturing its output and exit code."""
    entry = _entry(kind)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            with tracer.span(f"{kind}.main") if tracer else contextlib.nullcontext():
                code = entry(argv)
        except SystemExit as exc:
            code = 0 if exc.code is None else exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a crash is a failed operation, not a failed benchmark
            traceback.print_exc()
            code = 1
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()[-4000:]}


def _pass(commands: list[dict], tracer: Tracer | None) -> tuple[float, list[dict]]:
    """Run every command once, traced if ``tracer`` is given: (seconds, results)."""
    start = time.perf_counter()
    with tracer.installed() if tracer else contextlib.nullcontext():
        results = []
        for index, command in enumerate(commands):
            if tracer:
                tracer.request = index
            results.append(run_command(command["kind"], command["argv"], tracer))
    return time.perf_counter() - start, results


def run(commands: list[dict], seconds: float) -> dict:
    """Rounds of one untraced and one traced pass, for about ``seconds``.

    An unrecorded warm-up pass goes first, so that imports, first large
    allocations and caches are paid before any pass is timed, and the pass
    that goes first alternates between rounds.  There are at least
    ``MIN_ROUNDS`` rounds, so that the overhead is a median of several, and
    at most ``MAX_ROUNDS``; a round beyond the minimum starts only if it
    would end less than half a round late.
    """
    _pass(commands, None)
    passes, spans, metrics = [], [], []
    untraced_s, traced_s = [], []
    start = time.perf_counter()
    while len(traced_s) < MIN_ROUNDS or (
        len(traced_s) < MAX_ROUNDS
        and time.perf_counter() - start + (untraced_s[-1] + traced_s[-1]) / 2 < seconds
    ):
        order = (False, True) if len(traced_s) % 2 == 0 else (True, False)
        for traced in order:
            tracer = Tracer() if traced else None
            seconds_taken, results = _pass(commands, tracer)
            (traced_s if traced else untraced_s).append(seconds_taken)
            passes.append({"traced": traced, "results": results})
            if tracer:
                output_bytes = sum(
                    len(r["stdout"].encode()) for c, r in zip(commands, results) if c["kind"] == "cli"
                )
                metrics.append(layer_metrics(tracer.spans, output_bytes))
                spans.append([asdict(s) for s in tracer.spans])
    layers = {name: statistics.median(m[name] for m in metrics) for name in metrics[0]}
    return {
        "untraced_pass_s": untraced_s,
        "traced_pass_s": traced_s,
        "layers": layers,
        "passes": passes,
        "spans": spans,
    }


def main(argv: list[str]) -> int:
    plan_path, result_path = argv
    with open(plan_path, encoding="utf-8") as handle:
        plan = json.load(handle)
    result = run(plan["commands"], plan["seconds"])
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
