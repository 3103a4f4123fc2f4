"""qparch benchmark: end-to-end timings of fresh processes, or a traced split.

Usage, from the repository root:

    python3 bench/run.py --workload pulse-sweep --seed 7 --seconds 25 --trace 0

Every operation is a fresh ``python -m qparch.cli ...`` process (or, for
``virtual-gate``, a fresh ``bench/virtual_gate.py`` process) with the
repository's ``src`` first on ``PYTHONPATH``, so the working tree is what is
timed.  Commands run one at a time.  Inputs are generated from ``--seed``
before any timing, and every output is checked (``checks.py``); a command
that exits non-zero or fails its check is a failed operation.

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of ``tracing.py`` plus the set-up split and the children's CPU use.
A human-readable report with sample counts and provenance precedes the last
line of stdout, which is one JSON object; the full result is also written to
``.bench_work/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shlex
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

from checks import check_output
from tracing import LAYER_UNITS
from workloads import HELD_OUT_SEED, WORKLOADS, Command, Plan, make_plan

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
sys.path.insert(0, str(SRC))

SETUP_REPEATS = 7  # per traced run
SETUP_PER_PASS = 3  # per pass of an end-to-end run
IMPORT_PROBE = "import qparch.cli"
# What no change to qparch can move: a fresh interpreter importing numpy.
CALIBRATION_PROBE = "import numpy"
# A tail percentile is reported only with at least this many samples beyond it.
TAIL_BEYOND = 10

END_TO_END_UNITS = {"setup_s": "s", "wall_rel": "ratio", "peak_rss_mb": "MB"}
# setup_s is in seconds on a host where a calibration probe takes this long.
CALIBRATION_REFERENCE_S = 0.14
# Per-layer metrics measured here rather than by the tracer.
SETUP_UNITS = {
    "setup.interpreter_s": "s",
    "setup.import_numpy_s": "s",
    "setup.import_qparch_s": "s",
    "proc.cpu_s": "s",
    "proc.cpu_util": "ratio",
    "trace.overhead_s": "s",
}


@dataclass(frozen=True)
class Usage:
    """What one child process cost, from ``os.wait4``."""

    exit: int
    wall_s: float
    cpu_s: float
    maxrss_mb: float


class Launcher:
    """Runs commands one at a time through ``launcher.py``."""

    def __init__(self, env: dict[str, str]):
        self._proc = subprocess.Popen(
            [sys.executable, "-S", str(BENCH / "launcher.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True,
        )

    def run(self, argv: list[str], stdout_path: Path, stderr_path: Path) -> Usage:
        self._proc.stdin.write("\0".join([str(stdout_path), str(stderr_path), *argv]) + "\n")
        self._proc.stdin.flush()
        reply = self._proc.stdout.readline().split()
        if len(reply) != 5:
            raise RuntimeError(f"launcher failed on {shlex.join(argv)}")
        code, maxrss_kb, user, system, wall = reply
        return Usage(int(code), float(wall), float(user) + float(system), int(maxrss_kb) / 1024)

    def close(self) -> None:
        self._proc.stdin.close()
        self._proc.wait(timeout=30)
        self._proc.stdout.close()


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("QPARCH_PROFILE", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def process_argv(command: Command) -> list[str]:
    if command.kind == "cli":
        return [sys.executable, "-m", "qparch.cli", *command.argv]
    return [sys.executable, str(BENCH / "virtual_gate.py"), *command.argv]


def median_n(values: list[float]) -> tuple[float, int]:
    return statistics.median(values), len(values)


def tail(values: list[float]) -> tuple[float, float, int] | None:
    """(value, percentile, n) at the highest percentile with TAIL_BEYOND samples beyond it."""
    n = len(values)
    if n <= TAIL_BEYOND:
        return None
    return sorted(values)[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, n


def parse_importtime(text: str) -> tuple[float, float]:
    """(numpy, qparch without numpy) import seconds from ``-X importtime`` output.

    Entries are printed children first, so each top-level entry owns the
    nested entries printed since the previous top-level one.
    """
    numpy_us = qparch_us = 0
    nested: list[str] = []
    for line in text.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        depth = (len(name) - len(name.lstrip()) - 1) // 2
        name = name.strip()
        if name == "numpy":
            numpy_us = int(cumulative)
        if depth > 0:
            nested.append(name)
            continue
        if name.split(".")[0] == "qparch":
            qparch_us += int(cumulative) - (numpy_us if "numpy" in nested else 0)
        nested = []
    return numpy_us / 1e6, qparch_us / 1e6


class Bench:
    def __init__(self, plan: Plan, launcher: Launcher, run_dir: Path):
        self.plan = plan
        self.launcher = launcher
        self.run_dir = run_dir
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def spawn(self, argv: list[str], name: str) -> tuple[Usage, Path, Path]:
        out, err = self.run_dir / f"{name}.out", self.run_dir / f"{name}.err"
        return self.launcher.run(argv, out, err), out, err

    def probe(self, code: str, repeats: int, *flags: str) -> list[tuple[Usage, str]]:
        """Fresh interpreters running ``code``: each one's cost and stderr."""
        argv = [sys.executable, *flags, "-c", code]
        runs = []
        for _ in range(repeats):
            usage, _, err = self.spawn(argv, "probe")
            if usage.exit != 0:
                raise RuntimeError(f"{shlex.join(argv)} failed: {err.read_text()[-2000:]}")
            runs.append((usage, err.read_text()))
        return runs

    def record(self, command: Command, code: int, stdout: str, stderr: str) -> None:
        self.attempted += 1
        if code != 0:
            problems = [f"exit code {code}: {stderr.strip()[-500:]}"]
        else:
            problems = check_output(command, stdout)
        if problems:
            self.failed += 1
            self.problems += [f"{shlex.join(command.argv)[:120]}: {p}" for p in problems]

    def calibrate(self) -> float:
        """Wall time of one fresh ``CALIBRATION_PROBE``: how fast the host is right now."""
        return self.probe(CALIBRATION_PROBE, 1)[0][0].wall_s

    def calibrated_pass(self) -> tuple[list[tuple[Usage, float]], list[tuple[Usage, float]]]:
        """Set-up probes and then one pass, with a calibration probe before, between and after.

        Each set-up probe and each command comes with its time unit: the mean
        of the two calibration probes beside it, which ran under nearly the
        same host load.  Outputs are checked after the pass.
        """
        setup_argv = [sys.executable, "-c", IMPORT_PROBE]
        argvs = [setup_argv] * SETUP_PER_PASS + [process_argv(c) for c in self.plan.commands]
        calibration = [self.calibrate()]
        runs = []
        for i, argv in enumerate(argvs):
            runs.append(self.spawn(argv, f"run{i}"))
            calibration.append(self.calibrate())
        units = [(a + b) / 2 for a, b in zip(calibration, calibration[1:])]
        for usage, _, err in runs[:SETUP_PER_PASS]:
            if usage.exit != 0:
                raise RuntimeError(f"{shlex.join(setup_argv)} failed: {err.read_text()[-2000:]}")
        for command, (usage, out, err) in zip(self.plan.commands, runs[SETUP_PER_PASS:]):
            self.record(command, usage.exit, out.read_text(), err.read_text())
        timed = [(usage, unit) for (usage, _, _), unit in zip(runs, units)]
        return timed[:SETUP_PER_PASS], timed[SETUP_PER_PASS:]

    def fresh_pass(self) -> tuple[float, list[Usage]]:
        """One pass of fresh processes; outputs are checked after the timed pass."""
        start = time.perf_counter()
        runs = [self.spawn(process_argv(c), f"cmd{i}") for i, c in enumerate(self.plan.commands)]
        wall = time.perf_counter() - start
        for command, (usage, out, err) in zip(self.plan.commands, runs):
            self.record(command, usage.exit, out.read_text(), err.read_text())
        return wall, [usage for usage, _, _ in runs]


def attach_references(plan: Plan) -> None:
    """Add the quadrature mean and standard error to each pulse grid point."""
    from reference import reference  # imports qparch and numpy, after the launcher has started

    for command in plan.commands:
        if command.check == "pulse_rows":
            command.expect["points"] = [reference(point) for point in command.expect["points"]]


def end_to_end(bench: Bench, seconds: float) -> tuple[dict, dict, dict]:
    """Calibrated passes (``Bench.calibrated_pass``) for about ``seconds``.

    Another pass starts only if it would end less than half a pass late.
    Times are divided by their calibration units, so that the host's speed
    at the moment cancels.
    """
    plan = bench.plan
    bench.probe(IMPORT_PROBE, 1)
    bench.calibrate()
    setup, passes, pass_s = [], [], []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start + pass_s[-1] / 2 < seconds:
        pass_start = time.perf_counter()
        probes, commands = bench.calibrated_pass()
        pass_s.append(time.perf_counter() - pass_start)
        setup += probes
        passes.append(commands)

    samples = {
        "setup_s": [CALIBRATION_REFERENCE_S * u.wall_s / unit for u, unit in setup],
        "wall_rel": [sum(u.wall_s / unit for u, unit in p) for p in passes],
        "peak_rss_mb": [max(u.maxrss_mb for u, _ in p) for p in passes],
        "cmd_p50_rel": [u.wall_s / unit for p in passes for u, unit in p],
        "wall_s": [sum(u.wall_s for u, _ in p) for p in passes],
        "cmd_p50_s": [u.wall_s for p in passes for u, _ in p],
        "setup_raw_s": [u.wall_s for u, _ in setup],
        "calibration_s": [unit for _, unit in setup] + [unit for p in passes for _, unit in p],
    }
    metrics = {name: (*median_n(samples[name]), unit) for name, unit in END_TO_END_UNITS.items()}
    extra = {name: (*median_n(samples[name]), unit) for name, unit in (
        ("cmd_p50_rel", "ratio"), ("wall_s", "s"), ("cmd_p50_s", "s"), ("setup_raw_s", "s"),
        ("calibration_s", "s"))}
    if plan.rate:
        extra[plan.rate] = (*median_n([plan.work / w for w in samples["cmd_p50_s"]]), "1/s")
    t = tail(samples["cmd_p50_s"])
    if t is not None:
        extra[f"cmd_tail_s (p{t[1]:.1f})"] = (t[0], t[2], "s")
    return metrics, extra, samples


def per_layer(bench: Bench, seconds: float, env: dict[str, str]) -> tuple[dict, dict, dict]:
    bench.probe(IMPORT_PROBE, 1)
    interpreter = [u.wall_s for u, _ in bench.probe("pass", SETUP_REPEATS)]
    splits = [parse_importtime(err)
              for _, err in bench.probe(IMPORT_PROBE, SETUP_REPEATS, "-X", "importtime")]
    wall, usages = bench.fresh_pass()
    cpu = sum(u.cpu_s for u in usages)

    plan_path, result_path = bench.run_dir / "trace-plan.json", bench.run_dir / "trace.json"
    commands = [{"kind": c.kind, "argv": list(c.argv)} for c in bench.plan.commands]
    plan_path.write_text(json.dumps({"commands": commands, "seconds": seconds}))
    subprocess.run([sys.executable, str(BENCH / "tracing.py"), str(plan_path), str(result_path)],
                   env=env, cwd=ROOT, check=True)
    trace = json.loads(result_path.read_text())
    for p in trace["passes"]:
        for command, r in zip(bench.plan.commands, p["results"]):
            bench.record(command, r["exit"], r["stdout"], r["stderr"])

    n_traced = len(trace["traced_pass_s"])
    # The host's slow spells only ever add time, so the fastest passes are compared.
    overhead = min(trace["traced_pass_s"]) - min(trace["untraced_pass_s"])
    measured = {
        "setup.interpreter_s": median_n(interpreter),
        "setup.import_numpy_s": median_n([s[0] for s in splits]),
        "setup.import_qparch_s": median_n([s[1] for s in splits]),
        "proc.cpu_s": (cpu, 1),
        "proc.cpu_util": (cpu / wall, 1),
        "trace.overhead_s": (overhead, n_traced),
    }
    metrics = {name: (*measured[name], unit) for name, unit in SETUP_UNITS.items()}
    for name, unit in LAYER_UNITS.items():
        metrics[name] = (trace["layers"][name], n_traced, unit)
    spans_path = WORK / "results" / f"{bench.plan.workload}-seed{bench.plan.seed}-spans.json"
    spans_path.write_text(json.dumps(trace["spans"]))
    extra = {"fresh pass wall_s": (wall, 1, "s"),
             "in-process untraced pass": (*median_n(trace["untraced_pass_s"]), "s"),
             "in-process traced pass": (*median_n(trace["traced_pass_s"]), "s")}
    samples = {"setup.interpreter_s": interpreter, "import_splits": splits,
               **{k: trace[k] for k in ("untraced_pass_s", "traced_pass_s")}}
    return metrics, extra, samples


def provenance(plan: Plan, seconds: float, trace: int) -> dict:
    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu_model = next(
                (line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")),
                cpu_model,
            )
    except OSError:
        pass
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = "not installed"
    return {
        "workload": plan.workload,
        "seed": plan.seed,
        "held_out_seed": HELD_OUT_SEED,
        "seconds": seconds,
        "trace": trace,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "pythonpath_first": str(SRC.relative_to(ROOT)),
        "commands": [shlex.join(process_argv(c)) for c in plan.commands],
    }


def report(prov: dict, metrics: dict, extra: dict, bench: Bench) -> None:
    for key in ("workload", "seed", "held_out_seed", "nproc", "cpu_model", "python", "numpy"):
        print(f"# {key}: {prov[key]}")
    for command in prov["commands"]:
        print(f"# command: {command}")
    print(f"{'metric':<36} {'value':>14} {'unit':<6} {'n':>5}")
    for name, (value, n, unit) in {**metrics, **extra}.items():
        print(f"{name:<36} {value:>14.6g} {unit:<6} {n:>5}")
    error_rate = bench.failed / bench.attempted
    print(f"{'error_rate':<36} {error_rate:>14.6g} {'ratio':<6} {bench.attempted:>5}")
    for problem in bench.problems[:20]:
        print(f"! {problem}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (SRC / "qparch" / "cli.py").is_file():
        print(f"error: no qparch sources under {SRC}", file=sys.stderr)
        return 2

    os.chdir(ROOT)  # commands name their input files relative to the root
    env = child_env()
    run_dir = WORK / f"run-{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    (WORK / "results").mkdir(exist_ok=True)
    launcher = Launcher(env)
    try:
        plan = make_plan(args.workload, args.seed, run_dir.relative_to(ROOT))
        attach_references(plan)
        bench = Bench(plan, launcher, run_dir)
        if args.trace:
            metrics, extra, samples = per_layer(bench, args.seconds, env)
        else:
            metrics, extra, samples = end_to_end(bench, args.seconds)
    finally:
        launcher.close()
    shutil.rmtree(run_dir, ignore_errors=True)

    prov = provenance(plan, args.seconds, args.trace)
    report(prov, metrics, extra, bench)
    result = {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, _, unit) in metrics.items()},
    }
    detail = {
        "provenance": prov,
        "metrics": {name: {"value": v, "n": n, "unit": u} for name, (v, n, u) in metrics.items()},
        "samples": samples,
        "extra": {name: {"value": v, "n": n, "unit": u} for name, (v, n, u) in extra.items()},
        "problems": bench.problems,
        **{k: result[k] for k in ("correct", "attempted", "failed")},
    }
    out = WORK / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(detail, indent=2))
    print(f"# result: {out.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
