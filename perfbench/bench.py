"""Closed-loop measurement of one workload, with one client, in one process.

Each operation is an in-process call of ``isogauss.cli.main`` with the argv a
user would type; its output is checked outside the timed region. A run sets
its inputs up several times, runs every command once untimed to warm up, and
then repeats passes over the workload's commands for the given seconds. Every
reported time is calibrated against a fixed kernel (see ``Calibration``).
"""

from __future__ import annotations

import contextlib
import io
import os
import platform
import resource
import shutil
import statistics
import time
import tracemalloc

import numpy as np

from isogauss import cli

import tracer as tracing
import workloads

SETUP_REPS = (3, 9)      # fewest and most set-up repetitions in a run
SETUP_BUDGET_S = 1.0     # repeat a cheap set-up until it has taken this long
REF_S = 0.025            # nominal seconds of one calibration call

# the untraced run reports exactly these
END_TO_END_UNITS = {"pass_s": "s", "nodes_per_s": "nodes/s",
                    "peak_rss_mb": "MB", "setup_s": "s"}


def metric_unit(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    suffix = name.rsplit(".", 1)[1]
    return {"s": "s", "self_s": "s", "MB_per_s": "MB/s", "peak_mb": "MB",
            "steps": "count", "calls": "count"}.get(suffix, "ratio")


class Tally:
    """Attempted and failed operations, with the first few problems."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, label: str, problem: str | None) -> None:
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(f"{label}: {problem}")


class Calibration:
    """A fixed kernel that never calls isogauss, timed before each operation.

    It does the kinds of work the program does: formatting and parsing
    floats as text, and per-node einsum and eigenvalues of small matrices
    over a few MB. Other tenants of a shared host change how fast this
    process runs, by up to 1.8x between 15 s windows on a 2-core Xeon VM;
    the kernel slows with it. An operation's wall time times ``REF_S`` over
    the kernel's time just before it is the operation's time at a fixed
    host speed: the speed at which the kernel takes ``REF_S``, about the
    uncontended speed of that VM.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self._floats = rng.standard_normal(3000).tolist()
        self._mats = rng.standard_normal((20000, 6, 6))

    def __call__(self) -> float:
        start = time.perf_counter()
        text = " ".join(f"{v:.17g}" for v in self._floats)
        [float(tok) for tok in text.split()]
        gram = np.einsum("nij,nkj->nik", self._mats, self._mats)
        np.linalg.eigvalsh(gram[:3000])
        return time.perf_counter() - start

    def factor(self, calls: int = 5) -> float:
        """``REF_S`` over the median of a few kernel times."""
        return REF_S / statistics.median(self() for _ in range(calls))


def run_op(cmd: workloads.Command, tally: Tally, calibrate: Calibration):
    """One timed CLI call, after a calibration call.

    Returns (wall seconds, calibration seconds). The output is checked
    after the clock stops.
    """
    ref = calibrate()
    out, err = io.StringIO(), io.StringIO()
    problem = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(cmd.argv))
    except Exception as exc:  # a traceback is a failed operation, not a crash
        code, problem = None, f"raised {exc!r}"
    elapsed = time.perf_counter() - start
    if problem is None:
        try:
            problem = workloads.verify(cmd, code, out.getvalue())
        except Exception as exc:
            problem = f"output check raised {exc!r}"
    if problem is not None and err.getvalue():
        problem += f" [stderr: {err.getvalue().strip()[:200]}]"
    tally.record(cmd.label, problem)
    return elapsed, ref


def run_passes(commands, seconds: float, tally: Tally, calibrate: Calibration,
               tracer=None) -> dict:
    """Passes over ``commands`` until the next one would overrun ``seconds``.

    Returns each command's (wall, calibration) seconds. At least one pass
    always runs.
    """
    samples = {cmd.label: [] for cmd in commands}
    start = time.perf_counter()
    passes = 0
    while True:
        for cmd in commands:
            if tracer is not None:
                tracer.op = tracer.ops
            wall, ref = run_op(cmd, tally, calibrate)
            samples[cmd.label].append((wall, ref))
            if tracer is not None:
                tracer.scale[tracer.op] = REF_S / ref
                tracer.op = None
                tracer.ops += 1
        passes += 1
        elapsed = time.perf_counter() - start
        if elapsed * (passes + 1) / passes > seconds:
            return samples


def command_stats(pairs: list[tuple[float, float]]) -> dict:
    """Wall-time median and minimum with the sample count, the highest
    percentile that still has at least ten samples beyond it (context only,
    never gated), and the median of the calibrated times."""
    times = [wall for wall, _ in pairs]
    stats = {"median_s": statistics.median(times), "min_s": min(times),
             "n": len(times)}
    for p in (99, 95, 90, 75):
        if len(times) * (100 - p) / 100 >= 10:
            stats[f"p{p}_s"] = statistics.quantiles(times, n=100)[p - 1]
            break
    stats["calibrated_median_s"] = pass_seconds({None: pairs})
    stats["samples"] = pairs
    return stats


def pass_seconds(samples: dict) -> float:
    """One pass at the fixed host speed: the sum over commands of the
    median calibrated time."""
    return sum(statistics.median(wall * REF_S / ref for wall, ref in pairs)
               for pairs in samples.values())


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _steal_ticks() -> int | None:
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8])
    except (OSError, IndexError, ValueError):
        return None


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "blas_threads": {var: value for var, value in os.environ.items()
                         if var.endswith("_NUM_THREADS")},
        "numpy": np.__version__,
        "python": platform.python_version(),
        "cpu_model": _cpu_model(),
    }


def set_up(prepare, seed: int, workdir: str, scale: str,
           calibrate: Calibration):
    """Prepare the inputs several times from the same seed.

    Returns the commands and each repetition's (wall, calibrated) seconds.
    """
    fewest, most = SETUP_REPS
    reps = []
    while len(reps) < fewest or (len(reps) < most and
                                 sum(w for w, _ in reps) < SETUP_BUDGET_S):
        factor = calibrate.factor()
        start = time.perf_counter()
        commands = prepare(np.random.default_rng(seed), workdir, scale)
        wall = time.perf_counter() - start
        reps.append((wall, wall * factor))
    return commands, reps


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 scale: str, out_dir: str, import_s: float) -> dict:
    prepare = workloads.WORKLOADS[name]
    steal_before = _steal_ticks()
    workdir = os.path.join(out_dir, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    tally = Tally()
    calibrate = Calibration()
    import_factor = calibrate.factor()
    result = {"workload": name, "seed": seed, "seconds": seconds,
              "trace": int(trace), "scale": scale, "env": environment(),
              "import_s": import_s}
    try:
        commands, reps = set_up(prepare, seed, workdir, scale, calibrate)
        result["setup_reps_s"] = reps
        for cmd in commands:                       # untimed warm-up
            run_op(cmd, tally, calibrate)
        if trace:
            result["metrics"] = traced_run(commands, seconds, tally, calibrate,
                                           result, out_dir)
        else:
            samples = run_passes(commands, seconds, tally, calibrate)
            result["commands"] = {label: command_stats(pairs)
                                  for label, pairs in samples.items()}
            pass_s = pass_seconds(samples)
            nodes = sum(cmd.nodes for cmd in commands)
            result["metrics"] = {
                "pass_s": pass_s,
                "nodes_per_s": nodes / pass_s,
                "peak_rss_mb": resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
                "setup_s": import_s * import_factor
                + statistics.median(norm for _, norm in reps),
            }
        written = [cmd.argv[1] for cmd in commands if cmd.kind != "roundtrip"]
        if written:                                # once per run, untimed
            same = workloads.rewrite_is_identical(
                written[0], os.path.join(workdir, "rewrite.txt"))
            tally.record("rewrite dataset",
                         None if same else "re-written dataset differs")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    steal_after = _steal_ticks()
    result["env"]["steal_ticks"] = (None if steal_before is None
                                    else steal_after - steal_before)
    result.update(attempted=tally.attempted, failed=tally.failed,
                  problems=tally.problems)
    return result


def traced_run(commands, seconds: float, tally: Tally,
               calibrate: Calibration, result: dict, out_dir: str) -> dict:
    """Untraced passes, then traced passes, then one pass measuring memory.

    The first two take a third of the seconds each; their pass times give
    the tracing overhead.
    """
    plain = run_passes(commands, seconds / 3, tally, calibrate)
    timing = tracing.Tracer().install()
    try:
        traced = run_passes(commands, seconds / 3, tally, calibrate, timing)
    finally:
        timing.uninstall()
    memory = tracing.Tracer(measure_memory=True).install()
    tracemalloc.start()
    try:
        run_passes(commands, 0.0, tally, calibrate, memory)
    finally:
        tracemalloc.stop()
        memory.uninstall()
    overhead = pass_seconds(traced) / pass_seconds(plain) - 1.0
    spans_path = os.path.join(
        out_dir, f"spans-{result['workload']}-seed{result['seed']}.json")
    timing.dump(spans_path)
    result["spans_file"] = spans_path
    result["absent"] = timing.absent
    return tracing.layer_metrics(timing, memory, overhead)
