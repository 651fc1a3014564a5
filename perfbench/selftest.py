"""Self-test of the benchmark at smoke size. Run from the root of a checkout:

    python3 perfbench/selftest.py

It runs every workload untraced and traced, each in a fresh process, and
asserts that every metric listed in BENCHMARK.json is emitted with its unit,
that no operation fails on this code, that trace self times never exceed the
inclusive time, that a wrong expectation counts as a failure, that a traced
name the package lacks is reported as absent, and that the benchmark refuses
to run without the program's sources.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 1
TIMEOUT = 180


def run(args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--seed", str(SEED),
         "--seconds", "2", *args],
        cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT)
    return proc


def last_json(stdout: str):
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def check_metrics(workload: str, trace: int) -> None:
    proc = run(["--workload", workload, "--trace", str(trace),
                "--scale", "smoke"])
    assert proc.returncode == 0, (workload, trace, proc.stderr[-2000:])
    out = last_json(proc.stdout)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}, out
    assert out["failed"] == 0 and out["correct"], (workload, proc.stdout)
    assert out["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert list(out["metrics"]) == [m["name"] for m in wanted], workload
    for m in wanted:
        assert out["metrics"][m["name"]]["unit"] == m["unit"], m["name"]
        if not trace:
            assert out["metrics"][m["name"]]["value"] > 0, m["name"]
    if trace:
        check_self_times(workload)


def check_self_times(workload: str) -> None:
    """Per operation, self times sum to no more than the inclusive time."""
    record = ROOT / ".perfbench_out" / f"{workload}-seed{SEED}-trace1.json"
    spans = json.loads(Path(json.loads(record.read_text())["spans_file"])
                       .read_text())["spans"]
    assert spans, workload
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    per_op: dict = {}
    for s, self_time in zip(spans, own):
        assert self_time >= -1e-9, (workload, s["name"])
        entry = per_op.setdefault(s["op"], [0.0, 0.0])
        entry[0] += self_time
        if s["parent"] is None:
            entry[1] += s["end"] - s["start"]
    for op, (self_sum, inclusive) in per_op.items():
        assert self_sum <= inclusive * (1 + 1e-9) + 1e-9, (workload, op)


def check_in_process() -> None:
    """A wrong expectation fails; a missing traced name is only reported."""
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import numpy as np

    import bench
    import tracer
    import workloads

    with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench_out") as work:
        commands = workloads.WORKLOADS["cli-files-m2"](
            np.random.default_rng(SEED), work, "smoke")
        calibrate = bench.Calibration()
        tally = bench.Tally()
        wrong = replace(commands[0], expect_exit=1 - commands[0].expect_exit)
        bench.run_op(wrong, tally, calibrate)
        assert tally.failed == 1, tally.problems
        tally = bench.Tally()
        bench.run_op(commands[0], tally, calibrate)
        assert tally.failed == 0, tally.problems

        tracer.TRACED.append(("grid", "no_such_function"))
        try:
            t = tracer.Tracer().install()
            try:
                bench.run_passes(commands[:1], 0.0, bench.Tally(), calibrate, t)
            finally:
                t.uninstall()
        finally:
            tracer.TRACED.pop()
        assert t.absent == ["grid.no_such_function"], t.absent
        assert t.spans, "the traced pass recorded no spans"


def check_bare_directory() -> None:
    """Without the program's sources the benchmark fails and prints no result."""
    with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench_out") as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, Path(bare) / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(["--workload", "roundtrip-m2", "--trace", "0"], cwd=bare)
        assert proc.returncode != 0, proc.stdout
        assert last_json(proc.stdout) is None, proc.stdout


def main() -> int:
    (ROOT / ".perfbench_out").mkdir(exist_ok=True)
    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace in (0, 1):
            check_metrics(workload, trace)
            print(f"ok  {workload} trace={trace}")
    check_in_process()
    print("ok  wrong expectation fails; absent name reported")
    check_bare_directory()
    print("ok  refuses to run without sources")
    return 0


if __name__ == "__main__":
    sys.exit(main())
