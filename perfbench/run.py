"""Run one workload of the isogauss benchmark and print its metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. The lines before it
give each command's calibrated and raw median time with its sample count. The
full record, with the machine's steadiness details, goes to
``.perfbench_out/`` in the checkout.
"""

import time

START = time.perf_counter()    # set-up time counts from here

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full",
                        help="input size; smoke is for the self-test")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "isogauss" / "__init__.py").is_file():
        print(f"error: no isogauss sources under {SRC}", file=sys.stderr)
        return 2
    # pin BLAS/OpenMP to one thread before numpy loads: the program is
    # single-threaded, and one thread is the steadiest on a shared host
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import bench
    import isogauss
    if Path(isogauss.__file__).resolve().parent != SRC / "isogauss":
        print(f"error: imported isogauss from {isogauss.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    if args.workload not in bench.workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: "
              + ", ".join(bench.workloads.WORKLOADS), file=sys.stderr)
        return 2
    import_s = time.perf_counter() - START

    OUT_DIR.mkdir(exist_ok=True)
    result = bench.run_workload(args.workload, args.seed, args.seconds,
                                bool(args.trace), args.scale, str(OUT_DIR),
                                import_s)
    record = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps(result, indent=1))

    for label, stats in result.get("commands", {}).items():
        extra = "".join(f" {k}={v:.4f}" for k, v in stats.items()
                        if k[0] == "p" and k[1].isdigit())
        print(f"{label}: calibrated median {stats['calibrated_median_s']:.4f}"
              f" s; raw median {stats['median_s']:.4f} s, fastest "
              f"{stats['min_s']:.4f} s{extra}; n={stats['n']}")
    metrics = {name: {"value": value, "unit": bench.metric_unit(name)}
               for name, value in result["metrics"].items()}
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    for problem in result["problems"]:
        print(f"FAILED {problem}")
    if result.get("absent"):
        print("absent (not traced): " + ", ".join(result["absent"]))
    print(f"record: {record}")
    print(json.dumps({"correct": result["failed"] == 0,
                      "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
