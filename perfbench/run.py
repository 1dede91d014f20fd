"""Benchmark entry point for spintomo.

    python3 perfbench/run.py --workload tomo_linear --seed 1 --seconds 30 --trace 0

Run it from the root of a source checkout; it imports spintomo from ``src/``.
It prints a human-readable report and, as its last line, one JSON object
{"correct", "attempted", "failed", "metrics"}.  --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer ones.  Each run also writes its full record
(environment, report, latencies, spans) to perfbench/results/.

BLAS is capped at one thread in this process and in every process it starts:
the matrices are at most 8x8 and the client is single-threaded.
"""
import argparse
import json
import os
import sys

BLAS_CAP_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOAD_NAMES = ("tomo_linear", "pure_fit", "scan")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be nonnegative and --seconds positive")

    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    if not os.path.isfile(os.path.join(root, "src", "spintomo", "__init__.py")):
        sys.stderr.write(f"no spintomo sources under {os.path.join(root, 'src')}\n")
        return 2
    # Must happen before numpy is first imported; children inherit it.
    for var in BLAS_CAP_VARS:
        os.environ[var] = "1"
    sys.path[:0] = [os.path.join(root, "src"), here]
    import bench

    record = bench.run_workload(args.workload, args.seed, args.seconds, bool(args.trace), root)
    bench.print_report(record)
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
