"""Set-up cost of a fresh interpreter: import spintomo.cli, then build the
workload's plans and CLI configs.

Reads {"root": checkout, "plans": [[mode, omega, kd], ...], "argv": [[...], ...]}
as JSON on stdin and prints {"import_s": ..., "build_s": ...} as JSON.
"""
import json
import os
import sys
import time


def main() -> None:
    spec = json.load(sys.stdin)
    sys.path.insert(0, os.path.join(spec["root"], "src"))
    t0 = time.perf_counter()
    from spintomo import cli, engine, scatter, tomo
    t1 = time.perf_counter()
    for mode, omega, kd in spec["plans"]:
        tomo.plan_standard(mode, scatter.ScatterParams(omega, kd))
    parser = cli.build_parser()
    for argv in spec["argv"]:
        args = parser.parse_args(argv)
        if args.command == "engine":
            engine.EngineConfig(params=scatter.ScatterParams(args.omega, 0.0),
                                mirror_phase=args.mirror_phase,
                                max_iters=args.max_iters, tol=args.tol)
            continue
        for text in (args.omega_range, args.kd_range, args.theta_range):
            if text is not None:
                cli.parse_range(text)
        if args.state is not None:
            cli.parse_state(args.state)
    t2 = time.perf_counter()
    print(json.dumps({"import_s": t1 - t0, "build_s": t2 - t1}))


if __name__ == "__main__":
    main()
