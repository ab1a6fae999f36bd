"""One fresh benchmark process: set up, run passes of a workload, report JSON.

``run.py`` starts this file with ``PYTHONPATH`` pointing at the checkout's
``src`` and passes the monotonic time at which it spawned the process, so
the set-up time covers interpreter start, importing ``koranyi`` (numpy and
scipy) and building the CLI parser.  With ``--setup-only`` the process stops
there.  Otherwise it runs one small warm-up pass, then cycles through the
workload's operations until ``--seconds`` have elapsed, and prints one JSON
line with the raw and rescaled time of every operation.

With ``--trace 1`` untraced and traced passes alternate; the per-layer
metrics are medians over the traced passes and the tracing overhead is the
traced minus the untraced median pass time, both rescaled like ``wall_s``.
"""

import sys
import time

SPAWNED_AT = float(sys.argv[sys.argv.index("--spawned-at") + 1])

import koranyi.cli  # noqa: E402

koranyi.cli.build_parser()
SETUP_S = time.monotonic() - SPAWNED_AT

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy  # noqa: E402
import scipy  # noqa: E402

import calibrate  # noqa: E402
import workloads  # noqa: E402
from layer_trace import Tracer  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--workload", choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "small"), default="full")
    ap.add_argument("--out", type=Path)
    args = ap.parse_args()

    src = Path(koranyi.cli.__file__).resolve().parent.parent
    if args.setup_only:
        # the host speed right after set-up, on the CPU that did it
        print(json.dumps({"setup_s": SETUP_S, "kernel_s": calibrate.kernel_s(),
                          "src": str(src)}))
        return 0

    out = args.out / args.workload
    warmup = workloads.build(args.workload, args.seed, "small", out / "warmup")
    ops = workloads.build(args.workload, args.seed, args.size, out / "timed")

    attempted = 0
    problems: list[str] = []

    def one_pass(pass_ops, timer=workloads.wall_time) -> list[tuple[float, float]]:
        nonlocal attempted
        timings, n, found = workloads.run_pass(pass_ops, timer)
        attempted += n
        problems.extend(found)
        return timings

    one_pass(warmup)
    result = {
        "src": str(src),
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__},
    }
    start = time.monotonic()
    if not args.trace:
        # Cycle through the operations until the time is up, at least once
        # each, with the host speed sampled throughout (see calibrate.py).
        raw: list[list[float]] = [[] for _ in ops]
        scaled: list[list[float]] = [[] for _ in ops]
        i = 0
        with calibrate.HostSpeed() as speed:
            while i < len(ops) or time.monotonic() - start < args.seconds:
                j = i % len(ops)
                ((seconds, rescaled),) = one_pass([ops[j]], speed.time)
                raw[j].append(seconds)
                scaled[j].append(rescaled)
                i += 1
        result.update(op_s=raw, op_scaled_s=scaled)
    else:
        # alternate untraced and traced passes; stop before a pair would overrun
        tracer = Tracer()
        untraced: list[float] = []
        traced: list[float] = []
        layers: list[dict] = []
        # Pass times are rescaled like wall_s, so that host drift between the
        # two passes does not read as tracing overhead.  The kernel runs only
        # between operations here, never inside a span.
        with calibrate.HostSpeed(interval=0) as speed:
            while True:
                begun = time.monotonic()
                untraced.append(sum(s for _, s in one_pass(ops, speed.time)))
                tracer.reset()
                tracer.install()
                try:
                    traced.append(sum(s for _, s in one_pass(ops, speed.time)))
                finally:
                    tracer.uninstall()
                layers.append(tracer.layer_metrics())
                now = time.monotonic()
                if now - start + (now - begun) > args.seconds:
                    break
        spans = args.out / f"spans-{args.workload}.json"
        tracer.dump(spans)
        metrics = {name: statistics.median(m[name] for m in layers) for name in layers[0]}
        metrics["trace.wall_s"] = statistics.median(traced)
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - statistics.median(untraced)
        result.update(untraced_pass_s=untraced, traced_pass_s=traced, layers=metrics,
                      spans=str(spans))
    result.update(
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        attempted=attempted, failed=len(problems), problems=problems,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
