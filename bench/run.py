"""tropnorm benchmark: four workloads, end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 bench/run.py --workload theta-search --seed 1 --seconds 10 --trace 0

The workload's inputs come from --seed.  Set-up (input generation and
warm-up, five times) is timed on its own; then the workload's fixed number
of whole rounds runs, so that every run measures the same work whatever
its speed.  --seconds is the nominal run length: the rounds of every
workload take longer than 10 s on the reference machine, and a run does
not stop or add rounds by the clock.  Every time is given in reference
seconds of a clock that probes the host's speed while the run goes on (see
hostspeed.py), so that runs compare on a shared host whose speed swings.
Every output is checked (see checks.py), after the round's calls.  The
last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`; each metric is also printed by name
with its unit on standard error.

--trace 0 reports the end-to-end metrics of BENCHMARK.json.  --trace 1
records a span around each call into a tropnorm layer and reports the
per-layer metrics and the share of the rounds' time spent recording
spans; the spans are written to bench/out/.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUPS = 5  # set-ups per run; setup_s reports their median


def _fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "tropnorm" / "__init__.py").is_file():
        _fail(f"no tropnorm sources under {ROOT / 'src'}; run from a checkout")
    if not spec_path.is_file():
        _fail(f"{spec_path} is missing")
    spec = json.loads(spec_path.read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        _fail(f"unknown workload {args.workload!r}; choose from {names}")

    sys.path.insert(0, str(ROOT / "src"))
    from hostspeed import SpeedClock

    clock = SpeedClock()
    clock.start()
    try:
        t0 = time.perf_counter()
        import tropnorm  # noqa: F401
        import tropnorm.cli  # noqa: F401
        import_span = (t0, time.perf_counter())

        from spans import Layers, NullTracer, Tracer
        from workloads import WORKLOADS, Round, figures

        wl = WORKLOADS[args.workload](args.seed, NullTracer())
        wl.clock = clock
        children = getattr(wl, "children", False)
        setups = []
        for _ in range(SETUPS):
            t = time.perf_counter()
            wl.setup()
            setups.append((t, time.perf_counter()))

        tracer = Tracer() if args.trace else NullTracer()
        wl.tracer = tracer
        who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
        rounds, round_spans = [], []
        for i in range(wl.rounds):
            rnd = Round(tracer, i, children)
            with tracer.span("round") as rs:
                wl.round(rnd)
            if i == 0:
                # before any check runs, so that the checks' memory stays out
                peak_kb = resource.getrusage(who).ru_maxrss
            rnd.run_checks()
            rounds.append(rnd)
            round_spans.append(rs)
    finally:
        clock.stop()
    # The import stays out of setup_s: numpy's load took 23-30% longer in
    # some spells of the host while the speed probe and a bare interpreter
    # start did not change, so no clock here can correct it.  Its cost is
    # measured in cli-oneshot, whose every child imports tropnorm.
    setup_s = statistics.median(clock.seconds(*s) for s in setups)
    print(f"{args.workload}: import {clock.seconds(*import_span):.4f} s (not in setup_s)",
          file=sys.stderr)

    if args.trace:
        metrics = wl.layer_metrics(Layers(tracer, round_spans, clock))
        metrics["trace.overhead_pct"] = 100 * tracer.overhead / sum(r.wall for r in rounds)
        metrics["trace.spans"] = len(tracer.spans)
        out_dir = BENCH / "out"
        tracer.write(out_dir / f"trace-{args.workload}-seed{args.seed}.json")
        declared = spec["per_layer"]
    else:
        # the rounds run the same make-up of operations on fresh inputs;
        # the figures are of all of them together
        metrics = figures(rounds, clock)
        metrics.update(peak_rss_mb=peak_kb / 1024, setup_s=setup_s)
        declared = spec["end_to_end"]

    # a layer this workload does not call reads 0
    result_metrics = {
        m["name"]: {"value": float(metrics.get(m["name"], 0.0)), "unit": m["unit"]}
        for m in declared
    }
    errors = [e for r in rounds for e in r.errors]
    failures = [f for r in rounds for f in r.failures]
    for f in sorted(set(failures)):
        print(f"failed: {f}", file=sys.stderr)
    for e in errors[:50]:
        print(f"WRONG: {e}", file=sys.stderr)
    for name, m in result_metrics.items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}", file=sys.stderr)
    walls = " ".join(f"{r.wall:.3f}" for r in rounds)
    print(f"{args.workload}: {len(rounds)} rounds (wall s: {walls}), "
          f"{len(errors)} wrong outputs", file=sys.stderr)
    print(json.dumps({
        "correct": not errors,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": result_metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
