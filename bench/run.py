"""attnlab benchmark: preset-shaped prefill and decode through every layer cache,
plus the lab's CLI pipelines.

    python3 bench/run.py --workload long-prompt --seed 1 --seconds 20 --trace 0

Run from the repository root. The library is imported from ``src/``. The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``. With ``--trace 0`` the metrics are the end-to-end
metrics of BENCHMARK.json; with ``--trace 1`` they are its per-layer
metrics, measured in a separate traced pass whose spans are written to
``bench/out/spans-<workload>.jsonl``. The lines before it print every metric
with its unit and the environment the run measured.

Every workload runs the same operations, so every run reports every metric;
the workloads differ in how much each operation weighs. A run sets up
SETUP_REPS times (the median is ``setup_s``), then serves whole requests
until ``--seconds`` have passed, at least one, with the workload's fillers
between their turns. Exit code 0 means
every operation and output check passed; 1 means one failed; 2 means the
benchmark could not run.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPS = 3


@dataclass(frozen=True)
class Workload:
    prompt: int  # prompt tokens prefilled into every layer
    steps: int   # tokens decoded through every layer
    lab: str     # "FULL" or "SMALL": the shapes the lab pipelines run at
    # After every this many turns of a request (a turn is one layer prefill
    # or one decode step of every mechanism), run a filler: each lab
    # pipeline once and a prefill turn (serving.prefill_turn). Every timing
    # thus comes in many short samples spread evenly over the run
    # (common.median).
    every: int


WORKLOADS = {
    "long-prompt": Workload(768, 32, "SMALL", every=1),
    "long-generation": Workload(32, 96, "SMALL", every=2),
    "lab-instruments": Workload(32, 16, "FULL", every=1),
}


# Every timed operation runs on one core, so a result does not depend on
# whether a shared host lends the process a second one.
BLAS_THREADS = 1


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    return args


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None) -> int:
    args = parse_args(argv)
    # Must be set before numpy loads its BLAS.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    src = ROOT / "src"
    if not (src / "attnlab" / "__init__.py").is_file():
        print(f"error: no attnlab sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import attnlab

    if Path(attnlab.__file__).resolve().parent != src / "attnlab":
        print(f"error: imported attnlab from {attnlab.__file__}, not {src}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    from common import Tally, environment, median
    import serving
    import lab as labs
    from tracing import NullTracer, Tracer

    wl = WORKLOADS[args.workload]
    lab_spec = getattr(labs, wl.lab)
    workdir = OUT / args.workload
    tally = Tally()
    requests = {m: [] for m in serving.MECHANISMS}
    lab_s = {k: [] for k in labs.PIPELINES}

    def set_up():
        lab = labs.setup(lab_spec, workdir, args.seed, tally)
        return serving.build(args.seed, wl.prompt, wl.steps), lab

    def run_requests(model, lab, tracer, seconds):
        """Requests, one after another, until ``seconds`` have passed.

        The first request always runs to its end, so there is one request
        whose outputs are checked; a later one stops at the first turn
        after the time is up.
        """
        fillers = completed = 0
        n_layers = len(model.layers[serving.MECHANISMS[0]])

        def filler():
            nonlocal fillers
            for key, pipeline in labs.PIPELINES.items():
                lab_s[key].append(pipeline(lab, tally, tracer))
            for m, r in serving.prefill_turn(model, tally, tracer, fillers % n_layers).items():
                requests[m].append(r)
            fillers += 1

        def time_up():
            return completed > 0 and time.perf_counter() - start >= seconds

        start = time.perf_counter()
        while not time_up():
            for m, r in serving.serve(model, tally, tracer, wl.every, filler, time_up).items():
                requests[m].append(r)
            completed += 1

    setup_s = []
    if not args.trace:
        for _ in range(SETUP_REPS):
            model = lab = None
            gc.collect()
            t0 = time.perf_counter()
            model, lab = set_up()
            setup_s.append(time.perf_counter() - t0)
        gc.collect()
        run_requests(model, lab, NullTracer(), args.seconds)
        metrics = {"setup_s": median(setup_s), "peak_rss_mib": peak_rss_mib()}
        metrics.update(serving.end_to_end(model, requests))
        metrics.update({k: median(v) for k, v in lab_s.items()})
    else:
        tracer = Tracer()
        with tracer.installed(), tracer.request("setup"):
            model, lab = set_up()
        # One request untraced, then one traced: the same work, so the
        # overhead is read from the serving samples both time alike.
        gc.collect()
        run_requests(model, lab, NullTracer(), 0)
        untraced_s = serving.median_serving_s(requests)
        for v in list(requests.values()) + list(lab_s.values()):
            v.clear()
        gc.collect()
        with tracer.installed():
            run_requests(model, lab, tracer, 0)
        traced_s = serving.median_serving_s(requests)
        metrics = serving.layer_metrics(model, tracer, requests)
        metrics.update(labs.layer_metrics(lab, tracer, "setup"))
        metrics["weights.init_s"] = sum(
            s.seconds for s in tracer.select("weights.init_weights", "setup"))
        metrics["trace.overhead_pct"] = (traced_s - untraced_s) / untraced_s * 100.0
        OUT.mkdir(parents=True, exist_ok=True)
        tracer.write(OUT / f"spans-{args.workload}.jsonl")
    labs.check_archives(lab, tally)

    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        print(f"error: metrics not measured: {', '.join(missing)}", file=sys.stderr)
        return 1
    env = environment(args.seed, BLAS_THREADS)
    env["workload"] = args.workload
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    OUT.mkdir(parents=True, exist_ok=True)
    with open(OUT / f"result-{args.workload}-trace{args.trace}.json", "w") as f:
        json.dump({"env": env, **result, "samples": {
            "setup_s": setup_s if not args.trace else [],
            "prefill_s": {m: [t for r in rs for t in r.prefill_s] for m, rs in requests.items()},
            "prefill_tokens": {m: [r.prefill_tokens for r in rs for _ in r.prefill_s]
                               for m, rs in requests.items()},
            "step_s": {m: [t for r in rs for t in r.step_s] for m, rs in requests.items()},
            "lab_s": lab_s}}, f, indent=1)
    for m in wanted:
        print(f"{m['name']:<38} {metrics[m['name']]:>16.6g} {m['unit']}")
    print("env " + json.dumps(env))
    print(json.dumps(result))
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
