"""Benchmark two revisions in alternating pairs and write a BENCH_<k>.json.

    python3 scripts/bench_pairs.py PARENT CHANGE --scratch DIR --out BENCH_10.json \
        --seeds 2001-2010 --claim long-generation:svd_compare_s:0.6 --what "..."

Each revision of this repository is exported with ``git archive`` into
DIR/tree-a or DIR/tree-b: fresh trees at paths of equal length, because the
checkout path alone has been seen to move gemv speed by 25%, and one of two
such paths has read 5-10% slower than the other whatever its code. So the
trees trade directories (by renaming) in a four-pair cycle: the parent sits
in tree-a in pairs 4k and 4k+1 and in tree-b in pairs 4k+2 and 4k+3, and
crossed with that, the parent runs first in even pairs and the change first
in odd ones (``pair_plan``). For every workload of BENCHMARK.json, pair i
runs ``bench/run.py --trace 0`` once on each side with seed i, for the
benchmark's run_seconds; the last pair uses the held-out seed 7919. Every
end-to-end metric is summarized per workload: both sides' quartiles and
medians, the ratio of the medians, the pairs each side won, whether the
medians differ by more than the parent's interquartile range, and whether
the metric is unresolved: its parent's interquartile range, as a fraction of
the parent's median, is wider than the bound (also a fraction of that
median) and not every change run beats every parent run. ``--claim``
states the gain the change claims beforehand; it is judged on the design
seeds alone, and the held-out pair is reported beside it.
``--trace-workload`` adds ``TRACE_RUNS`` ``--trace 1`` runs per side, all
with seed 1031, in alternating pairs (``trace_plan``): one traced run per
side has read per-layer ratios of 1.2-1.3x where the untraced medians read
1.0x, because it catches whatever host spell it runs in. Each traced run's
per-layer metrics are recorded, with each side's per-metric median and the
ratio of the medians. The benchmark itself is never imported: only its
output is read.
"""

from __future__ import annotations

import argparse
import io
import json
import subprocess
import sys
import tarfile
from pathlib import Path

import numpy as np

HELD_OUT_SEED = 7919
TRACE_SEED = 1031
TRACE_RUNS = 3
REPO = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")
DIRS = ("tree-a", "tree-b")  # equal lengths: the trees sit at equal-length paths


def parse_seeds(text: str) -> list[int]:
    """"2001-2010" or "5,7,9" (or a mix) as a list of seeds."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def pair_plan(i: int) -> tuple[str, dict[str, str]]:
    """The side that runs first in pair i, and the directory each side's
    tree sits in: the lead alternates every pair, the directories every two
    pairs, so four pairs hold each combination once."""
    swapped = i // 2 % 2
    return SIDES[i % 2], {side: DIRS[(k + swapped) % 2] for k, side in enumerate(SIDES)}


def trace_plan() -> list[str]:
    """The side of each traced run, in order: ``TRACE_RUNS`` pairs whose
    lead alternates, parent first in the first (P C C P P C for three)."""
    return [side for k in range(TRACE_RUNS) for side in (SIDES if k % 2 == 0 else SIDES[::-1])]


def summarize_trace(runs: dict[str, list[dict]]) -> dict:
    """The trace block's sides from each side's traced runs: every run, the
    per-metric median over a side's runs, and the ratio of those medians
    (change over parent) for the metrics both revisions report."""
    medians = {side: {k: float(np.median([r["metrics"][k] for r in runs[side]]))
                      for k in runs[side][0]["metrics"]} for side in SIDES}
    p, c = medians["parent"], medians["change"]
    out = {side: {"runs": runs[side], "median": medians[side]} for side in SIDES}
    out["ratio_change_over_parent"] = {k: c[k] / p[k] if p[k] else float("nan")
                                       for k in p if k in c}
    return out


def swap_trees(scratch: Path) -> None:
    """Exchange the two trees' directories by renaming."""
    a, b = (scratch / d for d in DIRS)
    a.rename(scratch / "swap")
    b.rename(a)
    (scratch / "swap").rename(b)


def quartiles(values) -> dict[str, float]:
    q1, median, q3 = np.percentile(np.asarray(values, dtype=np.float64), [25, 50, 75])
    return {"q1": float(q1), "median": float(median), "q3": float(q3)}


def wins(parent, change, better: str) -> tuple[int, int]:
    """Pairs the change won and lost: strictly better or worse in the
    metric's direction; ties count for neither."""
    sign = 1.0 if better == "higher" else -1.0
    diffs = sign * (np.asarray(change, dtype=np.float64) - np.asarray(parent, dtype=np.float64))
    return int(np.sum(diffs > 0)), int(np.sum(diffs < 0))


def summarize_metric(parent, change, better: str, bound: float | None) -> dict:
    """One metric on one workload, over the pairs' runs."""
    p, c = quartiles(parent), quartiles(change)
    won, lost = wins(parent, change, better)
    ratio = c["median"] / p["median"] if p["median"] else float("nan")
    out = {
        "parent": p, "change": c,
        "ratio_change_over_parent": ratio,
        "pairs_won_by_change": won, "pairs_lost_by_change": lost,
        "median_diff_exceeds_parent_iqr": abs(c["median"] - p["median"]) > p["q3"] - p["q1"],
        "parent_runs": list(parent), "change_runs": list(change),
    }
    if bound is not None:
        out["worse_than_bound"] = bool(ratio > 1 + bound if better == "lower" else ratio < 1 - bound)
        spread = (p["q3"] - p["q1"]) / p["median"] if p["median"] else float("inf")
        beats_every_run = (max(change) < min(parent) if better == "lower"
                           else min(change) > max(parent))
        out["unresolved"] = bool(spread > bound and not beats_every_run)
    return out


def judge_claim(parent, change, better: str, max_ratio: float) -> dict:
    """The claimed gain over the design pairs: won in at least nine tenths of
    them, the change's median at most max_ratio of the parent's (at least
    1 / max_ratio of it for a higher-is-better metric), and the medians
    apart by more than the parent's interquartile range."""
    s = summarize_metric(parent, change, better, None)
    won, ratio = s["pairs_won_by_change"], s["ratio_change_over_parent"]
    far_enough = ratio <= max_ratio if better == "lower" else ratio >= 1 / max_ratio
    return {
        "pairs_won": f"{won}/{len(parent)}",
        "median_parent": s["parent"]["median"], "median_change": s["change"]["median"],
        "ratio_change_over_parent": ratio,
        "parent_iqr": s["parent"]["q3"] - s["parent"]["q1"],
        "met": bool(won >= 0.9 * len(parent) and far_enough
                    and s["median_diff_exceeds_parent_iqr"]),
    }


def summarize_workload(spec: dict, runs: dict[str, list[dict]], seeds: list[int],
                       first: list[str]) -> dict:
    """The BENCH block of one workload from each side's run results, in pair
    order."""
    metrics = {}
    for m in spec["end_to_end"]:
        name = m["name"]
        values = {side: [r["metrics"][name] for r in runs[side]] for side in SIDES}
        metrics[name] = {"unit": m["unit"], "better": m["better"], "bound": m.get("bound"),
                         **summarize_metric(values["parent"], values["change"],
                                            m["better"], m.get("bound"))}
    return {
        "runs": {
            "seeds": seeds, "pairs": len(seeds), "first_in_pair": first,
            "all_correct": all(r["correct"] for side in SIDES for r in runs[side]),
            "failed": {side: sum(r["failed"] for r in runs[side]) for side in SIDES},
            "attempted": {side: sum(r["attempted"] for r in runs[side]) for side in SIDES},
            "exit_codes": sorted({r["exit_code"] for side in SIDES for r in runs[side]}),
        },
        "metrics": metrics,
    }


def check_options(spec: dict, claim: str | None,
                  trace_workload: str | None) -> tuple[str, str, float] | None:
    """Check --claim and --trace-workload against the change's BENCHMARK.json
    before any pair runs. Returns the claim as (workload, metric, max_ratio),
    or None without one; a bad value raises ValueError with a one-line message."""
    workloads = [w["name"] for w in spec["workloads"]]
    if trace_workload is not None and trace_workload not in workloads:
        raise ValueError(f"--trace-workload {trace_workload!r} is not one of {workloads}")
    if claim is None:
        return None
    fields = claim.split(":")
    if len(fields) != 3:
        raise ValueError(f"--claim must be WORKLOAD:METRIC:MAX_RATIO, got {claim!r}")
    workload, metric, text = fields
    metrics = [m["name"] for m in spec["end_to_end"]]
    if workload not in workloads:
        raise ValueError(f"--claim workload {workload!r} is not one of {workloads}")
    if metric not in metrics:
        raise ValueError(f"--claim metric {metric!r} is not one of {metrics}")
    try:
        max_ratio = float(text)
    except ValueError:
        max_ratio = float("nan")
    if not (0 < max_ratio < float("inf")):
        raise ValueError(f"--claim MAX_RATIO must be a positive number, got {text!r}")
    return workload, metric, max_ratio


def export(rev: str, dest: Path) -> str:
    """Write revision rev of this repository into dest (which must not exist
    yet); return its full hash."""
    full = subprocess.run(["git", "-C", str(REPO), "rev-parse", "--verify", f"{rev}^{{commit}}"],
                          check=True, capture_output=True, text=True).stdout.strip()
    tar = subprocess.run(["git", "-C", str(REPO), "archive", "--format=tar", full],
                         check=True, capture_output=True).stdout
    dest.mkdir(parents=True)
    with tarfile.open(fileobj=io.BytesIO(tar)) as t:
        t.extractall(dest, filter="data")
    return full


def run_bench(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One bench/run.py run: its exit code, its last stdout line's fields and
    the environment line it printed."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise RuntimeError(f"{tree.name} {workload} seed {seed}: no result "
                           f"(exit {proc.returncode}): {proc.stderr.strip()[-500:]}")
    result = json.loads(lines[-1])
    env = next((json.loads(x[4:]) for x in lines if x.startswith("env ")), {})
    return {"exit_code": proc.returncode, "correct": result["correct"],
            "attempted": result["attempted"], "failed": result["failed"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}, "env": env}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", help="git revision of the parent")
    ap.add_argument("change", help="git revision of the change")
    ap.add_argument("--scratch", type=Path, required=True,
                    help="empty directory for the two trees")
    ap.add_argument("--out", type=Path, required=True, help="the BENCH_<k>.json to write")
    ap.add_argument("--seeds", type=parse_seeds, default=parse_seeds("2001-2010"),
                    help="design seeds, one pair each (default 2001-2010)")
    ap.add_argument("--claim", metavar="WORKLOAD:METRIC:MAX_RATIO",
                    help="the gain claimed beforehand, e.g. long-generation:svd_compare_s:0.6")
    ap.add_argument("--trace-workload",
                    help=f"also run --trace 1 {TRACE_RUNS} times per side on this workload")
    ap.add_argument("--what", default="", help="one line on what the change does")
    args = ap.parse_args(argv)

    home = pair_plan(0)[1]  # where each side's tree sits now
    revisions = {side: export(rev, args.scratch / home[side])
                 for side, rev in zip(SIDES, (args.parent, args.change))}
    spec = json.loads((args.scratch / home["change"] / "BENCHMARK.json").read_text())
    try:
        claim = check_options(spec, args.claim, args.trace_workload)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    seeds = args.seeds + [HELD_OUT_SEED]
    plans = [pair_plan(i) for i in range(len(seeds))]
    first = [lead for lead, _ in plans]

    env, blocks = {}, {}
    for workload in workloads:
        runs = {side: [] for side in SIDES}
        for seed, (lead, dirs) in zip(seeds, plans):
            if dirs != home:
                swap_trees(args.scratch)
                home = dirs
            for side in (lead, SIDES[1 - SIDES.index(lead)]):
                r = run_bench(args.scratch / home[side], workload, seed, seconds, 0)
                env = env or r["env"]
                runs[side].append(r)
                print(f"{workload} seed {seed} {side}: exit {r['exit_code']}", file=sys.stderr)
        blocks[workload] = summarize_workload(spec, runs, seeds, first)

    out = {
        "what": args.what,
        "revisions": revisions,
        "environment": {k: v for k, v in env.items() if k not in ("seed", "workload")},
        "method": {
            "command": f"python3 bench/run.py --workload W --seed S --seconds {seconds:g} --trace 0",
            "run_seconds": seconds, "trace": 0,
            "trees": f"git archive of each revision into {' and '.join(DIRS)}, paths of equal "
                     "length; the trees trade directories by renaming every two pairs",
            "order": "parent first in even-numbered pairs, change first in odd-numbered pairs",
            "parent_tree_in_pair": [dirs["parent"] for _, dirs in plans],
            "quartiles": "numpy.percentile, linear interpolation, over the pairs' runs",
            "win": "a pair is won when the change's run is strictly better in the metric's direction",
            "worse_than_bound": "the ratio of medians is past 1 + bound (lower is better) "
                                "or 1 - bound (higher is better)",
            "unresolved": "the parent's IQR over its median exceeds the bound, and not every "
                          "change run beats every parent run",
            "held_out_seed": HELD_OUT_SEED,
        },
    }
    if claim:
        workload, metric, max_ratio = claim
        m = blocks[workload]["metrics"][metric]
        n = len(args.seeds)
        out["claim"] = {
            "metric": metric, "workload": workload,
            "rule": f"over the {n} design seeds the change wins >= 9/10 of the pairs, its "
                    f"median is within {max_ratio:g}x the parent's, and |median "
                    "difference| > parent IQR; the held-out seed is reported beside it",
            "result": judge_claim(m["parent_runs"][:n], m["change_runs"][:n],
                                  m["better"], max_ratio),
            f"held_out_seed_{HELD_OUT_SEED}": {side: m[f"{side}_runs"][n] for side in SIDES},
        }
    out["workloads"] = blocks
    if args.trace_workload:
        plan = trace_plan()
        traced = {side: [] for side in SIDES}
        for side in plan:
            r = run_bench(args.scratch / home[side], args.trace_workload, TRACE_SEED, seconds, 1)
            traced[side].append({k: r[k] for k in ("exit_code", "correct", "metrics")})
            print(f"{args.trace_workload} traced {side}: exit {r['exit_code']}", file=sys.stderr)
        out["trace"] = {"note": f"{TRACE_RUNS} --trace 1 runs per side, {args.trace_workload} "
                                f"seed {TRACE_SEED}, in the order of 'plan'; per-layer metrics "
                                "of BENCHMARK.json (no bounds)",
                        "plan": plan, **summarize_trace(traced)}
    args.out.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
