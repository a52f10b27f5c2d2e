import importlib
import importlib.util
import json
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = ROOT / "scripts"


def load_script(name, directory=SCRIPTS):
    spec = importlib.util.spec_from_file_location(name, directory / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_bench_attribute_exists(monkeypatch):
    """The traced bench run replaces each (module, attribute) in
    ``bench/tracing.py``'s TRACED; a refactor that drops one breaks the bench
    and nothing else. The file is only read: no bytecode is written beside it."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    tracing = load_script("tracing", ROOT / "bench")
    assert tracing.TRACED
    for module_name, attr, *_ in tracing.TRACED:
        assert callable(getattr(importlib.import_module(module_name), attr, None)), \
            (module_name, attr)


def test_traced_bench_spans_are_recorded(monkeypatch, tmp_path):
    """The traced bench run takes per-layer metrics from the spans that
    ``bench/lab.py::layer_metrics`` selects, some through ``statistics.median``,
    which raises on an empty list. So each selection must find a span when
    the lab pipelines run, here at a small shape, with ``bench/tracing.py``'s
    tracer installed. The file is only read: no bytecode is written beside it."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    tracing = load_script("tracing", ROOT / "bench")
    cli = importlib.import_module("attnlab.cli")
    shape = {"d": 32, "H": 2, "d_h": 16, "n_layers": 1, "r": 4, "d_c": 16, "G": 2}
    for m in ("mha", "mla", "lrkv"):
        (tmp_path / f"{m}.json").write_text(json.dumps(dict(shape, mechanism=m)))
    archives = {"diversity": "lrkv", "weights": "lrkv", "reference": "mha"}
    tracer = tracing.Tracer()
    with tracer.installed():
        with tracer.request("setup"):
            for seed, (role, m) in enumerate(archives.items()):
                assert cli.run_cli(["gen-weights", "--config-json", str(tmp_path / f"{m}.json"),
                                    "--seed", str(seed), "--out", str(tmp_path / role)]) == 0
        for m in ("mla", "lrkv"):
            with tracer.request(f"lab/verify-{m}"):
                assert cli.run_cli(["verify", "--config-json", str(tmp_path / f"{m}.json"),
                                    "--tokens", "8", "--trials", "1", "--seed", "1",
                                    "--out", str(tmp_path / f"verify-{m}.csv")]) == 0
        with tracer.request("lab/diversity"):
            assert cli.run_cli(["diversity", "--weights", str(tmp_path / "diversity"),
                                "--out-prefix", str(tmp_path / "diversity")]) == 0
        with tracer.request("lab/svd-compare"):
            assert cli.run_cli(["svd-compare", "--weights", str(tmp_path / "weights"),
                                "--reference", str(tmp_path / "reference"),
                                "--out", str(tmp_path / "svd-compare.csv")]) == 0

    selected = {
        (name, request): tracer.select(name, request) for name, request in (
            ("archive.write_archive", "setup"),
            ("archive.read_archive", "lab"),
            ("cli.run_cli", "lab/diversity"),
            ("cli.run_cli", "lab/svd-compare"),
            ("diversity.diversity_report", "lab/diversity"),
            ("diversity.gram", "lab/diversity"),
            ("diversity.spectrum", "lab/diversity"),
            ("diversity.factorization_gap", "lab/svd-compare"),
            ("diversity.svd_truncate", "lab/svd-compare"),
            ("cache.decode_explicit", "lab/verify-mla"),
            ("cache.decode_factored", "lab/verify-mla"),
            ("cache.decode_explicit", "lab/verify-lrkv"),
            ("cache.decode_factored", "lab/verify-lrkv"),
        )
    }
    jacobi = tracer.select("jacobi.jacobi_eigh", "lab")
    for parent in ("diversity.svd_truncate", "diversity.spectrum"):
        selected[("jacobi.jacobi_eigh", parent)] = [
            s for s in jacobi if tracer.parent_name(s) == parent]
    assert [key for key, spans in selected.items() if not spans] == []


def test_bench_pairs_seeds_and_quartiles():
    pairs = load_script("bench_pairs")
    assert pairs.parse_seeds("2001-2003,7,9-10") == [2001, 2002, 2003, 7, 9, 10]
    assert pairs.quartiles([4.0, 1.0, 3.0, 2.0]) == {"q1": 1.75, "median": 2.5, "q3": 3.25}


def test_bench_pairs_wins_respect_direction_and_ties():
    pairs = load_script("bench_pairs")
    parent, change = [1.0, 2.0, 3.0, 4.0], [0.5, 2.0, 3.5, 1.0]
    assert pairs.wins(parent, change, "lower") == (2, 1)
    assert pairs.wins(parent, change, "higher") == (1, 2)


def test_bench_pairs_metric_summary():
    pairs = load_script("bench_pairs")
    parent = [10.0, 11.0, 12.0, 13.0, 14.0]
    faster = [5.0, 5.5, 6.0, 6.5, 7.0]
    s = pairs.summarize_metric(parent, faster, "lower", 0.25)
    assert s["parent"] == {"q1": 11.0, "median": 12.0, "q3": 13.0}
    assert s["change"]["median"] == 6.0 and s["ratio_change_over_parent"] == 0.5
    assert (s["pairs_won_by_change"], s["pairs_lost_by_change"]) == (5, 0)
    assert s["median_diff_exceeds_parent_iqr"] and not s["worse_than_bound"]
    assert s["parent_runs"] == parent and s["change_runs"] == faster
    # The same samples read as a throughput: half the parent's, past its bound.
    t = pairs.summarize_metric(parent, faster, "higher", 0.25)
    assert t["worse_than_bound"] and t["pairs_lost_by_change"] == 5
    # Within noise: medians apart by less than the parent's IQR.
    n = pairs.summarize_metric(parent, [12.5, 11.0, 13.5, 12.0, 14.0], "lower", 0.25)
    assert not n["median_diff_exceeds_parent_iqr"] and not n["worse_than_bound"]
    assert not (s["unresolved"] or t["unresolved"] or n["unresolved"])  # IQR 2/12 < 0.25
    assert "worse_than_bound" not in pairs.summarize_metric(parent, parent, "lower", None)
    # A parent whose IQR is 60% of its median cannot resolve a 25% bound...
    wide = [10.0, 14.0, 20.0, 26.0, 30.0]
    assert pairs.summarize_metric(wide, wide, "lower", 0.25)["unresolved"]
    assert pairs.summarize_metric(wide, [9.0, 13.0, 19.0, 25.0, 29.0], "lower", 0.25)["unresolved"]
    assert not pairs.summarize_metric(wide, wide, "lower", 0.7)["unresolved"]
    # ...unless every change run beats every parent run, in the metric's direction.
    assert not pairs.summarize_metric(wide, [5.0, 6.0, 7.0, 8.0, 9.0], "lower", 0.25)["unresolved"]
    assert pairs.summarize_metric(wide, [5.0, 6.0, 7.0, 8.0, 9.0], "higher", 0.25)["unresolved"]
    assert not pairs.summarize_metric(wide, [31.0, 32.0, 33.0, 34.0, 40.0], "higher", 0.25)["unresolved"]


def test_bench_pairs_claim_needs_wins_ratio_and_spread():
    pairs = load_script("bench_pairs")
    parent = [10.0, 11.0, 12.0, 13.0, 14.0, 10.5, 11.5, 12.5, 13.5, 14.5]
    change = [x * 0.5 for x in parent]
    met = pairs.judge_claim(parent, change, "lower", 0.6)
    assert met["met"] and met["pairs_won"] == "10/10" and met["ratio_change_over_parent"] == 0.5
    assert not pairs.judge_claim(parent, change, "lower", 0.4)["met"]  # not far enough
    one_loss = change[:9] + [parent[9] + 1.0]  # 9/10 still wins
    assert pairs.judge_claim(parent, one_loss, "lower", 0.6)["met"]
    two_losses = change[:8] + [parent[8] + 1.0, parent[9] + 1.0]
    assert pairs.judge_claim(parent, two_losses, "lower", 0.6)["pairs_won"] == "8/10"
    assert not pairs.judge_claim(parent, two_losses, "lower", 0.6)["met"]
    assert pairs.judge_claim(change, parent, "higher", 0.6)["met"]  # a throughput doubled


def test_bench_pairs_workload_block():
    pairs = load_script("bench_pairs")
    spec = {"end_to_end": [{"name": "a_s", "unit": "s", "better": "lower", "bound": 0.25},
                           {"name": "b_per_s", "unit": "1/s", "better": "higher", "bound": 0.25}]}

    def run(a, b, failed=0):
        return {"exit_code": 1 if failed else 0, "correct": not failed, "attempted": 10,
                "failed": failed, "metrics": {"a_s": a, "b_per_s": b}}

    runs = {"parent": [run(2.0, 1.0), run(2.2, 1.1), run(2.4, 1.2)],
            "change": [run(1.0, 1.0), run(1.1, 1.2, failed=1), run(1.2, 1.3)]}
    block = pairs.summarize_workload(spec, runs, [5, 6, 7919], ["parent", "change", "parent"])
    assert block["runs"] == {
        "seeds": [5, 6, 7919], "pairs": 3, "first_in_pair": ["parent", "change", "parent"],
        "all_correct": False, "failed": {"parent": 0, "change": 1},
        "attempted": {"parent": 30, "change": 30}, "exit_codes": [0, 1]}
    a, b = block["metrics"]["a_s"], block["metrics"]["b_per_s"]
    assert a["unit"] == "s" and a["bound"] == 0.25 and a["change_runs"] == [1.0, 1.1, 1.2]
    assert a["pairs_won_by_change"] == 3 and b["pairs_won_by_change"] == 2


def test_bench_pairs_plan_crosses_directories_with_lead_order(tmp_path):
    pairs = load_script("bench_pairs")
    plans = [pairs.pair_plan(i) for i in range(8)]
    assert [lead for lead, _ in plans] == ["parent", "change"] * 4
    assert [dirs["parent"] for _, dirs in plans] == ["tree-a", "tree-a", "tree-b", "tree-b"] * 2
    assert all(dirs["change"] != dirs["parent"] for _, dirs in plans)
    # each four-pair cycle holds every (lead, parent's directory) combination once
    assert len({(lead, dirs["parent"]) for lead, dirs in plans[:4]}) == 4
    assert len(pairs.DIRS[0]) == len(pairs.DIRS[1])
    for d in pairs.DIRS:
        (tmp_path / d).mkdir()
        (tmp_path / d / "name").write_text(d)
    pairs.swap_trees(tmp_path)
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(pairs.DIRS)
    assert [(tmp_path / d / "name").read_text() for d in pairs.DIRS] == list(reversed(pairs.DIRS))


BENCH_SPEC = {"workloads": [{"name": "long-prompt"}, {"name": "lab-instruments"}],
              "end_to_end": [{"name": "verify_s", "unit": "s", "better": "lower"}]}


def test_bench_pairs_checks_claim_and_trace_workload():
    pairs = load_script("bench_pairs")
    assert pairs.check_options(BENCH_SPEC, None, None) is None
    assert pairs.check_options(BENCH_SPEC, "lab-instruments:verify_s:0.8", "long-prompt") == \
        ("lab-instruments", "verify_s", 0.8)
    for claim, trace, message in (
        (None, "long-promt", "--trace-workload 'long-promt'"),
        ("lab-instruments:verify_s", None, "WORKLOAD:METRIC:MAX_RATIO"),
        ("lab-instruments:verify_s:0.8:1", None, "WORKLOAD:METRIC:MAX_RATIO"),
        ("lab:verify_s:0.8", None, "workload 'lab'"),
        ("lab-instruments:verify:0.8", None, "metric 'verify'"),
        ("lab-instruments:verify_s:x", None, "MAX_RATIO"),
        ("lab-instruments:verify_s:0", None, "MAX_RATIO"),
        ("lab-instruments:verify_s:-0.5", None, "MAX_RATIO"),
        ("lab-instruments:verify_s:nan", None, "MAX_RATIO"),
        ("lab-instruments:verify_s:inf", None, "MAX_RATIO"),
    ):
        with pytest.raises(ValueError, match=re.escape(message)):
            pairs.check_options(BENCH_SPEC, claim, trace)


@pytest.mark.parametrize("option", [["--claim", "lab-instruments:verify_s:fast"],
                                    ["--trace-workload", "nope"]])
def test_bench_pairs_rejects_a_bad_option_before_the_first_pair(monkeypatch, tmp_path,
                                                                 capsys, option):
    pairs = load_script("bench_pairs")

    def export(rev, dest):
        dest.mkdir(parents=True)
        (dest / "BENCHMARK.json").write_text(json.dumps(BENCH_SPEC))
        return rev

    def run_bench(*args):
        raise AssertionError("a pair ran")

    monkeypatch.setattr(pairs, "export", export)
    monkeypatch.setattr(pairs, "run_bench", run_bench)
    out = tmp_path / "BENCH.json"
    assert pairs.main(["a", "b", "--scratch", str(tmp_path / "s"), "--out", str(out),
                       *option]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert not out.exists()


def test_bench_pairs_trace_plan_alternates_the_lead():
    pairs = load_script("bench_pairs")
    assert pairs.TRACE_RUNS == 3
    assert pairs.trace_plan() == ["parent", "change", "change", "parent", "parent", "change"]


def test_bench_pairs_trace_block_keeps_every_run_and_medians():
    pairs = load_script("bench_pairs")

    def run(metrics):
        return {"exit_code": 0, "correct": True, "metrics": metrics}

    runs = {"parent": [run({"a_us": a, "b_us": b}) for a, b in ((10.0, 1.0), (30.0, 3.0),
                                                                   (20.0, 2.0))],
            "change": [run({"a_us": a}) for a in (9.0, 100.0, 11.0)]}
    block = pairs.summarize_trace(runs)
    assert block["parent"]["runs"] == runs["parent"] and block["change"]["runs"] == runs["change"]
    assert block["parent"]["median"] == {"a_us": 20.0, "b_us": 2.0}
    assert block["change"]["median"] == {"a_us": 11.0}
    # b_us is reported by the parent's revision only: no ratio
    assert block["ratio_change_over_parent"] == {"a_us": 0.55}


def test_bench_pairs_runs_the_trace_plan_and_records_each_run(monkeypatch, tmp_path):
    pairs = load_script("bench_pairs")
    traced = []

    def export(rev, dest):
        dest.mkdir(parents=True)
        (dest / "BENCHMARK.json").write_text(json.dumps(dict(BENCH_SPEC, run_seconds=1)))
        (dest / "rev").write_text(rev)
        return rev

    def run_bench(tree, workload, seed, seconds, trace):
        rev = (tree / "rev").read_text()
        if trace:
            traced.append((rev, workload, seed))
        metrics = {"layer_us": 2.0 if rev == "b" else 4.0} if trace else {"verify_s": 1.0}
        return {"exit_code": 0, "correct": True, "attempted": 1, "failed": 0,
                "metrics": metrics, "env": {}}

    monkeypatch.setattr(pairs, "export", export)
    monkeypatch.setattr(pairs, "run_bench", run_bench)
    out = tmp_path / "BENCH.json"
    assert pairs.main(["a", "b", "--scratch", str(tmp_path / "s"), "--out", str(out),
                       "--seeds", "1-3", "--trace-workload", "long-prompt"]) == 0
    assert traced == [(rev, "long-prompt", pairs.TRACE_SEED) for rev in "abbaab"]
    trace = json.loads(out.read_text())["trace"]
    assert trace["plan"] == pairs.trace_plan()
    assert [len(trace[side]["runs"]) for side in pairs.SIDES] == [pairs.TRACE_RUNS] * 2
    assert trace["ratio_change_over_parent"] == {"layer_us": 0.5}


def test_bench_pairs_leaves_each_finished_workload_behind(monkeypatch, tmp_path):
    """A plan that fails in its second workload has already written the
    first one's block, pairs and all, to the BENCH file."""
    pairs = load_script("bench_pairs")

    def export(rev, dest):
        dest.mkdir(parents=True)
        (dest / "BENCHMARK.json").write_text(json.dumps(dict(BENCH_SPEC, run_seconds=1)))
        return rev

    def run_bench(tree, workload, seed, seconds, trace):
        if workload == "lab-instruments":
            raise RuntimeError("cut short")
        return {"exit_code": 0, "correct": True, "attempted": 1, "failed": 0,
                "metrics": {"verify_s": 1.0}, "env": {"python": "3.11"}}

    monkeypatch.setattr(pairs, "export", export)
    monkeypatch.setattr(pairs, "run_bench", run_bench)
    out = tmp_path / "BENCH.json"
    with pytest.raises(RuntimeError, match="cut short"):
        pairs.main(["a", "b", "--scratch", str(tmp_path / "s"), "--out", str(out),
                    "--seeds", "1-3", "--claim", "lab-instruments:verify_s:0.9"])
    left = json.loads(out.read_text())
    assert list(left["workloads"]) == ["long-prompt"]
    block = left["workloads"]["long-prompt"]
    assert block["runs"]["seeds"] == [1, 2, 3, pairs.HELD_OUT_SEED]
    assert block["metrics"]["verify_s"]["parent_runs"] == [1.0] * 4
    assert left["environment"] == {"python": "3.11"}
    assert "claim" not in left  # its workload never finished
