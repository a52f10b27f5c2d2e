"""The lab's CLI pipelines, driven in-process through ``attnlab.cli.run_cli``.

Set-up writes the weight archives with ``gen-weights``. A run then calls
``verify`` (mla and lrkv), ``diversity`` and ``svd-compare`` many times, each
timed as one pipeline, and checks the CSV each one wrote outside the timed
region.
"""

from __future__ import annotations

import csv
import json
import time
from dataclasses import dataclass
from pathlib import Path

import attnlab.archive as archive
import attnlab.cli as cli
import attnlab.presets as presets
import attnlab.weights as wts
from attnlab.config import AttentionConfig, RngSpec

from common import derive_seed, median

TOL = 1e-9
VERIFY_MECHANISMS = ("mla", "lrkv")
# Shapes the pipelines run at besides the presets, by name; each is written
# to a --config-json file per mechanism.
SHAPES = {
    # Two 16-wide heads: Jacobi works on 16x16 matrices and a pipeline takes
    # a few to a few tens of milliseconds. The serving workloads run the pipelines at
    # this shape, so every workload reports every metric.
    "small": {"d": 32, "H": 2, "d_h": 16, "n_layers": 1, "r": 4, "d_c": 16, "G": 2},
    # One 24-wide head, rank 12: svd-compare makes two Jacobi calls on 24x24
    # matrices, about a tenth of a second, so a run holds dozens of samples.
    # (At the 128M's width one call takes 2 s or more.)
    "1h-24": {"d": 24, "H": 1, "d_h": 24, "n_layers": 1, "r": 12, "d_c": 24, "G": 1},
}


@dataclass(frozen=True)
class LabSpec:
    """The shape each pipeline runs at: a preset name or a key of SHAPES."""

    verify: str
    verify_tokens: int
    diversity: str
    svd: str


FULL = LabSpec(verify="128M", verify_tokens=32, diversity="128M", svd="1h-24")
SMALL = LabSpec(verify="small", verify_tokens=128, diversity="small", svd="small")

# Archive role -> (which LabSpec field sets its shape, mechanism)
ARCHIVES = {
    "diversity": ("diversity", "lrkv"),
    "svd-weights": ("svd", "lrkv"),
    "svd-reference": ("svd", "mha"),
}


@dataclass
class Lab:
    spec: LabSpec
    workdir: Path
    seed: int

    def config_args(self, shape: str, m: str) -> list[str]:
        if shape in SHAPES:
            return ["--config-json", str(self.workdir / f"{shape}-{m}.json")]
        return ["--preset", shape, "--mechanism", m]

    def config(self, shape: str, m: str) -> AttentionConfig:
        if shape in SHAPES:
            return AttentionConfig.from_json_dict(dict(SHAPES[shape], mechanism=m))
        return presets.config_for(shape, m)

    def archive(self, role: str) -> Path:
        return self.workdir / f"{role}.atn"

    def archive_seed(self, role: str) -> int:
        return derive_seed(self.seed, "archive", role)


def setup(spec: LabSpec, workdir: Path, seed: int, tally) -> Lab:
    """Write the shape files and, through gen-weights, every archive a run reads."""
    workdir.mkdir(parents=True, exist_ok=True)
    lab = Lab(spec, workdir, seed)
    for shape, fields in SHAPES.items():
        for m in ("mha", "mla", "lrkv"):
            with open(workdir / f"{shape}-{m}.json", "w") as f:
                json.dump(dict(fields, mechanism=m), f)
    for role, (field, m) in ARCHIVES.items():
        argv = ["gen-weights", *lab.config_args(getattr(spec, field), m),
                "--seed", str(lab.archive_seed(role)), "--out", str(lab.archive(role))]
        tally.cli(cli.run_cli(argv), argv)
    return lab


def _rows(path: Path) -> list[dict]:
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def verify(lab: Lab, tally, tracer) -> float:
    """Explicit vs factored decode agreement, one trial per mechanism."""
    calls = []
    t0 = time.perf_counter()
    for m in VERIFY_MECHANISMS:
        out = lab.workdir / f"verify-{m}.csv"
        argv = ["verify", *lab.config_args(lab.spec.verify, m),
                "--tokens", str(lab.spec.verify_tokens), "--trials", "1",
                "--seed", str(derive_seed(lab.seed, "verify", m)), "--out", str(out)]
        with tracer.request(f"lab/verify-{m}"):
            calls.append((argv, out, cli.run_cli(argv)))
    elapsed = time.perf_counter() - t0
    for argv, out, rc in calls:
        tally.cli(rc, argv)
        if rc == 0:
            diffs = [float(r[k]) for r in _rows(out) for k in ("max_logit_diff", "max_out_diff")]
            tally.check(max(diffs) <= TOL, f"verify {out.name}: max diff {max(diffs):g}")
    return elapsed


def diversity(lab: Lab, tally, tracer) -> float:
    """Head-diversity analytics on the diversity archive."""
    prefix = lab.workdir / "diversity"
    argv = ["diversity", "--weights", str(lab.archive("diversity")), "--out-prefix", str(prefix)]
    t0 = time.perf_counter()
    with tracer.request("lab/diversity"):
        rc = cli.run_cli(argv)
    elapsed = time.perf_counter() - t0
    tally.cli(rc, argv)
    if rc == 0:
        sim = _rows(Path(f"{prefix}_similarity.csv"))
        H = len(sim)
        diag = [float(row[f"head_{h}"]) for h, row in enumerate(sim)]
        tally.check(all(abs(x - 1.0) <= TOL for x in diag), "diversity: similarity diagonal is not 1")
        ranks = [float(r["effective_rank_abs"]) for r in _rows(Path(f"{prefix}_effective_rank.csv"))]
        tally.check(all(0.0 <= x <= H for x in ranks), f"diversity: effective rank outside [0, {H}]")
    return elapsed


def svd_compare(lab: Lab, tally, tracer) -> float:
    """Learned lrkv residuals against the truncated-SVD optimum, per head."""
    out = lab.workdir / "svd-compare.csv"
    argv = ["svd-compare", "--weights", str(lab.archive("svd-weights")),
            "--reference", str(lab.archive("svd-reference")), "--out", str(out)]
    t0 = time.perf_counter()
    with tracer.request("lab/svd-compare"):
        rc = cli.run_cli(argv)
    elapsed = time.perf_counter() - t0
    tally.cli(rc, argv)
    if rc == 0:
        ratios = [float(r["ratio"]) for r in _rows(out)]
        tally.check(min(ratios) >= 1.0 - TOL, f"svd-compare: ratio {min(ratios):.12f} below 1")
    return elapsed


PIPELINES = {"verify_s": verify, "diversity_s": diversity, "svd_compare_s": svd_compare}


def check_archives(lab: Lab, tally) -> None:
    """Every archive reads back bit for bit as the weights gen-weights drew."""
    for role, (field, m) in ARCHIVES.items():
        config = lab.config(getattr(lab.spec, field), m)
        got = archive.read_archive(lab.archive(role)).named_tensors()
        want = wts.init_weights(config, RngSpec(seed=lab.archive_seed(role))).named_tensors()
        same = got.keys() == want.keys() and all(
            got[k].dtype == want[k].dtype and got[k].shape == want[k].shape
            and got[k].tobytes() == want[k].tobytes() for k in want)
        tally.check(same, f"archive {role}: round trip is not bit-exact")
        del got, want


def layer_metrics(lab: Lab, tracer, setup_request: str) -> dict[str, float]:
    """Per-layer archive, diversity, jacobi and cli metrics from the traced run."""
    mib = 2 ** 20
    out = {}
    writes = tracer.select("archive.write_archive", setup_request)
    write_s = sum(s.seconds for s in writes)
    out["archive.write_s"] = write_s
    out["archive.write_mib_per_s"] = sum(s.attrs["bytes"] for s in writes) / mib / write_s
    reads = tracer.select("archive.read_archive", "lab")
    read_s = sum(s.seconds for s in reads)
    read_bytes = sum(s.attrs["bytes"] for s in reads)
    out["archive.read_s"] = read_s
    out["archive.read_mib_per_s"] = read_bytes / mib / read_s
    out["archive.bytes"] = float(read_bytes)

    # Diversity and svd-compare times are per pipeline run: the traced
    # request runs each pipeline many times.
    div_runs = len(tracer.select("cli.run_cli", "lab/diversity"))
    svd_runs = len(tracer.select("cli.run_cli", "lab/svd-compare"))
    out["diversity.report_s"] = sum(
        s.seconds for s in tracer.select("diversity.diversity_report", "lab/diversity")) / div_runs
    grams = tracer.select("diversity.gram", "lab/diversity")
    gram_s = sum(s.seconds for s in grams)
    c = lab.config(lab.spec.diversity, "lrkv")
    pairs = c.H * (c.H + 1) // 2
    # Each pair: two (d_h, d) x (d, d_h) products and a d_h x d_h multiply-sum.
    gram_flops = len(grams) * pairs * (4 * c.d * c.d_h ** 2 + 2 * c.d_h ** 2)
    out["diversity.gram_s"] = gram_s / div_runs
    out["diversity.gram_gflops"] = gram_flops / gram_s * 1e-9
    out["diversity.spectrum_s"] = sum(
        s.seconds for s in tracer.select("diversity.spectrum", "lab/diversity")) / div_runs
    gaps = tracer.select("diversity.factorization_gap", "lab/svd-compare")
    out["diversity.factorization_gap_s"] = sum(s.seconds for s in gaps) / svd_runs
    truncs = tracer.select("diversity.svd_truncate", "lab/svd-compare")
    out["diversity.svd_truncate_ms_p50"] = median([s.seconds * 1e3 for s in truncs])
    out["diversity.svd_truncate_calls"] = len(truncs) / svd_runs

    jacobi = tracer.select("jacobi.jacobi_eigh", "lab")
    out["jacobi.calls"] = float(len(jacobi))
    out["jacobi.eigh_ms_p50.svd"] = median(
        [s.seconds * 1e3 for s in jacobi if tracer.parent_name(s) == "diversity.svd_truncate"])
    out["jacobi.eigh_ms_p50.gram"] = median(
        [s.seconds * 1e3 for s in jacobi if tracer.parent_name(s) == "diversity.spectrum"])
    svd_jacobi_s = sum(s.seconds for s in jacobi if s.request == "lab/svd-compare")
    svd_s = sum(s.seconds for s in tracer.select("cli.run_cli", "lab/svd-compare"))
    out["jacobi.self_share.svd_compare"] = svd_jacobi_s / svd_s

    self_s = tracer.self_seconds()
    out["cli.self_s"] = sum(self_s[i] for i, s in enumerate(tracer.spans)
                            if s.name == "cli.run_cli" and (s.request or "").startswith("lab/"))
    for m in VERIFY_MECHANISMS:
        req = f"lab/verify-{m}"
        for path in ("explicit", "factored"):
            out[f"cache.{path}_step_us_p50.{m}"] = median(
                [s.seconds * 1e6 for s in tracer.select(f"cache.decode_{path}", req)])
    return out
