import csv
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import attnlab
from attnlab import AttentionConfig, Mechanism, cache_bytes, CostQuery, read_archive
from attnlab.cli import build_parser, run_cli


def read_csv(path):
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def write_config(tmp_path, config, name="config.json"):
    p = tmp_path / name
    p.write_text(json.dumps(config.to_json_dict()))
    return str(p)


def _source_env():
    """The environment for a subprocess that imports this source tree."""
    package_root = str(Path(attnlab.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")])))


LRKV_SMALL = AttentionConfig(mechanism=Mechanism.LRKV, d=64, H=4, d_h=16, r=6)


def test_no_subcommand_is_a_usage_error(capsys):
    assert run_cli([]) == 2
    capsys.readouterr()


def test_console_entry_point_help():
    """The script declared in pyproject.toml runs --help from the source tree.

    The subprocess resolves the ``module:attr`` target the way a generated
    console script does, so no install is needed.
    """
    tomllib = pytest.importorskip("tomllib")
    with open(Path(__file__).resolve().parents[1] / "pyproject.toml", "rb") as f:
        target = tomllib.load(f)["project"]["scripts"]["attnlab"]
    code = (
        "import sys\n"
        "from importlib.metadata import EntryPoint\n"
        f"main = EntryPoint('attnlab', {target!r}, 'console_scripts').load()\n"
        "sys.exit(main())\n"
    )
    env = _source_env()
    out = subprocess.run([sys.executable, "-c", code, "--help"],
                         capture_output=True, text=True, env=env)
    assert out.returncode == 0, out.stderr
    assert "gen-weights" in out.stdout


def test_python_dash_m_runs_the_cli():
    """``python -m attnlab`` needs only the package on the path, no install."""
    env = _source_env()
    out = subprocess.run([sys.executable, "-m", "attnlab", "--help"],
                         capture_output=True, text=True, env=env)
    assert out.returncode == 0, out.stderr
    assert out.stdout.startswith("usage: attnlab") and "gen-weights" in out.stdout
    bad = subprocess.run([sys.executable, "-m", "attnlab", "no-such-command"],
                         capture_output=True, text=True, env=env)
    assert bad.returncode == 2 and "Traceback" not in bad.stderr


@pytest.mark.skipif(shutil.which("attnlab") is None,
                    reason="attnlab console script is not installed")
def test_installed_console_script_help():
    out = subprocess.run(["attnlab", "--help"], capture_output=True, text=True)
    assert out.returncode == 0
    assert "gen-weights" in out.stdout


def test_gen_weights_is_deterministic_and_readable(tmp_path):
    cfg_path = write_config(tmp_path, LRKV_SMALL)
    a, b = str(tmp_path / "a.bin"), str(tmp_path / "b.bin")
    assert run_cli(["gen-weights", "--config-json", cfg_path, "--seed", "7",
                    "--out", a]) == 0
    assert run_cli(["gen-weights", "--config-json", cfg_path, "--seed", "7",
                    "--out", b]) == 0
    assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()
    w = read_archive(a)
    assert w.config == LRKV_SMALL


def test_gen_weights_f32(tmp_path):
    cfg_path = write_config(tmp_path, LRKV_SMALL)
    out = str(tmp_path / "w32.bin")
    assert run_cli(["gen-weights", "--config-json", cfg_path, "--dtype", "f32",
                    "--out", out]) == 0
    assert read_archive(out).wk_shared.dtype == np.float32


def test_gen_weights_opens_out_before_drawing(tmp_path, monkeypatch):
    """A path that cannot be written fails before any weight is drawn, and a
    config that does not resolve still leaves no file behind."""
    draws = []
    monkeypatch.setattr("attnlab.cli.init_weights", lambda *a: draws.append(a))
    cfg_path = write_config(tmp_path, LRKV_SMALL)
    missing = tmp_path / "missing" / "w.bin"
    assert run_cli(["gen-weights", "--config-json", cfg_path, "--out", str(missing)]) == 2
    assert draws == [] and not missing.parent.exists()
    out = tmp_path / "w.bin"
    assert run_cli(["gen-weights", "--config-json", cfg_path, "--set", "H=5",
                    "--out", str(out)]) == 2
    assert draws == [] and not out.exists()


def test_verify_small_config_passes(tmp_path):
    cfg_path = write_config(tmp_path, LRKV_SMALL)
    out = str(tmp_path / "verify.csv")
    code = run_cli(["verify", "--config-json", cfg_path, "--tokens", "16",
                    "--trials", "2", "--out", out])
    assert code == 0
    rows = read_csv(out)
    assert len(rows) == 2
    assert float(rows[0]["max_logit_diff"]) <= 1e-9
    assert rows[0]["mechanism"] == "lrkv"


def test_verify_float32_uses_looser_tolerance(tmp_path):
    cfg_path = write_config(tmp_path, LRKV_SMALL)
    out = str(tmp_path / "verify32.csv")
    assert run_cli(["verify", "--config-json", cfg_path, "--tokens", "16",
                    "--trials", "1", "--dtype", "f32", "--out", out]) == 0
    (row,) = read_csv(out)
    assert row["dtype"] == "float32"
    assert float(row["max_out_diff"]) <= 1e-5


def test_memory_preset_table_schema(tmp_path):
    out = str(tmp_path / "memory.csv")
    assert run_cli(["memory", "--preset", "128M", "--tokens", "2048",
                    "--batch", "1", "--bytes", "2", "--out", out]) == 0
    rows = read_csv(out)
    assert [r["mechanism"] for r in rows] == ["mha", "mqa", "gqa", "mla", "lrkv"]
    mla = rows[3]
    assert mla["ratio_formula"] == ""  # latent sizing has no r/d_h form
    for r in rows:
        assert set(r) == {"mechanism", "cache_bytes", "cache_mib",
                          "ratio_vs_mha", "ratio_formula", "kv_param_count"}


def test_memory_single_config_row(tmp_path):
    cfg_path = write_config(tmp_path, LRKV_SMALL)
    out = str(tmp_path / "one.csv")
    assert run_cli(["memory", "--config-json", cfg_path, "--tokens", "8",
                    "--batch", "2", "--bytes", "4", "--out", out]) == 0
    (row,) = read_csv(out)
    expect = cache_bytes(CostQuery(config=LRKV_SMALL, T=8, batch=2,
                                   bytes_per_element=4))
    assert int(row["cache_bytes"]) == expect
    # no preset in play: the formula column reflects the config's own rank
    assert row["ratio_formula"] == "0.625"


def test_memory_streams_knob_halves_the_latent_row(tmp_path):
    one, two = str(tmp_path / "s1.csv"), str(tmp_path / "s2.csv")
    for path, streams in ((one, "1"), (two, "2")):
        assert run_cli(["memory", "--preset", "128M", "--mla-streams", streams,
                        "--out", path]) == 0
    mla1 = next(r for r in read_csv(one) if r["mechanism"] == "mla")
    mla2 = next(r for r in read_csv(two) if r["mechanism"] == "mla")
    assert 2 * int(mla1["cache_bytes"]) == int(mla2["cache_bytes"])


def test_flops_table_paths_and_breakdown(tmp_path):
    out = str(tmp_path / "flops.csv")
    assert run_cli(["flops", "--preset", "128M", "--tokens", "512",
                    "--out", out]) == 0
    rows = read_csv(out)
    by_key = {(r["mechanism"], r["decode_path"]): r for r in rows}
    assert ("mla", "reconstruct") in by_key and ("mla", "factored") in by_key
    assert ("lrkv", "factored") in by_key
    for r in rows:
        parts = sum(int(r[k]) for k in
                    ("proj_new_token", "reconstruct", "scan", "lift", "softmax"))
        assert parts == int(r["decode_flops"])
    assert int(by_key[("mla", "factored")]["decode_flops"]) < \
        int(by_key[("mla", "reconstruct")]["decode_flops"])


def test_ablate_custom_ranks(tmp_path):
    out = str(tmp_path / "ablate.csv")
    assert run_cli(["ablate", "--preset", "128M", "--ranks", "0,64",
                    "--tokens", "128", "--out", out]) == 0
    rows = read_csv(out)
    assert [r["r"] for r in rows] == ["0", "64"]
    assert float(rows[0]["cache_pct"]) == pytest.approx(100 / 6, abs=5e-3)
    assert float(rows[1]["cache_pct"]) == pytest.approx(66.667, abs=5e-3)


# Whole CSVs, byte for byte (the csv module ends each row with CRLF). The
# memory table is README's block verbatim. The mha verify rows hold only
# integers and empty cells (no factored path, no diffs), and the ablation's
# figures are exact at their printed digits, so each pin holds on any host.
CSV_PINS = {
    "memory": (["memory", "--preset", "128M", "--tokens", "2048", "--batch", "1",
                "--bytes", "2"], """\
mechanism,cache_bytes,cache_mib,ratio_vs_mha,ratio_formula,kv_param_count
mha,75497472,72.0,1.000,1.000,1179648
mqa,12582912,12.0,0.167,0.167,196608
gqa,37748736,36.0,0.500,0.500,589824
mla,12582912,12.0,0.167,,294912
lrkv,50331648,48.0,0.667,0.526,884736
"""),
    "verify": (["verify", "--config-json", "{mha}", "--tokens", "8", "--trials", "2"], """\
trial,mechanism,T,dtype,max_logit_diff,max_out_diff,explicit_elems_touched,factored_elems_touched
0,mha,8,float64,,,1168,
1,mha,8,float64,,,1168,
"""),
    # Rank 0 through both paths: MQA's step exactly, so the diffs are 0 on
    # any host; the factored path notes its empty correction and lift too.
    "verify-rank0": (["verify", "--config-json", "{lrkv0}", "--tokens", "8", "--trials", "1"],
                     """\
trial,mechanism,T,dtype,max_logit_diff,max_out_diff,explicit_elems_touched,factored_elems_touched
0,lrkv,8,float64,0.000e+00,0.000e+00,912,1312
"""),
    "ablate": (["ablate", "--preset", "128M", "--ranks", "0,64", "--tokens", "128"], """\
r,cache_ratio,cache_pct,cache_bytes,kv_param_count,decode_flops,flops_overhead_vs_mha
0,0.166667,16.667,786432,196608,1969920,0.000000
64,0.666667,66.667,3145728,884736,3542784,1.000000
"""),
}


@pytest.mark.parametrize("command", CSV_PINS)
def test_csv_bytes_are_pinned(tmp_path, capsys, command):
    argv, text = CSV_PINS[command]
    shape = dict(d=32, H=2, d_h=16)
    paths = {"mha": write_config(tmp_path, AttentionConfig(mechanism=Mechanism.MHA, **shape),
                                 "mha.json"),
             "lrkv0": write_config(tmp_path, AttentionConfig(mechanism=Mechanism.LRKV, **shape,
                                                             r=0), "lrkv0.json")}
    assert run_cli([a.format(**paths) for a in argv] + ["--out", "-"]) == 0
    assert capsys.readouterr().out == text.replace("\n", "\r\n")


# The CLI outputs that are pure arithmetic (no BLAS, so the same bytes on any
# host): memory with its defaults and with other streams, batch and element
# size, flops at an odd length, and the default rank ablation.
ARITHMETIC_ARGV = (["memory"], ["memory", "--mla-streams", "1", "--batch", "3", "--bytes", "4"],
                   ["flops", "--tokens", "777"], ["ablate"])
# Their sha256 at every preset, in ARITHMETIC_ARGV order.
ARITHMETIC_SHA256 = {
    "128M": ("9f08715a6a1a24b5e60dbc66f490e1069a104c20266d7c22ab3dd53ff74e31b1",
             "8c2ded060e2c0e29cb2eb5706e94c7284bd65d57d2e43e4e2e81269e8cb018f9",
             "11227564e691f10658ec679b9bc03d16bba0144876c723f13edf35b59afa2f46",
             "0ca675e8989ae06477a2606a2fe49b56095356e204392ec898b8f3759099122b"),
    "512M": ("ae7e7e2668aabbd1cef4298d5b84d4c1586ddb6bd7f13e9ca7b113c4ad864dda",
             "9d4161b97d6242b8cb888f7edd8faf20f45809413cff08fe05894915ebb3fd75",
             "7ac2e437ff84ff1a5e13eed6be73e851df2393170eed9dbcfcc28ac349fe4101",
             "6e3975afdc20f933e70317986ec064f2ebbafd2a8f30621d9cb79c971347ab7d"),
    "1.2B": ("ae7e7e2668aabbd1cef4298d5b84d4c1586ddb6bd7f13e9ca7b113c4ad864dda",
             "9d4161b97d6242b8cb888f7edd8faf20f45809413cff08fe05894915ebb3fd75",
             "7ac2e437ff84ff1a5e13eed6be73e851df2393170eed9dbcfcc28ac349fe4101",
             "6e3975afdc20f933e70317986ec064f2ebbafd2a8f30621d9cb79c971347ab7d"),
    "2.5B": ("18f93b8953dc44c4ebda2f81fb8af97ac44b2d07a0893adc4bdf8547b2b6bc3c",
             "e950d690a3e873cb0ad8e9a4474843bfdfd306ade617e20f3bb669fce6246cd1",
             "07d61bd1f513a8cf91813615b3824fb5082adae3b67d279158039a1c0dee16b6",
             "3cc5cd999b2a57702490ca22264656de1e19550b81526e87d48b597121db6591"),
    "6.3B": ("12f8201a71ea4adebaf87bda861ef183b19c3cf6be8643aa917da51ce2f89e93",
             "554bbcd479532285af970c245cd3948ea38721e73336b510162b31a3b2213942",
             "caadfb05f1857d0dcee6ea23be043af73571efd41ac362f0581782201cd15336",
             "0f42e08e263ded305d3e7627507f99dada47a8786042eb026d91cc2bb0c8e17e"),
}


@pytest.mark.parametrize("preset", ARITHMETIC_SHA256)
def test_arithmetic_outputs_keep_their_sha256(tmp_path, preset):
    out = tmp_path / "out.csv"
    got = []
    for argv in ARITHMETIC_ARGV:
        assert run_cli([*argv, "--preset", preset, "--out", str(out)]) == 0
        got.append(hashlib.sha256(out.read_bytes()).hexdigest())
    assert dict(zip(map(" ".join, ARITHMETIC_ARGV), got)) == \
        dict(zip(map(" ".join, ARITHMETIC_ARGV), ARITHMETIC_SHA256[preset]))


# A 32-wide config at the 128M preset: narrower than the preset's measured
# rank (64) and its table rank (46).
NARROW = ["--preset", "128M", "--set", "d=32", "--set", "H=4", "--set", "d_h=8",
          "--set", "d_c=8", "--set", "G=2"]


@pytest.mark.parametrize("mechanism", [m.value for m in Mechanism])
def test_verify_with_qk_norm_reports_the_explicit_path(capsys, mechanism):
    """qk_norm configs have no factored step, lrkv and mla included: verify
    gives them explicit-only rows, the factored columns empty, and passes."""
    assert run_cli(["verify", *NARROW, "--rank", "4", "--tokens", "3", "--trials", "2",
                    "--set", "qk_norm=true", "--mechanism", mechanism]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3
    for line in lines[1:]:
        trial, mech, T, dtype, logit, out, explicit, factored = line.split(",")
        assert (mech, T, logit, out, factored) == (mechanism, "3", "", "", "")
        assert int(explicit) > 0


def test_ablate_builds_its_base_at_a_rank_every_width_admits(capsys):
    """ablate's base config takes no --rank; each row sets its own r, so a
    width below the preset's measured rank still sweeps."""
    assert run_cli(["ablate", *NARROW, "--ranks", "0,4", "--out", "-"]) == 0
    rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
    assert [(r["r"], r["cache_ratio"]) for r in rows] == [("0", "0.250000"), ("4", "0.750000")]


def test_memory_leaves_the_formula_empty_below_the_table_rank(capsys):
    """The lrkv ratio_formula is priced at the preset's table rank (46 at
    128M); a config narrower than that leaves the cell empty, as mla's is."""
    assert run_cli(["memory", *NARROW, "--rank", "4", "--out", "-"]) == 0
    rows = {r["mechanism"]: r for r in csv.DictReader(capsys.readouterr().out.splitlines())}
    assert rows["lrkv"]["ratio_formula"] == rows["mla"]["ratio_formula"] == ""
    assert rows["lrkv"]["ratio_vs_mha"] == "0.750"
    assert rows["mqa"]["ratio_formula"] == "0.250"


@pytest.mark.parametrize("flag", ["--tokens", "--batch"])
def test_memory_whose_mib_overflow_a_float_is_a_usage_error(capsys, flag):
    """A 401-digit --tokens or --batch is an exact byte count, but its MiB
    cell does not fit a float: the flag is named, with no traceback."""
    assert run_cli(["memory", "--preset", "128M", flag, "1" + "0" * 400]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith(f"error: {flag} is too large")


@pytest.mark.parametrize("argv", [["flops", "--tokens", "777"], ["ablate"]])
def test_flops_and_ablate_refuse_a_qk_norm_config(capsys, argv):
    """The cost model prices qk_norm off, so a qk_norm config gets no
    prices; memory, which counts only bytes, still runs."""
    assert run_cli([*argv, "--preset", "128M", "--set", "qk_norm=true"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")
    assert "qk_norm" in captured.err
    assert run_cli(["memory", "--preset", "128M", "--set", "qk_norm=true"]) == 0


@pytest.mark.parametrize("argv", [
    ["verify", "--config-json", "CONFIG", "--tokens", str(10**20), "--trials", "1"],
    ["gen-weights", "--config-json", "CONFIG", "--set", "d=200000000000",
     "--set", "d_h=50000000000", "--out", "OUT"],
], ids=["verify", "gen-weights"])
def test_sizes_past_numpys_dimension_limit_are_usage_errors(tmp_path, capsys, argv):
    """numpy refuses these shapes before allocating anything; the lab's
    allocator turns the refusal into a usage error naming the shape."""
    paths = {"CONFIG": write_config(tmp_path, LRKV_SMALL), "OUT": str(tmp_path / "w.atn")}
    assert run_cli([paths.get(a, a) for a in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot allocate a float64 array of shape (")
    assert "Maximum allowed dimension exceeded" in err


def test_verify_whose_token_block_runs_out_of_memory_is_a_usage_error(
        tmp_path, capsys, monkeypatch):
    """The token block is drawn into the lab's allocator, so a MemoryError
    there (here forced) is a usage error too, not a numpy traceback."""
    import attnlab.cache as kv
    import attnlab.weights as weights

    def out_of_memory(n, dtype):
        raise MemoryError(f"Unable to allocate {n} bytes")

    def aligned_empty(shape, dtype=np.float64, alloc=np.empty):
        return weights.aligned_empty(shape, dtype, out_of_memory if shape == (40, 64) else alloc)

    monkeypatch.setattr(kv, "aligned_empty", aligned_empty)
    assert run_cli(["verify", "--config-json", write_config(tmp_path, LRKV_SMALL),
                    "--tokens", "40", "--trials", "1"]) == 2
    assert capsys.readouterr().err == \
        "error: cannot allocate a float64 array of shape (40, 64): Unable to allocate 20544 bytes\n"


def test_diversity_writes_four_reports(tmp_path):
    cfg_path = write_config(tmp_path, LRKV_SMALL)
    archive = str(tmp_path / "w.bin")
    run_cli(["gen-weights", "--config-json", cfg_path, "--out", archive])
    prefix = str(tmp_path / "div")
    assert run_cli(["diversity", "--weights", archive,
                    "--out-prefix", prefix]) == 0
    sim = read_csv(prefix + "_similarity.csv")
    assert len(sim) == 4 and set(sim[0]) == {f"head_{h}" for h in range(4)}
    assert float(sim[0]["head_0"]) == pytest.approx(1.0)
    er = read_csv(prefix + "_effective_rank.csv")
    assert [r["variant"] for r in er] == ["uncentered", "centered"]
    assert 1.0 <= float(er[0]["effective_rank_abs"]) <= 4.0
    spectrum = read_csv(prefix + "_spectrum.csv")
    assert len(spectrum) == 8  # 2 variants x 4 components
    cumulative = read_csv(prefix + "_cumulative.csv")
    assert float(cumulative[3]["cumulative_variance"]) == pytest.approx(1.0)


def test_svd_compare_workflow(tmp_path, capsys):
    lrkv_path = write_config(tmp_path, LRKV_SMALL)
    mha = AttentionConfig(mechanism=Mechanism.MHA, d=64, H=4, d_h=16)
    mha_path = write_config(tmp_path, mha, name="mha.json")
    wa, ra = str(tmp_path / "w.bin"), str(tmp_path / "ref.bin")
    run_cli(["gen-weights", "--config-json", lrkv_path, "--seed", "1",
             "--out", wa])
    run_cli(["gen-weights", "--config-json", mha_path, "--seed", "2",
             "--out", ra])
    assert run_cli(["svd-compare", "--weights", wa, "--reference", ra,
                    "--out", "-"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "head,path,e_learned,e_opt,ratio"
    assert len(lines) == 1 + 8
    for line in lines[1:]:
        assert float(line.split(",")[-1]) >= 1.0


def test_readme_numbers_are_pinned(tmp_path, capsys):
    """The README's ``flops`` rows and its head-diversity walkthrough, run in
    process: every figure quoted there is what the commands give."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    flops = ["flops", "--preset", "128M", "--tokens", "4096", "--out", "-"]
    assert run_cli(flops) == 0
    got = {",".join(line.split(",")[:5]) for line in capsys.readouterr().out.splitlines()}
    block = readme.split(f"attnlab {' '.join(flops)}\n")[1].split("```csv\n")[1]
    shown = [row.removesuffix(",...") for row in block.split("```")[0].splitlines()[1:]]
    assert shown == ["mla,reconstruct,4096,1624694784,128.000000",
                     "mla,factored,4096,14475264,0.031250",
                     "lrkv,factored,4096,21946368,0.515625"]
    assert set(shown) <= got

    lrkv, mha, prefix = (str(tmp_path / name) for name in ("lrkv.atn", "mha.atn", "div"))
    shape = ["--preset", "128M", "--set", "d=384", "--set", "d_h=64", "--rank", "16"]
    assert run_cli(["gen-weights", *shape, "--seed", "0", "--out", lrkv]) == 0
    assert run_cli(["gen-weights", *shape, "--mechanism", "mha", "--seed", "1",
                    "--out", mha]) == 0
    assert run_cli(["diversity", "--weights", lrkv, "--out-prefix", prefix]) == 0
    ranks = [(r["effective_rank_abs"], r["n_components_for_90pct"])
             for r in read_csv(prefix + "_effective_rank.csv")]
    assert ranks == [("5.999552", "6"), ("4.999624", "5")]
    out = str(tmp_path / "svd.csv")
    assert run_cli(["svd-compare", "--weights", lrkv, "--reference", mha, "--rank", "16",
                    "--out", out]) == 0
    head0 = read_csv(out)[0]
    assert (head0["head"], head0["path"], head0["e_learned"], head0["e_opt"]) == \
        ("0", "k", "1.607361436e+01", "1.248010950e+01")
    ratio = f"{float(head0['ratio']):.3f}"
    w = read_archive(lrkv)
    mag = attnlab.magnitude_report(w, w.config)
    shared, residuals = f"{mag['shared_k']:.2f}", {f"{x:.3f}" for x in mag["residual_k"]}
    assert (ratio, shared, residuals) == ("1.288", "11.41", {"1.141"})
    assert np.abs(mag["cosine_k"]).max() <= 0.009
    for figure in ("5.999552", "(6 components", "4.999624", "(5 components",
                   "1.607361436e+01", "1.248010950e+01", f"ratio of {ratio}",
                   f"norm is {shared}", f"residual is\n{min(residuals)}", "±0.009"):
        assert figure in readme, figure


def test_svd_compare_rejects_shared_reference(tmp_path):
    lrkv_path = write_config(tmp_path, LRKV_SMALL)
    mqa = AttentionConfig(mechanism=Mechanism.MQA, d=64, H=4, d_h=16)
    mqa_path = write_config(tmp_path, mqa, name="mqa.json")
    wa, ra = str(tmp_path / "w.bin"), str(tmp_path / "ref.bin")
    run_cli(["gen-weights", "--config-json", lrkv_path, "--out", wa])
    run_cli(["gen-weights", "--config-json", mqa_path, "--out", ra])
    # a shared-KV archive has no per-head targets: domain error, exit 1
    assert run_cli(["svd-compare", "--weights", wa, "--reference", ra,
                    "--out", "-"]) == 1


@pytest.mark.parametrize("rank", ["-1", "17"])
def test_svd_compare_rank_outside_head_width_is_a_usage_error(tmp_path, capsys, rank):
    mha = AttentionConfig(mechanism=Mechanism.MHA, d=64, H=4, d_h=16)
    wa, ra = str(tmp_path / "w.bin"), str(tmp_path / "ref.bin")
    run_cli(["gen-weights", "--config-json", write_config(tmp_path, LRKV_SMALL), "--out", wa])
    run_cli(["gen-weights", "--config-json", write_config(tmp_path, mha, "mha.json"),
             "--out", ra])
    out = tmp_path / "svd.csv"
    assert run_cli(["svd-compare", "--weights", wa, "--reference", ra,
                    "--rank", rank, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: --rank must be in [0, 16], got {rank}\n"
    assert not out.exists()
    for legal in ("0", "16"):  # the ends of the range
        assert run_cli(["svd-compare", "--weights", wa, "--reference", ra,
                        "--rank", legal, "--out", str(out)]) == 0


def test_gradcheck_command(tmp_path):
    small = AttentionConfig(mechanism=Mechanism.LRKV, d=24, H=2, d_h=12, r=3)
    cfg_path = write_config(tmp_path, small)
    out = str(tmp_path / "grad.csv")
    assert run_cli(["gradcheck", "--config-json", cfg_path, "--instances", "2",
                    "--out", out]) == 0
    rows = read_csv(out)
    assert {r["target"] for r in rows} >= {"w_shared", "u.0", "b.0"}
    assert all(float(r["rel_err"]) <= 1e-4 for r in rows)


@pytest.mark.parametrize("instances", ["0", "-3"])
def test_gradcheck_without_instances_is_a_usage_error(tmp_path, capsys, instances):
    small = AttentionConfig(mechanism=Mechanism.LRKV, d=24, H=2, d_h=12, r=3)
    out = tmp_path / "grad.csv"
    assert run_cli(["gradcheck", "--config-json", write_config(tmp_path, small),
                    "--instances", instances, "--out", str(out)]) == 2
    assert "instances" in capsys.readouterr().err
    assert not out.exists()


def test_set_overrides_reach_the_config(tmp_path):
    out = str(tmp_path / "mem.csv")
    assert run_cli(["memory", "--preset", "128M", "--set", "n_layers=1",
                    "--tokens", "1", "--bytes", "8", "--out", out]) == 0
    mha = next(r for r in read_csv(out) if r["mechanism"] == "mha")
    assert int(mha["cache_bytes"]) == 2 * 1 * 1 * 6 * 128 * 8


SET_CASES = [
    (["gen-weights", "--preset", "128M"], ["--set", "n_layers=1"]),
    (["gen-weights", "--config-json", "CONFIG"], ["--set", "n_layers=3"]),
    (["verify", "--preset", "128M", "--tokens", "2", "--trials", "1"], ["--set", "r=8"]),
    (["verify", "--config-json", "CONFIG", "--tokens", "2", "--trials", "1"], ["--set", "r=2"]),
    (["memory", "--preset", "128M"], ["--set", "n_layers=1"]),
    (["memory", "--config-json", "CONFIG"], ["--set", "n_layers=3"]),
    (["flops", "--preset", "128M"], ["--set", "G=2"]),
    (["ablate", "--preset", "128M"], ["--set", "n_layers=1"]),
    (["gradcheck", "--config-json", "CONFIG", "--instances", "1"], ["--set", "r=2"]),
]


@pytest.mark.parametrize("argv, override", SET_CASES,
                         ids=[f"{argv[0]} {argv[1]}" for argv, _ in SET_CASES])
def test_set_reaches_every_command_config(tmp_path, argv, override):
    """Every command that takes --set, from each config source it accepts,
    runs the overridden config: its output differs from the plain run's."""
    argv = [write_config(tmp_path, LRKV_SMALL) if a == "CONFIG" else a for a in argv]
    plain, overridden = tmp_path / "plain", tmp_path / "overridden"
    assert run_cli([*argv, "--out", str(plain)]) == 0
    assert run_cli([*argv, *override, "--out", str(overridden)]) == 0
    assert overridden.read_bytes() != plain.read_bytes()


def test_error_exit_codes(tmp_path, capsys):
    # unknown preset: configuration problem
    assert run_cli(["memory", "--preset", "70B"]) == 2
    # malformed --set
    assert run_cli(["memory", "--preset", "128M", "--set", "oops"]) == 2
    # config validation failure through --set
    assert run_cli(["memory", "--preset", "128M", "--set", "d=100"]) == 2
    # unwritable output path
    assert run_cli(["memory", "--preset", "128M",
                    "--out", str(tmp_path / "no" / "dir.csv")]) == 2
    # argparse usage failure
    assert run_cli(["gen-weights", "--config-json"]) == 2
    # missing archive file surfaces as an I/O failure
    assert run_cli(["diversity", "--weights", str(tmp_path / "none.bin"),
                    "--out-prefix", str(tmp_path / "x")]) == 2
    capsys.readouterr()


def test_bad_override_and_rank_values_are_usage_errors(capsys):
    assert run_cli(["memory", "--preset", "128M", "--set", "softmax_scale=abc"]) == 2
    assert "softmax_scale" in capsys.readouterr().err
    assert run_cli(["memory", "--preset", "128M", "--set", "qk_norm=yes"]) == 2
    assert "qk_norm" in capsys.readouterr().err
    assert run_cli(["ablate", "--preset", "128M", "--ranks", "8,x"]) == 2
    assert "--ranks" in capsys.readouterr().err


@pytest.mark.parametrize("field", ["r", "n_layers"])
def test_bool_override_of_an_integer_field_is_a_usage_error(capsys, field):
    assert run_cli(["memory", "--preset", "128M", "--set", f"{field}=true"]) == 2
    assert field in capsys.readouterr().err


UNREADABLE_CONFIGS = {
    "truncated-json": b'{"mechanism": "lrkv", "d": 64, "H"',
    "not-utf8": b"\xff\xfe{}",
    "nested-too-deep": b"[" * 100_000,
}


@pytest.mark.parametrize("command", ["memory", "gradcheck"])
@pytest.mark.parametrize("content", UNREADABLE_CONFIGS, ids=str)
def test_unreadable_config_json_is_a_usage_error(tmp_path, capsys, command, content):
    p = tmp_path / "bad.json"
    p.write_bytes(UNREADABLE_CONFIGS[content])
    assert run_cli([command, "--config-json", str(p)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: unreadable config JSON") and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["flops"],
    ["ablate"],
    ["flops", "--config-json", "c.json"],
    ["flops", "--preset", "128M", "--config-json", "c.json"],
    ["ablate", "--preset", "128M", "--config-json", "c.json"],
    ["ablate", "--preset", "128M", "--rank", "5"],
], ids=["flops-no-preset", "ablate-no-preset", "flops-config-json-only",
        "flops-config-json", "ablate-config-json", "ablate-rank"])
def test_flops_and_ablate_take_only_the_flags_they_read(capsys, argv):
    """A flag the command would ignore, or a missing --preset, is a usage error."""
    assert run_cli(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: attnlab") and "Traceback" not in err


def test_memory_without_a_config_source_is_a_usage_error(tmp_path, capsys):
    out = tmp_path / "memory.csv"
    assert run_cli(["memory", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: provide --preset or --config-json\n"
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["gen-weights", "--preset", "128M"],
    ["gen-weights", "--mechanism", "lrkv"],
    ["gen-weights", "--rank", "5"],
    ["verify", "--preset", "6.3B", "--mechanism", "mha"],
    ["verify", "--mechanism", "lrkv"],
    ["verify", "--rank", "5"],
    ["memory", "--preset", "6.3B"],
    ["memory", "--rank", "5"],
], ids=lambda argv: " ".join(argv))
def test_config_json_excludes_preset_mechanism_and_rank(tmp_path, capsys, argv):
    """The JSON is the whole config: a preset-side flag beside it, even one
    equal to its default, is a usage error rather than silently dropped."""
    out = tmp_path / "out"
    command, *flags = argv
    assert run_cli([command, "--config-json", write_config(tmp_path, LRKV_SMALL),
                    *flags, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --config-json excludes") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["flops", "--preset", "128M", "--set", "mechanism=mla"],
    ["memory", "--preset", "128M", "--set", "mechanism=lrkv"],
    ["verify", "--preset", "128M", "--mechanism", "mla", "--set", "mechanism=mha",
     "--tokens", "2", "--trials", "1"],
    ["ablate", "--preset", "128M", "--set", "mechanism=mha"],
    ["gen-weights", "--config-json", "CONFIG", "--set", "mechanism=mha"],
    ["gradcheck", "--config-json", "CONFIG", "--set", "mechanism=lrkv", "--instances", "1"],
], ids=lambda argv: argv[0])
def test_set_cannot_change_the_mechanism(tmp_path, capsys, argv):
    """The tables label each row by the mechanism it asked for, and verify
    names its mechanism on the command line: --set may not swap it."""
    config = write_config(tmp_path, LRKV_SMALL)
    out = tmp_path / "out"
    assert run_cli([config if a == "CONFIG" else a for a in argv] + ["--out", str(out)]) == 2
    assert capsys.readouterr().err == ("error: --set cannot change the mechanism; "
                                       "use --mechanism or --config-json\n")
    assert not out.exists()


@pytest.mark.parametrize("flags, mechanism", [([], "lrkv"), (["--mechanism", "mha"], "mha")])
def test_preset_and_mechanism_still_pick_the_config(tmp_path, flags, mechanism):
    out = str(tmp_path / "verify.csv")
    assert run_cli(["verify", "--preset", "128M", *flags, "--tokens", "2",
                    "--trials", "1", "--out", out]) == 0
    assert {r["mechanism"] for r in read_csv(out)} == {mechanism}


def test_one_parser_serves_every_call(tmp_path, capsys):
    """run_cli parses every argv against one parser, built on first use:
    an override, a usage error or --help leaves nothing behind on it."""
    fresh = tmp_path / "fresh.csv"
    subprocess.run([sys.executable, "-m", "attnlab", "memory", "--preset", "128M",
                    "--out", str(fresh)], check=True, env=_source_env())
    plain = [tmp_path / f"plain{i}.csv" for i in range(2)]
    build_parser.cache_clear()
    assert run_cli(["memory", "--preset", "128M", "--set", "r=5",
                    "--out", str(tmp_path / "r5.csv")]) == 0
    assert run_cli(["memory", "--preset", "128M", "--out", str(plain[0])]) == 0
    assert run_cli(["memory", "--preset", "128M", "--no-such-flag"]) == 2
    assert run_cli(["--help"]) == 0
    assert run_cli(["memory", "--preset", "128M", "--out", str(plain[1])]) == 0
    assert build_parser.cache_info().misses == 1
    capsys.readouterr()
    assert (tmp_path / "r5.csv").read_bytes() != fresh.read_bytes()
    assert plain[0].read_bytes() == plain[1].read_bytes() == fresh.read_bytes()


SMALL_SHAPE = {"d": 32, "H": 2, "d_h": 16, "n_layers": 1, "r": 4, "d_c": 16, "G": 2}


def test_every_command_repeats_its_bytes_in_one_process(tmp_path):
    """The same argv gives the same files on a process's first call (which
    builds the parser) and on a later one, for every subcommand."""
    configs = {}
    for m in ("mha", "lrkv"):
        configs[m] = tmp_path / f"{m}.json"
        configs[m].write_text(json.dumps(dict(SMALL_SHAPE, mechanism=m)))

    def commands(out):
        lrkv = ["--config-json", str(configs["lrkv"])]
        return [
            ["gen-weights", *lrkv, "--seed", "3", "--out", str(out / "w.atn")],
            ["gen-weights", "--config-json", str(configs["mha"]), "--seed", "4",
             "--out", str(out / "ref.atn")],
            ["verify", *lrkv, "--tokens", "16", "--trials", "1",
             "--out", str(out / "verify.csv")],
            ["memory", *lrkv, "--out", str(out / "memory.csv")],
            ["flops", "--preset", "128M", "--out", str(out / "flops.csv")],
            ["ablate", "--preset", "128M", "--out", str(out / "ablate.csv")],
            ["diversity", "--weights", str(out / "w.atn"),
             "--out-prefix", str(out / "div")],
            ["svd-compare", "--weights", str(out / "w.atn"),
             "--reference", str(out / "ref.atn"), "--out", str(out / "svd.csv")],
            ["gradcheck", *lrkv, "--instances", "2", "--out", str(out / "grad.csv")],
        ]

    runs = []
    build_parser.cache_clear()
    for i in range(2):
        out = tmp_path / f"call{i}"
        out.mkdir()
        assert [run_cli(argv) for argv in commands(out)] == [0] * 9
        runs.append({p.name: p.read_bytes() for p in out.iterdir()})
    assert build_parser.cache_info().misses == 1
    assert sorted(runs[0]) == sorted([
        "w.atn", "ref.atn", "verify.csv", "memory.csv", "flops.csv", "ablate.csv",
        "div_similarity.csv", "div_spectrum.csv", "div_cumulative.csv",
        "div_effective_rank.csv", "svd.csv", "grad.csv"])
    assert runs[0] == runs[1]


# Each subcommand with the flags it requires (or reads its config from), so
# that drawn argvs get past the parser into the commands.
FUZZ_COMMANDS = {
    "gen-weights": ["--config-json", "--out"], "verify": ["--config-json"],
    "memory": ["--config-json"], "flops": ["--preset"], "ablate": ["--preset"],
    "diversity": ["--weights", "--out-prefix"], "svd-compare": ["--weights", "--reference"],
    "gradcheck": ["--config-json"],
}
FUZZ_FLAGS = ["-h", "--help", "--preset", "--config-json", "--mechanism", "--rank",
              "--set", "--seed", "--dtype", "--out", "--tokens", "--trials", "--batch",
              "--bytes", "--mla-streams", "--ranks", "--weights", "--out-prefix",
              "--reference", "--instances"]
# No preset names and no large token counts: every example runs on the
# 16-wide shape or stops at an error, in milliseconds.
FUZZ_VALUES = ["-1", "0", "abc", "", "nan", "1e400", "lrkv", "mha", "f32", "r=0", "d_h=nan"]


def test_fuzz_pool_holds_every_subcommand_and_flag():
    sub = build_parser()._subparsers._group_actions[0]
    assert sub.choices.keys() == FUZZ_COMMANDS.keys()
    flags = {flag for p in sub.choices.values() for flag in p._option_string_actions}
    assert flags == set(FUZZ_FLAGS)


# Output flags write where they point (diversity writes four
# <prefix>_*.csv), so they only ever get names relative to the example's
# own fresh working directory: never a fixture path, the missing path or
# /dev/null. In diversity --out is an abbreviation of --out-prefix.
FUZZ_OUTPUT_FLAGS = ("--out", "--out-prefix")
FUZZ_OUTPUT_VALUES = FUZZ_VALUES + ["out.atn", "."]


def fuzz_snapshot(d):
    return {p.relative_to(d): p.read_bytes() if p.is_file() else None for p in d.rglob("*")}


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    """Read-only inputs: a 16-wide config and a small archive per mechanism,
    a subdirectory, and the names of a missing path and /dev/null."""
    d = tmp_path_factory.mktemp("cli-fuzz")
    paths = {"null": "/dev/null", "dir": str(d / "subdir"), "missing": str(d / "missing.json")}
    (d / "subdir").mkdir()
    for m in ("lrkv", "mha"):
        paths[m] = str(d / f"{m}.json")
        (d / f"{m}.json").write_text(json.dumps(dict(SMALL_SHAPE, mechanism=m)))
        paths[f"{m}.atn"] = str(d / f"{m}.atn")
        assert run_cli(["gen-weights", "--config-json", paths[m], "--out", paths[f"{m}.atn"]]) == 0
    return d, sorted(paths.values()), fuzz_snapshot(d)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_any_argv_ends_in_exit_code_0_1_or_2(fuzz_dir, data):
    """Malformed argvs end in a usage error (2), a lab error (1) or a run
    (0), never in a traceback, and leave the inputs as they were."""
    d, paths, inputs = fuzz_dir

    def value(flag):
        return st.sampled_from(FUZZ_OUTPUT_VALUES if flag in FUZZ_OUTPUT_FLAGS
                               else FUZZ_VALUES + paths)

    pair = st.sampled_from(FUZZ_FLAGS).flatmap(lambda f: st.tuples(st.just(f), value(f)))
    # A stray output flag takes the next token as its value, so stray
    # tokens hold no paths.
    token = st.sampled_from(list(FUZZ_COMMANDS) + FUZZ_FLAGS + FUZZ_VALUES)
    command = data.draw(st.sampled_from([None, *FUZZ_COMMANDS]))
    argv = [] if command is None else [command]
    if command is not None and data.draw(st.booleans()):
        argv += [t for flag in FUZZ_COMMANDS[command] for t in (flag, data.draw(value(flag)))]
    # Mostly flag-value pairs, a stray token now and then.
    argv += [t for part in data.draw(st.lists(st.one_of(pair, pair, pair, st.tuples(token)),
                                               max_size=4)) for t in part]
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory(dir=d) as work:
        os.chdir(work)  # relative output names land in a fresh directory
        try:
            assert run_cli(argv) in (0, 1, 2), argv
        finally:
            os.chdir(cwd)
    assert fuzz_snapshot(d) == inputs, argv
