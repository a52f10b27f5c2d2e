import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import attnlab
from attnlab import Mechanism

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run_script(name, *args):
    package_root = str(Path(attnlab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, str(SCRIPTS / name), *map(str, args)],
                          capture_output=True, text=True, env=env, timeout=300)


def test_decode_equivalence_sweep_runs_and_agrees():
    """The sweep samples random shapes (MLA's d_c included) and decodes them
    through both paths: a second equivalence check beside the fixed configs."""
    out = run_script("decode_equivalence_sweep.py", "--configs", 2, "--tokens", 8)
    assert out.returncode == 0, out.stderr
    rows = [line.split() for line in out.stdout.splitlines()]
    f64 = [row for row in rows if len(row) == 5 and row[1] == "float64"]
    assert [row[0] for row in f64] == ["lrkv", "mla"]
    for mechanism, _, configs, worst_logit, worst_out in f64:
        assert int(configs) == 2
        assert float(worst_logit) <= 1e-9 and float(worst_out) <= 1e-9, mechanism


def test_decode_equivalence_sweep_samples_only_valid_configs():
    spec = importlib.util.spec_from_file_location(
        "decode_equivalence_sweep", SCRIPTS / "decode_equivalence_sweep.py")
    sweep = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sweep)
    rng = np.random.default_rng(0)
    for mechanism in (Mechanism.MLA, Mechanism.LRKV):
        for _ in range(200):  # builds, or raises ConfigurationError
            config = sweep.sample_config(rng, mechanism)
            assert config.mechanism is mechanism
