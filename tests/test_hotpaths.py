"""scripts/hotpaths.py runs end to end: the benchmark's passes and the kernels it times."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "hotpaths.py"


def run_hotpaths(*argv):
    return subprocess.run([sys.executable, str(SCRIPT), *argv], capture_output=True, text=True,
                          timeout=120)


def test_two_trees_time_every_path():
    src = str(ROOT / "src")
    proc = run_hotpaths(src, src, "--rounds", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["src"] == [src, src] and result["rounds"] == 1
    paths = {name: value for name, value in result.items() if name not in ("src", "rounds")}
    assert {"laws_pass", "theorem_pass", "theorem_pass_cold", "trajectory_pass"} <= set(paths)
    for name, value in paths.items():
        assert value is not None, name
        assert len(value["median_us"]) == len(value["p10_us"]) == 2, name
        assert all(t > 0 for t in value["median_us"] + value["p10_us"]), name
        assert value["a_wins"] + value["b_wins"] <= 1, name


def test_rounds_below_one_is_a_usage_error():
    proc = run_hotpaths("--rounds", "0")
    assert proc.returncode == 2
    assert proc.stderr.startswith("usage:")
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""
