"""Self-test of the benchmark, at a tiny size.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload, trace, seed=1, seconds=1.5, keys=400, extra=()):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--keys", str(keys), *extra]
    proc = subprocess.run(cmd, cwd=str(ROOT), capture_output=True, text=True,
                          timeout=300)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc, result


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_printed_with_its_unit(workload, trace):
    proc, result = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for metric in wanted:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"], metric["name"]
        assert isinstance(printed["value"], (int, float))
        # Each metric also has its own readable line.
        assert any(line.startswith(metric["name"] + " ") and line.endswith(metric["unit"])
                   for line in proc.stdout.splitlines()), metric["name"]


@pytest.mark.parametrize("workload", ["read_cold", "scan_hot"])
def test_oracle_fails_preload_outside_tenant_namespace(workload):
    proc, result = run_bench(workload, 0, extra=["--skip-namespace"])
    assert proc.returncode != 0
    assert result is not None and result["correct"] is False
    assert "WRONG ANSWER" in proc.stdout


def test_cache_hit_ratio_agrees_across_seeds():
    # Big enough that the 1 MiB cache holds a fraction of the data. Each
    # ratio rests on a few hundred lookups (standard error about 0.02); a
    # preload order correlated with the reads' keys moves it far more (from
    # 0.22 to 0.89 in a sizing run with a 4 MiB cache).
    ratios = []
    for seed in (1, 2):
        proc, result = run_bench("read_cold", 1, seed=seed, seconds=3, keys=24_000)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        ratios.append(result["metrics"]["cache.hit_ratio_end"]["value"])
    assert 0.0 < ratios[0] < 0.9
    assert abs(ratios[0] - ratios[1]) < 0.1, ratios


def test_refuses_to_run_without_engine_sources(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in HERE.glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_text(path.read_text())
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "read_cold", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=str(tmp_path), capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
