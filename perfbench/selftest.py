"""Smoke self-test of the benchmark, at the smallest size of every workload.

Run from the repository root (about a minute):

    python3 perfbench/selftest.py

It checks that BENCHMARK.json lists exactly the workloads and metrics the
benchmark defines, that a --trace 0 and a --trace 1 run of each workload
emit every metric with its unit and report correct outputs, and that the
benchmark refuses to run in a directory without the rankphase sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import metrics
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=180
    )


def check_manifest() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"], spec["command"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == [w.why for w in workloads.WORKLOADS.values()]
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]] == [
        tuple(m) for m in metrics.END_TO_END
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(metrics.PER_LAYER)


def check_run(name: str, trace: int) -> None:
    proc = run(["--workload", name, "--smoke", "--seconds", "1", "--trace", str(trace)])
    assert proc.returncode == 0, f"{name} trace={trace} exited {proc.returncode}:\n{proc.stdout}{proc.stderr}"
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1, result
    spec = metrics.END_TO_END if trace == 0 else metrics.PER_LAYER
    expected = [(m[0], m[1]) for m in spec]
    got = [(m, v["unit"]) for m, v in result["metrics"].items()]
    assert got == expected, f"{name} trace={trace}: metrics differ from the definition"
    for m, v in result["metrics"].items():
        assert isinstance(v["value"], float), (m, v)
    if trace == 0:
        assert result["metrics"]["outputs_ok"]["value"] == 1.0
        assert all(v["value"] > 0 for v in result["metrics"].values()), result["metrics"]
    print(f"ok  {name} trace={trace}")


def check_refuses_without_sources() -> None:
    bare = ROOT / ".perfbench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(["--workload", "phase-default", "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=bare)
    assert proc.returncode != 0 and '"metrics"' not in proc.stdout, proc.stdout
    shutil.rmtree(bare)
    print("ok  refuses to run without the rankphase sources")


def main() -> int:
    check_manifest()
    print("ok  BENCHMARK.json matches the definitions")
    check_refuses_without_sources()
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            check_run(name, trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
