"""rankphase benchmark: four seeded workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload phase-default --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --trace 1 --out perfbench/trajectory/x.json

With --trace 0 the workload runs with tracing off at the program's default
worker count, repeating passes for --seconds, and the run reports the
end-to-end metrics.  With --trace 1 it makes one pass at the default worker
count, one untraced pass at one worker and one traced pass at one worker,
and reports the per-layer metrics.  Each workload runs in a child
interpreter of its own; set-up time is the median over SETUP_SAMPLES fresh
interpreters.  The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import subprocess
import sys
import time
from pathlib import Path

import metrics
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
CHILD = HERE / "child.py"
SETUP_SAMPLES = 5
# Every child must end in time for the whole run to end within 180 s.
RUN_DEADLINE_S = 170.0


class BenchmarkError(Exception):
    pass


def _child(args, deadline, extra_flags=()):
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchmarkError("out of time before starting a child")
    cmd = [sys.executable, *extra_flags, str(CHILD), *map(str, args)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"child {args[0]} exceeded the time limit") from exc
    if proc.returncode != 0:
        raise BenchmarkError(f"child {args[0]} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return proc


def setup_seconds(config: Path, deadline: float) -> list[float]:
    return [float(_child(["setup", config], deadline).stdout.split()[-1]) for _ in range(SETUP_SAMPLES)]


def import_ms(config: Path, deadline: float) -> dict:
    """Cumulative import time of rankphase.cli and rankphase.poisson, from -X importtime."""
    stderr = _child(["setup", config], deadline, ("-X", "importtime")).stderr
    cumulative = {}
    top_level = 0.0
    for line in stderr.splitlines():
        m = re.match(r"import time:\s*\d+ \|\s*(\d+) \|( *)(\S+)", line)
        if not m:
            continue
        us, indent, name = int(m.group(1)), len(m.group(2)), m.group(3)
        cumulative[name] = us / 1000.0
        if indent == 1 and name.split(".")[0] == "rankphase":
            top_level += us / 1000.0
    return {"cli.import_ms": top_level, "poisson.import_ms": cumulative.get("rankphase.poisson", 0.0)}


def calibration_ms() -> float:
    """Median time of a fixed pure-Python loop: how fast this machine ran just now."""
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        total = 0
        for i in range(1_000_000):
            total += i * i
        times.append((time.perf_counter() - t0) * 1000.0)
    return metrics.median(times)


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted((ROOT / "src").rglob("*.py")))


def machine() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass

    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            caches[f"l{level}"] = (index / "size").read_text().strip()
        except OSError:
            pass

    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "l2": caches.get("l2"),
        "l3": caches.get("l3"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    deadline = time.monotonic() + RUN_DEADLINE_S
    wl = workloads.WORKLOADS[name]
    workdir = WORK / f"{name}-{seed}-t{int(trace)}"
    workdir.mkdir(parents=True, exist_ok=True)
    config = wl.write_configs(workdir, seed, smoke)[wl.main_config]
    values = {}
    if trace:
        values.update(import_ms(config, deadline))
    else:
        setup = setup_seconds(config, deadline)
        values["setup_s"] = metrics.median(setup)
    result_path = workdir / "result.json"
    _child(
        ["run", name, seed, seconds, int(trace), int(smoke), workdir / "run", result_path],
        deadline,
    )
    child = json.loads(result_path.read_text())
    values.update(child["values"])
    ok = child["outputs_ok"] and child["failed"] == 0
    if not trace:
        values["ok_frac"] = 1.0 - child["failed"] / child["attempted"]
        values["outputs_ok"] = 1.0 if ok else 0.0
        specs = [(m, unit) for m, unit, _, _ in metrics.END_TO_END]
    else:
        specs = [(m, unit) for m, unit, _ in metrics.PER_LAYER]
    samples = dict(child["samples"])
    if not trace:
        samples["setup_s"] = setup
    return {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "smoke": smoke,
        "correct": ok,
        "attempted": child["attempted"],
        "failed": child["failed"],
        "problems": child["problems"],
        "samples": samples,
        "digests": child["digests"],
        "array_mb_computed": wl.array_bytes(smoke) / 1e6,
        "metrics": {m: {"value": float(values[m]), "unit": unit} for m, unit in specs},
    }


def report(result: dict) -> None:
    print(f"== {result['workload']} seed={result['seed']} trace={result['trace']}")
    for name, m in result["metrics"].items():
        print(f"  {name:42s} {m['value']:.6g} {m['unit']}")
    s = result["samples"]
    if "passes" in s:
        print(
            f"  ({s['passes']} timed passes of {s['reps_per_pass']} reps; rep latency percentiles per pass, "
            f"median over passes; tail = p{s['tail_percentile']:g}; setup_s median of {len(s['setup_s'])})"
        )
    for problem in result["problems"]:
        print(f"  PROBLEM: {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0, help="timed part of a --trace 0 run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="smallest size of each workload")
    parser.add_argument("--out", type=Path, default=None, help="also write results and provenance here")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "rankphase" / "__init__.py").is_file():
        print(f"error: no rankphase sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    provenance = {**machine(), "src_lines": src_lines(), "calibration_ms": calibration_ms()}
    print("# provenance " + json.dumps(provenance, sort_keys=True))
    results = []
    try:
        for name in names:
            result = run_workload(name, args.seed, args.seconds, bool(args.trace), args.smoke)
            results.append(result)
            report(result)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps({"provenance": provenance, "results": results}, indent=2) + "\n")
    if len(results) == 1:
        emitted = results[0]["metrics"]
    else:
        emitted = {f"{r['workload']}/{m}": v for r in results for m, v in r["metrics"].items()}
    print(
        json.dumps(
            {
                "correct": all(r["correct"] for r in results),
                "attempted": sum(r["attempted"] for r in results),
                "failed": sum(r["failed"] for r in results),
                "metrics": emitted,
            }
        )
    )
    return 0 if all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
