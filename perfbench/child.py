"""Child interpreter of the benchmark; run.py starts it, users need not.

    child.py setup CONFIG
        Import rankphase.cli, load and validate CONFIG, print the seconds it took.
    child.py run WORKLOAD SEED SECONDS TRACE SMOKE WORKDIR RESULT
        Run one workload and write its result as JSON to RESULT.

The set-up mode imports nothing but the standard library before its clock
starts, so it measures what a fresh ``rankphase`` process pays before work.
"""

import sys
import time

T0 = time.perf_counter()

import importlib  # noqa: E402
import json  # noqa: E402
import types  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def setup(config_path: str) -> None:
    import rankphase.cli  # noqa: F401
    from rankphase.simulate import ExperimentConfig

    ExperimentConfig.from_dict(json.loads(Path(config_path).read_text()))
    print(f"{time.perf_counter() - T0!r}")


def load_programs(names):
    """The rankphase modules by short name, also as attributes (rp.cli, rp.simulate, ...)."""
    modules = {name: importlib.import_module(f"rankphase.{name}") for name in names}
    return types.SimpleNamespace(modules=modules, **modules)


class EstimateChecks:
    """Every profile least-squares estimate is feasible; its objective path never rises."""

    def __init__(self):
        self.checked = 0
        self.bad = 0

    def __call__(self, space, rank, trace) -> None:
        import numpy as np

        r = np.asarray(getattr(rank, "entries", rank), dtype=np.int64)
        n = space.n
        ok = r.shape == (n,) and bool(np.all((r >= 1) & (r <= n)))
        ok = ok and abs(int(r.sum()) - n * (n + 1) // 2) <= space.c_n
        if space.c_n_sq is not None:
            ok = ok and abs(int(np.dot(r, r)) - n * (n + 1) * (2 * n + 1) // 6) <= space.c_n_sq
        path = trace.objective_path
        ok = ok and all(b <= a for a, b in zip(path, path[1:]))
        self.checked += 1
        self.bad += not ok

    def install(self, simulate):
        """Check estimates from simulate's profile_ls_estimate until the returned undo is called."""
        original = simulate.profile_ls_estimate

        def checked(scores, space, *args, **kwargs):
            rank, trace = original(scores, space, *args, **kwargs)
            self(space, rank, trace)
            return rank, trace

        simulate.profile_ls_estimate = checked
        return lambda: setattr(simulate, "profile_ls_estimate", original)


def _peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _compare(reference, other, label, problems) -> None:
    for key in sorted(set(reference.digests) & set(other.digests)):
        if reference.digests[key] != other.digests[key]:
            problems.append(f"{key} differs between the default-workers pass and the {label} pass")


def run(workload_name, seed, seconds, trace, smoke, workdir, result_path) -> None:
    import metrics
    import workloads

    wl = workloads.WORKLOADS[workload_name]
    rp = load_programs(metrics.MODULES)
    workdir.mkdir(parents=True, exist_ok=True)
    passes = []
    problems = []
    checks = EstimateChecks()

    def one_pass(index, workers):
        s = workloads.pass_seed(seed, index)
        paths = wl.write_configs(workdir, s, smoke)
        res = wl.run_pass(rp, paths, workdir, s, workers)
        problems.extend(res.problems)
        passes.append(res)
        return res

    out = {}
    if not trace:
        start = time.perf_counter()
        timed = []
        undo = checks.install(rp.simulate)
        try:
            while True:
                res = one_pass(len(timed), None)
                timed.append(res)
                if res.failed or time.perf_counter() - start >= seconds:
                    break
        finally:
            undo()
        done = [p for p in timed if p.reps]  # a failed pass has no rows
        reps = max((p.reps for p in done), default=0)
        tail = metrics.tail_percentile(reps)
        out["run_s"] = metrics.median([p.wall_s for p in done])
        out["reps_per_s"] = metrics.median([p.reps / p.mc_s for p in done])
        out["rep_ms_p50"] = metrics.median([metrics.percentile(p.rep_ms, 50.0) for p in done])
        out["rep_ms_tail"] = metrics.median([metrics.percentile(p.rep_ms, tail) for p in done])
        out["peak_rss_mb"] = _peak_rss_mb()
        samples = {
            "passes": len(timed),
            "reps_per_pass": reps,
            "tail_percentile": tail,
            "pass_s": [p.wall_s for p in timed],
        }
    else:
        from tracer import Tracer

        default = one_pass(0, None)
        single = one_pass(0, 1)
        tracer = Tracer(check_estimate=checks)
        tracer.instrument(rp.modules)
        try:
            traced = one_pass(0, 1)
        finally:
            tracer.restore()
        _compare(default, single, "1-worker", problems)
        _compare(default, traced, "traced", problems)
        out.update(tracer.layer_metrics(traced.wall_s))
        out["simulate.run_experiment.s_w1"] = single.mc_s
        out["simulate.pool_speedup"] = single.mc_s / default.mc_s if default.mc_s > 0 else 0.0
        out["trace.overhead_frac"] = (traced.wall_s - tracer.probe_seconds()) / single.wall_s - 1.0
        out["verify.failed"] = traced.extra.get("identities_failed", 0)
        out["estimators.profile_ls.optimum_rate"] = traced.extra.get("optimum_rate", 0.0)
        (workdir / "spans.json").write_text(json.dumps(tracer.spans) + "\n")
        samples = {
            "default_s": default.wall_s,
            "w1_s": single.wall_s,
            "traced_s": traced.wall_s,
            "probe_s": tracer.probe_seconds(),
            "spans": len(tracer.spans),
        }

    pinned = workloads.PINNED_RESULTS_SHA256.get(workload_name)
    if pinned and seed == workloads.DEFAULT_SEED and not smoke:
        got = passes[0].digests.get("results.csv")
        if got != pinned:
            problems.append(f"results.csv sha256 {got} differs from the pinned {pinned}")
    if checks.bad:
        problems.append(f"{checks.bad} of {checks.checked} profile least-squares estimates failed their checks")
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes) + checks.bad
    result = {
        "values": out,
        "attempted": attempted,
        "failed": failed,
        "outputs_ok": not problems,
        "problems": problems,
        "samples": samples,
        "digests": passes[0].digests,
    }
    Path(result_path).write_text(json.dumps(result, indent=2) + "\n")


def main(argv) -> int:
    if argv[0] == "setup":
        setup(argv[1])
        return 0
    if argv[0] == "run":
        name, seed, seconds, trace, smoke, workdir, result = argv[1:8]
        run(name, int(seed), float(seconds), trace == "1", smoke == "1", Path(workdir), result)
        return 0
    print(f"unknown mode {argv[0]!r}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
