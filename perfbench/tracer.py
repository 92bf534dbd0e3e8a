"""Spans around the calls between rankphase modules, recorded from outside.

``Tracer.instrument`` replaces, in each rankphase module's namespace, every
function that module imported from another rankphase module by a wrapper
that records a span.  A call is timed where it crosses a module boundary,
so the callee's own module gets the time.  A few calls inside one module
are wrapped too (the generators, the per-replication function, the CSV writer
and the identity checks), because they are the units the per-layer metrics
name.  Nothing in the program changes; ``restore`` puts every original back.

Spans are kept in memory as [name, start, end, parent] and written out by
the caller when the run ends.  The traced pass runs at one worker, so one
call stack describes every span.  Work the benchmark adds for its counters
runs inside a ``trace.probe`` span; its time is removed from the enclosing
span's self time and from every layer's total.
"""

from __future__ import annotations

import contextlib
import inspect
import threading
import time
from collections import defaultdict

import numpy as np

import metrics

PROBE = "trace.probe"

# Functions reported together under one span name.
GROUPS = {
    "simulate.generate_gaussian": "simulate.generate",
    "simulate.generate_poisson": "simulate.generate",
    "estimators.score_comparison": "estimators.score",
    "estimators.score_collaboration": "estimators.score",
    "estimators.score_adaptive": "estimators.score",
    "matching.exhaustive_feature_match": "matching.exhaustive",
    "estimators.profile_ls_estimate": "estimators.profile_ls",
    "poisson.poisson_mle_brute_force": "poisson.mle_brute_force",
    "poisson.bhattacharyya_affinity": "poisson.affinity",
    "poisson.bhattacharyya_affinity_series": "poisson.affinity",
    "poisson.cell_affinity_series": "poisson.affinity",
    "simulate._run_single": "simulate.rep",
    "cli._write_text": "cli.write_text",
}

# Calls made inside one module that are still layer boundaries.
INTRA_MODULE = {
    "simulate": ("generate_gaussian", "generate_poisson", "random_feasible_rank", "_run_single", "run_experiment"),
    "cli": ("rows_to_csv", "_write_text", "main"),
    "verify": ("run_identity_suite",),
}


def _short(module_name: str) -> str:
    return module_name.rsplit(".", 1)[-1]


def _span_name(fn) -> str:
    full = f"{_short(fn.__module__)}.{fn.__name__}"
    return GROUPS.get(full, full)


def nearest_positions(scores, theta) -> np.ndarray:
    """Per-coordinate nearest position, ties to the smaller index (1-based)."""
    S = np.asarray(getattr(scores, "values", scores), dtype=np.float64)
    th = np.asarray(theta, dtype=np.float64)
    return np.argmin(np.abs(S[:, None] - th[None, :]), axis=1) + 1


class Tracer:
    """Records spans and counters for one traced pass."""

    def __init__(self, check_estimate=None):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._thread = threading.get_ident()
        self._patches: list[tuple[object, str, object]] = []
        self._check_estimate = check_estimate
        self.counts: dict[str, float] = defaultdict(float)
        self.pl_iters: list[int] = []
        self.pl_objectives: list[float] = []

    # -- spans ---------------------------------------------------------
    def _open(self, name: str) -> int:
        if threading.get_ident() != self._thread:
            raise RuntimeError("traced pass must run on one thread (workers = 1)")
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def probe(self):
        idx = self._open(PROBE)
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, fn, name: str, after=None):
        signature = inspect.signature(fn)

        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if after is not None:
                with self.probe():
                    after(signature.bind(*args, **kwargs).arguments, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- counters at span boundaries ------------------------------------
    def _after_feature_match(self, original):
        def after(arg, result):
            scores, theta, space = arg["scores"], arg["theta"], arg["space"]
            self.counts["fm_calls"] += 1
            if not np.array_equal(result, nearest_positions(scores, theta)):
                self.counts["fm_repaired"] += 1
            if space.c_n_sq is not None:
                self.counts["fm_restricted"] += 1
                sum_only = type(space)(n=space.n, c_n=space.c_n)
                r1 = np.asarray(original(scores, theta, sum_only), dtype=np.int64)
                if abs(int(np.dot(r1, r1)) - space.identity_sumsq()) > space.c_n_sq:
                    self.counts["fm_restricted_bind"] += 1

        return after

    def _after_profile_ls(self, arg, result):
        rank, trace = result
        self.pl_iters.append(trace.iterations)
        self.pl_objectives.append(trace.objective_path[-1])
        if self._check_estimate is not None:
            self._check_estimate(arg["space"], rank, trace)

    def _after_generate(self, arg, result):
        self.counts["generate_bytes"] += result.values.nbytes

    def _after_write(self, arg, result):
        self.counts["bytes_written"] += len(arg["text"].encode())

    # -- installation ---------------------------------------------------
    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def instrument(self, modules: dict) -> None:
        """Wrap the layer boundaries of ``modules`` (short name -> module)."""
        afters = {
            "matching.feature_match": self._after_feature_match(modules["matching"].feature_match),
            "estimators.profile_ls": self._after_profile_ls,
            "simulate.generate": self._after_generate,
            "cli.write_text": self._after_write,
        }
        for short, mod in modules.items():
            names = set(INTRA_MODULE.get(short, ()))
            for attr, obj in vars(mod).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__.startswith("rankphase.")
                    and obj.__module__ != mod.__name__
                    and not attr.startswith("_")
                ):
                    names.add(attr)
            for attr in sorted(names):
                fn = getattr(mod, attr)
                name = _span_name(fn)
                self._patch(mod, attr, self._wrap(fn, name, afters.get(name)))
        checks = modules["verify"].CHECKS
        for key in list(checks):
            self._patch_item(checks, key, self._wrap(checks[key], f"verify.check.{key}"))

    def _patch_item(self, mapping: dict, key: str, replacement) -> None:
        self._patches.append((mapping, key, mapping[key]))
        mapping[key] = replacement

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    # -- reduction ------------------------------------------------------
    def probe_seconds(self) -> float:
        return sum(end - start for name, start, end, _ in self.spans if name == PROBE)

    def layer_metrics(self, traced_wall_s: float) -> dict:
        """Per-layer values (without the pass-level ones the caller adds)."""
        n = len(self.spans)
        child_time = [0.0] * n
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        self_s: dict[str, float] = defaultdict(float)
        total_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        fm_ms = []
        for i, (name, start, end, parent) in enumerate(self.spans):
            if name == PROBE:
                continue
            own = (end - start) - child_time[i]
            self_s[name] += own
            total_s[name] += end - start
            calls[name] += 1
            if name == "matching.feature_match":
                fm_ms.append(own * 1000.0)

        out = {}
        covered = 0.0
        for m in metrics.MODULES:
            out[f"{m}.self_s"] = sum(v for k, v in self_s.items() if k.split(".")[0] == m)
            out[f"{m}.calls"] = sum(v for k, v in calls.items() if k.split(".")[0] == m)
            covered += out[f"{m}.self_s"]
        for s in metrics.SPAN_METRICS:
            out[f"{s}.self_s"] = self_s.get(s, 0.0)
            out[f"{s}.calls"] = calls.get(s, 0)
        for s in ("simulate.fit_regimes", "cli.rows_to_csv", "poisson.affinity"):
            out[f"{s}.self_s"] = self_s.get(s, 0.0)
        for name in metrics.IDENTITIES:
            out[f"verify.check.{name}.s"] = total_s.get(f"verify.check.{name}", 0.0)

        c = self.counts
        out["simulate.generate.mb_computed"] = c["generate_bytes"] / 1e6
        out["matching.feature_match.ms_p50"] = metrics.percentile(fm_ms, 50.0)
        out["matching.feature_match.ms_tail"] = metrics.percentile(
            fm_ms, metrics.tail_percentile(len(fm_ms))
        )
        out["matching.repair_frac"] = c["fm_repaired"] / c["fm_calls"] if c["fm_calls"] else 0.0
        out["matching.restricted_bind_frac"] = (
            c["fm_restricted_bind"] / c["fm_restricted"] if c["fm_restricted"] else 0.0
        )
        out["estimators.profile_ls.iters_mean"] = (
            sum(self.pl_iters) / len(self.pl_iters) if self.pl_iters else 0.0
        )
        out["estimators.profile_ls.objective_mean"] = (
            sum(self.pl_objectives) / len(self.pl_objectives) if self.pl_objectives else 0.0
        )
        out["cli.bytes_written"] = c["bytes_written"]
        measured = traced_wall_s - self.probe_seconds()
        out["trace.coverage"] = covered / measured if measured > 0 else 0.0
        return out
