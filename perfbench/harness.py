"""Runs one workload: set-up probes, then either the untraced timed phase
(end-to-end metrics) or the traced passes (per-layer metrics), and writes
the results file with its provenance."""

from __future__ import annotations

import hashlib
import importlib.metadata
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import calibrate
import tracer
import workloads

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 7  # fresh processes per run; setup_s is their median
STARTUP_PROBES = 5  # `python -c ...` children per startup figure
MIN_OPS = 100  # a timed phase runs at least this many ops, so p90 has 10 samples beyond it


def ms(ns) -> float:
    return ns / 1e6


def p90(values):
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


class Tally:
    """Failed checks by op key; an op fails if any of its checks fails."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed_ops: dict = {}

    def record(self, key: str, failures) -> None:
        if failures:
            self.failed_ops.setdefault(key, []).extend(failures)

    def run(self, key: str, fn, *args):
        """Call fn; an exception counts as a failed check of op `key`."""
        try:
            return fn(*args)
        except Exception as exc:  # a broken op must not end the run
            self.record(key, [f"{fn.__name__} raised {exc!r}"])
            return None

    @property
    def failed(self) -> int:
        return len(self.failed_ops)

    def messages(self, limit: int = 20) -> list[str]:
        return [f"{key}: {m}" for key, msgs in self.failed_ops.items() for m in msgs][:limit]


def digest_outputs(h, outputs: dict) -> None:
    for name, data in sorted(outputs.items()):
        h.update(f"{name}\0{len(data)}\0".encode())
        h.update(data)


def localization_pairs(outputs: dict) -> list[tuple[float, float]]:
    """(estimate, truth) pairs from any `*.summary.json` output."""
    pairs = []
    for name, data in outputs.items():
        if name.endswith(".summary.json"):
            doc = json.loads(data)
            pairs += zip(doc["estimates_deg"], doc["truths_deg"])
    return pairs


def rmse(pairs) -> float:
    if not pairs:
        return 0.0
    return (sum((e - t) ** 2 for e, t in pairs) / len(pairs)) ** 0.5


def attempt(tally: Tally, key: str, w, fn, inp) -> tuple[int, object, dict]:
    """Run one op: (nanoseconds, result or None if it raised, its outputs)."""
    tally.attempted += 1
    t0 = time.perf_counter_ns()
    result = tally.run(key, fn, inp)
    dt = time.perf_counter_ns() - t0
    if result is None:
        return dt, None, {}
    return dt, result, tally.run(key, w.outputs, result) or {}


def check(tally: Tally, key: str, w, inp, result, outputs) -> None:
    if result is not None:
        tally.record(key, tally.run(key, w.check, inp, result, outputs))


def setup_times(name: str, seed: int, root: Path) -> tuple[list[float], calibrate.Pairing]:
    """Seconds from spawning a fresh process until it is ready for its first
    timed op (imports, config resolution, one warm-up op), per probe, with a
    spawn reading before and after each probe."""
    times = []
    pairing = calibrate.Pairing("spawn")
    for k in range(SETUP_PROBES):
        pairing.maybe_read(k, force=True)
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "probe.py"), name, str(seed)],
            cwd=root, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
        )
        line = proc.stdout.readline()
        times.append(time.perf_counter() - start)
        proc.stdout.read()
        proc.stdout.close()
        if proc.wait() != 0 or line.strip() != b"ready":
            raise RuntimeError(f"set-up probe for {name} failed (exit {proc.returncode})")
    pairing.maybe_read(SETUP_PROBES, force=True)
    return times, pairing


def startup_split(root: Path) -> dict:
    """Interpreter start, and `import risim.cli` wall and CPU time, from
    fresh children. OPENBLAS_NUM_THREADS is left as the caller set it."""
    env = workloads.child_env(root)

    def child(code):
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=root, env=env, check=True)
        wall = time.perf_counter() - start
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        cpu = (after.ru_utime + after.ru_stime) - (before.ru_utime + before.ru_stime)
        return wall * 1e3, cpu * 1e3

    interp = [child("pass")[0] for _ in range(STARTUP_PROBES)]
    imports = [child("import risim.cli") for _ in range(STARTUP_PROBES)]
    return {
        "startup.interpreter_ms": statistics.median(interp),
        "startup.import_ms": statistics.median(w for w, _ in imports),
        "startup.import_cpu_ms": statistics.median(c for _, c in imports),
    }


def timed_run(w: workloads.Workload, seed: int, seconds: float) -> dict:
    """Untraced closed loop for `seconds` (and at least MIN_OPS ops)."""
    w.setup()
    inputs = w.inputs(seed)
    tally = Tally()
    warm = next(w.inputs(seed))
    w.outputs(w.op(warm))

    durations, pending, pairs = [], [], []
    maxrss_kb = 0
    digest = hashlib.sha256()
    pairing = calibrate.Pairing(w.reference)
    start = time.perf_counter()
    for k, inp in enumerate(inputs):
        if k >= MIN_OPS and time.perf_counter() - start >= seconds:
            break
        pairing.maybe_read(k)
        dt, result, outputs = attempt(tally, f"op {k}", w, w.op, inp)
        durations.append(dt)
        check(tally, f"op {k}", w, inp, result, outputs)
        if w.subprocess_ops and result is not None:
            maxrss_kb = max(maxrss_kb, result.maxrss_kb)
            pending.append((k, inp, outputs))
        if k < w.trace_ops:
            digest_outputs(digest, outputs)
        if k < MIN_OPS:
            pairs += localization_pairs(outputs)
    pairing.maybe_read(len(durations), force=True)
    phase_s = time.perf_counter() - start

    for k, inp, outputs in pending:  # same command in-process, after the timed phase
        reference = tally.run(f"op {k}", w.reference_outputs, inp)
        if reference is not None and reference != outputs:
            tally.record(f"op {k}", ["output files differ from the same command run in-process"])
    if not w.subprocess_ops:
        maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    scaled = pairing.scale(durations)
    return {
        "tally": tally,
        "metrics": {
            "ops_per_s": len(scaled) / (sum(scaled) / 1e9),
            "op_ms_p50": ms(statistics.median(scaled)),
            "op_ms_p90": ms(p90(scaled)),
            "peak_rss_mb": maxrss_kb / 1024,
        },
        "extra": {
            "ops": len(durations),
            "phase_s": phase_s,
            "raw": {
                "ops_per_s": len(durations) / (sum(durations) / 1e9),
                "op_ms_p50": ms(statistics.median(durations)),
                "op_ms_p90": ms(p90(durations)),
            },
            "reference": {
                "kind": w.reference,
                "nominal_ms": pairing.nominal * 1e3,
                "readings": len(pairing.values),
                "median_ms": statistics.median(pairing.values) * 1e3,
            },
            "error_rate": tally.failed / len(durations),
            "rmse_deg": rmse(pairs),
            "rmse_truths": len(pairs),
            "outputs_sha256": digest.hexdigest(),
            "outputs_sha256_ops": min(w.trace_ops, len(durations)),
        },
    }


def traced_run(w: workloads.Workload, seed: int, seconds: float, root: Path, spans_path: Path) -> dict:
    """Passes over a fixed op list, each once untraced and once traced,
    repeated for `seconds`. Counts are per pass; times are pass medians."""
    startup = startup_split(root)
    w.setup()
    ops = list(itertools.islice(w.inputs(seed), w.trace_ops))
    tally = Tally()
    reference = [None] * len(ops)
    if w.subprocess_ops:  # the command line itself, as the reference for in-process runs
        for k, inp in enumerate(ops):
            _, result, reference[k] = attempt(tally, f"op {k} subprocess", w, w.op, inp)
            check(tally, f"op {k} subprocess", w, inp, result, reference[k])
    w.outputs(w.traced_op(ops[0]))  # warm-up

    tr = tracer.Tracer()
    untraced_s, traced_s, untraced_ops_ns = [], [], []
    pass_calls, pass_self, pass_counters = [], [], []
    start = time.perf_counter()
    while not traced_s or time.perf_counter() - start < seconds:
        p = len(traced_s)
        for k, inp in enumerate(ops):
            key = f"op {k} pass {p} untraced"
            dt, result, outputs = attempt(tally, key, w, w.traced_op, inp)
            untraced_ops_ns.append(dt)
            check(tally, key, w, inp, result, outputs)
            if reference[k] is None:
                reference[k] = outputs
            elif outputs != reference[k]:
                tally.record(key, ["in-process outputs differ from the reference outputs"])
        untraced_s.append(sum(untraced_ops_ns[-len(ops):]) / 1e9)

        first, counters = len(tr.spans), Counter(tr.counters)
        total = 0
        tr.install()
        try:
            for k, inp in enumerate(ops):
                key = f"op {k} pass {p} traced"
                tr.op = k
                dt, _, outputs = attempt(tally, key, w, w.traced_op, inp)
                total += dt
                if outputs != reference[k]:
                    tally.record(key, ["traced outputs differ from untraced outputs"])
        finally:
            tr.uninstall()
            tr.op = None
        traced_s.append(total / 1e9)
        calls, self_ns = tracer.aggregate(tr.spans, first, len(tr.spans))
        pass_calls.append(calls)
        pass_self.append(self_ns)
        pass_counters.append(Counter(tr.counters) - counters)
        if p > 0:  # keep the first traced pass's spans only
            del tr.spans[first:]

    for i, calls in enumerate(pass_calls[1:], 1):
        if calls != pass_calls[0]:
            tally.record(f"pass {i}", ["call counts differ from the first pass"])
    tracer.write_spans(tr.spans, spans_path)
    digest = hashlib.sha256()
    for outputs in reference:
        digest_outputs(digest, outputs)

    metrics = dict(startup)
    for name in tracer.SPAN_NAMES:
        metrics[f"{name}.calls"] = pass_calls[0][name]
        metrics[f"{name}.self_ms"] = statistics.median(ms(s[name]) for s in pass_self)
    for layer in tracer.LAYERS:
        metrics[f"{layer}.errors"] = tr.errors[layer]
    for name in tracer.WRITERS:
        metrics[f"{name}.bytes"] = pass_counters[0][f"{name}.bytes"]
    metrics["patterns.cut_terms"] = pass_counters[0]["patterns.cut_terms"]
    metrics["localization.sweep_terms"] = pass_counters[0]["localization.sweep_terms"]
    metrics["localization.rmse_deg"] = rmse([p for out in reference for p in localization_pairs(out)])
    metrics["cli.compute_ms_p50"] = (
        ms(statistics.median(untraced_ops_ns)) if w.subprocess_ops else 0.0
    )
    n = len(ops)
    untraced_rate = statistics.median(n / s for s in untraced_s)
    traced_rate = statistics.median(n / s for s in traced_s)
    metrics["trace.overhead_ops_per_s"] = untraced_rate - traced_rate
    return {
        "tally": tally,
        "metrics": metrics,
        "extra": {
            "ops": n,
            "passes": len(traced_s),
            "untraced_ops_per_s": untraced_rate,
            "traced_ops_per_s": traced_rate,
            "error_rate": tally.failed / tally.attempted,
            "outputs_sha256": digest.hexdigest(),
            "outputs_sha256_ops": n,
            "spans": len(tr.spans),
            "spans_file": str(spans_path.relative_to(root)),
        },
    }


def _git(root: Path, *args) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", *args], cwd=root, capture_output=True, text=True, timeout=30, check=True
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout


def source_sha256(root: Path) -> str:
    """Content hash of every file under src/, independent of git."""
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(root)).encode() + b"\0")
            h.update(path.read_bytes())
    return h.hexdigest()


def provenance(root: Path, name: str, seed: int) -> dict:
    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    sha = _git(root, "rev-parse", "HEAD")
    status = _git(root, "status", "--porcelain")
    return {
        "git_sha": sha.strip() if sha else None,
        "git_dirty": bool(status.strip()) if status is not None else None,
        "src_sha256": source_sha256(root),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "click": version("click"),
        "pyyaml": version("PyYAML"),
        "nproc": os.cpu_count(),
        "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "workload": name,
        "seed": seed,
    }


def run(name: str, seed: int, seconds: float, trace: bool, root: Path) -> dict:
    """Run one workload and return its result; also writes the results file."""
    out = root / ".perfbench"
    results_dir = out / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    workdir = out / f"work-{name}-{os.getpid()}"
    w = workloads.WORKLOADS[name](root, workdir)
    try:
        if trace:
            spans_path = results_dir / f"{name}-seed{seed}.spans.csv"
            res = traced_run(w, seed, seconds, root, spans_path)
        else:
            setups, pairing = setup_times(name, seed, root)
            res = timed_run(w, seed, seconds)
            res["metrics"] = {"setup_s": statistics.median(pairing.scale(setups)), **res["metrics"]}
            res["extra"]["raw"]["setup_s"] = statistics.median(setups)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    tally = res["tally"]
    doc = {
        "provenance": provenance(root, name, seed),
        "trace": trace,
        "seconds": seconds,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failures": tally.messages(),
        "metrics": res["metrics"],
        **res["extra"],
    }
    path = results_dir / f"{name}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(doc, indent=2) + "\n")
    doc["results_file"] = str(path.relative_to(root))
    return doc
