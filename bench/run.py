"""Seeded end-to-end benchmark of dglevels: one process, one thread, one
closed-loop client.

    python3 bench/run.py --workload levels --seed 1 --seconds 20 --trace 0

The workload's query list is generated from the seed.  The timed loop runs
passes over the list until ``--seconds`` have passed and MIN_PASSES passes
ran; every FULL_EVERY-th pass runs every query, the others only the queries
under HEAVY_MS.  A fixed gauge task runs between and inside queries, and every
time is scaled by the gauge times around it (see gauge.py).  Every answer is
checked after the loop.  ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` the per-layer metrics of one extra traced pass and the
frontier queries.  The last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
are the human-readable report.  ``--workload all`` runs every workload in
its own process.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".bench_out"
sys.path.insert(0, str(ROOT / "src"))

try:
    import dglevels
    if not Path(dglevels.__file__).resolve().is_relative_to(ROOT / "src"):
        raise ImportError(f"found {dglevels.__file__} instead")
    import checks
    import gauge
    import spans
    import workloads as wl
except ImportError as exc:           # no program next to the benchmark
    print(f"bench: cannot import dglevels from {ROOT / 'src'}: {exc}", file=sys.stderr)
    sys.exit(2)

CAP_S = 10.0          # per-query cap; the slowest query that finishes takes ~4 s
SETUP_PROBES = 9      # fresh interpreters timed for setup_s
FULL_EVERY = 5        # every fifth pass, from the first, runs every query
MIN_PASSES = 6        # so slow queries run at least twice and fast ones 6 times
HEAVY_MS = 250.0      # slower queries run in the full passes only


class OverCap(BaseException):
    """Raised by SIGALRM; a BaseException so library code cannot swallow it."""


def _alarm(signum, frame):
    raise OverCap()


# ---------------------------------------------------------------------------
# one query
# ---------------------------------------------------------------------------


class Outcome:
    __slots__ = ("query", "status", "ns", "inside", "ms", "answer", "error")

    def __init__(self, query, status, ns, answer=None, error=None):
        self.query, self.status, self.ns = query, status, ns
        self.inside = ()      # gauge times taken while the query ran
        self.ms = None        # scaled latency, set by the timed loop
        self.answer, self.error = answer, error

    def digest(self):
        return self.answer if isinstance(self.answer, str) else _digest(self.answer)


def run_query(q, tracer=None, sampler=None):
    """Run one query under the cap: status "ok", "timeout" or "error"."""
    root = tracer.open(f"bench.{q.kind}") if tracer else None
    if sampler:
        sampler.start()
    signal.setitimer(signal.ITIMER_REAL, CAP_S)
    t0 = time.perf_counter_ns()
    try:
        answer = wl.execute(q)
        ns = time.perf_counter_ns() - t0
        signal.setitimer(signal.ITIMER_REAL, 0)
        o = Outcome(q, "ok", ns, answer=answer)
    except OverCap:
        o = Outcome(q, "timeout", time.perf_counter_ns() - t0, error="timeout")
    except Exception as exc:
        o = Outcome(q, "error", time.perf_counter_ns() - t0,
                    error=f"{type(exc).__name__}: {exc}")
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        if sampler:
            inside, spent_ns = sampler.stop()
        if tracer:
            tracer.close(root)
            tracer.close_all()
    if sampler:
        o.inside, o.ns = inside, o.ns - spent_ns
    return o


def timed_loop(queries, seconds, sampler, tracer=None, min_passes=MIN_PASSES):
    """Passes over the list until ``seconds`` have elapsed and at least
    ``min_passes`` passes ran; returns the outcomes of each pass, the wall
    and CPU time of the loop, and every gauge time.

    Every FULL_EVERY-th pass, from the first, runs every query; the others
    run only the queries whose first latency is under HEAVY_MS, so that the
    slow ones, a few per workload, do not take most of the run."""
    gc.collect()
    passes, gauges = [], [gauge.gauge_ns()]
    first = {}
    c0, t0 = time.process_time(), time.perf_counter()
    while True:
        todo = queries if len(passes) % FULL_EVERY == 0 else \
            [q for q in queries if first[q.name] < HEAVY_MS]
        outcomes = []
        for q in todo:
            o = run_query(q, tracer, sampler)
            gauges.append(gauge.gauge_ns())
            o.ms = gauge.scaled_ms(o.ns, (gauges[-2], gauges[-1]) + o.inside)
            if q.name in first and o.status == "ok":
                o.answer = o.digest()   # only the first answer is kept whole
            first.setdefault(q.name, o.ms if o.status == "ok" else float("inf"))
            outcomes.append(o)
        passes.append(outcomes)
        if len(passes) >= min_passes and time.perf_counter() - t0 >= seconds:
            break
    return passes, time.perf_counter() - t0, time.process_time() - c0, gauges


# ---------------------------------------------------------------------------
# checking
# ---------------------------------------------------------------------------


def _digest(answer):
    return hashlib.sha256(json.dumps(answer, sort_keys=True, ensure_ascii=False)
                          .encode("utf-8")).hexdigest()


def _cli_key(argv):
    return " ".join(Path(a).name if a.endswith(".json") else a for a in argv)


class Judge:
    """Marks outcomes right or wrong in place.

    The first answer to each query is checked against closed forms; every
    later answer must equal it.  CLI stdout must also equal the stdout that
    earlier runs of the same source recorded for the same argv.
    """

    def __init__(self):
        # keyed by the program's source, so a change to the program starts afresh
        source = hashlib.sha256()
        for f in sorted((ROOT / "src").rglob("*.py")):
            source.update(f.relative_to(ROOT).as_posix().encode() + b"\0" + f.read_bytes())
        self.path = OUT_DIR / f"cli_stdout-{source.hexdigest()[:16]}.json"
        try:
            self.stored = json.loads(self.path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            self.stored = {}
        self.new = {}
        self.first = {}       # query name -> (answer digest, verdict)

    def __call__(self, outcomes):
        for o in outcomes:
            if o.status != "ok":
                continue
            digest = o.digest()
            if o.query.name not in self.first:
                self.first[o.query.name] = (digest, self._verdict(o.query, o.answer, digest))
            want, verdict = self.first[o.query.name]
            if digest != want:
                o.status, o.error = "wrong", "answer differs from its first run"
            elif verdict is not None:
                o.status, o.error = "wrong", verdict

    def _verdict(self, q, answer, digest):
        verdict = checks.check(q, answer)
        if q.kind == "cli" and verdict is None:
            key = _cli_key(q.params)
            if self.stored.get(key, digest) != digest:
                return "stdout differs from an earlier run"
            if key not in self.stored:
                self.new[key] = digest
        return verdict

    def save(self):
        if not self.new:
            return
        self.stored.update(self.new)
        OUT_DIR.mkdir(exist_ok=True)
        tmp = self.path.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps(self.stored, sort_keys=True, indent=1, ensure_ascii=False),
                       encoding="utf-8")
        tmp.replace(self.path)


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def per_query(passes):
    """{query name: (median scaled latency of its repetitions, whether every
    repetition answered right)}.  A median, not a minimum: once scaled,
    a repetition is as likely to read high as low."""
    reps = {}
    for outcomes in passes:
        for o in outcomes:
            reps.setdefault(o.query.name, []).append(o)
    return {name: (statistics.median(o.ms for o in runs), all(o.status == "ok" for o in runs))
            for name, runs in reps.items()}


def capped(latencies):
    """Latencies with every failed query at the cap, so failing fast never
    reads as a speed-up."""
    return [ms if ok else CAP_S * 1000.0 for ms, ok in latencies]


def percentile(values, q):
    """The q-th quantile, smoothed: the mean of the values ranked within five
    percentage points of it, so that one query does not move the figure."""
    v = sorted(values)
    lo = math.floor((q - 0.05) * len(v))
    hi = max(math.ceil((q + 0.05) * len(v)), lo + 1)
    return statistics.fmean(v[lo:hi])


def throughput(latencies):
    """Right answers per second of the closed loop at the given latencies;
    a failed query costs the time it took."""
    return sum(ok for _, ok in latencies) / (sum(ms for ms, _ in latencies) / 1000.0)


def setup_seconds(workload, seed):
    """Unscaled and scaled wall times (s) of SETUP_PROBES fresh interpreters
    that import dglevels and dglevels.cli and run the workload's warm-up
    queries, one after another (bench/probe.py).  A probe is scaled by the
    gauge runs inside it and at its two ends, after the time of those inside
    it is taken out."""
    raw, scaled = [], []
    before = gauge.gauge_ns()
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter_ns()
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "probe.py"), workload, str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=170)
        ns = time.perf_counter_ns() - t0
        if proc.returncode != 0:
            raise RuntimeError("setup probe failed: " + proc.stderr[-400:])
        after = gauge.gauge_ns()
        inside = json.loads(proc.stdout.splitlines()[-1])
        raw.append(ns / 1e9)
        scaled.append(gauge.scaled_ms(ns - inside["spent_ns"],
                                      [before, after] + inside["gauges"]) / 1000.0)
        before = after
    return raw, scaled


def end_to_end(passes, setup_times, peak_rss_mb):
    lat = list(per_query(passes).values())
    return {
        "query_p50_ms": (percentile(capped(lat), 0.5), "ms"),
        "query_p90_ms": (percentile(capped(lat), 0.9), "ms"),
        "throughput_qps": (throughput(lat), "queries/s"),
        "answered_ratio": (sum(ok for _, ok in lat) / len(lat), "ratio"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------


def report_failures(outcomes, label):
    seen = set()
    for o in outcomes:
        if o.status != "ok" and o.query.name not in seen:
            seen.add(o.query.name)
            print(f"  {label} {o.status}: {o.query.name}: {o.error}")


def report_kinds(outcomes):
    by_kind = {}
    for o in outcomes:
        by_kind.setdefault(o.query.kind, []).append(o.ms)
    for kind, ms in sorted(by_kind.items()):
        print(f"  kind {kind:12s} n={len(ms):4d}  median {statistics.median(ms):9.2f} ms  "
              f"max {max(ms):9.2f} ms  total {sum(ms) / 1000:7.2f} s")


def run_frontier(frontier):
    """Queries the engine cannot answer within the cap today, run once each
    outside the timed loop; each outcome is reported under its name.
    Returns how many were not answered right."""
    failed = 0
    for q in frontier:
        o = run_query(q)
        err = checks.check(q, o.answer) if o.status == "ok" else o.error
        if o.status == "ok":
            state = f"answered in {o.ns / 1e6:.1f} ms, " + ("check ok" if err is None
                                                            else f"WRONG: {err}")
        elif o.status == "timeout":
            state = f"timeout (cap {CAP_S:g} s)"
        else:
            state = f"error: {o.error}"
        failed += err is not None
        print(f"  frontier {q.name}: {state}")
    return failed


def emit(correct, attempted, failed, metrics):
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }, sort_keys=False))


# ---------------------------------------------------------------------------


def bench(args):
    queries, frontier = wl.make_queries(args.workload, args.seed, OUT_DIR / "models")
    warm = wl.warmup_queries(queries)
    signal.signal(signal.SIGALRM, _alarm)
    print(f"workload {args.workload}  seed {args.seed}  queries/pass {len(queries)}  "
          f"cap {CAP_S:g} s  trace {args.trace}")
    if not args.trace:
        raw, setup_times = setup_seconds(args.workload, args.seed)
        print("  setup probes (s): " + " ".join(f"{t:.3f}" for t in raw))
        print("  scaled (s):       " + " ".join(f"{t:.3f}" for t in setup_times))
    for q in warm:
        run_query(q)

    sampler = gauge.Sampler()
    passes, wall, cpu, gauges = timed_loop(queries, args.seconds, sampler)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    outcomes = [o for pass_outcomes in passes for o in pass_outcomes]
    print(f"  timed loop: {len(passes)} passes, {len(outcomes)} queries, wall {wall:.2f} s, "
          f"cpu/wall {cpu / wall:.3f}, gauge median {statistics.median(gauges) / 1e6:.3f} ms "
          f"(times below are scaled to {gauge.GAUGE_REF_MS:g} ms)")
    judge = Judge()
    t_check = time.perf_counter()
    judge(outcomes)
    print(f"  checks: {time.perf_counter() - t_check:.2f} s")
    report_kinds(outcomes)
    report_failures(outcomes, "timed")

    if args.trace:
        tracer = spans.Tracer()
        tracer.install()
        try:
            t_passes, t_wall, _, _ = timed_loop(queries, 0, sampler, tracer=tracer,
                                                min_passes=1)
        finally:
            tracer.uninstall()
        t_out = t_passes[0]
        judge(t_out)
        report_failures(t_out, "traced")
        metrics = spans.layer_metrics(tracer)
        metrics["trace_overhead"] = (throughput(per_query(t_passes).values())
                                     / throughput(per_query(passes).values()), "ratio")
        OUT_DIR.mkdir(exist_ok=True)
        tracer.dump(OUT_DIR / f"spans-{args.workload}.json")
        print(f"  traced pass: {len(tracer.spans)} spans, wall {t_wall:.2f} s, "
              f"written to {OUT_DIR.name}/spans-{args.workload}.json")
        outcomes += t_out
        metrics["frontier.failed"] = (run_frontier(frontier), "count")
    else:
        metrics = end_to_end(passes, setup_times, peak_rss_mb)

    judge.save()
    n = len(queries)
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:14.6g} {unit:10s} n={n}")
    # an exception or a timeout is a failure; only a wrong answer is incorrect
    wrong = sum(o.status == "wrong" for o in outcomes)
    failed = sum(o.status != "ok" for o in outcomes)
    emit(wrong == 0, len(outcomes), failed, metrics)
    return 0


def run_all(args):
    results = {}
    for w in wl.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "run.py"), "--workload", w, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"workload {w} failed with exit code {proc.returncode}", file=sys.stderr)
            return 1
        results[w] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=list(wl.WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return bench(args)


if __name__ == "__main__":
    sys.exit(main())
