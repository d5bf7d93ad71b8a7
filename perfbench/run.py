"""Timed and traced benchmark of the ctxcalc REPL.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src/``.
The workload's lines are generated from the seed together with their
expected outcomes (see ``workloads.py`` and ``reference.py``).  Each pass
runs the whole workload in a fresh interpreter (``worker.py``) on a new
session; passes repeat for ``--seconds`` seconds (at least MIN_PASSES of
them).  Every output is checked.  Times are reported at a reference speed
of the machine, measured by a short probe next to each command (see
``at_reference_speed``).

With ``--trace 0`` the run reports the end-to-end metrics.  With
``--trace 1`` it alternates an untraced and a traced pass and reports the
per-layer metrics and the tracing overhead.  Human-readable lines come
first; the last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
sys.path.insert(0, str(BENCH))

import tracing  # noqa: E402
import workloads  # noqa: E402
from worker import digest  # noqa: E402

SETUP_SAMPLES = 30  # fresh interpreters timed per run for setup_s
MIN_PASSES = 5
# The worker's probe (worker.probe) takes about this long on an idle
# 2-vCPU x86_64 host under CPython 3.11.  Times are reported at that speed.
PROBE_REF_S = 30e-6
RUN_LIMIT_S = 165  # a run must end within 180 s

# Metric names and units are defined once, in BENCHMARK.json.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


class BenchError(Exception):
    pass


def run_worker(job: dict, deadline: float) -> dict:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before a worker could start")
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "worker.py")],
            input=json.dumps(job), capture_output=True, text=True,
            timeout=timeout, cwd=ROOT,
        )
    except subprocess.TimeoutExpired:
        raise BenchError("a worker ran past the run's time limit") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout)


def outcome(command, result, expected_digest) -> str:
    """'match', 'failed' (raised where it should not) or 'wrong' (returned
    output that differs from the reference)."""
    status = result[0]
    if command.expect[0] == "ok":
        if status == "ok":
            return "match" if result[1] == expected_digest else "wrong"
        return "failed"
    if status == "ok":
        return "wrong"
    typed = "ContextCalcError" in result[1]
    return "match" if typed and command.expect[1] in result[1] else "failed"


def percentile(sorted_values, p) -> float:
    """Nearest-rank percentile."""
    k = max(0, math.ceil(p / 100 * len(sorted_values)) - 1)
    return sorted_values[k]


class Checker:
    """Compares worker results with the reference outcomes."""

    def __init__(self, wl):
        self.wl = wl
        self.prefix_digests = [_expected_digest(c) for c in wl.prefix]
        self.digests = [_expected_digest(c) for c in wl.commands]
        self.wrong = 0
        self.failed = 0
        self.attempted = 0
        self.failed_kinds = {}
        self.notes = []

    def _note(self, where, command, result, verdict):
        if verdict != "match" and len(self.notes) < 5 and command.kind != "known_defect":
            self.notes.append(
                f"{verdict} {where}: {command.text[:100]!r}\n"
                f"  expected {command.expect[0]} {command.expect[1][:100]!r}\n"
                f"  got {result[0]} {result[1] if result[0] == 'err' else ''} {result[2]!r}"
            )

    def check_prefix(self, out):
        for i, (cmd, res) in enumerate(zip(self.wl.prefix, out["prefix"])):
            verdict = outcome(cmd, res, self.prefix_digests[i])
            if verdict != "match":
                self.wrong += 1
                self._note(f"prefix line {i}", cmd, res, verdict)

    def check_pass(self, out) -> list:
        """Per-command verdicts of one pass."""
        self.check_prefix(out)
        verdicts = []
        for i, (cmd, res) in enumerate(zip(self.wl.commands, out["results"])):
            verdict = outcome(cmd, res, self.digests[i])
            verdicts.append(verdict)
            self.attempted += 1
            if verdict != "match":
                self.failed += 1
                self.failed_kinds[cmd.kind] = self.failed_kinds.get(cmd.kind, 0) + 1
                self.wrong += verdict == "wrong"
                self._note(f"line {i}", cmd, res, verdict)
        return verdicts

    @property
    def correct(self) -> bool:
        """No output differed from the reference, and every command that
        did not match is a named known defect."""
        return self.wrong == 0 and set(self.failed_kinds) <= {"known_defect"}


def _expected_digest(command):
    return digest(command.expect[1]) if command.expect[0] == "ok" else None


def _job(wl, **extra) -> dict:
    job = {
        "src": str(SRC),
        "prefix": [c.text for c in wl.prefix],
        "commands": [c.text for c in wl.commands],
    }
    job.update(extra)
    return job


def at_reference_speed(seconds, probe_s):
    """A time measured next to a probe that took probe_s, scaled to the
    speed at which the probe takes PROBE_REF_S.  On a shared host the
    speed of plain Python drifts by half or more over seconds to minutes;
    the probe slows with it, so the scaled time follows the program's own
    cost rather than the host's load."""
    return seconds * PROBE_REF_S / probe_s


def scaled_latencies(out) -> list:
    """Each command's wall time at reference speed, scaled by the mean of
    the two probes around it."""
    p = out["probes"]
    return [at_reference_speed(r[3], (p[i] + p[i + 1]) / 2)
            for i, r in enumerate(out["results"])]


def scaled_setup(out) -> float:
    return at_reference_speed(out["setup_s"], statistics.median(out["setup_probes"]))


def timed_run(wl, seconds, deadline, checker):
    """End-to-end metrics, every time at reference speed.  A command's
    latency is its median over the passes; the query time of a pass is the
    sum of its commands' latencies."""
    setups, rss, passes, oks = [], [], [], []
    end = time.monotonic() + seconds
    while len(passes) < MIN_PASSES or time.monotonic() < end:
        out = run_worker(_job(wl), deadline)
        verdicts = checker.check_pass(out)
        setups.append(scaled_setup(out))
        rss.append(out["peak_rss_mb"])
        passes.append(scaled_latencies(out))
        oks.append([v == "match" for v in verdicts])
    setup_job = _job(wl, setup_only=True)
    while len(setups) < SETUP_SAMPLES:
        out = run_worker(setup_job, deadline)
        checker.check_prefix(out)
        setups.append(scaled_setup(out))

    pass_s = statistics.median(map(sum, passes))
    latencies = sorted(
        # a failed command counts as missing any latency limit
        statistics.median(times) if all(ok) else math.inf
        for times, ok in zip(zip(*passes), zip(*oks)))
    completed = (checker.attempted - checker.failed) / len(passes)

    def ms(p):
        v = percentile(latencies, p)
        return 1000 * (v if v != math.inf else pass_s)

    metrics = {
        "setup_s": statistics.median(setups),
        "commands_per_s": completed / pass_s,
        "cmd_p50_ms": ms(50),
        "cmd_p95_ms": ms(95),
        "peak_rss_mb": statistics.median(rss),
    }
    beyond = len(latencies) - math.ceil(0.95 * len(latencies))
    info = [
        f"{len(passes)} passes of {len(latencies)} commands, each command timed "
        f"as its median over the passes ({beyond} beyond p95); {len(setups)} set-ups; "
        f"times at reference speed (probe {1e6 * PROBE_REF_S:.0f} us)",
    ]
    return metrics, info


def traced_run(wl, seconds, deadline, checker, seed):
    """Per-layer metrics from traced passes, each paired with an untraced
    pass of the same lines for the overhead."""
    plain_passes, traced_passes = [], []
    self_s, counts, samples = {}, {}, {}
    gap = 0.0
    end = time.monotonic() + seconds
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{wl.name}-seed{seed}.jsonl"
    while not traced_passes or time.monotonic() < end:
        plain = run_worker(_job(wl), deadline)
        checker.check_pass(plain)
        plain_passes.append(scaled_latencies(plain))
        out = run_worker(_job(wl, trace=True, spans_path=str(spans_path)), deadline)
        verdicts = checker.check_pass(out)
        traced_passes.append(scaled_latencies(out))
        tr = out["trace"]
        for k, v in tr["self_s"].items():
            self_s[k] = self_s.get(k, 0.0) + v
        tr["counts"]["cli.failed"] = sum(v != "match" for v in verdicts)
        for k, v in tr["counts"].items():
            counts[k] = counts.get(k, 0) + v
        for k, v in tr["samples"].items():
            samples.setdefault(k, []).extend(v)
        gap = max(gap, tr["self_sum_gap_s"])
    passes = len(traced_passes)
    # query time at reference speed, as in the timed run
    untraced_s = statistics.median(map(sum, plain_passes))
    traced_s = statistics.median(map(sum, traced_passes))

    def per_pass(d, k):
        return d.get(k, 0) / passes

    m = {}
    for layer in tracing.LAYERS:
        m[f"{layer}.self_s"] = per_pass(self_s, layer)
    for name in PER_LAYER:
        if name not in m and name in counts:
            m[name] = per_pass(counts, name)
    m["cli.commands"] = per_pass(counts, "cli.calls")
    m["lexer.tokens_per_s"] = (
        counts.get("lexer.tokens", 0) / self_s["lexer"] if self_s.get("lexer") else 0.0)
    candidates = counts.get("sets.box.candidates", 0)
    m["sets.box.yield"] = counts.get("sets.box.members_out", 0) / candidates if candidates else 0.0
    lookups = counts["streams.warehouse.hits"] + counts["streams.warehouse.misses"]
    m["streams.warehouse.hit_ratio"] = (
        counts["streams.warehouse.hits"] / lookups if lookups else 0.0)
    m["sets.join.slope"] = tracing.loglog_slope(samples.get("sets.join", ()))
    m["sets.union.slope"] = tracing.loglog_slope(samples.get("sets.union", ()))
    m["streams.eval.slope"] = tracing.loglog_slope(samples.get("streams.eval.filter", ()))
    m["trace.overhead"] = traced_s / untraced_s
    metrics = {name: m.get(name, 0.0) for name in PER_LAYER}
    total = sum(self_s.values()) or 1.0
    shares = ", ".join(
        f"{layer} {100 * self_s.get(layer, 0.0) / total:.1f}%"
        for layer in sorted(tracing.LAYERS, key=lambda k: -self_s.get(k, 0.0)))
    info = [
        f"{passes} untraced + {passes} traced passes; tracing overhead "
        f"{m['trace.overhead']:.2f}x ({traced_s:.3f} s traced / {untraced_s:.3f} s untraced "
        f"query time of a pass at reference speed)",
        f"self-time shares: {shares}",
        f"largest gap between a command's traced duration and its spans' "
        f"summed self times: {gap:.2e} s",
        f"spans of the last traced pass: {spans_path.relative_to(ROOT)}",
    ]
    return metrics, info


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_S
    if not (SRC / "ctxcalc" / "__init__.py").is_file():
        print(f"error: no ctxcalc package under {SRC}", file=sys.stderr)
        return 2

    wl = workloads.build(args.workload, args.seed)
    checker = Checker(wl)
    try:
        if args.trace:
            metrics, info = traced_run(wl, args.seconds, deadline, checker, args.seed)
            units = PER_LAYER
        else:
            metrics, info = timed_run(wl, args.seconds, deadline, checker)
            units = END_TO_END
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    for note in checker.notes:
        print(note, file=sys.stderr)
    print(f"workload {wl.name}, seed {args.seed}: " + "; ".join(info[:1]))
    for line in info[1:]:
        print(line)
    for name, value in metrics.items():
        print(f"  {name:<36} {value:>14.6g} {units[name]}")
    kinds = ", ".join(f"{k} {v}" for k, v in sorted(checker.failed_kinds.items())) or "none"
    print(f"  {'failed_ratio':<36} {checker.failed / checker.attempted:>14.6g} ratio"
          f"  ({checker.failed} of {checker.attempted}; by kind: {kinds})")
    result = {
        "correct": checker.correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
