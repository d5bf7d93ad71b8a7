"""One pass of a workload in a fresh interpreter.

Reads a job as JSON on standard input and writes one JSON result to
standard output.  The job names the package's source directory, the
declaration prefix and the query lines.  Set-up time runs from just
before ``import ctxcalc`` until the prefix has been run on a new session.
The query phase is a closed loop with one caller: the next line is sent
to ``cli.run_command`` when the previous one has returned.

Each line's outcome is reported as a digest of its output text or as the
class hierarchy of the exception it raised, with its wall time.  A short
fixed probe of plain Python runs before the first line and after every
line, outside the timed windows, and five times on each side of set-up:
its times tell how fast the machine ran next to each measurement (see
``run.py``).  With
``"trace": true`` the query phase runs under the span tracer and the
result carries the per-layer figures; with ``"setup_only": true`` the
worker stops after set-up.
"""

from __future__ import annotations

import gc
import hashlib
import json
import resource
import sys
import time

import reference


def digest(text: str) -> str:
    return hashlib.blake2b(text.encode("utf-8"), digest_size=16).hexdigest()


def _run(run_command, session, line):
    t0 = time.perf_counter()
    try:
        lines = run_command(session, line)
    except Exception as exc:  # every failure is an outcome to report
        dt = time.perf_counter() - t0
        names = [c.__name__ for c in type(exc).__mro__]
        return ["err", names, str(exc)[:120], dt]
    dt = time.perf_counter() - t0
    text = "\n".join(lines)
    return ["ok", digest(text), text[:120], dt]


# The probe is a small natural join of context sets, rendered to text, in
# the reference model: plain Python of the same kind as the program's
# (frozensets of tag pairs, dicts, string building), so that it slows with
# the host as the program does.  Its operands are built once.
_LEFT = reference.make_set(
    [reference.Ctx({("d", i), ("e", i % 3)}) for i in range(8)])
_RIGHT = reference.make_set([reference.Ctx({("e", j), ("f", j)}) for j in range(3)])


def _probe_work():
    return reference.render_value(reference.join(_LEFT, _RIGHT))


def probe() -> float:
    """Wall time of the probe, run once untimed first to warm the caches the
    program left cold.  The collector is off so that a collection the
    program owes is not charged to the probe."""
    gc.disable()
    _probe_work()
    t0 = time.perf_counter()
    _probe_work()
    dt = time.perf_counter() - t0
    gc.enable()
    return dt


def main() -> int:
    job = json.load(sys.stdin)
    setup_probes = [probe() for _ in range(5)]
    t0 = time.perf_counter()
    sys.path.insert(0, job["src"])
    from ctxcalc import cli

    session = cli.new_session(seed=0)
    prefix = [_run(cli.run_command, session, line) for line in job["prefix"]]
    setup_s = time.perf_counter() - t0
    setup_probes += [probe() for _ in range(5)]
    out = {"setup_s": setup_s, "setup_probes": setup_probes, "prefix": prefix}
    if not job.get("setup_only"):
        tracer = None
        if job.get("trace"):
            import tracing

            tracer = tracing.Tracer()
            tracer.install()
            run = tracer.command_runner(cli)
        else:
            run = cli.run_command
        results, probes = [], [probe()]
        for i, line in enumerate(job["commands"]):
            if tracer is not None:
                tracer.cmd = i
            results.append(_run(run, session, line))
            probes.append(probe())
        out["results"] = results
        out["probes"] = probes
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if tracer is not None:
            out["trace"] = tracer.report(session, job.get("spans_path"))
    json.dump(out, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
