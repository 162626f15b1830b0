"""One benchmark worker: a fresh interpreter that runs jobs on request.

Usage: python3 -I bench/worker.py SRC [TRACE_FILE]

Imports tetindex from the directory SRC (and refuses any other copy),
prints ``ready``, then reads one JSON argv per line from stdin.  Each is
run through ``tetindex.cli.run(argv + ["--format", "json"])`` with stdout
and stderr captured, and answered with one JSON line: exit code, latency,
output and the number of RuntimeWarnings raised (the heuristic Bailey
bound).  The client sends the next job only after reading the answer.
At end of input the worker prints its peak RSS and exits.  With TRACE_FILE
the layer functions are wrapped (see spans.py), the trace summary is added
to the final line and the recorded spans are written to TRACE_FILE.
"""

import contextlib
import io
import json
import os
import resource
import sys
import time
import warnings


def main() -> int:
    src = os.path.abspath(sys.argv[1])
    trace_file = sys.argv[2] if len(sys.argv) > 2 else None
    sys.path.insert(0, src)
    import tetindex.cli

    if not os.path.abspath(tetindex.__file__).startswith(src + os.sep):
        print(f"worker: imported tetindex from {tetindex.__file__}", file=sys.stderr)
        return 2
    tracer = None
    if trace_file:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        import spans

        tracer = spans.install()
    print("ready", flush=True)

    clock = time.perf_counter_ns
    for i, line in enumerate(sys.stdin):
        argv = json.loads(line)
        out, err = io.StringIO(), io.StringIO()
        if tracer is not None:
            tracer.job = i
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                t0 = clock()
                try:
                    code = tetindex.cli.run(argv + ["--format", "json"])
                except Exception as exc:  # a crash is a failed job, not a failed pass
                    code = None
                    print(f"{type(exc).__name__}: {exc}", file=err)
                dt = clock() - t0
        fallbacks = sum(issubclass(w.category, RuntimeWarning) for w in caught)
        answer = {"code": code, "ns": dt, "out": out.getvalue(),
                  "err": err.getvalue()[-400:], "fallbacks": fallbacks}
        print(json.dumps(answer), flush=True)

    final = {"rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    if tracer is not None:
        final["trace"] = tracer.summary()
        with open(trace_file, "w", encoding="utf-8") as fh:
            json.dump({"records": tracer.records, **tracer.summary()}, fh)
    print(json.dumps(final), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
