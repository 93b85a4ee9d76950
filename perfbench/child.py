"""One benchmark sample: a fresh interpreter that runs qsteiner CLI calls.

Usage: python3 child.py ROOT [CALLS_JSON [TRACE_JSON]]

ROOT is the checkout holding ``src/qsteiner``.  The process prints ``ready``
as soon as ``qsteiner.cli`` is imported, so the parent can time set-up, and
imports nothing else before that.  Without CALLS_JSON it exits there.
Otherwise CALLS_JSON names a file with a list of argv lists; each is passed
to ``qsteiner.cli.main`` in turn, with the CLI's stdout and stderr captured,
and one JSON line with exit codes, output, wall time, CPU time and peak
memory follows.  With TRACE_JSON the calls run under the layer tracer and
its summary is written to that file.
"""

import os
import sys


def main() -> None:
    sys.path.insert(0, os.path.join(os.path.abspath(sys.argv[1]), "src"))
    import qsteiner.cli

    print("ready", flush=True)
    if len(sys.argv) < 3:
        return

    import contextlib
    import io
    import json
    import resource
    import traceback
    from time import perf_counter, process_time

    def run_calls(calls):
        results = []
        for argv in calls:
            out, err = io.StringIO(), io.StringIO()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = qsteiner.cli.main(argv)
            except Exception:  # a crash is a failed call, reported with its traceback
                code = None
                err.write(traceback.format_exc())
            results.append({"argv": argv, "code": code, "stdout": out.getvalue(),
                            "stderr": err.getvalue()})
        return results

    with open(sys.argv[2], encoding="utf-8") as fh:
        calls = json.load(fh)
    trace_path = sys.argv[3] if len(sys.argv) > 3 else None
    tracer = None
    if trace_path:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    cpu0 = process_time()
    t0 = perf_counter()
    try:
        results = run_calls(calls)
    finally:
        wall = perf_counter() - t0
        cpu = process_time() - cpu0
        if tracer is not None:
            tracer.uninstall()
    record = {
        "wall_s": wall,
        "cpu_s": cpu,
        "maxrss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "calls": results,
    }
    if tracer is not None:
        summary = tracer.summary()
        summary["wall_s"] = wall
        with open(trace_path, "w", encoding="utf-8") as fh:
            json.dump(summary, fh)
    print(json.dumps(record), flush=True)


if __name__ == "__main__":
    main()
