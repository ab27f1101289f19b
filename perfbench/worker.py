"""Child interpreter of the benchmark.

Usage: python3 worker.py ROOT [--probe]

Times ``import lapbounds.cli`` from ROOT/src and writes one JSON line with
the import time. With --probe it exits there. Otherwise it reads one JSON
request per line on stdin, ``{"argv": [...], "trace": bool}``, runs
``lapbounds.cli.main(argv)`` in-process with stdout and stderr captured, and
answers each with one JSON line: exit code, wall seconds, output, and for a
traced command the layer summary of its spans. At end of input it answers
with its peak resident memory and exits.
"""

import sys
import time


def peak_rss_kb() -> int:
    """This process's peak resident memory since exec (VmHWM).

    getrusage's ru_maxrss is not used: Linux keeps it across fork and exec,
    so it would report the parent's size whenever that is larger.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("VmHWM missing from /proc/self/status")


def main() -> int:
    root = sys.argv[1]
    sys.path.insert(0, f"{root}/src")
    t0 = time.perf_counter()
    import lapbounds.cli

    import_s = time.perf_counter() - t0

    import contextlib
    import io
    import json
    import traceback

    proto = sys.stdout

    def send(obj) -> None:
        proto.write(json.dumps(obj) + "\n")
        proto.flush()

    if "--probe" in sys.argv[2:]:
        send({"import_s": import_s})
        return 0

    import tracing
    from lapbounds import kernels

    send({"import_s": import_s, "numba": bool(kernels.HAS_NUMBA)})
    tracer = tracing.Tracer()
    for line in sys.stdin:
        req = json.loads(line)
        if req["trace"]:
            tracer.install()
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = lapbounds.cli.main(req["argv"])
        except SystemExit as exc:
            rc = exc.code
        except Exception:  # a crash is a failed command, reported to the parent
            rc = None
            err.write(traceback.format_exc())
        finally:
            seconds = time.perf_counter() - t0
            tracer.uninstall()
        resp = {"rc": rc, "seconds": seconds, "out": out.getvalue(), "err": err.getvalue()}
        if req["trace"]:
            spans = tracer.take()
            resp["layers"] = tracing.summarize(spans)
            resp["missing_sites"] = tracer.missing
            if req.get("spans"):
                resp["spans"] = spans
        send(resp)
    send({"maxrss_kb": peak_rss_kb()})
    return 0


if __name__ == "__main__":
    sys.exit(main())
