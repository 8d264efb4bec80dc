"""Worker that runs ops in processes whose only prior work is ``import tdyn.cli``.

The worker imports ``tdyn.cli`` once and then does nothing but fork: every op
runs in a fresh child, so each op starts with sympy's process-global caches
as a new CLI process has them.  Requests and results are JSON lines: requests
on stdin, results on the file descriptor that was stdout at start-up (stdout
itself is pointed at /dev/null so that stray prints cannot corrupt a result).

Run by perfbench/run.py as ``python3 perfbench/worker.py`` from the checkout
root with ``src`` on PYTHONPATH.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import select
import signal
import sys
import time
import traceback

import speed
import tdyn.cli


def _caches_empty() -> bool:
    from sympy.polys import rootoftools
    return not rootoftools._reals_cache._dict and not rootoftools._complexes_cache._dict


def _run_child(req: dict) -> dict:
    tracer = None
    if req["trace"]:
        import tracer as tracer_mod
        tracer = tracer_mod.Tracer()
        tracer.install()
    cold_ok = _caches_empty()
    results = []
    with speed.Probe() as probe:
        for argv in req["argvs"]:
            out, err = io.StringIO(), io.StringIO()
            rc, tb = None, None
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    rc = tdyn.cli.main(list(argv))
            except Exception:  # a traceback escaping the CLI is a failed op
                tb = traceback.format_exc()
            results.append({"rc": rc, "out": out.getvalue(),
                            "err": err.getvalue()[-2000:], "traceback": tb})
    reply = {"elapsed": probe.ref_s, "wall_s": probe.wall_s, "speed": probe.speed,
             "cold_ok": cold_ok, "results": results,
             "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if tracer is not None:
        reply["trace"] = tracer.report()
    return reply


def _fork_op(req: dict) -> dict:
    rfd, wfd = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 0
        try:
            os.close(rfd)
            data = json.dumps(_run_child(req)).encode()
            with os.fdopen(wfd, "wb") as fh:
                fh.write(data)
        except BaseException:  # the child must never return into the worker loop
            traceback.print_exc()
            code = 1
        finally:
            os._exit(code)
    os.close(wfd)
    deadline = time.monotonic() + req["timeout"]
    chunks = []
    timed_out = False
    try:
        while True:
            left = deadline - time.monotonic()
            if left <= 0:
                timed_out = True
                break
            ready, _, _ = select.select([rfd], [], [], left)
            if not ready:
                continue
            chunk = os.read(rfd, 1 << 16)
            if not chunk:
                break
            chunks.append(chunk)
    finally:
        os.close(rfd)
        if timed_out:
            os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
    if timed_out:
        return {"timeout": True}
    try:
        return json.loads(b"".join(chunks))
    except ValueError:
        return {"crashed": True}


def main() -> int:
    proto = os.fdopen(os.dup(1), "w", buffering=1)
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, 1)
    os.close(devnull)
    print(json.dumps({"ready": True}), file=proto)
    for line in sys.stdin:
        req = json.loads(line)
        if req.get("quit"):
            break
        print(json.dumps(_fork_op(req)), file=proto)
    proto.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
