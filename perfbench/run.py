"""tdyn benchmark: cold spectral, cold sequence and warm session workloads.

    python3 perfbench/run.py --workload spectral_cold --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  The program under test is ``src/tdyn``,
driven through its public entry point ``tdyn.cli.main(argv)``.  The load is a
closed loop from one client: one op at a time, each in a process forked from
a worker whose only prior work is ``import tdyn.cli`` (see worker.py).

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of one traced pass plus the tracing overhead against an untraced pass
of the same run.  The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

``--record`` rewrites the golden outputs of the fixed corpus (do this only
when an output change is intended).
"""

from __future__ import annotations

import argparse
import json
import os
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import corpus  # noqa: E402
import oracles  # noqa: E402
import tracer  # noqa: E402

# Nominal seconds of one pass on a 2-core x86 container; passes per run are
# seconds // nominal, so the op and sample counts do not depend on how fast
# the machine happens to be.
NOMINAL_PASS_S = {"spectral_cold": 28.0, "sequences_cold": 20.0, "session_warm": 14.0}
OP_TIMEOUT_S = 60.0       # a cliff fails its op instead of hanging the run
RUN_BUDGET_S = 150.0      # ops not started by then count as failed
SETUP_STARTS = 5
REPEAT_BUDGET_S = 0.6
REPEAT_MAX = 4
TAIL_BEYOND = 10          # op_tail_s: highest percentile with 10 samples beyond it
SETUP_SNIPPET = ("import speed\nwith speed.Probe() as probe:\n    import tdyn.cli\n"
                 "print(probe.ref_s)")


def _env() -> dict:
    env = dict(os.environ)
    # sympy's set and dict iteration order follows the hash seed, and with it
    # the work some ops do: one cold op took 3.6-4.6 s across seeds
    env["PYTHONHASHSEED"] = "0"
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def measure_setup() -> float:
    """Median time of ``import tdyn.cli`` in a fresh interpreter (after one
    untimed start that leaves the bytecode caches written)."""
    times = []
    for i in range(SETUP_STARTS + 1):
        proc = subprocess.run([sys.executable, "-c", SETUP_SNIPPET], cwd=HERE, env=_env(),
                              capture_output=True, text=True, timeout=60, check=True)
        if i:
            times.append(float(proc.stdout.strip()))
    return statistics.median(times)


class Worker:
    """The pre-imported parent that forks one child per op."""

    def __init__(self):
        self.proc = subprocess.Popen([sys.executable, str(HERE / "worker.py")], cwd=ROOT,
                                     env=_env(), stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True, bufsize=1)
        if not json.loads(self._readline(60)).get("ready"):
            raise RuntimeError("worker did not start")

    def _readline(self, timeout: float) -> str:
        ready, _, _ = select.select([self.proc.stdout], [], [], timeout)
        line = self.proc.stdout.readline() if ready else ""
        if not line:
            raise RuntimeError("worker gave no reply")
        return line

    def run(self, op, trace: bool, timeout: float) -> dict:
        req = {"argvs": op.argvs, "trace": trace, "timeout": timeout}
        self.proc.stdin.write(json.dumps(req) + "\n")
        self.proc.stdin.flush()
        return json.loads(self._readline(timeout + 30))

    def close(self):
        try:
            self.proc.stdin.write(json.dumps({"quit": True}) + "\n")
            self.proc.stdin.close()
            self.proc.wait(timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def golden_path(workload: str) -> Path:
    return HERE / "golden" / f"{workload}.json"


def run_passes(worker, ops, passes, trace, deadline, log, repeat=True):
    """[(pass index, op, reply)] for ``passes`` passes over ``ops``.

    With ``repeat``, an op faster than REPEAT_BUDGET_S runs again, each time
    in a new process, until it has REPEAT_MAX runs or has used the budget;
    its sample is then the median of its runs, which keeps op_p50_s steady
    on a shared machine.
    """
    out = []
    for p in range(passes):
        for op in ops:
            spent, runs = 0.0, 0
            while True:
                left = deadline - time.monotonic()
                if left <= 0:
                    reply = {"skipped": True}
                else:
                    reply = worker.run(op, trace, min(OP_TIMEOUT_S, left))
                out.append((p, op, reply))
                runs += 1
                t = reply.get("elapsed")
                log(f"  pass {p + 1} {op.id:<58} "
                    + (f"{t:8.3f} s  (wall {reply['wall_s']:.3f} s)" if t is not None
                       else "  failed  ")
                    + ("" if trace else "  rc " + ",".join(
                        str(r["rc"]) for r in reply.get("results", []))))
                if t is None or not repeat:
                    break
                spent += t
                if runs >= REPEAT_MAX or spent >= REPEAT_BUDGET_S:
                    break
    return out


def check_all(samples, checker, cold):
    """Number of failed op runs; prints each problem to stderr."""
    failed = 0
    by_system = {}
    for p, op, reply in samples:
        problems = checker.check(op, reply, cold)
        for argv, res in zip(op.argvs, reply.get("results", [])):
            if (op.seeded and res["rc"] == 0 and op.system.psi_identity
                    and argv[0] in ("growth", "classify")):
                by_system.setdefault((p, op.system.name), {})[argv[0]] = (
                    json.loads(res["out"]))
        if problems:
            failed += 1
            for prob in problems:
                print(f"FAIL {op.id}: {prob}", file=sys.stderr)
    for (_, name), outputs in by_system.items():
        for prob in oracles.growth_within_lambda(outputs):
            failed += 1
            print(f"FAIL {name}: {prob}", file=sys.stderr)
    return failed


def end_to_end(samples, setup_s) -> dict:
    runs = {}
    rss = []
    for p, op, reply in samples:
        t = reply.get("elapsed", OP_TIMEOUT_S if reply.get("timeout") else None)
        if t is not None:
            runs.setdefault((p, op.id), []).append(t)
        if "maxrss_kb" in reply:
            rss.append(reply["maxrss_kb"])
    per_op = {}
    for (p, op_id), ts in runs.items():
        per_op.setdefault(op_id, []).append(statistics.median(ts))
    times = sorted(t for ts in per_op.values() for t in ts)
    n = len(times)
    tail = times[n - TAIL_BEYOND - 1] if n > TAIL_BEYOND else times[-1]
    pct = 100.0 * (n - TAIL_BEYOND) / n if n > TAIL_BEYOND else 100.0
    print(f"# op_tail_s is p{pct:.0f} of {n} op samples")
    return {
        "pass_s": sum(statistics.median(ts) for ts in per_op.values()),
        "op_p50_s": statistics.median(times),
        "op_tail_s": tail,
        "setup_s": setup_s,
        "peak_rss_mb": max(rss) / 1024.0,
    }


def record(worker):
    for workload in corpus.WORKLOADS:
        golden = {}
        for op in corpus.build(workload, 0):
            if op.seeded:
                continue
            reply = worker.run(op, False, OP_TIMEOUT_S)
            if "results" not in reply or any(r["traceback"] for r in reply["results"]):
                raise RuntimeError(f"{op.id}: cannot record ({reply})")
            golden[op.id] = [{"rc": r["rc"], "out": r["out"]} for r in reply["results"]]
            print(f"recorded {workload} {op.id} {reply['elapsed']:.3f} s", file=sys.stderr)
        with open(golden_path(workload), "w", encoding="utf-8") as fh:
            json.dump(golden, fh, indent=1, sort_keys=True)
            fh.write("\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=corpus.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "tdyn" / "cli.py").is_file():
        print(f"error: no tdyn sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.record:
        worker = Worker()
        try:
            record(worker)
        finally:
            worker.close()
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    with open(golden_path(args.workload), encoding="utf-8") as fh:
        checker = oracles.Checker(json.load(fh))
    sys.path.insert(0, str(ROOT / "src"))  # for the SNF oracle

    def log(msg):
        print(msg, file=sys.stderr, flush=True)

    ops = corpus.build(args.workload, args.seed)
    cold = args.workload != "session_warm"
    start = time.monotonic()
    deadline = start + RUN_BUDGET_S
    setup_s = None if args.trace else measure_setup()
    passes = max(1, int(args.seconds // NOMINAL_PASS_S[args.workload]))
    worker = Worker()
    try:
        if args.trace:
            plain = run_passes(worker, ops, 1, False, deadline, log, repeat=False)
            traced = run_passes(worker, ops, 1, True, deadline, log, repeat=False)
        else:
            plain = run_passes(worker, ops, passes, False, deadline, log)
            traced = []
    finally:
        worker.close()
    samples = plain + traced
    failed = check_all(plain, checker, cold) + check_all(traced, checker, cold)
    attempted = len(samples)
    if args.trace:
        def pass_time(s):
            return sum(r.get("elapsed", 0.0) for _, _, r in s)
        metrics = tracer.aggregate(
            [(r["trace"], r["speed"]) for _, _, r in traced if "trace" in r], 1)
        metrics["trace.pass_s"] = {"value": pass_time(traced), "unit": "s"}
        metrics["trace.overhead_ratio"] = {
            "value": pass_time(traced) / pass_time(plain) - 1.0, "unit": "ratio"}
        spans_dir = ROOT / ".bench_out"
        spans_dir.mkdir(exist_ok=True)
        with open(spans_dir / f"spans-{args.workload}-{args.seed}.json", "w") as fh:
            json.dump({op.id: r["trace"]["spans"] for _, op, r in traced if "trace" in r}, fh)
    else:
        e2e = end_to_end(plain, setup_s)
        e2e["ok_ratio"] = (attempted - failed) / attempted
        units = {"pass_s": "s", "op_p50_s": "s", "op_tail_s": "s", "setup_s": "s",
                 "peak_rss_mb": "MB", "ok_ratio": "ratio"}
        metrics = {k: {"value": v, "unit": units[k]} for k, v in e2e.items()}
    for name, m in metrics.items():
        print(f"# {name:<52} {m['value']:>14.6g} {m['unit']}")
    print(f"# wall {time.monotonic() - start:.1f} s")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
