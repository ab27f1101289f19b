#!/usr/bin/env python3
"""lapbounds benchmark: CLI commands in a closed loop, checked and timed.

Usage (from the repository root):
    python3 perfbench/run.py --workload report-dense --seed 1 --seconds 45 --trace 0

One client sends one CLI command at a time to a fresh child interpreter
(perfbench/worker.py), which runs ``lapbounds.cli.main(argv)`` in-process
with ``src/`` on its path; nothing is installed. The parent generates the
inputs from --seed and checks every output against numpy and scipy.sparse
before the command's time counts. One untimed command of each graph size
warms the child up; then whole cycles of the workload's commands repeat
until the commands have used --seconds. Latency is over the workload's reference graph size;
throughput is over every size. The last stdout line is the result JSON; the
line before it holds the run's environment and details.

--trace 0 reports the end-to-end metrics. --trace 1 reports per-layer self
times and counts: it repeats the workload's first cycle, alternating passes
without and with spans around each module's public functions, and reports
the median traced pass and the tracing overhead (traced / untraced wall).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_PROBES = 10  # import-only interpreters; the worker's import is one more sample
RUN_LIMIT_S = 170.0  # a run must end within 180 s
TAIL_BEYOND = 10  # the tail percentile keeps at least this many samples above it


class Worker:
    """The child interpreter that runs CLI commands; one request at a time."""

    def __init__(self, root: str, env: dict, deadline: float):
        self.deadline = deadline
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "worker.py"), root],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            cwd=root,
            env=env,
            text=True,
        )

    def read(self) -> dict:
        """The worker's next JSON line; raises if it does not come before the deadline."""
        wait = self.deadline - time.monotonic()
        ready, _, _ = select.select([self.proc.stdout], [], [], max(wait, 0.0))
        if not ready:
            raise TimeoutError("worker did not answer before the run deadline")
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"worker exited with code {self.proc.wait()}")
        return json.loads(line)

    def run(self, argv: list[str], trace: bool = False, spans: bool = False) -> dict:
        self.proc.stdin.write(json.dumps({"argv": argv, "trace": trace, "spans": spans}) + "\n")
        self.proc.stdin.flush()
        return self.read()

    def close(self) -> dict:
        self.proc.stdin.close()
        final = self.read()
        self.proc.wait(timeout=max(self.deadline - time.monotonic(), 1.0))
        return final

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


def probe_import(root: str, env: dict) -> float:
    """Seconds to import lapbounds.cli in a fresh interpreter."""
    res = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), root, "--probe"],
        cwd=root,
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    return json.loads(res.stdout.splitlines()[-1])["import_s"]


def git_commit(root: str) -> str:
    """HEAD of the checkout, read from .git without leaving it; 'unknown' if absent."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return "unknown"


class Runner:
    """Sends commands to the worker, checks each output, and keeps the tallies."""

    def __init__(self, workload, worker: Worker):
        self.workload = workload
        self.worker = worker
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []
        self.first_good: tuple | None = None  # (command, output) that passed, for the negative control

    def run(self, cmd, trace: bool = False, spans: bool = False) -> tuple[dict, bool]:
        resp = self.worker.run(cmd.argv, trace, spans)
        self.attempted += 1
        reason = self.check(cmd, resp["rc"], resp["out"])
        if reason is None and self.first_good is None:
            self.first_good = (cmd, resp["out"])
        if reason is not None:
            self.failed += 1
            if len(self.reasons) < 5:
                self.reasons.append(f"{' '.join(cmd.argv[:1] + cmd.argv[-2:])}: {reason} {resp['err'][-300:]}".strip())
        return resp, reason is None

    def check(self, cmd, rc, out: str) -> str | None:
        try:
            return self.workload.check(cmd, rc, out)
        except (KeyError, TypeError, IndexError, ValueError, AttributeError) as exc:
            return f"malformed output: {type(exc).__name__}: {exc}"

    def negative_control(self) -> dict:
        """Check a perturbed copy of an output that passed: it must be counted as failed."""
        if self.first_good is None:
            return {"attempted": 0, "failed": 0, "flagged": None}
        cmd, out = self.first_good
        failed = self.check(cmd, 0, self.workload.perturb(out)) is not None
        return {"attempted": 1, "failed": int(failed), "flagged": failed}


def end_to_end(workload, timed: list[tuple], setup: list[float], maxrss_kb: int):
    """End-to-end metrics from (command, response, ok) triples."""
    # latency counts the reference-size commands that passed their check; if
    # none did, the run is incorrect anyway and every reference-size command is
    # used so that the numbers stay defined
    ref = [(resp["seconds"], good) for cmd, resp, good in timed if cmd.n == workload.reference_n]
    times = sorted(t for t, good in ref if good) or sorted(t for t, good in ref)
    busy = sum(resp["seconds"] for cmd, resp, good in timed)
    graphs = sum(good for cmd, resp, good in timed)
    rank = max(len(times) - 1 - TAIL_BEYOND, 0)
    details = {
        "latency_n": workload.reference_n,
        "samples": len(times),
        "tail_percentile": round(100.0 * rank / max(len(times) - 1, 1), 2),
        "tail_samples_beyond": len(times) - 1 - rank,
    }
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "cmd_p50_s": (statistics.median(times), "s"),
        "cmd_tail_s": (times[rank], "s"),
        "graphs_per_s": (graphs / busy if busy else 0.0, "1/s"),
        "peak_rss_mb": (maxrss_kb / 1024.0, "MB"),
    }
    details["setup_samples"] = setup
    return metrics, details


def layer_metrics(passes: list[list[dict]], untraced_walls: list[float], traced_walls: list[float]):
    """Per-layer metrics: median traced pass for times, first traced pass for counts."""
    import tracing

    totals = []
    for pass_layers in passes:
        tot: dict[str, float] = {}
        for layers in pass_layers:
            for k, v in layers.items():
                tot[k] = max(tot.get(k, 0.0), v) if k == "kernels.max_off_ratio" else tot.get(k, 0.0) + v
        totals.append(tot)
    first = totals[0]
    metrics = {m: (statistics.median(t[m] for t in totals), "s") for m in tracing.TIME_METRICS}
    solves, stats = first["kernels.solves"], first["trace_bounds.stats_calls"]
    metrics.update(
        {
            "kernels.sweeps_total": (first["kernels.sweeps_total"], "count"),
            "kernels.sweeps_per_solve": (first["kernels.sweeps_total"] / solves if solves else 0.0, "sweeps/solve"),
            "kernels.rotations": (first["kernels.rotations"], "count"),
            "kernels.max_off_ratio": (first["kernels.max_off_ratio"], "ratio"),
            "eig.solve_calls": (first["eig.solve_calls"], "count"),
            "trace_bounds.stats_calls": (stats, "count"),
            "trace_bounds.stats_useful_ratio": (first["trace_bounds.stats_distinct"] / stats if stats else 0.0, "ratio"),
            "matrices.closed_trace_calls": (first["matrices.closed_trace_calls"], "count"),
            "matrices.power_trace_gflop": (first["matrices.power_trace_gflop"], "GFLOP"),
            "trace.overhead_ratio": (statistics.median(traced_walls) / statistics.median(untraced_walls), "ratio"),
        }
    )
    return metrics


def measure(args, root: str, env: dict, workdir: str):
    import numpy as np

    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    rng = np.random.default_rng(args.seed)
    deadline = time.monotonic() + RUN_LIMIT_S
    setup = [] if args.trace else [probe_import(root, env) for _ in range(SETUP_PROBES)]
    worker = Worker(root, env, deadline)
    try:
        hello = worker.read()
        runner = Runner(workload, worker)
        setup.append(hello["import_s"])
        details = {"numba_importable": hello["numba"]}
        first_cycle = workload.cycle(rng, workdir)
        warm = {cmd.n: cmd for cmd in first_cycle}
        for cmd in warm.values():  # warm-up, one command per size: checked and counted, not timed
            runner.run(cmd)
        if not args.trace:
            timed, busy, cycle = [], 0.0, first_cycle
            while True:
                for cmd in cycle:
                    resp, good = runner.run(cmd)
                    timed.append((cmd, resp, good))
                    busy += resp["seconds"]
                if busy >= args.seconds:
                    break
                cycle = workload.cycle(rng, workdir)
            control = runner.negative_control()
            metrics, more = end_to_end(workload, timed, setup, worker.close()["maxrss_kb"])
            details.update(more)
        else:
            passes, untraced, traced, spans = [], [], [], None
            while not traced or sum(untraced) + sum(traced) < args.seconds:
                untraced.append(sum(runner.run(cmd)[0]["seconds"] for cmd in first_cycle))
                resps = [runner.run(cmd, trace=True, spans=spans is None)[0] for cmd in first_cycle]
                if spans is None:
                    spans = [r.get("spans", []) for r in resps]
                traced.append(sum(r["seconds"] for r in resps))
                passes.append([r["layers"] for r in resps])
                details["missing_trace_sites"] = resps[0]["missing_sites"]
            control = runner.negative_control()
            metrics = layer_metrics(passes, untraced, traced)
            details.update({"passes": len(passes), "untraced_pass_s": untraced, "traced_pass_s": traced})
            worker.close()
            os.makedirs(os.path.join(root, ".bench_out"), exist_ok=True)
            with open(os.path.join(root, ".bench_out", f"spans-{workload.name}.json"), "w") as fh:
                json.dump({"commands": [c.argv[:1] + c.argv[-2:] for c in first_cycle], "spans": spans}, fh)
    finally:
        worker.kill()
    return runner, control, metrics, details


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "lapbounds", "cli.py")):
        print("error: run from the lapbounds repository root (src/lapbounds/cli.py not found)", file=sys.stderr)
        return 2
    # one driving process; BLAS threads capped at the core count (and at 2)
    nproc = len(os.sched_getaffinity(0))
    blas_threads = str(min(nproc, 2))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = blas_threads
    env = dict(os.environ, PYTHONHASHSEED="0")

    sys.path.insert(0, HERE)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workdir = os.path.join(root, ".bench_out", f"inputs-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        runner, control, metrics, details = measure(args, root, env, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    import numpy as np

    info = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": nproc,
        "blas_threads": int(blas_threads),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": git_commit(root),
        "negative_control": control,
        "failures": runner.reasons,
        **details,
    }
    print(json.dumps({"info": info}))
    correct = runner.failed == 0 and control["flagged"] is not False
    result = {
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
