"""Benchmark of the `swq` command line.

    python3 swqbench/run.py --workload suite-all --seed 1 --seconds 55 --trace 0

Run from the root of a checkout.  Each repetition runs the workload's
`swq` invocations (workloads.json) as fresh processes, one after the
other, so every repetition pays interpreter start, imports and cold
lru_caches, as every user does.  The program is imported from src/ of
the checkout; nothing needs installing.  Repetitions continue while
one more is expected to end within --seconds (at least one runs), and
every report is checked (checks.py).

--trace 0 reports the end-to-end metrics (medians over repetitions):
  wall_s       wall time of one repetition
  setup_s      wall time of a fresh `swq --help` (one before each
               repetition and one after the last, spread over the run
               to steady their median)
  cpu_s        user + sys time of all processes of one repetition,
               pool workers included
  peak_rss_mb  largest resident set of any process in the run

--trace 1 alternates untraced repetitions with traced ones, in which
each invocation runs under tracer.py with SWQ_WORKERS=1, and reports
the per-layer metrics of tracer.PER_LAYER (medians over traced
repetitions) together with wrong_check_share.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; lines above it name every metric with
its unit, the sample counts and the environment.  Spans and the full
result are written under .swqbench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from checks import CheckResult, check_invocation  # noqa: E402
from tracer import MODULES, PER_LAYER, layer_metrics, read_trace  # noqa: E402

SWQ = "import sys; from swqseries.cli import main; sys.exit(main())"
# Every invocation must end before this many seconds after start, so the
# whole run stays under three minutes.
HARD_LIMIT_S = 170.0
END_TO_END = {"wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}


class Workload:
    """One named workload at one size ("full" or "smoke")."""

    def __init__(self, name: str, size: str = "full"):
        spec = json.loads((HERE / "workloads.json").read_text())[name]
        pinned = json.loads((HERE / "expected_checks.json").read_text())[name]
        self.name = name
        self.workers = spec["workers"]
        self.templates = spec["invocations" if size == "full" else "smoke"]
        self.expected = pinned[size]

    def invocations(self, taus: list[str]) -> list[list[str]]:
        out = []
        for template in self.templates:
            argv = []
            for arg in template:
                argv.extend(taus if arg == "{taus}" else [arg])
            out.append(argv)
        return out


def seeded_taus(seed: int, count: int = 3) -> list[str]:
    """count distinct points with re in [-0.5, 0.5] and im in
    [0.8, 1.25], as "(x+yj)" strings: complex() accepts them, and the
    parentheses keep argparse from reading a leading minus as a flag."""
    rng = random.Random(seed)
    taus: list[str] = []
    while len(taus) < count:
        text = f"({rng.uniform(-0.5, 0.5):.6f}{rng.uniform(0.8, 1.25):+.6f}j)"
        if text not in taus:
            taus.append(text)
    return taus


class Runner:
    """Starts `swq` processes from one checkout and measures them."""

    def __init__(self, root: Path, workers: int, started: float):
        self.root = root
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"), SWQ_WORKERS=str(workers))
        self.traced_env = dict(self.env, SWQ_WORKERS="1")
        self.started = started

    def spawn(self, cmd: list[str], env: dict) -> dict:
        """Run one process to completion; return its wall and CPU time,
        stdout and exit code (None on timeout).  Its process group is
        killed on timeout, so pool workers end with it."""
        timeout = max(1.0, HARD_LIMIT_S - (time.perf_counter() - self.started))
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            cmd, cwd=self.root, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, start_new_session=True,
        )
        try:
            stdout, stderr = proc.communicate(timeout=timeout)
            code = proc.returncode
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            stdout, stderr = proc.communicate()
            code = None
        wall = time.perf_counter() - t0
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
        return {"wall": wall, "cpu": cpu, "stdout": stdout, "stderr": stderr, "code": code}

    def swq(self, argv: list[str]) -> dict:
        return self.spawn([sys.executable, "-c", SWQ, *argv], self.env)

    def traced_swq(self, argv: list[str], out: Path) -> dict:
        cmd = [sys.executable, str(HERE / "tracer.py"), "--out", str(out), "--", *argv]
        return self.spawn(cmd, self.traced_env)


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def environment(seed: int, workers: int) -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=HERE, capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    affinity = sorted(os.sched_getaffinity(0))
    return {
        "nproc": len(affinity),
        "cpu_count": os.cpu_count(),
        "affinity": affinity,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "commit": commit,
        "seed": seed,
        "swq_workers": workers,
    }


def measure(workload: Workload, seed: int, seconds: float, trace: bool, root: Path) -> dict:
    """Run one benchmark run; return the result object (the last output
    line) plus the details printed above it."""
    started = time.perf_counter()
    deadline = started + seconds
    nproc = len(os.sched_getaffinity(0))
    workers = min(workload.workers, nproc)
    runner = Runner(root, workers, started)
    taus = seeded_taus(seed)
    argvs = workload.invocations(taus)
    out_dir = root / ".swqbench_out"
    out_dir.mkdir(exist_ok=True)

    checks = CheckResult()
    problems: list[str] = []

    def run_rep(traced: bool) -> tuple[float, float, list[dict]]:
        wall = cpu = 0.0
        traces = []
        for i, argv in enumerate(argvs):
            if traced:
                span_file = out_dir / f"spans-{workload.name}-seed{seed}-{i}.jsonl"
                span_file.unlink(missing_ok=True)
                res = runner.traced_swq(argv, span_file)
            else:
                res = runner.swq(argv)
            wall += res["wall"]
            cpu += res["cpu"]
            checks.add(check_invocation(res["stdout"], res["code"], workload.expected[i]))
            if res["code"] not in (0, 1):
                problems.append(f"swq {' '.join(argv)}: {res['stderr'].strip()[-300:]}")
            if traced and res["code"] in (0, 1):
                traces.append(read_trace(span_file))
        return wall, cpu, traces

    setup = []

    def run_setup() -> None:
        res = runner.swq(["--help"])
        setup.append(res["wall"])
        if res["code"] != 0:
            checks.failed += 1
            problems.append(f"swq --help exit code {res['code']}")

    # Start another repetition only if one more is expected to end
    # before the deadline; the first always runs.
    walls, cpus, traced_walls, layers, rounds = [], [], [], [], []
    while True:
        t0 = time.perf_counter()
        run_setup()
        wall, cpu, _ = run_rep(traced=False)
        walls.append(wall)
        cpus.append(cpu)
        if trace:
            wall, _, traces = run_rep(traced=True)
            if len(traces) == len(argvs):
                traced_walls.append(wall)
                layers.append(layer_metrics(traces, wall))
        rounds.append(time.perf_counter() - t0)
        if time.perf_counter() + median(rounds) > deadline:
            break

    run_setup()
    problems.extend(checks.problems)
    wrong_share = checks.wrong / checks.attempted
    if trace:
        metrics = {
            name: median([lm[name] for lm in layers])
            for name in PER_LAYER
            if name not in ("trace.overhead_ratio", "wrong_check_share")
        }
        metrics["trace.overhead_ratio"] = median(traced_walls) / median(walls)
        metrics["wrong_check_share"] = wrong_share
        units = PER_LAYER
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        metrics = {
            "wall_s": median(walls),
            "setup_s": median(setup),
            "cpu_s": median(cpus),
            "peak_rss_mb": peak_kb / 1024.0,
        }
        units = END_TO_END
    result = {
        "correct": checks.failed == 0 and (not trace or bool(layers)),
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    details = {
        "workload": workload.name,
        "trace": trace,
        "taus": taus,
        "invocations": argvs,
        "env": environment(seed, workers),
        "samples": {"reps": len(walls), "traced_reps": len(traced_walls), "setup": len(setup)},
        "walls": walls,
        "cpus": cpus,
        "setup": setup,
        "traced_walls": traced_walls,
        "wrong_checks": checks.wrong,
        "problems": problems,
    }
    (out_dir / f"result-{workload.name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps({"result": result, **details}, indent=1) + "\n"
    )
    return {"result": result, **details}


def print_summary(run: dict) -> None:
    result = run["result"]
    print(f"workload {run['workload']}  taus {' '.join(run['taus'])}")
    print(f"env {json.dumps(run['env'])}")
    samples = run["samples"]
    print(
        f"samples: {samples['reps']} untraced repetitions, {samples['traced_reps']} traced, "
        f"{samples['setup']} set-ups; values below are medians"
    )
    for name, m in result["metrics"].items():
        print(f"  {name:34s} {m['value']:>14.6g} {m['unit']}")
    if run["trace"]:
        self_s = {module: result["metrics"][f"{module}.self_s"]["value"] for module in MODULES}
        total = sum(self_s.values())
        shares = "  ".join(f"{module} {t / total:.1%}" for module, t in self_s.items() if total > 0)
        print(f"  self-time shares of all module self time ({total:.3f} s): {shares}")
    else:
        for name, values in (("wall_s", run["walls"]), ("cpu_s", run["cpus"]), ("setup_s", run["setup"])):
            print(f"  {name} min {min(values):.4f}  max {max(values):.4f}  n {len(values)}")
    print(
        f"  wrong_check_share {run['wrong_checks']}/{result['attempted']} "
        f"(failed, beyond known defects: {result['failed']})"
    )
    for problem in run["problems"][:20]:
        print(f"  problem: {problem}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    names = list(json.loads((HERE / "workloads.json").read_text()))
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "swqseries" / "cli.py").is_file():
        print(f"error: {root} holds no src/swqseries; run from the root of a checkout", file=sys.stderr)
        return 2
    run = measure(Workload(ns.workload), ns.seed, ns.seconds, bool(ns.trace), root)
    print_summary(run)
    print(json.dumps(run["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
