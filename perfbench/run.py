"""nfoldsusy benchmark entry point.

    python3 perfbench/run.py --workload verify-all --seed 1 --seconds 38 --trace 0

Runs samples of one workload for ``--seconds`` seconds, one fresh
interpreter (``child.py``) at a time, and prints one JSON object as the
last line of standard output: end-to-end metrics with ``--trace 0``, as
medians in reference seconds (``speed.py``), and per-layer metrics from
wrapped calls with ``--trace 1``.  A result file
with the machine, the per-sample figures and the tracing overhead goes to
``perfbench/results/``.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"
SETUP_PROBES = 3
TIME_LIMIT_S = 170  # every child is stopped by then, leaving time to report
CLEARED_ENV = ("NFOLDSUSY_MAX_DERIV", "NFOLDSUSY_DERIV_BOUND")

sys.path.insert(0, str(BENCH))
import layers  # noqa: E402  (stdlib only; does not import nfoldsusy)


class BenchError(Exception):
    pass


def child_env(seed: int) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in CLEARED_ENV}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = str(seed % 2**32)
    return env


class Runner:
    """Starts samples one at a time and stops each by the run's deadline."""

    def __init__(self, workload: str, seed: int):
        self.workload, self.seed = workload, seed
        self.env = child_env(seed)
        self.hard_deadline = time.monotonic() + TIME_LIMIT_S

    def sample(self, workload: str, trace: bool, spans: Path | None = None) -> dict:
        cmd = [sys.executable, str(BENCH / "child.py"), workload, str(self.seed),
               "1" if trace else "0"]
        if spans is not None:
            cmd.append(str(spans))
        timeout = self.hard_deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError("out of time before the first sample finished")
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=self.env, capture_output=True,
                                  text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            raise BenchError(f"{workload} sample did not finish in time") from None
        if proc.returncode != 0:
            raise BenchError(f"{workload} sample exited {proc.returncode}:\n{proc.stderr}")
        try:
            result = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, ValueError):
            raise BenchError(f"{workload} sample printed no result:\n{proc.stderr}") from None
        package = Path(result["package"]).resolve()
        if SRC.resolve() not in package.parents:
            raise BenchError(f"nfoldsusy was imported from {package}, not from {SRC}")
        return result


def tail(values: list[float]) -> dict | None:
    """The highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 11:
        return None
    return {"percentile": 100.0 * (n - 10) / n, "value": sorted(values)[n - 11]}


def timing(values: list[float]) -> dict:
    return {"median": statistics.median(values), "tail": tail(values),
            "best": min(values), "max": max(values), "samples": len(values)}


def machine() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    sha = None
    if (ROOT / ".git").exists():  # a plain checkout has no history to name
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    src = hashlib.sha256()
    for path in sorted((SRC / "nfoldsusy").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            src.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "platform": platform.platform(),
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)),
        "python": sys.version,
        "git_sha": sha,
        "source_sha256": src.hexdigest(),
        "loadavg_start": os.getloadavg(),
    }


def run_samples(runner: Runner, seconds: int, trace: bool) -> tuple[list, list, list]:
    """Closed loop: the next child starts when the last one ends.  A set-up
    probe follows every sample, so set-up is timed across the whole run.
    With tracing, traced and untraced samples alternate so that the
    overhead is measured under the same conditions.  No sample starts
    when less than half of a typical one fits before the deadline, so a
    run ends near ``seconds`` on average."""
    traced: list[dict] = []
    plain: list[dict] = []
    setups = [runner.sample("setup", False) for _ in range(SETUP_PROBES)]
    spans = RESULTS / f"spans-{runner.workload}.json"
    durations: list[float] = []
    deadline = time.monotonic() + seconds
    while (not plain or (trace and not traced)) or (
            time.monotonic() + statistics.median(durations) / 2 < deadline):
        t0 = time.monotonic()
        if trace and len(traced) <= len(plain):
            traced.append(runner.sample(runner.workload, True, spans))
        else:
            plain.append(runner.sample(runner.workload, False))
        setups.append(runner.sample("setup", False))
        durations.append(time.monotonic() - t0)
    return traced, plain, setups


def per_op(samples: list[dict], key: str) -> dict[str, list[float]]:
    """Each operation's times over the samples."""
    times: dict[str, list[float]] = {}
    for s in samples:
        for label, t in zip(s["ops"], s[key]):
            times.setdefault(label, []).append(t)
    return times


def check_samples(samples: list[dict]) -> tuple[int, int, list[str]]:
    attempted = failed = 0
    problems = []
    for i, s in enumerate(samples):
        attempted += len(s["ops"])
        failed += len(s["failures"])
        for label, why in s["failures"].items():
            problems.append(f"sample {i}: {label}: {why}")
        if s["sample_error"]:
            problems.append(f"sample {i}: {s['sample_error']}")
    return attempted, failed, problems


def layer_metrics(workload: str, traced: list[dict]) -> tuple[dict, list[str]]:
    """Best (lowest) self times in wall-clock seconds, since traced samples
    run without the speed probe; counts must repeat exactly in every
    traced sample."""
    problems = []
    metrics = {}
    for spec in layers.metric_specs():
        name = spec["name"]
        values = [s["layers"][name] for s in traced]
        if name.endswith(".self_s"):
            value = min(values)
        else:
            value = values[0]
            if any(v != value for v in values):
                problems.append(f"{name} differs between samples: {values}")
        metrics[name] = {"value": value, "unit": spec["unit"]}
    for name in layers.DOMINATED[workload]:
        if metrics[f"{name}.calls"]["value"] == 0:
            problems.append(f"{name} recorded no calls on {workload}")
    return metrics, problems


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=tuple(layers.DOMINATED), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "nfoldsusy" / "__init__.py").is_file():
        print(f"no nfoldsusy sources under {SRC}", file=sys.stderr)
        return 2
    # On SIGTERM, unwind through subprocess.run, which kills and reaps the child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    RESULTS.mkdir(exist_ok=True)
    meta = machine()
    runner = Runner(args.workload, args.seed)
    try:
        runner.sample("setup", False)  # byte-compiles and warms the file cache
        traced, plain, setups = run_samples(runner, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    samples = traced + plain
    attempted, failed, problems = check_samples(samples)
    setups += plain  # traced set-up includes wrapping
    ref_ops = per_op(plain, "op_ref_s")
    ref_medians = {label: statistics.median(ts) for label, ts in ref_ops.items()}
    # Wall-clock work time of untraced samples, with the probe's own time taken out.
    work = [s["wall_s"] - s["probe"]["probe_s"] for s in plain]
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": meta,
        "loop": "closed, one sample (a fresh interpreter) at a time",
        "setup_ref_s": timing([s["setup_ref_s"] for s in setups]),
        "setup_s": timing([s["setup_s"] for s in setups]),
        "wall_ref_s": sum(ref_medians.values()),
        "op_max_ref_s": max(ref_medians.values()),
        "sample_wall_ref_s": timing([sum(s["op_ref_s"]) for s in plain]),
        "op_ref_s": {label: timing(ts) for label, ts in ref_ops.items()},
        "wall_s": timing(work),
        "op_s": {label: timing(ts) for label, ts in per_op(plain, "op_s").items()},
        "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in plain),
        "attempted": attempted, "failed": failed, "problems": problems,
        "samples": [
            {k: s[k] for k in ("setup_s", "wall_s", "peak_rss_mb", "op_s")}
            | {k: s[k] for k in ("setup_ref_s", "op_ref_s", "probe") if k in s}
            | {"traced": i < len(traced)}
            for i, s in enumerate(samples)
        ],
    }
    if args.trace:
        metrics, layer_problems = layer_metrics(args.workload, traced)
        problems += layer_problems
        record["traced_wall_s"] = timing([s["wall_s"] for s in traced])
        record["tracing_overhead_s"] = (record["traced_wall_s"]["median"]
                                        - record["wall_s"]["median"])
        record["layers"] = metrics
    else:
        metrics = {
            "wall_s": {"value": record["wall_ref_s"], "unit": "s"},
            "op_max_s": {"value": record["op_max_ref_s"], "unit": "s"},
            "setup_s": {"value": record["setup_ref_s"]["median"], "unit": "s"},
            "peak_rss_mb": {"value": record["peak_rss_mb"], "unit": "MB"},
        }
    correct = failed == 0 and not problems
    record["correct"] = correct
    out = RESULTS / f"{args.workload}-trace{args.trace}-seed{args.seed}.json"
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    for line in problems:
        print(line, file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
