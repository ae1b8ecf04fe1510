#!/usr/bin/env python3
"""Benchmark of the pointersim command line, end to end and per layer.

Usage, from the root of a checkout:

    python3 bench/run.py --workload thermal_sweep --seed 1 --seconds 30 --trace 0

One client sends one request at a time (a closed loop) through
``pointersim.cli.main`` in this process, with the package imported from
``src/`` of the checkout.  Requests come from a seeded stream of generated
configs, fresh on every pass over the workload's cost slots (see
``workloads.py``); the loop starts requests until ``--seconds`` have
passed.  Every output is checked (see ``checks.py``).

``--trace 0`` measures the end-to-end metrics with no instrumentation.
``--trace 1`` alternates untraced and traced executions of the same
requests: spans from the traced ones give the per-layer metrics, and the
time ratio of the two gives ``trace_overhead_frac``.

Human-readable lines come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Without ``src/pointersim`` next to this directory the run exits with 2
before printing any result.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import checks
import metrics
import workloads
from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
REFERENCE = Path(__file__).resolve().parent / "reference.json"

#: the seed whose outputs are compared against reference.json
DEFAULT_SEED = 0
#: fresh interpreters timed per run for setup_s
SETUP_SAMPLES = 5

_IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, {src!r}); t = time.perf_counter(); "
    "import pointersim.cli; print(time.perf_counter() - t)"
)


class ProgramMissing(RuntimeError):
    """The checkout holds no pointersim sources to benchmark."""


def import_cli(src: Path = SRC):
    """Import pointersim.cli from ``src`` and nowhere else."""
    if not (src / "pointersim" / "cli.py").is_file():
        raise ProgramMissing(f"no pointersim sources under {src}")
    sys.path.insert(0, str(src))
    import pointersim.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(src.resolve()):
        raise ProgramMissing(f"pointersim was imported from {cli.__file__}, not {src}")
    return cli


def measure_setup(samples: int = SETUP_SAMPLES) -> list[float]:
    """Wall time of ``import pointersim.cli`` in each of ``samples`` fresh interpreters."""
    code = _IMPORT_PROBE.format(src=str(SRC))
    times = []
    for _ in range(samples):
        proc = subprocess.run(
            [sys.executable, "-I", "-c", code],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=False,
        )
        if proc.returncode != 0:
            raise ProgramMissing(f"import pointersim.cli failed:\n{proc.stderr}")
        times.append(float(proc.stdout.split()[-1]))
    return times


class Tally:
    """Request outcomes of one run: timings, rows delivered and failures."""

    def __init__(self):
        self.seconds: list[float] = []
        self.cpu_seconds: list[float] = []
        self.indices: list[int] = []
        self.attempted = 0
        self.failed = 0
        self.rows = 0
        self.failures: list[dict] = []

    def record(self, req: workloads.Request, seconds: float, exit_code, problems: list[str],
               cpu_seconds: float = float("nan")):
        self.attempted += 1
        self.seconds.append(seconds)
        self.cpu_seconds.append(cpu_seconds)
        self.indices.append(req.index)
        if problems:
            self.failed += 1
            self.failures.append({
                "request": req.index, "command": req.command, "mode": req.mode,
                "config": req.config, "exit_code": exit_code, "problems": problems,
            })
        else:
            self.rows += req.rows


def error_rate(*tallies: Tally) -> float:
    """Failed requests over attempted requests, across ``tallies``."""
    return sum(t.failed for t in tallies) / sum(t.attempted for t in tallies)


class Runner:
    """Executes requests through ``cli.main`` and checks each output.

    ``main`` is looked up on every request, so a tracer's patch of it applies.
    """

    def __init__(self, cli, workdir: Path, reference: dict | None = None):
        self.cli = cli
        self.workdir = workdir
        self.reference = reference or {}
        self.out_path = workdir / "out.csv"

    def config_path(self, req: workloads.Request) -> Path:
        return self.workdir / f"config_{req.index}.json"

    def execute(self, req: workloads.Request, tally: Tally) -> None:
        """Write the request's config, run it, check its output and record it in ``tally``."""
        self.workdir.mkdir(parents=True, exist_ok=True)
        config = self.config_path(req)
        if req.config is not None:
            config.write_text(json.dumps(req.config, indent=1))
        with contextlib.suppress(FileNotFoundError):
            self.out_path.unlink()
        argv = req.argv(str(config), str(self.out_path))
        stderr = io.StringIO()
        cpu_start = time.process_time()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stderr(stderr):
                exit_code = self.cli.main(argv)
        except SystemExit as exc:
            exit_code = exc.code
        except Exception:  # a crashing request is a failed request, not a failed run
            exit_code = "exception"
            print(traceback.format_exc(), file=stderr)
        seconds = time.perf_counter() - start
        cpu_seconds = time.process_time() - cpu_start
        problems = checks.check_output(req, exit_code, self.out_path)
        expected = self.reference.get(str(req.index))
        if not problems and expected is not None:
            problems = checks.compare_reference(
                checks.reference_values(req, self.out_path), expected
            )
        if problems and stderr.getvalue().strip():
            problems.append("stderr: " + stderr.getvalue().strip()[-1000:])
        tally.record(req, seconds, exit_code, problems, cpu_seconds)


def load_reference(workload: str, seed: int) -> dict:
    if seed != DEFAULT_SEED:
        return {}
    data = json.loads(REFERENCE.read_text())
    return data["workloads"].get(workload, {})


def run_plain(runner: Runner, requests, seconds: float) -> Tally:
    tally = Tally()
    deadline = time.perf_counter() + seconds
    for req in requests:
        runner.execute(req, tally)
        if time.perf_counter() >= deadline:
            return tally


def run_traced(runner: Runner, requests, seconds: float, tracer: Tracer):
    """Alternate untraced and traced runs of each request; which goes first alternates too."""
    plain, traced = Tally(), Tally()
    deadline = time.perf_counter() + seconds
    for i, req in enumerate(requests):
        for with_trace in ((False, True) if i % 2 == 0 else (True, False)):
            if not with_trace:
                runner.execute(req, plain)
                continue
            tracer.current_request = i
            tracer.install()
            try:
                runner.execute(req, traced)
            finally:
                tracer.uninstall()
        if time.perf_counter() >= deadline:
            return plain, traced


def _getconf_caches() -> dict:
    try:
        proc = subprocess.run(["getconf", "-a"], capture_output=True, text=True, timeout=10, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return {}
    caches = {}
    for line in proc.stdout.splitlines():
        parts = line.split()
        if len(parts) == 2 and parts[0].endswith("CACHE_SIZE") and parts[1].isdigit():
            caches[parts[0]] = int(parts[1])
    return caches


def steal_ticks() -> int | None:
    """Clock ticks the hypervisor took from this guest's CPUs (``steal`` in /proc/stat)."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
    except OSError:
        return None
    return int(fields[8]) if fields[0] == "cpu" and len(fields) > 8 else None


def _commit() -> str | None:
    """HEAD of the checkout when it is a git work tree (never of a parent)."""
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def machine_record() -> dict:
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    digest = hashlib.sha256()
    for path in sorted((SRC / "pointersim").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "caches": _getconf_caches(),
        "commit": _commit(),
        "src_sha256": digest.hexdigest(),
    }


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(tally: Tally, setup: list[float]) -> dict:
    total = sum(tally.seconds)
    return {
        "setup_s": _metric(statistics.median(setup), "s"),
        "request_s_p50": _metric(statistics.median(tally.seconds), "s"),
        "rows_per_s": _metric(tally.rows / total, "1/s"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        cli = import_cli()
        setup = [] if args.trace else measure_setup()
    except ProgramMissing as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2

    requests = workloads.stream(args.workload, args.seed)
    runner = Runner(cli, WORK / args.workload, load_reference(args.workload, args.seed))

    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "clients": 1, "loop": "closed",
        "cycle_requests": workloads.cycle_length(args.workload), "machine": machine_record(),
    }
    steal_start = steal_ticks()
    if args.trace:
        tracer = Tracer()
        plain, tally = run_traced(runner, requests, args.seconds, tracer)
        layer = metrics.layer_metrics(tracer, tally.attempted, tally.rows)
        layer["trace_overhead_frac"] = _metric(sum(tally.seconds) / sum(plain.seconds) - 1.0, "ratio")
        tracer.write(runner.workdir / "spans.tsv")
        report["self_time_share"] = metrics.self_time_shares(tracer)
        report["missing_spans"] = sorted(tracer.missing)
        result_metrics = layer
        tallies = (plain, tally)
    else:
        tally = run_plain(runner, requests, args.seconds)
        result_metrics = end_to_end(tally, setup)
        report["setup_samples"] = setup
        tallies = (tally,)

    steal_end = steal_ticks()
    report["machine"]["steal_ticks_during_run"] = (
        None if steal_start is None or steal_end is None else steal_end - steal_start)
    attempted = sum(t.attempted for t in tallies)
    failed = sum(t.failed for t in tallies)
    report.update({
        "requests": tally.attempted,
        "rows": tally.rows,
        "request_s": [[i, s, c] for i, s, c in zip(tally.indices, tally.seconds, tally.cpu_seconds)],
        "request_cpu_s_p50": statistics.median(tally.cpu_seconds),
        "request_s_tail": metrics.tail(tally.seconds),
        "error_rate": _metric(error_rate(*tallies), "ratio"),
        "failures": [f for t in tallies for f in t.failures],
    })
    for name, m in result_metrics.items():
        print(f"{args.workload} {name} = {m['value']} {m['unit']}")
    print(f"{args.workload} samples = {len(tally.seconds)} requests, {tally.rows} rows")
    print(f"{args.workload} request_cpu_s_p50 = {report['request_cpu_s_p50']} s (process CPU time; "
          f"{report['machine']['steal_ticks_during_run']} steal ticks during the run)")
    tail = report["request_s_tail"]
    print(f"{args.workload} request_s_tail = "
          + (f"{tail['value']} s at p{tail['percentile']:g} of {tail['samples']}" if tail
             else f"omitted ({len(tally.seconds)} requests)"))
    print(f"{args.workload} error_rate = {failed}/{attempted}")
    for f in report["failures"]:
        print(f"FAILED {args.workload} request {f['request']}: exit {f['exit_code']}: "
              f"{'; '.join(f['problems'])} config={json.dumps(f['config'])} mode={f['mode']}")
    print("report " + json.dumps(report, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": result_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
