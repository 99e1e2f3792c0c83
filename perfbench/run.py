"""spintomo benchmark: seeded `spintomo tomograph` workloads timed from outside.

Run from the repository root:

    python3 perfbench/run.py --workload tomo-4q-cold --seed 1 --seconds 20 --trace 0

Workloads (why each exists is recorded in BENCHMARK.json):

* ``tomo-4q-cold``  the shipped 4-qubit register with a seeded jitter per op,
  each op in a fresh output directory, so every op builds and caches the
  design matrix.
* ``tomo-4q-warm``  the shipped register unchanged; all ops share one output
  directory whose design cache an untimed warm-up op fills.
* ``tomo-3q-noisy`` a seeded 3-qubit register with measurement noise and the
  realistic gradient.

An op is one ``python -m spintomo.cli tomograph --config C --out D`` child
process (the ``spintomo`` console script) with the CLI defaults, run one at a
time from this process (closed loop, one client), for ``--seconds`` seconds.
The program sees only the generated configs.  An op fails when it exits with
a code other than 0, writes no readable ``result.json``, or returns
coefficients further from the generated ones than the workload's tolerance;
the error is computed here, never taken from the program's own scores.

``--trace 0`` prints the end-to-end metrics: per-op medians of wall time
(``tomograph_s``), child peak RSS from ``wait4`` (``peak_rss_mb``) and bytes
the op created or replaced in its output directory (``output_mb``), plus the
median time a fresh interpreter takes to import ``spintomo.cli``, run
``parse_config`` and ``resolve_params`` on the workload's config and exit
(``setup_s``).  ``--trace 1`` alternates untraced ops with ops run under
``perfbench/tracer.py`` and prints the per-layer metrics, medians over the
traced ops.  MB is 2**20 bytes.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
are for people.  Scratch files live in ``.perfbench-work/`` at the root and
are removed at exit, except the spans of traced runs, written to
``.perfbench-work/spans/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import workloads
from tracer import summarize

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
MB = float(2 ** 20)

SETUP_PROBES = 9
SETUP_CODE = ("import sys\n"
              "from spintomo.cli import parse_config, resolve_params\n"
              "resolve_params(parse_config(sys.argv[1]))\n")

OUTPUT_KINDS = ("signal_csv", "spectrum_csv", "cross_sections", "cache", "other")


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


@dataclass
class Op:
    index: int
    traced: bool
    timed: bool
    wall_s: float
    rss_mb: float
    cpu_s: float
    written: dict
    failure: str | None
    coef_err: float | None
    condition_number: float | None = None
    design_mb: float | None = None
    trace: dict = field(default_factory=dict)

    @property
    def output_mb(self) -> float:
        return sum(self.written.values()) / MB


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def spawn(argv, log_path: Path):
    """Run one child to completion: (wall seconds, exit code, rusage)."""
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen([str(a) for a in argv], env=child_env(), cwd=ROOT,
                                stdin=subprocess.DEVNULL, stdout=log,
                                stderr=subprocess.STDOUT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    # Recorded so that Popen does not try to reap the child a second time.
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage


# ---------------------------------------------------------------------------
# Output accounting and the correctness gate


def snapshot(directory: Path) -> dict:
    """{relative path: identity and size} of every file under ``directory``."""
    out = {}
    for dirpath, _, files in os.walk(directory):
        for name in files:
            path = os.path.join(dirpath, name)
            st = os.stat(path)
            out[os.path.relpath(path, directory)] = (
                st.st_ino, st.st_mtime_ns, st.st_ctime_ns, st.st_size)
    return out


def output_kind(relpath: str) -> str:
    parts = Path(relpath).parts
    name = parts[-1]
    if parts[0] == "cache":
        return "cache"
    if name.startswith("cross_section"):
        return "cross_sections"
    if name.endswith(".csv") and name.startswith("signal_"):
        return "signal_csv"
    if name.endswith(".csv") and name.startswith("spectrum_"):
        return "spectrum_csv"
    return "other"


def written_bytes(before: dict, after: dict) -> dict:
    """Bytes per output kind in files created or replaced between two snapshots."""
    out = dict.fromkeys(OUTPUT_KINDS, 0)
    for relpath, signature in after.items():
        if before.get(relpath) != signature:
            out[output_kind(relpath)] += signature[-1]
    return out


def coefficient_error(result_path: Path, generated: dict) -> float:
    """Largest |fitted - generated| over every label either side names."""
    payload = json.loads(result_path.read_text())
    fitted = {"".join(str(label).split()): float(value)
              for label, value in payload["coefficients"]}
    errors = [abs(fitted.get(label, 0.0) - generated.get(label, 0.0))
              for label in set(fitted) | set(generated)]
    if not all(math.isfinite(e) for e in errors):
        raise ValueError("non-finite coefficient")
    return max(errors)


def judge(returncode: int, out_dir: Path, generated: dict, tol: float):
    """(failure reason or None, coefficient error or None) of one op."""
    if returncode != 0:
        return f"exit code {returncode}", None
    result = out_dir / "result.json"
    if not result.is_file():
        return "result.json missing", None
    try:
        err = coefficient_error(result, generated)
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable result.json: {exc!r}", None
    if err > tol:
        return f"coefficient error {err:.3g} exceeds {tol:g}", err
    return None, err


def _read_json(path: Path):
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return None


# ---------------------------------------------------------------------------
# One run


class Run:
    def __init__(self, workload: str, seed: int):
        self.spec = workloads.WORKLOADS[workload]
        self.seed = seed
        self.dir = WORK / "run"
        shutil.rmtree(self.dir, ignore_errors=True)
        for sub in ("configs", "out", "logs"):
            (self.dir / sub).mkdir(parents=True)
        self.spans = []

    def config(self, index: int):
        config = workloads.op_config(self.spec.name, self.seed, index)
        path = self.dir / "configs" / f"op{index}.json"
        path.write_bytes(workloads.config_bytes(config))
        return config, path

    def setup_probe(self, config_path: Path) -> float:
        """Wall time of one fresh interpreter running the config front end."""
        argv = [sys.executable, "-c", SETUP_CODE, config_path]
        wall, code, _ = spawn(argv, self.dir / "logs" / "setup.log")
        if code != 0:
            raise BenchError("setup probe failed:\n" + self.log_tail("setup.log"))
        return wall

    def log_tail(self, name: str) -> str:
        return (self.dir / "logs" / name).read_text(errors="replace")[-2000:]

    def op(self, index: int, traced: bool = False, timed: bool = True) -> Op:
        config, config_path = self.config(index)
        name = f"op{index}" if self.spec.fresh_dir else "shared"
        out_dir = self.dir / "out" / name
        # A shared directory still holds the previous op's result.
        (out_dir / "result.json").unlink(missing_ok=True)
        before = snapshot(out_dir)
        cli_args = ["tomograph", "--config", config_path, "--out", out_dir]
        spans_path = self.dir / "logs" / f"spans{index}.json"
        if traced:
            argv = [sys.executable, HERE / "tracer.py", spans_path, index, *cli_args]
        else:
            argv = [sys.executable, "-m", "spintomo.cli", *cli_args]
        wall, code, usage = spawn(argv, self.dir / "logs" / f"op{index}.log")
        failure, err = judge(code, out_dir, workloads.generated_coefficients(config),
                             self.spec.coef_tol)
        op = Op(index=index, traced=traced, timed=timed, wall_s=wall,
                rss_mb=usage.ru_maxrss * 1024 / MB,
                cpu_s=usage.ru_utime + usage.ru_stime,
                written=written_bytes(before, snapshot(out_dir)),
                failure=failure, coef_err=err)
        result = _read_json(out_dir / "result.json") or {}
        op.condition_number = result.get("condition_number")
        shape = (_read_json(out_dir / "design_summary.json") or {}).get("shape")
        if shape:
            op.design_mb = math.prod(shape) * 8 / MB
        if traced:
            op.trace = _read_json(spans_path) or {}
            self.spans.extend(op.trace.get("spans", ()))
        if failure:
            print(f"op {index} failed: {failure}\n{self.log_tail(f'op{index}.log')}",
                  file=sys.stderr)
        if self.spec.fresh_dir:
            shutil.rmtree(out_dir, ignore_errors=True)
        return op

    def measure(self, seconds: float, trace: bool):
        """(ops, setup probe times): a warm-up op where the workload has one,
        then ops until ``seconds`` have passed.

        With tracing, odd ops run untraced, even ops traced, and set-up is not
        timed.  Otherwise set-up probes are spread over the run in proportion
        to the time elapsed, so that both medians see the same machine.
        """
        _, probe_config = self.config(1)
        self.setup_probe(probe_config)  # writes the bytecode cache; not counted
        done = [self.op(0, timed=False)] if self.spec.warmup else []
        setup = []
        start = time.perf_counter()
        index = 0
        while True:
            index += 1
            done.append(self.op(index, traced=trace and index % 2 == 0))
            elapsed = (time.perf_counter() - start) / seconds
            finished = elapsed >= 1.0 and index >= (2 if trace else 1)
            target = SETUP_PROBES if finished else math.ceil(SETUP_PROBES * elapsed)
            while not trace and len(setup) < target:
                setup.append(self.setup_probe(probe_config))
            if finished:
                return done, setup

    def write_spans(self) -> Path:
        path = WORK / "spans" / f"{self.spec.name}-seed{self.seed}.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.spans))
        return path


# ---------------------------------------------------------------------------
# Metrics


def tail_percentile(count: int):
    """Highest of the usual percentiles with at least ten samples beyond it."""
    for per_mille in (999, 990, 950, 900, 750, 500):
        if count * (1000 - per_mille) >= 10 * 1000:
            return per_mille / 10
    return None


def describe(name: str, values: list, unit: str) -> str:
    line = f"{name}: median {statistics.median(values):.6g} {unit} (n={len(values)})"
    p = tail_percentile(len(values))
    if p is None:
        return line + "; no percentile has 10 samples beyond it"
    q = statistics.quantiles(values, n=1000, method="inclusive")[round(p * 10) - 1]
    return line + f"; p{p:g} {q:.6g} {unit}"


def usable(ops: list) -> list:
    """Timed ops that passed, or every timed op when none did."""
    timed = [op for op in ops if op.timed]
    return [op for op in timed if not op.failure] or timed


def end_to_end(ops: list, setup: list) -> dict:
    measured = usable(ops)
    return {
        "tomograph_s": [op.wall_s for op in measured],
        "peak_rss_mb": [op.rss_mb for op in measured],
        "output_mb": [op.output_mb for op in measured],
        "setup_s": setup,
    }


def per_op_layers(op: Op, names: list) -> dict:
    """Per-layer values of one traced op, by metric name."""
    summary = summarize(op.trace.get("spans", ()))
    calls = {name: entry[0] for name, entry in summary.items()}
    built = calls.get("tomography.build_design_matrix", 0)
    loaded = calls.get("tomography.load_design", 0)
    special = {
        "spectral.dft_t2.points": op.trace.get("counters", {}).get("spectral.dft_t2.points", 0),
        "tomography.design_mb": op.design_mb or 0.0,
        "tomography.design_cache_hit_ratio": loaded / (loaded + built) if loaded + built else 0.0,
        "tomography.coef_err_max": op.coef_err or 0.0,
        "tomography.condition_number": op.condition_number or 0.0,
        "proc.import_s": op.trace.get("import_s") or 0.0,
        "proc.cpu_s": op.cpu_s,
    }
    special.update({f"cli.out_mb.{kind}": op.written[kind] / MB for kind in OUTPUT_KINDS})
    values = {}
    for name in names:
        if name in special:
            values[name] = special[name]
        elif name.endswith((".calls", ".self_s")):
            function, stat = name.rsplit(".", 1)
            entry = summary.get(function, (0, 0.0))
            values[name] = entry[0] if stat == "calls" else entry[1]
    return values


def per_layer(ops: list, names: list) -> dict:
    traced = [op for op in usable(ops) if op.traced]
    plain = [op.wall_s for op in usable(ops) if not op.traced]
    samples = {}
    for op in traced:
        for name, value in per_op_layers(op, names).items():
            samples.setdefault(name, []).append(value)
    if plain and traced:
        samples["trace.overhead_frac"] = [
            statistics.median(op.wall_s for op in traced) / statistics.median(plain) - 1.0]
    unknown = sorted(set(names) - set(samples))
    if unknown:
        raise BenchError(f"no value for per-layer metric(s) {unknown}")
    return samples


def absent_functions(ops: list, names: list) -> list:
    """Functions a metric names that the package no longer defines."""
    wrapped = set()
    for op in ops:
        wrapped.update(op.trace.get("wrapped", ()))
    functions = {name.rsplit(".", 1)[0] for name in names
                 if name.endswith((".calls", ".self_s"))}
    return sorted(f for f in functions if wrapped and f not in wrapped)


def environment() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "machine": platform.machine(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an exception, so the running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    try:
        if not (SRC / "spintomo" / "cli.py").is_file():
            raise BenchError(f"no spintomo sources under {SRC}")
        try:
            declared = json.loads((ROOT / "BENCHMARK.json").read_text())
        except (OSError, ValueError) as exc:
            raise BenchError(f"cannot read BENCHMARK.json: {exc}")
        metrics = declared["per_layer" if args.trace else "end_to_end"]
        units = {m["name"]: m["unit"] for m in metrics}

        run = Run(args.workload, args.seed)
        try:
            ops, setup = run.measure(args.seconds, bool(args.trace))
        finally:
            shutil.rmtree(run.dir, ignore_errors=True)
        if args.trace:
            samples = per_layer(ops, list(units))
        else:
            samples = end_to_end(ops, setup)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2

    failed = sum(1 for op in ops if op.failure)
    print(f"workload {args.workload}, seed {args.seed}, {len(ops)} ops "
          f"({sum(op.traced for op in ops)} traced)")
    print("environment: " + json.dumps(environment(), sort_keys=True))
    print(f"ops_failed_frac: {failed / len(ops):.6g} ({failed} of {len(ops)})")
    errors = [op.coef_err for op in ops if op.coef_err is not None]
    if errors:
        print(f"max coefficient error: {max(errors):.3e} "
              f"(tolerance {run.spec.coef_tol:g})")
    for name, unit in units.items():
        print(describe(name, samples[name], unit))
    if args.trace:
        absent = absent_functions(ops, list(units))
        if absent:
            print("absent (reported as 0): " + ", ".join(absent))
        print(f"spans: {run.write_spans().relative_to(ROOT)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": statistics.median(samples[name]), "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
