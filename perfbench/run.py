"""End-to-end and per-layer benchmark for qfuzzy.

    python3 perfbench/run.py --workload quantum-defuz --seed 1 --seconds 30 --trace 0

Run from the root of a source tree.  The program under test is that tree's
``src``: every spec runs as a fresh ``python -m qfuzzy.cli`` process with
``src`` first on ``PYTHONPATH``.  One client runs the specs in a closed
loop: each starts only after the previous one has exited.

``--trace 0`` runs the workload's seeded spec pool until ``--seconds`` have
passed and prints the end-to-end metrics.  ``--trace 1`` runs the first cycle
of the pool through the CLI, replays the same specs in this process through
``qfuzzy.cli.main`` with spans at the layer boundaries (see tracing.py), and
prints the per-layer metrics.  Both check every output against checker.py,
and the replay must print what the CLI printed.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  A fuller record (environment,
tail percentile, sample counts, failures, mix) goes to
``.perfbench_out/<workload>-seed<seed>-trace<t>.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

#: One BLAS thread, in this process and, inherited, in every CLI process.
#: With one client on two cores a second thread only spins during the SVDs
#: (twice the CPU time at the same wall time) and makes SVD-heavy specs slow
#: down sharply whenever anything else runs.  It is set before numpy loads,
#: so the in-process replay computes with the same threads as the CLI.
INHERITED_THREADS = os.environ.get("OPENBLAS_NUM_THREADS")
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np  # noqa: E402

import checker  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
RECORDS = ROOT / ".perfbench_out"

#: Samples the tail latency must leave above it.
TAIL_BEYOND = 10

SETUP_SPEC = '{"universe_size": 1, "sets": {"A": [0.5]}, "expression": "A"}'
SETUP_OUTPUT = b'{"mode": "classical", "universe_size": 1, "memberships": [0.5]}\n'
#: Set-up samples taken before the measured specs; during them one more is
#: taken after every SETUP_EVERY specs, so that the median sees the same
#: machine as the specs do.
SETUP_BEFORE = 3
SETUP_EVERY = 4
#: A spec process still running after this long is killed and fails.
SPEC_TIMEOUT_S = 60.0

END_TO_END = (
    ("specs_per_s", "1/s"),
    ("latency_p50_s", "s"),
    ("latency_tail_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("ok_frac", "frac"),
    ("setup_s", "s"),
)


def tail(values) -> tuple[float, float]:
    """(percentile, value) of the highest percentile with at least
    TAIL_BEYOND samples above it: the sample that exactly TAIL_BEYOND others
    exceed.  Up to 2 * TAIL_BEYOND samples that sample is not above the
    median, so the median stands in."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 2 * TAIL_BEYOND:
        return 50.0, statistics.median(ordered)
    return 100.0 * (n - TAIL_BEYOND) / n, ordered[n - TAIL_BEYOND - 1]


class Client:
    """Runs CLI processes of the tree under test one at a time, through a
    small spawner process (see spawner.py) that times them and reads their
    peak RSS.  Use as a context manager; leaving it stops the spawner."""

    def __init__(self, workdir: Path):
        self.out_path = workdir / "stdout"
        env = dict(os.environ)
        old = env.get("PYTHONPATH")
        env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
        self._spawner = subprocess.Popen(
            [sys.executable, "-S", "-I", str(Path(__file__).with_name("spawner.py"))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, cwd=ROOT, env=env, text=True,
        )

    def __enter__(self) -> "Client":
        return self

    def __exit__(self, *exc) -> None:
        self._spawner.stdin.close()
        try:
            self._spawner.wait(timeout=SPEC_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self._spawner.kill()
            self._spawner.wait()
        self._spawner.stdout.close()

    def run(self, argv: list[str]) -> tuple[int, bytes, float, float]:
        """(exit code, stdout, wall seconds from spawn to exit, peak RSS MiB)."""
        request = {"argv": [sys.executable, *argv], "out": str(self.out_path), "cwd": str(ROOT),
                   "timeout": SPEC_TIMEOUT_S}
        self._spawner.stdin.write(json.dumps(request) + "\n")
        self._spawner.stdin.flush()
        line = self._spawner.stdout.readline()
        if not line:
            raise RuntimeError("the spawner process exited")
        reply = json.loads(line)
        return reply["exit"], self.out_path.read_bytes(), reply["wall_s"], reply["maxrss_kib"] / 1024.0

    def spec(self, spec: dict, path: Path):
        return self.run(["-m", "qfuzzy.cli", spec["cmd"], "--input", str(path), *spec["args"]])

    def setup(self, path: Path) -> float:
        code, out, wall, _ = self.run(["-m", "qfuzzy.cli", "eval", "--input", str(path)])
        if code != 0 or out != SETUP_OUTPUT:
            raise RuntimeError(f"the one-element classical spec gave exit {code} and {out!r}")
        return wall

    def import_time(self) -> float:
        code = "import time; t = time.perf_counter(); import qfuzzy.cli; print(time.perf_counter() - t)"
        status, out, _, _ = self.run(["-c", code])
        if status != 0:
            raise RuntimeError("importing qfuzzy.cli failed")
        return float(out)


def environment() -> dict:
    src_hash = hashlib.sha256()
    for path in sorted((SRC / "qfuzzy").rglob("*.py")):
        src_hash.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    git_sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        git_sha = proc.stdout.strip() or None
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "git_sha": git_sha,
        "src_sha256": src_hash.hexdigest(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "num_threads_env": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
        "openblas_num_threads_inherited": INHERITED_THREADS,
    }


def _cpu_jiffies() -> list[int] | None:
    """The machine's CPU time counters, to report how much the hypervisor
    took (steal) during a run; None where /proc/stat is unreadable."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            return [int(x) for x in fh.readline().split()[1:]]
    except OSError:
        return None


def _steal_frac(before, after) -> float | None:
    if before is None or after is None or len(before) < 8:
        return None
    delta = [b - a for a, b in zip(before, after)]
    return delta[7] / sum(delta) if sum(delta) else None


def _write_inputs(pool: list[dict], workdir: Path) -> list[Path]:
    paths = []
    for i, spec in enumerate(pool):
        path = workdir / f"spec{i:03d}.json"
        path.write_text(spec["input"], encoding="utf-8")
        paths.append(path)
    return paths


def _prepare(pool: list[dict], client: Client, workdir: Path):
    """Write the inputs, run one discarded warm-up (byte-compiles the tree,
    fills the page cache) and take the set-up samples due before the specs.
    Returns the input paths, a function taking one more set-up sample, and
    the list the samples go to."""
    paths = _write_inputs(pool, workdir)
    setup_path = workdir / "setup.json"
    setup_path.write_text(SETUP_SPEC, encoding="utf-8")
    client.setup(setup_path)
    samples = [client.setup(setup_path) for _ in range(SETUP_BEFORE)]

    def more() -> None:
        samples.append(client.setup(setup_path))

    return paths, more, samples


def end_to_end(workload: str, seed: int, seconds: float, client: Client, workdir: Path):
    pool = workloads.generate(workload, seed)
    paths, more_setup, setup = _prepare(pool, client, workdir)

    runs = []  # (pool index, exit, stdout, wall, rss, spec time since loop start)
    jiffies = _cpu_jiffies()
    start = time.perf_counter()
    deadline = start + seconds
    in_setup = 0.0  # loop time spent on set-up samples, left out of the rate
    while time.perf_counter() < deadline:
        i = len(runs) % len(pool)
        runs.append((i, *client.spec(pool[i], paths[i]), time.perf_counter() - start - in_setup))
        if len(runs) % SETUP_EVERY == 0:
            t = time.perf_counter()
            more_setup()
            in_setup += time.perf_counter() - t
    loop_wall = time.perf_counter() - start
    steal = _steal_frac(jiffies, _cpu_jiffies())

    reasons = [checker.check(pool[r[0]], r[1], r[2]) for r in runs]
    failures = [{"spec": pool[r[0]]["id"], "slot": pool[r[0]]["slot"], "reason": why}
                for r, why in zip(runs, reasons) if why is not None]
    # The rate counts whole cycles only: which slots a partial last cycle
    # reaches (one 20-qubit report is over a quarter of a quantum-state cycle)
    # would otherwise move it from run to run.
    cycle = workloads.cycle_length(workload)
    whole = len(runs) - len(runs) % cycle or len(runs)
    walls = [r[3] for r in runs]
    tail_p, tail_s = tail(walls)
    metrics = {
        "specs_per_s": sum(why is None for why in reasons[:whole]) / runs[whole - 1][5],
        "latency_p50_s": statistics.median(walls),
        "latency_tail_s": tail_s,
        "peak_rss_mb": max(r[4] for r in runs),
        "ok_frac": 1.0 - len(failures) / len(runs),
        "setup_s": statistics.median(setup),
    }
    detail = {
        "tail_percentile": tail_p,
        "samples": len(walls),
        "loop_wall_s": loop_wall,
        "rate_specs": whole,
        "rate_wall_s": runs[whole - 1][5],
        "cpu_steal_frac": steal,
        "setup_samples_s": setup,
        "register_qubits_run": _histogram(pool[r[0]]["qubits"] for r in runs),
        "slot_median_s": _slot_medians(pool, runs),
    }
    return metrics, len(runs), failures, detail


def traced(workload: str, seed: int, client: Client, workdir: Path):
    pool = workloads.generate(workload, seed, cycles=1)
    paths, more_setup, setup = _prepare(pool, client, workdir)
    import_s = statistics.median(client.import_time() for _ in range(3))

    runs = []
    for i, spec in enumerate(pool):
        runs.append((i, *client.spec(spec, paths[i])))
        if (i + 1) % SETUP_EVERY == 0:
            more_setup()

    sys.path.insert(0, str(SRC))
    argvs = [[spec["cmd"], "--input", str(paths[i]), *spec["args"]] for i, spec in enumerate(pool)]
    recorder, replayed = tracing.replay(argvs)

    failures = []
    for (i, code, out, _, _), again in zip(runs, replayed):
        reason = checker.check(pool[i], code, out)
        if reason is None and again != (code, out):
            reason = f"in-process replay gave exit {again[0]} and different output"
        if reason is not None:
            failures.append({"spec": pool[i]["id"], "slot": pool[i]["slot"], "reason": reason})
    metrics = tracing.layer_metrics(recorder.spans)
    walls = [r[3] for r in runs]
    setup_s = statistics.median(setup)
    metrics["cli.import_s"] = import_s
    metrics["cli.startup_frac"] = setup_s * len(walls) / sum(walls)
    metrics["trace.cli_total_s"] = sum(walls)
    metrics["trace.replay_total_s"] = sum(
        s.end - s.start for s in recorder.spans if s.name == "cli.main")
    detail = {"setup_s": setup_s, "spans": len(recorder.spans),
              "register_qubits_run": _histogram(spec["qubits"] for spec in pool)}
    return metrics, len(runs), failures, detail


def _histogram(values) -> dict[str, int]:
    return {str(k): v for k, v in sorted(Counter(values).items())}


def _slot_medians(pool: list[dict], runs) -> dict[str, float]:
    by_slot: dict[str, list[float]] = {}
    for r in runs:
        by_slot.setdefault(pool[r[0]]["slot"], []).append(r[3])
    return {slot: statistics.median(v) for slot, v in sorted(by_slot.items())}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="qfuzzy benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "qfuzzy" / "cli.py").is_file():
        print(f"error: no program to measure: {SRC / 'qfuzzy' / 'cli.py'} is missing",
              file=sys.stderr)
        return 2
    env = environment()
    print(f"perfbench: {json.dumps(env)}", file=sys.stderr)

    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        with Client(workdir) as client:
            if args.trace:
                metrics, attempted, failures, detail = traced(
                    args.workload, args.seed, client, workdir)
            else:
                metrics, attempted, failures, detail = end_to_end(
                    args.workload, args.seed, args.seconds, client, workdir)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    units = tracing.PER_LAYER if args.trace else END_TO_END
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units},
    }
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env, "result": result,
              "detail": detail, "failures": failures}
    RECORDS.mkdir(exist_ok=True)
    (RECORDS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")
    for f in failures[:20]:
        print(f"FAIL {f['spec']} ({f['slot']}): {f['reason']}", file=sys.stderr)
    for name, unit in units:
        print(f"  {name:44s} {metrics[name]:.6g} {unit}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
