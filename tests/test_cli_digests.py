"""The CLI's exact output on the benchmark's specs, pinned by digest.

One cycle of seeds 1 and 2 of every workload that ``perfbench/workloads.py``
generates (120 specs) runs through ``qfuzzy.cli.main`` in process, each
spec's input on stdin.  Each spec's exit code and the sha256 of its stdout
and of its stderr must equal ``tests/golden/cli_digests.json``.  A change
that moves output on purpose rewrites that file and lists the moved specs
with their deviations; run this module as a script to rewrite it::

    PYTHONPATH=src python tests/test_cli_digests.py

The digests are tied to numpy 2.4.6 and the LAPACK it bundles: the
entanglement reports take singular values from it, and sampled counts come
from its random generators, so another numpy may move last digits.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import pytest

from helpers import perfbench_workloads

from qfuzzy.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden" / "cli_digests.json"
SEEDS = (1, 2)
BENCH = perfbench_workloads()


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def digests(workload: str, seed: int) -> dict[str, dict]:
    """Exit code and output digests of one cycle of ``workload`` at ``seed``,
    keyed by ``<seed>:<spec id>``."""
    out = {}
    for spec in BENCH.generate(workload, seed, cycles=1):
        stdout, stderr = io.StringIO(), io.StringIO()
        stdin, sys.stdin = sys.stdin, io.StringIO(spec["input"])
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = main([spec["cmd"], *spec["args"]])
        finally:
            sys.stdin = stdin
        out[f"{seed}:{spec['id']}"] = {
            "exit": code,
            "stdout": _sha256(stdout.getvalue()),
            "stderr": _sha256(stderr.getvalue()),
        }
    return out


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("workload", BENCH.WORKLOADS)
def test_cli_output_matches_golden_digests(workload, seed):
    golden = json.loads(GOLDEN.read_text())
    got = digests(workload, seed)
    assert got == {key: golden.get(key) for key in got}


if __name__ == "__main__":
    table = {}
    for workload in BENCH.WORKLOADS:
        for seed in SEEDS:
            table.update(digests(workload, seed))
    GOLDEN.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(table)} digests to {GOLDEN}")
