"""The CLI's exact output on the benchmark's specs, pinned by digest.

One cycle of seeds 1 and 2 of every workload that ``perfbench/workloads.py``
generates (120 specs) runs through ``qfuzzy.cli.main`` in process, each
spec's input on stdin.  Each spec's exit code and the sha256 of its stdout
and of its stderr must equal ``tests/golden/cli_digests.json``.  A change
that moves output on purpose rewrites that file and lists the moved specs
with their deviations; run this module as a script to rewrite it::

    PYTHONPATH=src python tests/test_cli_digests.py

Given the ``src`` directory of another tree, such as a parent commit's, it
instead prints each spec whose exit code or digests differ between the two
trees, with the largest absolute difference between the numbers of the two
stdouts, and writes nothing::

    PYTHONPATH=src python tests/test_cli_digests.py --parent ../parent/src

The digests are tied to numpy 2.4.6 and the LAPACK it bundles: the
entanglement reports take singular values from it, and sampled counts come
from its random generators, so another numpy may move last digits.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from helpers import perfbench_workloads

from qfuzzy.cli import main

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden" / "cli_digests.json"
SEEDS = (1, 2)
BENCH = perfbench_workloads()
#: A JSON string, or a JSON number as group 1: a string is matched whole, so
#: that the digits of a key such as "0101" are not read as a number.
TOKEN = re.compile(r'"(?:[^"\\]|\\.)*"|(-?\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)')


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def outputs(workload: str, seed: int) -> dict[str, tuple[int, str, str]]:
    """Exit code, stdout and stderr of each spec of one cycle of
    ``workload`` at ``seed``, keyed by ``<seed>:<spec id>``."""
    out = {}
    for spec in BENCH.generate(workload, seed, cycles=1):
        stdout, stderr = io.StringIO(), io.StringIO()
        stdin, sys.stdin = sys.stdin, io.StringIO(spec["input"])
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = main([spec["cmd"], *spec["args"]])
        finally:
            sys.stdin = stdin
        out[f"{seed}:{spec['id']}"] = (code, stdout.getvalue(), stderr.getvalue())
    return out


def all_outputs() -> dict[str, tuple[int, str, str]]:
    """:func:`outputs` of every workload at every seed in :data:`SEEDS`."""
    table = {}
    for workload in BENCH.WORKLOADS:
        for seed in SEEDS:
            table.update(outputs(workload, seed))
    return table


def _digest(code: int, stdout: str, stderr: str) -> dict:
    return {"exit": code, "stdout": _sha256(stdout), "stderr": _sha256(stderr)}


def digests(workload: str, seed: int) -> dict[str, dict]:
    """Exit code and output digests of one cycle of ``workload`` at ``seed``,
    keyed by ``<seed>:<spec id>``."""
    return {key: _digest(*got) for key, got in outputs(workload, seed).items()}


def _numbers(text: str) -> tuple[str, list[float]]:
    """``text`` with each JSON number outside a string replaced by ``#``, and
    those numbers in order."""
    numbers: list[float] = []

    def take(m: re.Match) -> str:
        if m.group(1) is None:
            return m.group(0)
        numbers.append(float(m.group(1)))
        return "#"

    return TOKEN.sub(take, text), numbers


def largest_difference(old: str, new: str) -> float | None:
    """The largest absolute difference between the numbers of two texts that
    differ only in their numbers, paired in order; None when the text around
    the numbers differs, so that no pairing holds."""
    (old_rest, old_numbers), (new_rest, new_numbers) = _numbers(old), _numbers(new)
    if old_rest != new_rest:
        return None
    return max((abs(a - b) for a, b in zip(old_numbers, new_numbers)), default=0.0)


def parent_diff(parent_src: str) -> int:
    """Print each spec whose exit code or digests differ between this tree
    and the tree whose ``src`` directory is ``parent_src``, with the largest
    numeric difference of its stdout; return how many differ."""
    child = subprocess.run(
        [
            sys.executable,
            "-c",
            "import json, sys, test_cli_digests as t; "
            "json.dump(t.all_outputs(), sys.stdout)",
        ],
        cwd=HERE,
        env={**os.environ, "PYTHONPATH": str(Path(parent_src).resolve())},
        stdout=subprocess.PIPE,
        text=True,
        check=True,
    )
    parent = json.loads(child.stdout)
    ours = all_outputs()
    moved = 0
    for key, got in ours.items():
        old = parent[key]
        if _digest(*old) == _digest(*got):
            continue
        moved += 1
        diff = largest_difference(old[1], got[1])
        shown = "text differs beyond numbers" if diff is None else f"{diff:.3g}"
        print(f"{key}: exit {old[0]} -> {got[0]}, largest stdout difference {shown}")
    print(f"{moved} of {len(ours)} specs moved")
    return moved


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("workload", BENCH.WORKLOADS)
def test_cli_output_matches_golden_digests(workload, seed):
    golden = json.loads(GOLDEN.read_text())
    got = digests(workload, seed)
    assert got == {key: golden.get(key) for key in got}


@pytest.mark.parametrize(
    "old, new, expected",
    [
        ('{"a": [0.5, 1e-05]}', '{"a": [0.5, 1e-05]}', 0.0),
        ('{"a": [0.5, 1e-05], "b": -3}', '{"a": [0.25, 1e-05], "b": -2}', 1.0),
        ('{"a": [0.5]}', '{"a": [0.5, 0.5]}', None),
        ('{"k": {"01": 3}}', '{"k": {"10": 3}}', None),
        ('{"k": {"01": 3}}', '{"k": {"01": 5}}', 2.0),
        ('"a\\"1"', '"a\\"2"', None),
    ],
)
def test_largest_difference_pairs_numbers_in_order(old, new, expected):
    assert largest_difference(old, new) == expected


if __name__ == "__main__":
    cli = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    cli.add_argument(
        "--parent", metavar="SRC",
        help="compare with the tree whose src directory this is; write nothing",
    )
    parent_src = cli.parse_args().parent
    if parent_src is not None:
        parent_diff(parent_src)
    else:
        table = {key: _digest(*got) for key, got in all_outputs().items()}
        GOLDEN.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
        print(f"wrote {len(table)} digests to {GOLDEN}")
