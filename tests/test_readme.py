"""The README's examples, run as written: the library quick start, the
pipeline spec and every shell line of the command-line section."""

import ast
import io
import json
import re
import shlex
import sys
from pathlib import Path

import numpy as np

from qfuzzy.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(
    encoding="utf-8"
)


def blocks(section: str, lang: str) -> list[str]:
    """The fenced ``lang`` blocks under the ``## section`` heading."""
    body = README.split(f"\n## {section}\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(rf"```{lang}\n(.*?)```", body, re.S)


def run_line(line: str, monkeypatch, capsys) -> str:
    """Stdout of a shell line of ``echo '...'`` and ``qfuzzy`` stages joined
    by pipes; every ``qfuzzy`` stage must exit 0 and write no stderr."""
    text = ""
    for stage in line.split(" | "):
        argv = shlex.split(stage)
        if argv[0] == "echo":
            text = argv[1] + "\n"
            continue
        assert argv[0] == "qfuzzy", stage
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
        code = main(argv[1:])
        captured = capsys.readouterr()
        assert (code, captured.err) == (0, ""), stage
        text = captured.out
    return text


def test_library_quick_start(capsys):
    (code,) = blocks("Library quick start", "python")
    namespace: dict = {}
    exec(compile(code, "README.md", "exec"), namespace)
    shown = re.search(r"print\(value_marginals\(out\)\)\s*# (\[.*\])", code).group(1)
    marginals = namespace["value_marginals"](namespace["out"])
    assert np.max(np.abs(marginals - ast.literal_eval(shown))) <= 1e-12


def test_pipeline_spec(capsys, monkeypatch):
    (spec,) = blocks("Command line", "json")
    monkeypatch.setattr(sys, "stdin", io.StringIO(spec))
    assert main(["eval"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert sum(out["counts"].values()) == json.loads(spec)["trials"]


def test_shell_examples(tmp_path, monkeypatch, capsys):
    # set.json holds the set the first line echoes, pipeline.json the spec
    (script,) = blocks("Command line", "sh")
    (spec,) = blocks("Command line", "json")
    fuzzy_set = re.search(r"echo '(.*)' \| qfuzzy encode", script).group(1)
    (tmp_path / "set.json").write_text(fuzzy_set, encoding="utf-8")
    (tmp_path / "pipeline.json").write_text(spec, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    lines = [line for line in script.splitlines() if line and line[0] != "#"]
    outputs = {line: json.loads(run_line(line, monkeypatch, capsys)) for line in lines}
    assert len(outputs) == 5
    sample = next(line for line in lines if "qfuzzy sample" in line)
    shots = int(re.search(r"--shots (\d+)", sample).group(1))
    assert sum(outputs[sample]["counts"].values()) == shots
