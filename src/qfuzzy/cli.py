"""Command-line front end: encode, eval, report, sample.

All input and output is JSON.  Exit codes: 0 success, 2 input validation,
3 register cap exceeded or out of memory, 4 expression (parse or evaluation)
errors.  Output is byte-identical for identical input and seed.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from typing import Iterable

from . import serialize
from ._lazy import lazy_import
from .analysis import EntanglementReport, entanglement_report
from .errors import ResourceLimitError, _brief
from .exprparser import EvalError, ParseError, evaluate, parse
from .fuzzy import FuzzySet
from .qfs import VALUE_SEGMENT, QuantumFuzzySet, RegisterLayout, encode, value_marginals
from .statevec import DEFAULT_QUBIT_CAP, DEFAULT_TRIALS, bloch_point
from .statevec import sample_distribution

np = lazy_import("numpy")

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_RESOURCE = 3
EXIT_EXPRESSION = 4


def _read_input(path: str | None) -> str:
    if path is None or path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write_output(path: str | None, text: str) -> None:
    # two writes, so the output text is not copied to append the newline
    if path is None or path == "-":
        sys.stdout.writelines((text, "\n"))
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines((text, "\n"))


def _load_json(text: str) -> object:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed JSON: {exc}") from None
    except ValueError:  # int() refuses a literal past its digit limit
        limit = sys.get_int_max_str_digits()
        raise ValueError(f"malformed JSON: integer over {limit} digits") from None
    except RecursionError:
        raise ValueError("malformed JSON: nested too deeply") from None


def _cmd_encode(args: argparse.Namespace) -> str:
    f = serialize.fuzzy_set_from_dict(_load_json(_read_input(args.input)))
    q = encode(f, cap=args.qubit_cap)
    return serialize.dumps(serialize.qfs_to_dict(q))


def _quantum_payload(
    layout: RegisterLayout, report: EntanglementReport, marginals: Iterable[float]
) -> dict:
    return {
        "mode": "quantum",
        "universe_size": layout.segment(VALUE_SEGMENT)[1],
        "total_qubits": layout.total_qubits,
        "layout": [list(seg) for seg in layout.segments],
        "value_marginals": [float(p) for p in marginals],
        "entanglement": serialize.report_to_dict(report),
    }


def _cmd_eval(args: argparse.Namespace) -> str:
    expression, env = serialize.spec_from_dict(_load_json(_read_input(args.input)))
    flags = {key: getattr(args, key) for key in ("mode", "seed", "trials", "qubit_cap")}
    # replace() re-runs Environment's checks on the flags that were given
    env = replace(env, **{key: v for key, v in flags.items() if v is not None})
    result = evaluate(parse(expression), env)
    if isinstance(result, FuzzySet):
        payload = {"mode": "classical", **serialize.fuzzy_set_to_dict(result)}
    elif isinstance(result, QuantumFuzzySet):
        payload = _quantum_payload(
            result.layout, entanglement_report(result), value_marginals(result)
        )
    elif not isinstance(result, dict):  # route 4's supports
        from .supports import support_marginals, support_report  # as evaluate does

        payload = _quantum_payload(
            result.dense_layout(), support_report(result), support_marginals(result)
        )
    elif env.mode == "classical":
        payload = {
            "mode": "classical",
            "distribution": serialize.distribution_to_dict(result),
        }
    else:
        payload = {
            "mode": "quantum",
            "trials": env.trials,
            "counts": serialize.distribution_to_dict(result),
        }
    return serialize.dumps(payload)


def _cmd_report(args: argparse.Namespace) -> str:
    q = serialize.qfs_from_dict(_load_json(_read_input(args.input)), args.qubit_cap)
    report = entanglement_report(q)
    bloch = None
    if report.factors is not None:
        bloch = [bloch_point(f) for f in report.factors]
    return serialize.dumps(serialize.report_to_dict(report, bloch))


def _cmd_sample(args: argparse.Namespace) -> str:
    q = serialize.qfs_from_dict(_load_json(_read_input(args.input)), args.qubit_cap)
    rng = np.random.default_rng(args.seed)
    counts = sample_distribution(q.state, rng, args.shots)
    payload = {"shots": args.shots, "counts": serialize.distribution_to_dict(counts)}
    return serialize.dumps(payload)


def _nonneg_int(text: str) -> int:
    """A flag's integer value: ASCII digits after an optional "-" (no "+",
    space, "_" or other script's digit, all of which int() takes).  A
    rejected one is quoted as errors._brief cuts it, not whole, as argparse
    would."""
    digits = text[1:] if text.startswith("-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise argparse.ArgumentTypeError(f"must be an integer, got {_brief(text)}")
    limit = sys.get_int_max_str_digits()  # 0 for no limit
    if 0 < limit < len(digits):
        raise argparse.ArgumentTypeError(f"integer over {limit} digits")
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {_brief(text)}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qfuzzy",
        description="Simulate fuzzy sets on a quantum register.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, cap_default: int | None) -> None:
        p.add_argument("--input", default=None, help="input path (default: stdin)")
        p.add_argument("--output", default=None, help="output path (default: stdout)")
        p.add_argument(
            "--qubit-cap",
            type=_nonneg_int,
            default=cap_default,
            help=f"largest register to allocate (default {DEFAULT_QUBIT_CAP})",
        )

    p_encode = sub.add_parser("encode", help="fuzzy set JSON -> register state JSON")
    common(p_encode, DEFAULT_QUBIT_CAP)
    p_encode.set_defaults(handler=_cmd_encode)

    p_eval = sub.add_parser("eval", help="evaluate a pipeline spec")
    common(p_eval, None)
    p_eval.add_argument("--mode", choices=("classical", "quantum"), default=None)
    p_eval.add_argument("--seed", type=_nonneg_int, default=None)
    p_eval.add_argument(
        "--trials", "--shots", dest="trials", type=_nonneg_int, default=None,
        help=f"trials for quantum DEFUZ (default {DEFAULT_TRIALS})",
    )
    p_eval.set_defaults(handler=_cmd_eval)

    p_report = sub.add_parser("report", help="state JSON -> entanglement report")
    common(p_report, DEFAULT_QUBIT_CAP)
    p_report.set_defaults(handler=_cmd_report)

    p_sample = sub.add_parser("sample", help="state JSON -> measurement counts")
    common(p_sample, DEFAULT_QUBIT_CAP)
    p_sample.add_argument("--seed", type=_nonneg_int, default=0)
    p_sample.add_argument(
        "--shots", "--trials", dest="shots", type=_nonneg_int, default=DEFAULT_TRIALS,
        help=f"number of measurements (default {DEFAULT_TRIALS})",
    )
    p_sample.set_defaults(handler=_cmd_sample)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _write_output(args.output, args.handler(args))
    except ResourceLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except MemoryError as exc:
        reason = str(exc) or "allocation failed"
        print(f"error: out of memory: {reason}", file=sys.stderr)
        return EXIT_RESOURCE
    except (ParseError, EvalError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_EXPRESSION
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
