"""Command-line front end.

Exit codes: 0 success, 1 syntax or type error, 2 freshness violation,
3 semantic mismatch, 64 usage or I/O error, an exceeded limit, or nesting
too deep for the recursive parser and evaluators.  Output on stdout is
JSON with sorted keys and is deterministic given flags and seed; timing
goes to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from . import bigraph as B
from . import denot as D
from . import opsem as O
from . import progen as G
from . import syntax as S
from . import typecheck as TC
from .dist import FinDist

EXIT_OK = 0
EXIT_LANG = 1
EXIT_FRESHNESS = 2
EXIT_MISMATCH = 3
EXIT_USAGE = 64


def _dump(payload: dict) -> None:
    print(json.dumps(payload, sort_keys=True, indent=2))


def _sorted_dist(dist: FinDist, to_json) -> list[dict]:
    rows = []
    for value, prob in dist.items():
        entry = to_json(value)
        entry["prob"] = str(prob)
        rows.append(entry)
    rows.sort(key=lambda row: json.dumps(row, sort_keys=True))
    return rows


def _class_row(cls: D.CanonicalClass) -> dict:
    return cls.to_json()


def _observation_row(obs: O.Observation) -> dict:
    return {
        "value": O.value_to_json(obs.value),
        "graph": obs.graph.to_json(),
        "closures": [
            {
                "fun": label,
                "abstraction": S.pretty(fn),
                "env": {name: O.value_to_json(v) for name, v in env_items},
            }
            for label, fn, env_items in obs.closures
        ],
    }


def _config_row(config: O.Configuration) -> dict:
    return {
        "env": {name: O.value_to_json(v) for name, v in config.env.items()},
        "term": S.pretty(config.term),
        "graph": config.graph.to_json(),
        "closures": {
            f"fun{label}": {
                "binder": clo.binder,
                "body": S.pretty(clo.body),
                "env": {name: O.value_to_json(v) for name, v in clo.captured.items()},
            }
            for label, clo in config.closures.items()
        },
    }


class UnreadableSource(Exception):
    """A source file is not valid UTF-8."""


def _read(path: str) -> str:
    """A source file's text, with newlines translated as text-mode reading
    does."""
    data = Path(path).read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise UnreadableSource(f"{path}: not valid UTF-8 at byte offset {exc.start} ({exc.reason})") from None
    return text.replace("\r\n", "\n").replace("\r", "\n")


def _load(path: str) -> S.Comp:
    program = S.parse_program(_read(path))
    TC.type_of_comp(TC.EMPTY_CTX, program)
    return program


def cmd_check(args) -> int:
    try:
        program = S.parse_program(_read(args.file))
        ty = TC.type_of_comp(TC.EMPTY_CTX, program)
    except (S.ParseError, TC.TypeMismatch, TC.UnboundVariable) as exc:
        _dump({"command": "check", "file": args.file, "ok": False, "error": str(exc)})
        return EXIT_LANG
    _dump({"command": "check", "file": args.file, "ok": True, "type": repr(ty)})
    return EXIT_OK


def cmd_run(args) -> int:
    program = _load(args.file)
    started = time.monotonic()
    final, trace = O.run_sampled(program, args.seed)
    elapsed = time.monotonic() - started
    if isinstance(final.term, S.Return):
        result = O.value_to_json(O.eval_value(final.env, final.term.value))
    else:
        result = S.pretty(final.term)
    payload = {
        "command": "run",
        "file": args.file,
        "seed": args.seed,
        "result": result,
        "steps": len(trace) - 1,
        "final": _config_row(final),
    }
    if args.trace:
        payload["trace"] = [_config_row(cfg) for cfg in trace]
    _dump(payload)
    print(f"elapsed_ms={elapsed * 1000:.1f}", file=sys.stderr)
    return EXIT_OK


def cmd_enumerate(args) -> int:
    program = _load(args.file)
    started = time.monotonic()
    if args.observe:
        dist = O.observational_bigstep(program)
        rows = _sorted_dist(dist, _observation_row)
        label = "exhaustive-observed"
    else:
        dist = O.enumerate_bigstep(program)
        rows = _sorted_dist(dist, _config_row)
        label = "exhaustive"
    elapsed = time.monotonic() - started
    _dump(
        {
            "command": "enumerate",
            "file": args.file,
            "semantics": label,
            "distribution": rows,
        }
    )
    print(f"elapsed_ms={elapsed * 1000:.1f}", file=sys.stderr)
    return EXIT_OK


def cmd_denote(args) -> int:
    program = _load(args.file)
    started = time.monotonic()
    try:
        dist = D.den_program(program)
    except D.FreshnessViolation as exc:
        _dump(
            {
                "command": "denote",
                "file": args.file,
                "ok": False,
                "error": str(exc),
                "witnesses": [
                    {"wiring": dict(exc.witness_a[0]), "prob": str(exc.witness_a[1])},
                    {"wiring": dict(exc.witness_b[0]), "prob": str(exc.witness_b[1])},
                ],
            }
        )
        return EXIT_FRESHNESS
    elapsed = time.monotonic() - started
    _dump(
        {
            "command": "denote",
            "file": args.file,
            "semantics": "compositional",
            "distribution": _sorted_dist(dist, _class_row),
        }
    )
    print(f"elapsed_ms={elapsed * 1000:.1f}", file=sys.stderr)
    return EXIT_OK


def _soundness_payload(path: str) -> tuple[dict, bool]:
    program = _load(path)
    report = D.check_soundness(program)
    payload = {
        "file": path,
        "equal": report.equal,
        "lhs": _sorted_dist(report.lhs, _class_row),
        "rhs": _sorted_dist(report.rhs, _class_row),
        "bias_formula_agrees": report.bias_formula_agrees,
    }
    if not report.bias_formula_agrees:
        payload["bias_formula_rhs"] = _sorted_dist(report.bias_formula_rhs, _class_row)
    return payload, report.equal


def cmd_soundness(args) -> int:
    started = time.monotonic()
    if args.dir:
        results = []
        all_equal = True
        for path in sorted(Path(args.dir).glob("*.mem")):
            payload, equal = _soundness_payload(str(path))
            results.append(payload)
            all_equal = all_equal and equal
        _dump({"command": "soundness", "dir": args.dir, "all_equal": all_equal, "results": results})
        ok = all_equal
    else:
        payload, ok = _soundness_payload(args.file)
        payload["command"] = "soundness"
        _dump(payload)
    print(f"elapsed_ms={(time.monotonic() - started) * 1000:.1f}", file=sys.stderr)
    return EXIT_OK if ok else EXIT_MISMATCH


def cmd_laws(args) -> int:
    started = time.monotonic()
    if args.mem:
        result = G.run_mem_law_suite(args.count, args.seed)
    elif args.dataflow:
        result = G.run_dataflow_suite(args.count, args.seed)
    else:
        result = G.run_monad_suite(args.count, args.seed)
    payload = result.to_json()
    payload["command"] = "laws"
    _dump(payload)
    print(f"elapsed_ms={(time.monotonic() - started) * 1000:.1f}", file=sys.stderr)
    return EXIT_OK if result.ok else EXIT_MISMATCH


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="memlang",
        description="check, run, enumerate, and cross-check programs of the "
        "memoizing probabilistic language",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="parse and typecheck")
    p_check.add_argument("file")
    p_check.set_defaults(fn=cmd_check)

    p_run = sub.add_parser("run", help="one sampled execution")
    p_run.add_argument("file")
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument("--trace", action="store_true")
    p_run.set_defaults(fn=cmd_run)

    p_enum = sub.add_parser("enumerate", help="exact terminal distribution")
    p_enum.add_argument("file")
    p_enum.add_argument("--observe", action="store_true")
    p_enum.set_defaults(fn=cmd_enumerate)

    p_den = sub.add_parser("denote", help="compositional distribution at the empty world")
    p_den.add_argument("file")
    p_den.set_defaults(fn=cmd_denote)

    p_sound = sub.add_parser("soundness", help="compare the two semantics")
    p_sound.add_argument("file", nargs="?")
    p_sound.add_argument("--dir")
    p_sound.set_defaults(fn=cmd_soundness)

    p_laws = sub.add_parser("laws", help="run a generated law suite")
    group = p_laws.add_mutually_exclusive_group(required=True)
    group.add_argument("--mem", action="store_true")
    group.add_argument("--dataflow", action="store_true")
    group.add_argument("--monad", action="store_true")
    p_laws.add_argument("--count", type=int, default=100)
    p_laws.add_argument("--seed", type=int, default=0)
    p_laws.set_defaults(fn=cmd_laws)

    return parser


def _usage_problem(args) -> str | None:
    """A one-line usage error that argparse does not catch, if any."""
    if args.command == "soundness":
        if not args.file and not args.dir:
            return "soundness requires a file or --dir"
        if args.file and args.dir:
            return "soundness takes a file or --dir, not both"
        if args.dir and not Path(args.dir).is_dir():
            return f"soundness --dir: not a directory: {args.dir}"
    if args.command == "laws" and args.count < 0:
        return f"laws --count must be non-negative, got {args.count}"
    return None


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    problem = _usage_problem(args)
    if problem:
        print(problem, file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.fn(args)
    except (S.ParseError, TC.TypeMismatch, TC.UnboundVariable,
            TC.StackMismatch, TC.DuplicateStackPair,
            O.MalformedConfiguration, O.Stuck) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_LANG
    except D.FreshnessViolation as exc:
        print(f"freshness violation: {exc}", file=sys.stderr)
        return EXIT_FRESHNESS
    except (OSError, UnreadableSource, B.TooManyUndefined, B.InvalidLimit,
            O.StepBudgetExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except RecursionError:
        print("error: program nesting is too deep", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
