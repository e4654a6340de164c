"""Command line front door: generation, checking, reduction, censuses,
probes, the verification suite, and format conversion.

Exit codes: 0 success, 1 falsification of a structural claim (printed
loudly), 2 usage or input errors, 3 budget exhaustion. Reports are
canonical JSON (sorted keys, no whitespace), so identical arguments and
seed give byte-identical output.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from .coloring import Coloring, is_weak_coloring, monochrome_mergeable_pair
from .errors import BudgetExceeded, EsakiaKitError, PropertyFalsified, TooLarge
from .poset import JSON_COVER_LIMIT, JSON_SIZE_LIMIT, Poset
from .probes import kc_probe, quotient_census
from .reduction import color_respecting_reduction
from .spaces import (abomination_cover_count, abomination_truncation,
                     ladder_cover_count, ladder_truncation, level_size,
                     width_of)
from .suite import run_suite


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise TooLarge(f"{path} nests JSON too deeply to parse") from None


def _load_poset(path: str) -> Poset:
    return Poset.from_json_dict(_load_json(path))


def _emit_poset(p: Poset, fmt: str) -> None:
    if fmt == "dot":
        print(p.to_dot())
    elif fmt == "csv":
        print("lower,upper")
        for x, y in p.covers:
            print(f"{x},{y}")
    else:
        print(_dumps(p.to_json_dict()))


def _cmd_gen(args) -> int:
    """Emit a truncation; refuse, before building anything, one with more
    elements or covers than poset JSON reads back (per_level(n) >= 2^(n+1)
    bounds n first). Negative n or depth are left to the generator."""
    n, depth = args.n, args.depth
    if n >= 0 and depth >= 0 and (
            n >= JSON_SIZE_LIMIT.bit_length()
            or (depth + 1) * args.per_level(n) > JSON_SIZE_LIMIT
            or args.cover_count(n, depth) > JSON_COVER_LIMIT):
        raise TooLarge(f"--n {n} --depth {depth} exceeds the poset JSON limit "
                       f"of {JSON_SIZE_LIMIT} elements or {JSON_COVER_LIMIT} covers")
    _emit_poset(args.build(n, depth), args.format)
    return 0


def _cmd_check_coloring(args) -> int:
    p = _load_poset(args.poset)
    f = Coloring.from_json_dict(p, _load_json(args.coloring))
    if not is_weak_coloring(p, f):
        print("coloring is not order preserving on this poset",
              file=sys.stderr)
        return 2
    pair = monochrome_mergeable_pair(p, f)
    print(_dumps({"weak": True, "strict": pair is None, "order": f.n,
                  "monochrome_pair": list(pair) if pair else None}))
    return 0


def _cmd_reduce(args) -> int:
    p = _load_poset(args.poset)
    f = Coloring.from_json_dict(p, _load_json(args.coloring))
    part, steps = color_respecting_reduction(p, f)
    print(_dumps({
        "partition": {"blocks": [list(b) for b in part.blocks]},
        "steps": [{"kind": s.kind, "pair": list(s.pair)} for s in steps]}))
    return 0


def _cmd_census(args) -> int:
    p = _load_poset(args.poset)
    census = quotient_census(p, args.n, budget=args.budget, seed=args.seed)
    rows = [{"size": e.quotient.n,
             "blocks": [list(b) for b in e.partition.blocks]}
            for e in census.entries]
    if args.format == "csv":
        print("entry,quotient_size,block_count")
        for i, row in enumerate(rows):
            print(f"{i},{row['size']},{len(row['blocks'])}")
    else:
        print(_dumps({"n": args.n, "record": census.record,
                      "distinct_partitions": len(census.partitions),
                      "entries": rows}))
    return 0


def _cmd_kc_probe(args) -> int:
    report = kc_probe(args.max_size)
    if args.format == "csv":
        print("poset_size,algebra_size")
        for ps, total in report.entries:
            print(f"{ps},{total}")
    else:
        print(_dumps({"max_size": report.max_size,
                      "maximum": report.maximum,
                      "entries": [list(e) for e in report.entries]}))
    return 0


def _cmd_verify(args) -> int:
    report = run_suite(args.seed)
    print(_dumps(report))
    if not report["pass"]:
        failed = [c["id"] for c in report["criteria"] if not c["pass"]]
        print(f"FALSIFIED: criteria {failed} failed", file=sys.stderr)
        return 1
    return 0


def _cmd_convert(args) -> int:
    _emit_poset(_load_poset(args.poset), args.format)
    return 0


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: `parse_args` does not
    change it, and the handlers look up what they call when they run."""
    root = argparse.ArgumentParser(
        prog="esakiakit",
        description="Finite duality toolkit: generate the level-structured "
                    "spaces, check colorings, reduce, census, and verify.")
    sub = root.add_subparsers(dest="command", required=True)

    gen_a = sub.add_parser("gen-abomination",
                           help="emit a truncation of the main space")
    gen_a.add_argument("--n", type=int, required=True)
    gen_a.add_argument("--depth", type=int, required=True)
    gen_a.add_argument("--format", choices=("json", "dot", "csv"),
                       default="json")
    gen_a.set_defaults(func=_cmd_gen, build=abomination_truncation,
                       per_level=level_size, cover_count=abomination_cover_count)

    gen_l = sub.add_parser("gen-ladder", help="emit a ladder truncation")
    gen_l.add_argument("--n", type=int, required=True)
    gen_l.add_argument("--depth", type=int, required=True)
    gen_l.add_argument("--format", choices=("json", "dot", "csv"),
                       default="json")
    gen_l.set_defaults(func=_cmd_gen, build=ladder_truncation,
                       per_level=width_of, cover_count=ladder_cover_count)

    chk = sub.add_parser("check-coloring",
                         help="validate a coloring file against a poset file")
    chk.add_argument("--poset", required=True)
    chk.add_argument("--coloring", required=True)
    chk.set_defaults(func=_cmd_check_coloring)

    red = sub.add_parser("reduce",
                         help="coarsest color-respecting partition and steps")
    red.add_argument("--poset", required=True)
    red.add_argument("--coloring", required=True)
    red.set_defaults(func=_cmd_reduce)

    cen = sub.add_parser("census",
                         help="census of colorable quotients of a poset")
    cen.add_argument("--poset", required=True)
    cen.add_argument("--n", type=int, required=True)
    cen.add_argument("--budget", type=int, default=None)
    cen.add_argument("--seed", type=int, default=0)
    cen.add_argument("--format", choices=("json", "csv"), default="json")
    cen.set_defaults(func=_cmd_census)

    kc = sub.add_parser("kc-probe",
                        help="largest one-generated algebra with the weak "
                             "excluded middle")
    kc.add_argument("--max-size", type=int, required=True)
    kc.add_argument("--format", choices=("json", "csv"), default="json")
    kc.set_defaults(func=_cmd_kc_probe)

    ver = sub.add_parser("verify", help="run a verification suite")
    ver.add_argument("--suite", choices=("paper",), required=True)
    ver.add_argument("--seed", type=int, default=0)
    ver.set_defaults(func=_cmd_verify)

    conv = sub.add_parser("convert", help="re-emit a poset file")
    conv.add_argument("--poset", required=True)
    conv.add_argument("--format", choices=("json", "dot", "csv"),
                      required=True)
    conv.set_defaults(func=_cmd_convert)
    return root


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # A consumer such as head closed the pipe; point stdout at devnull so
        # the interpreter's final flush cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except PropertyFalsified as exc:
        print(f"FALSIFIED: {exc}", file=sys.stderr)
        return 1
    except BudgetExceeded as exc:
        print(f"budget exhausted: {exc}", file=sys.stderr)
        return 3
    except (EsakiaKitError, OSError, ValueError, KeyError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
