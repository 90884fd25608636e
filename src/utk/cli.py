"""Command line interface.

    utk check <files...>              type check files in order
    utk normalize <files...> --def X  print the normal form of a definition
    utk corpus [--dir PATH]           check the shipped corpus + theorem map
    utk model-selftest [--max-dim N] [--fixtures PATH]

`--json` on any subcommand emits a machine readable report.  Exit codes:
0 pass, 1 check failure, 2 usage or I/O error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import corpuscheck as C
from . import elab as E
from . import kernel as K
from . import parser as P
from . import syntax as S
from .report import dump_json

USAGE_ERROR = 2
CHECK_ERROR = 1


def _check_files(paths):
    core, scope, report, _ = E.elaborate_and_check(P.parse_files(paths))
    return core, scope, report


def cmd_check(args) -> int:
    _, _, report = _check_files(args.files)
    print(report.to_json() if args.json else report.summary())
    return 0 if report.ok else CHECK_ERROR


def cmd_normalize(args) -> int:
    core, scope, report = _check_files(args.files)
    if not report.ok:
        if args.json:
            print(report.to_json())
        else:
            print(report.summary(), file=sys.stderr)
        return CHECK_ERROR
    target = next((d for d in core if d.name == args.definition), None)
    if target is None or target.body is None:
        print(f"error: no definition named {args.definition}", file=sys.stderr)
        return USAGE_ERROR
    nf = S.pretty_print(K.normalize(scope, [], S.Annot(target.body, target.type)), [])
    print(dump_json({**report.to_dict(), "normal_form": nf}) if args.json else nf)
    return 0


def cmd_corpus(args) -> int:
    directory = Path(args.dir) if args.dir else None
    _, scope, report = C.check_corpus(directory)
    if report.ok:
        report.entries.extend(C.verify_corpus(scope, C.load_theorem_map(directory)).entries)
    print(report.to_json() if args.json else report.summary())
    return 0 if report.ok else CHECK_ERROR


def cmd_model_selftest(args) -> int:
    from .model import selftest
    report = selftest.run(max_dim=args.max_dim, fixtures_path=args.fixtures)
    print(report.to_json() if args.json else report.summary())
    return 0 if report.ok else CHECK_ERROR


def build_arg_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="utk", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    chk = sub.add_parser("check", help="type check files")
    chk.add_argument("files", nargs="+")
    chk.add_argument("--json", action="store_true")
    chk.set_defaults(fn=cmd_check)

    nrm = sub.add_parser("normalize", help="normalize a definition")
    nrm.add_argument("files", nargs="+")
    nrm.add_argument("--def", dest="definition", required=True)
    nrm.add_argument("--json", action="store_true")
    nrm.set_defaults(fn=cmd_normalize)

    cor = sub.add_parser("corpus", help="check the shipped corpus")
    cor.add_argument("--dir", default=None)
    cor.add_argument("--json", action="store_true")
    cor.set_defaults(fn=cmd_corpus)

    mst = sub.add_parser("model-selftest", help="run the cubical model checks")
    mst.add_argument("--max-dim", type=int, default=2)
    mst.add_argument("--fixtures", default=None)
    mst.add_argument("--json", action="store_true")
    mst.set_defaults(fn=cmd_model_selftest)
    return top


def run_cli(argv) -> int:
    try:
        args = build_arg_parser().parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0, None) else 0
    # the one error handler of every subcommand: unreadable input, a parse
    # error or a crash prints `error: ...` and exits 2
    try:
        return args.fn(args)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
