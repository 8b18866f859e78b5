"""Command-line driver: translate, check and lint Wright descriptions.

``wright2csp translate in.wrt out.fdr2`` writes the FDR file;
``wright2csp check in.wrt`` additionally discharges every generated assertion
in-process and prints one PASS/FAIL line per assertion (UNKNOWN, with the
reason, for one the engine could not decide, such as one over the state cap);
``wright2csp lint in.wrt`` runs the static checks only.

Every command exits 0 when everything passes, 1 when an assertion FAILs, and
2 on an input error (unreadable input, a file that is not UTF-8 included;
unwritable output; parse or static-semantics error) or when an assertion is
UNKNOWN and none FAILs.  It also exits 2, quietly, when standard output is
closed before everything is written (``wright2csp check big.wrt | head -1``).

For compatibility with the historical positional form,
``wright2csp in.wrt out.fdr2`` behaves like ``translate``.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile

from . import alphabets, analyzer, codegen
from .engine import DEFAULT_MAX_STATES, TICK, EngineError, assertion_verdicts
from .parser import ParseError, parse_source

EXIT_OK, EXIT_FAIL, EXIT_ERROR = 0, 1, 2  # see the module docstring


def _eprint(*args: object) -> None:
    print(*args, file=sys.stderr)


def _load(path: str, strict_attachments: bool = False):
    """Parse and statically check a file.

    Returns (spec, diagnostics) or None after printing errors.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            source = fh.read()
    except OSError as exc:
        _eprint(f"can't open file for input: {path}. ({exc.strerror})")
        return None
    except UnicodeDecodeError as exc:  # ``read()`` decodes the whole file at once: ``start`` is a file offset
        _eprint(f"can't read file for input: {path}. (byte 0x{exc.object[exc.start]:02x} "
                f"at offset {exc.start} is not UTF-8)")
        return None
    try:
        spec, warnings = parse_source(source)
    except ParseError as exc:
        _eprint(f"{path}:{exc}")
        _eprint("a problem occurred in the parsing stage.")
        return None
    _eprint("Parsing complete.")
    for w in warnings:
        _eprint(f"{path}:{w}")
    diags = analyzer.analyze(spec, strict=strict_attachments)
    diags.extend(alphabets.annotate(spec))
    for d in diags:
        _eprint(f"{path}:{d}")
    if analyzer.has_errors(diags):
        return None
    return spec


def _write_atomic(path: str, text: str) -> bool:
    """Write the whole file or nothing; False, after printing why, if it cannot."""
    directory = os.path.dirname(os.path.abspath(path))
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".wright2csp-", suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        _eprint(f"can't write output file: {path}. ({exc.strerror})")
        return False
    return True


def cmd_translate(args: argparse.Namespace) -> int:
    spec = _load(args.infile)
    if spec is None:
        return EXIT_ERROR
    plan = codegen.emit(spec)
    for d in plan.diagnostics:
        _eprint(f"{args.infile}:{d}")
    if not _write_atomic(args.outfile, plan.text):
        return EXIT_ERROR
    _eprint("wr2fdr done.")
    return EXIT_OK


def cmd_check(args: argparse.Namespace) -> int:
    spec = _load(args.infile)
    if spec is None:
        return EXIT_ERROR
    plan = codegen.emit(spec)
    for d in plan.diagnostics:
        _eprint(f"{args.infile}:{d}")
    if args.outfile and not _write_atomic(args.outfile, plan.text):
        return EXIT_ERROR
    failed = unknown = False
    for label, verdict in assertion_verdicts(plan.assertions, plan.definitions, args.max_states):
        if isinstance(verdict, EngineError):
            # this assertion stays undecided; the others still get their verdicts
            _eprint(f"{args.infile}: {label}: {verdict}")
            print(f"UNKNOWN  {label}  ({verdict})")
            unknown = True
        elif verdict.holds:
            print(f"PASS  {label}")
        else:
            trace, kind = verdict.counterexample
            shown = ", ".join("tick" if a == TICK else a for a in trace) or "<empty>"
            print(f"FAIL  {label}  ({kind} after trace <{shown}>)")
            failed = True
    _eprint("wr2fdr done.")
    return EXIT_FAIL if failed else EXIT_ERROR if unknown else EXIT_OK


def cmd_lint(args: argparse.Namespace) -> int:
    spec = _load(args.infile, strict_attachments=args.strict_attachments)
    return EXIT_OK if spec is not None else EXIT_ERROR


def _state_cap(text: str) -> int:
    """The value of ``--max-states``: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wright2csp",
        description="Translate Wright architecture descriptions to FDR-checkable CSP",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_tr = sub.add_parser("translate", help="translate a .wrt file to a .fdr2 file")
    p_tr.add_argument("infile")
    p_tr.add_argument("outfile")
    p_tr.set_defaults(func=cmd_translate)

    p_ck = sub.add_parser("check", help="translate and discharge all assertions in-process")
    p_ck.add_argument("infile")
    p_ck.add_argument("-o", "--outfile", default=None)
    p_ck.add_argument("--max-states", type=_state_cap, default=DEFAULT_MAX_STATES)
    p_ck.set_defaults(func=cmd_check)

    p_li = sub.add_parser("lint", help="static analysis only")
    p_li.add_argument("infile")
    p_li.add_argument("--strict-attachments", action="store_true")
    p_li.set_defaults(func=cmd_lint)

    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # historical positional form: wright2csp <infile> <fdrfile>
    if len(argv) == 2 and argv[0] not in ("translate", "check", "lint") and not argv[0].startswith("-"):
        argv = ["translate", *argv]
    if not argv:
        _eprint("usage: wright2csp <infile> <fdrfile>")
        return EXIT_ERROR
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader went away.  Point stdout at devnull so that the flush at
        # interpreter exit does not fail again (the Python docs' SIGPIPE note).
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_ERROR
    return code


if __name__ == "__main__":
    sys.exit(main())
