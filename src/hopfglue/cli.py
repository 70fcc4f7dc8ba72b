"""Command-line front end: classify, compose, reduce, verify, sweep, selftest.

Machine-readable output (JSON or CSV) goes to stdout, diagnostics to
stderr.  Exit codes: 0 success, 1 selftest failure or stdout closed
before the output was complete, 2 parse/validation failure (JSON nested
too deeply to parse included), 3 cross-invariant disagreement, 4 not a
homology Hopf gluing, 5 invalid certificate.  Commands raise; ``main``
maps the errors to these codes.

JSON is always emitted with sorted keys and two-space indentation, so
identical inputs produce byte-identical output.  A result holding an
integer too long for the interpreter's int/str conversion limit is a
validation failure (exit 2), not a crash.

Each process loads only what its command uses.  ``classify`` and
``compose`` report the group Z + Z/mu from the integer mu, so they never
import ``hopfglue.abelian``; ``compose`` checks its two routes by
comparing their mus.  Every result type is an immutable tuple of its
fields, not a dataclass, so no command, a sweep included, imports
``dataclasses`` or the ``inspect`` it would pull in.  When the first
argument names a command, only that command's subparser is built.
``json`` is imported only to read a document or to print a classify,
compose or reduce report; sweeps format their JSON and CSV directly.  A
sweep writes its header at once and then its rows in chunks of about a
thousand, since under ``PYTHONUNBUFFERED`` every write is a system call.

``main`` runs one command and returns its exit code; tests, the benchmark
and library callers call it, and it leaves the garbage collector alone.
``run`` is the process entry point, for both ``python -m hopfglue.cli``
and the installed ``hopfglue`` script: it calls ``main`` and then
``gc.freeze()``.  That moves every live object into the permanent
generation, which the interpreter's exit-time collections skip, so they
no longer walk all that ``site``, argparse, json and the package created;
that walk took close to a tenth of a short process.  The rest of shutdown
still runs: atexit handlers (``coverage run`` writes its data from one),
the final flush of stdout, which the closed-stdout path relies on, and
module teardown.  ``os._exit`` would be a little faster still, but it
ends the process inside ``run``, before any atexit handler and before
``python -m cProfile`` prints its report, so it is not used.
"""

from __future__ import annotations

import argparse
import gc
import math
import os
import sys

from .gluing import (
    CONVENTION,
    GluingMatrix,
    LogTransformParams,
    NotHomologyHopfError,
    ReductionCertificate,
    _rank_and_factors,
    _two_log_mu,
    calibrated_zeta_variant,
    certificate_failure,
    compose_two_fiber,
    normalize_to_sl3,
    reduce_to_normal_form,
    reduce_to_standard,
)
from .linalg import IntMatrix, NotUnimodularError

CSV_HEADER = "a,b,p,c,d,q,mu,homology_hopf,rank,invariant_factors"

#: How the factor lists of a certificate document apply to its input.
FACTOR_ORDER = (
    "left_factors[0] @ ... @ left_factors[-1] @ input"
    " @ right_factors[0] @ ... @ right_factors[-1] == output"
)


class DocumentError(ValueError):
    """A document failed to parse or validate."""


class OutputError(ValueError):
    """A result holds an integer too long to write as decimal text."""

    def __init__(self):
        super().__init__(
            "result holds an integer longer than the interpreter's "
            f"{sys.get_int_max_str_digits()}-digit int/str conversion limit"
        )


# --- document (de)serialization -----------------------------------------


def _lists_to_matrix(obj, what="matrix", index=None) -> IntMatrix:
    """``obj`` as an IntMatrix if it is a list of three lists of three ints.

    Otherwise DocumentError names ``what``, followed by ``index`` if one is
    given; the label is formatted only then.  A bool is not an int here.
    """
    if isinstance(obj, list) and len(obj) == 3:
        r0, r1, r2 = obj
        if (isinstance(r0, list) and isinstance(r1, list) and isinstance(r2, list)
                and len(r0) == len(r1) == len(r2) == 3):
            rows = (tuple(r0), tuple(r1), tuple(r2))
            # One pass collects the entry types; each distinct type is checked once.
            kinds = set(map(type, rows[0] + rows[1] + rows[2]))
            if kinds == {int} or all(issubclass(t, int) and t is not bool for t in kinds):
                return IntMatrix._trusted(rows)
    if index is not None:
        what = f"{what} {index}"
    raise DocumentError(f"{what} must be a 3x3 array of integers")


def _gluing(m: IntMatrix, context: str = "") -> GluingMatrix:
    try:
        return GluingMatrix(m)
    except NotUnimodularError as exc:
        raise DocumentError(context + str(exc)) from exc


def matrix_document(m: GluingMatrix) -> dict:
    return {
        "matrix": m.matrix.to_lists(),
        "convention": CONVENTION,
        "zeta_variant": calibrated_zeta_variant(),
    }


def parse_matrix_document(obj) -> GluingMatrix:
    if not isinstance(obj, dict) or "matrix" not in obj:
        raise DocumentError('matrix document needs a "matrix" key')
    conv = obj.get("convention", CONVENTION)
    if conv != CONVENTION:
        raise DocumentError(f"unsupported convention {conv!r}")
    return _gluing(_lists_to_matrix(obj["matrix"]))


def certificate_document(cert: ReductionCertificate) -> dict:
    return {
        "input": list(map(list, cert.input._rows)),
        "output": list(map(list, cert.output._rows)),
        "left_factors": [list(map(list, f._rows)) for f in cert.left_factors],
        "right_factors": [list(map(list, f._rows)) for f in cert.right_factors],
        "order": FACTOR_ORDER,
        "convention": CONVENTION,
        "zeta_variant": calibrated_zeta_variant(),
    }


def parse_certificate_document(obj) -> ReductionCertificate:
    if not isinstance(obj, dict):
        raise DocumentError("certificate document must be a JSON object")
    for key in ("input", "output", "left_factors", "right_factors"):
        if key not in obj:
            raise DocumentError(f'certificate document needs a "{key}" key')
    for key in ("left_factors", "right_factors"):
        if not isinstance(obj[key], list):
            raise DocumentError(f'"{key}" must be an array')
    for key, tag in (("order", FACTOR_ORDER), ("convention", CONVENTION),
                     ("zeta_variant", calibrated_zeta_variant())):
        if obj.get(key, tag) != tag:
            raise DocumentError(f"unsupported {key} {obj[key]!r}")
    # The product identity then forces the output to be unimodular too.
    return ReductionCertificate(
        input=_gluing(_lists_to_matrix(obj["input"], "input"),
                      "input is not a gluing: ").matrix,
        left_factors=tuple(
            _lists_to_matrix(f, "left factor", i)
            for i, f in enumerate(obj["left_factors"])
        ),
        right_factors=tuple(
            _lists_to_matrix(f, "right factor", i)
            for i, f in enumerate(obj["right_factors"])
        ),
        output=_lists_to_matrix(obj["output"], "output"),
    )


def _group_report(mu: int) -> dict:
    """The report of the group Z + Z/mu, built without building the group."""
    rank, factors = _rank_and_factors(mu)
    return {"rank": rank, "invariant_factors": list(factors)}


def _gluing_report(gm: GluingMatrix) -> dict:
    """The keys classify and compose both print about a gluing."""
    mu = math.gcd(gm.g, gm.h)
    return {
        "convention": CONVENTION,
        "det": gm.det,
        "g": gm.g,
        "h": gm.h,
        "gcd_gh": mu,
        "homology_hopf": mu == 1,
        "zeta_variant": calibrated_zeta_variant(),
    }


def _emit_json(obj) -> None:
    import json

    try:
        text = json.dumps(obj, indent=2, sort_keys=True)
    except ValueError as exc:  # the only failure on plain ints, lists and dicts
        raise OutputError() from exc
    sys.stdout.write(text + "\n")


def _fail(message: str, code: int) -> int:
    sys.stderr.write(f"error: {message}\n")
    return code


# --- input helpers -------------------------------------------------------


def _parse_int_list(text: str, count: int, what: str) -> tuple:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != count:
        raise DocumentError(f"{what} needs {count} comma-separated integers")
    try:
        return tuple(int(p) for p in parts)
    except ValueError as exc:
        raise DocumentError(f"bad integer in {what}: {exc}") from exc


def _parse_matrix(text: str) -> IntMatrix:
    v = _parse_int_list(text, 9, "matrix")
    return IntMatrix([v[0:3], v[3:6], v[6:9]])


def _parse_range(text: str, what: str) -> tuple:
    lo, sep, hi = text.partition(":")
    if not sep:
        raise DocumentError(f"{what} must look like LO:HI")
    try:
        return (int(lo), int(hi))
    except ValueError as exc:
        raise DocumentError(f"bad integer in {what}: {exc}") from exc


def _read_json(path):
    """The JSON document in the file at path, or on stdin if path is None."""
    import json

    name = "stdin" if path is None else path
    try:
        if path is None:
            text = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        return json.loads(text)
    except OSError as exc:
        raise DocumentError(f"cannot read {name}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # bad, oversize or too deep
        raise DocumentError(f"cannot parse {name}: {exc}") from exc


def _load_gluing_matrix(args) -> GluingMatrix:
    if args.file is not None:
        return parse_matrix_document(_read_json(args.file))
    return _gluing(_parse_matrix(args.matrix))


# --- commands ------------------------------------------------------------


def cmd_classify(args) -> int:
    gm = _load_gluing_matrix(args)
    report = _gluing_report(gm)
    _emit_json(dict(
        report,
        group=_group_report(report["gcd_gh"]),
        matrix=gm.matrix.to_lists(),
    ))
    return 0


def _params_from_args(triple, completion_text, what):
    a, b, p = triple
    completion = None if completion_text is None else _parse_matrix(completion_text)
    try:
        return LogTransformParams(a, b, p, completion=completion)
    except ValueError as exc:
        raise DocumentError(f"{what}: {exc}") from exc


def _compose_report(plus: LogTransformParams, minus: LogTransformParams) -> dict:
    """The compose report: both routes to pi_1 = Z + Z/mu, compared by mu.

    The direct mu is the minor gcd of the two surgery relations, the other
    is gcd(g, h) of the composed gluing.  The groups Z + Z/mu of two mus
    are isomorphic exactly when the mus are equal, so ``agreement``
    compares the ints.  Both triples are already checked, as ints and as
    columns of determinant-1 completions, which makes them primitive.
    """
    tp, tm = (plus.a, plus.b, plus.p), (minus.a, minus.b, minus.p)
    composed = compose_two_fiber(plus, minus)
    report = _gluing_report(composed)
    direct = _two_log_mu(*tp, *tm)
    via_matrix = report["gcd_gh"]
    return dict(
        report,
        agreement=direct == via_matrix,
        composed_matrix=composed.matrix.to_lists(),
        group=_group_report(direct),
        group_from_composition=_group_report(via_matrix),
        minus=list(tm),
        plus=list(tp),
    )


def cmd_compose(args) -> int:
    tp = _parse_int_list(args.plus, 3, "--plus")
    tm = _parse_int_list(args.minus, 3, "--minus")
    report = _compose_report(_params_from_args(tp, args.plus_completion, "--plus"),
                             _params_from_args(tm, args.minus_completion, "--minus"))
    _emit_json(report)
    if not report["agreement"]:
        return _fail("fundamental-group routes disagree (convention bug)", 3)
    return 0


def cmd_reduce(args) -> int:
    gm = normalize_to_sl3(_load_gluing_matrix(args))
    cert = reduce_to_standard(gm) if args.standard else reduce_to_normal_form(gm)[1]
    _emit_json(certificate_document(cert))
    return 0


def cmd_verify(args) -> int:
    reason = certificate_failure(parse_certificate_document(_read_json(args.file)))
    if reason is None:
        sys.stdout.write("VALID\n")
        return 0
    sys.stdout.write(f"INVALID: {reason}\n")
    return 5


def _sweep_spec_from_args(args):
    from .sweep import SweepSpec

    if args.random is not None:
        if args.p_range or args.q_range or args.direction_plus or args.direction_minus:
            raise DocumentError("--random cannot be combined with tuple-sweep flags")
        return SweepSpec.matrices(
            sample_count=args.random,
            seed=args.seed,
            word_length=args.word_length,
            homology_hopf_only=args.homology_hopf_only,
        )
    if not (args.direction_plus and args.direction_minus and args.p_range and args.q_range):
        raise DocumentError(
            "tuple sweeps need --direction-plus, --direction-minus, "
            "--p-range and --q-range (or use --random N)"
        )
    a, b = _parse_int_list(args.direction_plus, 2, "--direction-plus")
    c, d = _parse_int_list(args.direction_minus, 2, "--direction-minus")
    return SweepSpec.tuples(
        a=(a, a), b=(b, b),
        p=_parse_range(args.p_range, "--p-range"),
        c=(c, c), d=(d, d),
        q=_parse_range(args.q_range, "--q-range"),
        homology_hopf_only=args.homology_hopf_only,
    )


#: Rows per write of a sweep: under PYTHONUNBUFFERED each write to stdout
#: is a system call of its own.
_CHUNK_ROWS = 1000


# One CSV row with its newline; matrix rows leave the six params empty.
_TUPLE_ROW = "%d,%d,%d,%d,%d,%d,%d,%s,%d,%s\n"
_MATRIX_ROW = ",,,,,,%d,%s,%d,%s\n"


def _record_csv_row(r) -> str:
    try:
        g = r.group
        factors = "|".join(map(str, g.invariant_factors))
        hh = "true" if r.homology_hopf else "false"
        if r.params is not None:
            return _TUPLE_ROW % (*r.params, r.mu, hh, g.rank, factors)
        return _MATRIX_ROW % (r.mu, hh, g.rank, factors)
    except ValueError as exc:  # an int beyond the int/str conversion limit
        raise OutputError() from exc


# One record of the sweep document, as json.dumps(indent=2, sort_keys=True)
# prints it inside the "records" array: the keys sorted, ints in decimal.
_TUPLE_RECORD = (
    '{\n      "a": %d,\n      "b": %d,\n      "c": %d,\n      "d": %d,\n'
    '      "homology_hopf": %s,\n      "invariant_factors": %s,\n'
    '      "mu": %d,\n      "p": %d,\n      "q": %d,\n      "rank": %d\n    }'
)
_MATRIX_RECORD = (
    '{\n      "homology_hopf": %s,\n      "invariant_factors": %s,\n'
    '      "matrix": [\n'
    + ",\n".join(["        [\n          %d,\n          %d,\n          %d\n        ]"] * 3)
    + '\n      ],\n      "mu": %d,\n      "rank": %d\n    }'
)


def _record_json_text(r) -> str:
    try:
        g = r.group
        factors = g.invariant_factors
        fs = ("[\n        %s\n      ]" % ",\n        ".join(map(str, factors))
              if factors else "[]")
        hh = "true" if r.homology_hopf else "false"
        if r.params is not None:
            a, b, p, c, d, q = r.params
            return _TUPLE_RECORD % (a, b, c, d, hh, fs, r.mu, p, q, g.rank)
        m0, m1, m2 = r.matrix.to_lists()
        return _MATRIX_RECORD % (hh, fs, *m0, *m1, *m2, r.mu, g.rank)
    except ValueError as exc:  # an int beyond the int/str conversion limit
        raise OutputError() from exc


def _write_json_records(write, records):
    """Write records as the elements of the document's "records" array.

    Yields each record once it is passed to ``write``, so the caller can
    tally them.
    """
    sep = "\n    "
    for r in records:
        write(sep + _record_json_text(r))
        sep = ",\n    "
        yield r
    write("]" if sep == "\n    " else "\n  ]")


# The sweep summary as json.dumps(indent=2, sort_keys=True) prints it at
# the document's second level; one template per (mu, count) pair.
_SUMMARY = (
    '{\n    "counts_by_mu": %s,\n    "homology_hopf": %d,\n'
    '    "skipped_non_primitive": %d,\n    "total": %d\n  }'
)
_MU_COUNT = "[\n        %d,\n        %d\n      ]"


def _summary_json_text(s, skipped: int) -> str:
    try:
        pairs = ",\n      ".join([_MU_COUNT % kv for kv in s.mu_counts])
        counts = "[\n      %s\n    ]" % pairs if pairs else "[]"
        return _SUMMARY % (counts, s.homology_hopf_count, skipped, s.total)
    except ValueError as exc:  # an int beyond the int/str conversion limit
        raise OutputError() from exc


def cmd_sweep(args) -> int:
    # Imported here so that the other commands do not load sweep.  A bad
    # spec becomes a DocumentError, so main's except table names no sweep
    # type.
    from .sweep import SweepSpecError, count_skipped, iter_sweep, summarize

    try:
        spec = _sweep_spec_from_args(args)
    except SweepSpecError as exc:
        raise DocumentError(str(exc)) from exc
    csv = args.format == "csv"
    if csv:
        sys.stdout.write(CSV_HEADER + "\n")
    else:
        # The bytes of _emit_json on the whole document, written as the
        # records come: sorted, the keys are convention, mode, records,
        # summary and zeta_variant, so everything after the records is known
        # by then.  The three tags are lowercase ASCII words and dashes,
        # which json.dumps prints as they are between double quotes.
        sys.stdout.write('{\n  "convention": "%s",\n  "mode": "%s",\n  "records": ['
                         % (CONVENTION, spec.mode))
    parts = []

    def write(text: str) -> None:
        parts.append(text)
        if len(parts) == _CHUNK_ROWS:
            sys.stdout.write("".join(parts))
            parts.clear()

    try:
        if csv:
            for row in map(_record_csv_row, iter_sweep(spec)):
                write(row)
        else:
            s = summarize(_write_json_records(write, iter_sweep(spec)))
            write(',\n  "summary": %s,\n  "zeta_variant": "%s"\n}\n'
                  % (_summary_json_text(s, count_skipped(spec)),
                     calibrated_zeta_variant()))
    finally:
        # Also when a row raises OutputError: every row before it is written.
        sys.stdout.write("".join(parts))
    return 0


def cmd_selftest(args) -> int:
    # Imported here so that the other commands do not load selftest.
    from .selftest import run_selftest

    return 0 if run_selftest(sys.stdout) else 1


# --- argument parsing -----------------------------------------------------


def _add_matrix_input(p):
    grp = p.add_mutually_exclusive_group(required=True)
    grp.add_argument(
        "--matrix",
        help="9 comma-separated integers, row-major",
    )
    grp.add_argument("--file", help="path to a matrix document (JSON)")


def _add_compose_args(p):
    p.add_argument("--plus", required=True, help="a,b,p triple")
    p.add_argument("--minus", required=True, help="c,d,q triple")
    p.add_argument("--plus-completion", help="explicit completion, 9 integers")
    p.add_argument("--minus-completion", help="explicit completion, 9 integers")


def _add_reduce_args(p):
    _add_matrix_input(p)
    p.add_argument(
        "--standard",
        action="store_true",
        help="continue past the normal form to the fixed standard gluing",
    )


def _add_verify_args(p):
    p.add_argument("--file", help="certificate document (JSON); stdin if omitted")


def _add_sweep_args(p):
    p.add_argument("--direction-plus", help="a,b for the first surgery")
    p.add_argument("--direction-minus", help="c,d for the second surgery")
    p.add_argument("--p-range", help="inclusive LO:HI for p")
    p.add_argument("--q-range", help="inclusive LO:HI for q")
    p.add_argument("--random", type=int, help="sweep N random gluing matrices instead")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--word-length", type=int, default=12)
    p.add_argument("--homology-hopf-only", action="store_true")
    # Accepted for compatibility; sweeps always run serially.
    p.add_argument("--parallel", action="store_true")
    p.add_argument("--format", choices=("json", "csv"), default="json")


#: Each command, in help order, with its help line, the function that runs
#: it and the function that adds its arguments to its subparser.
_COMMANDS = {
    "classify": ("fundamental group and homology type", cmd_classify, _add_matrix_input),
    "compose": ("compose two fiber surgeries", cmd_compose, _add_compose_args),
    "reduce": ("reduce to normal form with a certificate", cmd_reduce, _add_reduce_args),
    "verify": ("check a reduction certificate", cmd_verify, _add_verify_args),
    "sweep": ("tabulate invariants over a parameter grid", cmd_sweep, _add_sweep_args),
    "selftest": ("run the built-in invariant suites", cmd_selftest, None),
}


def build_parser(argv=None) -> argparse.ArgumentParser:
    """The hopfglue parser, for ``argv`` if it is given.

    When ``argv[0]`` names a command, only that command's subparser is
    built; otherwise (no argv, no command, ``--help``, an unknown command)
    all six are.  The single-command parser names all six in its usage
    line, so its error messages read as the full parser's would.
    """
    parser = argparse.ArgumentParser(
        prog="hopfglue",
        description="Invariants and certified reductions of T^2 x D^2 boundary gluings.",
    )
    command = argv[0] if argv else None
    if command in _COMMANDS:
        sub = parser.add_subparsers(dest="command", required=True,
                                    metavar="{%s}" % ",".join(_COMMANDS))
        commands = {command: _COMMANDS[command]}
    else:
        sub = parser.add_subparsers(dest="command", required=True)
        commands = _COMMANDS
    for name, (help_line, fn, add_arguments) in commands.items():
        p = sub.add_parser(name, help=help_line)
        if add_arguments is not None:
            add_arguments(p)
        p.set_defaults(fn=fn)
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        try:
            args = build_parser(argv).parse_args(argv)
            code = args.fn(args)
        except SystemExit as exc:  # --help, or a usage error argparse reported
            code = int(exc.code or 0)
        except (DocumentError, OutputError) as exc:
            code = _fail(str(exc), 2)
        except NotHomologyHopfError as exc:
            code = _fail(str(exc), 4)
        sys.stdout.flush()
    except BrokenPipeError:  # the reader went away, as in `hopfglue ... | head`
        # Point stdout at the null device so the interpreter's final flush
        # of what is still buffered stays silent.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    return code


def run(argv=None) -> int:
    """The process entry point: ``main(argv)``, then ``gc.freeze()``.

    Only a process about to exit calls this (see the module docstring).
    """
    code = main(argv)
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(run())
