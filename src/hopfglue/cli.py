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

Every process loads the four layers, sweep included; only ``selftest``
loads :mod:`hopfglue.selftest`.  The CLI states no invariant rule of its
own: ``classify`` reports ``group_of_mu`` of gcd(g, h), and ``compose``
reports ``pi1_two_log_transforms`` of its two surgeries and
``group_of_mu`` of the composed gluing and checks them with
``is_isomorphic``.  Every result type is an immutable tuple of its
fields, not a dataclass, so no command imports ``dataclasses`` or the
``inspect`` it would pull in.

Each command's options are one entry of ``_COMMANDS``.  ``main`` first
matches the arguments against that table without argparse (see
``_matched_args``).  Help, every usage error and whatever the matcher
declines go to the argparse parser built from the same table, with only
the named command's subparser when the first argument names one.  So a
command given with its exact options, each once, loads neither argparse
nor the gettext and locale it pulls in.  JSON is written by
``_json_text``, byte for byte as ``json.dumps(obj, indent=2,
sort_keys=True)`` writes it, so ``json`` is imported only to read a
document.  A sweep writes its header at once and then its rows in chunks
of about a thousand, since under ``PYTHONUNBUFFERED`` every write is a
system call.

``main`` runs one command and returns its exit code; tests, the benchmark
and library callers call it, and it leaves the garbage collector alone.
``run`` is the process entry point, for both ``python -m hopfglue.cli``
and the installed ``hopfglue`` script: it calls ``main`` and then
``gc.freeze()``.  That moves every live object into the permanent
generation, which the interpreter's exit-time collections skip, so they
no longer walk all that ``site`` and the package created; that walk took
close to a tenth of a short process.  The rest of shutdown still runs:
atexit handlers (``coverage run`` writes its data from one),
the final flush of stdout, which the closed-stdout path relies on, and
module teardown.  ``os._exit`` would be a little faster still, but it
ends the process inside ``run``, before any atexit handler and before
``python -m cProfile`` prints its report, so it is not used.
"""

from __future__ import annotations

import gc
import math
import os
import sys
from types import SimpleNamespace

from .abelian import is_isomorphic
from .gluing import (
    CONVENTION,
    GluingMatrix,
    LogTransformParams,
    NotHomologyHopfError,
    ReductionCertificate,
    calibrated_zeta_variant,
    certificate_failure,
    compose_two_fiber,
    group_of_mu,
    normalize_to_sl3,
    pi1_two_log_transforms,
    reduce_to_normal_form,
    reduce_to_standard,
)
from .linalg import IntMatrix, NotUnimodularError
from .sweep import SweepSpec, SweepSpecError, count_skipped, iter_sweep, summarize

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


def _group_report(group) -> dict:
    """The report of a group: its rank and its invariant factors."""
    return {"rank": group.rank, "invariant_factors": list(group.invariant_factors)}


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


def _json_text(obj, indent: str = "\n") -> str:
    """``json.dumps(obj, indent=2, sort_keys=True)``, for what the CLI writes.

    That is dicts with str keys, lists, tuples, ints, bools and strings of
    printable ASCII other than a double quote or backslash, which json.dumps
    writes between double quotes as they are.  ``indent`` is the newline and
    indentation that end the line before ``obj``.  An int beyond the int/str
    conversion limit raises ValueError, as it does in json.dumps.
    """
    if obj is True or obj is False:
        return "true" if obj else "false"
    if isinstance(obj, int):
        return "%d" % obj
    if isinstance(obj, str):
        return '"%s"' % obj
    inner = indent + "  "
    if isinstance(obj, dict):
        items = ['"%s": %s' % (k, _json_text(obj[k], inner)) for k in sorted(obj)]
        return "{%s%s}" % (inner + ("," + inner).join(items), indent) if items else "{}"
    items = [_json_text(v, inner) for v in obj]
    return "[%s%s]" % (inner + ("," + inner).join(items), indent) if items else "[]"


def _emit_json(obj) -> None:
    try:
        text = _json_text(obj)
    except ValueError as exc:  # an int beyond the int/str conversion limit
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
        group=_group_report(group_of_mu(report["gcd_gh"])),
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
    """The compose report: both routes to pi_1 = Z + Z/mu, compared as groups.

    The direct group is pi1_two_log_transforms of the two surgery
    relations, the other is group_of_mu of gcd(g, h) of the composed
    gluing; ``agreement`` is is_isomorphic of the two.
    """
    tp, tm = (plus.a, plus.b, plus.p), (minus.a, minus.b, minus.p)
    composed = compose_two_fiber(plus, minus)
    report = _gluing_report(composed)
    direct = pi1_two_log_transforms(*tp, *tm)
    via_matrix = group_of_mu(report["gcd_gh"])
    return dict(
        report,
        agreement=is_isomorphic(direct, via_matrix),
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
    # A flag given an empty value, as in --p-range=, is given.
    given = [flag is not None for flag in (args.direction_plus, args.direction_minus,
                                           args.p_range, args.q_range)]
    if args.random is not None:
        if any(given):
            raise DocumentError("--random cannot be combined with tuple-sweep flags")
        return SweepSpec.matrices(
            sample_count=args.random,
            seed=args.seed,
            word_length=args.word_length,
            homology_hopf_only=args.homology_hopf_only,
        )
    if not all(given):
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


def _summary_json_text(s, skipped: int) -> str:
    """The sweep summary as the document holds it, at its second level."""
    summary = {"counts_by_mu": s.mu_counts, "homology_hopf": s.homology_hopf_count,
               "skipped_non_primitive": skipped, "total": s.total}
    try:
        return _json_text(summary, "\n  ")
    except ValueError as exc:  # an int beyond the int/str conversion limit
        raise OutputError() from exc


def cmd_sweep(args) -> int:
    spec = _sweep_spec_from_args(args)
    csv = args.format == "csv"
    if csv:
        sys.stdout.write(CSV_HEADER + "\n")
    else:
        # The bytes of _emit_json on the whole document, written as the
        # records come.  Sorted, its keys are convention, mode, records,
        # summary and zeta_variant, and the three tags hold no bracket or
        # brace, so the document with an empty records array and summary
        # splits at its "[]" and "{}" into the text around the two.
        head, _, rest = _json_text({
            "convention": CONVENTION, "mode": spec.mode, "records": [], "summary": {},
            "zeta_variant": calibrated_zeta_variant(),
        }).partition("[]")
        before_summary, _, tail = rest.partition("{}")
        sys.stdout.write(head + "[")
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
            write(before_summary + _summary_json_text(s, count_skipped(spec)) + tail + "\n")
    finally:
        # Also when a row raises OutputError: every row before it is written.
        sys.stdout.write("".join(parts))
    return 0


def cmd_selftest(args) -> int:
    # Imported here so that the other commands do not load selftest.
    from .selftest import run_selftest

    return 0 if run_selftest(sys.stdout) else 1


# --- argument parsing -----------------------------------------------------


#: The help epilog of each command that takes comma-separated integers:
#: argparse reads a separate value that starts with "-" as an option.
_NEGATIVE_VALUES = ("A value that starts with '-' needs the --option=VALUE form, "
                    "as in --minus=-1,0,1.")

#: The input of classify and reduce: exactly one of --matrix and --file.
_MATRIX_INPUT = (
    ("--matrix", {"help": "9 comma-separated integers, row-major"}),
    ("--file", {"help": "path to a matrix document (JSON)"}),
)

#: Each command, in help order: its help line, the function that runs it,
#: its epilog, its required group of mutually exclusive options (empty if it
#: has none) and its other options.  An option is its flag and the keywords
#: of its add_argument call; the group comes first in every usage line.
_COMMANDS = {
    "classify": ("fundamental group and homology type", cmd_classify, _NEGATIVE_VALUES,
                 _MATRIX_INPUT, ()),
    "compose": ("compose two fiber surgeries", cmd_compose, _NEGATIVE_VALUES, (), (
        ("--plus", {"required": True, "help": "a,b,p triple"}),
        ("--minus", {"required": True, "help": "c,d,q triple"}),
        ("--plus-completion", {"help": "explicit completion, 9 integers"}),
        ("--minus-completion", {"help": "explicit completion, 9 integers"}),
    )),
    "reduce": ("reduce to normal form with a certificate", cmd_reduce, _NEGATIVE_VALUES,
               _MATRIX_INPUT, (
        ("--standard", {"action": "store_true",
                        "help": "continue past the normal form to the fixed standard gluing"}),
    )),
    "verify": ("check a reduction certificate", cmd_verify, None, (), (
        ("--file", {"help": "certificate document (JSON); stdin if omitted"}),
    )),
    "sweep": ("tabulate invariants over a parameter grid", cmd_sweep, _NEGATIVE_VALUES, (), (
        ("--direction-plus", {"help": "a,b for the first surgery"}),
        ("--direction-minus", {"help": "c,d for the second surgery"}),
        ("--p-range", {"help": "inclusive LO:HI for p"}),
        ("--q-range", {"help": "inclusive LO:HI for q"}),
        ("--random", {"type": int, "help": "sweep N random gluing matrices instead"}),
        ("--seed", {"type": int, "default": 0}),
        ("--word-length", {"type": int, "default": 12}),
        ("--homology-hopf-only", {"action": "store_true"}),
        # Accepted for compatibility; sweeps always run serially.
        ("--parallel", {"action": "store_true"}),
        ("--format", {"choices": ("json", "csv"), "default": "json"}),
    )),
    "selftest": ("run the built-in invariant suites", cmd_selftest, None, (), ()),
}


def build_parser(argv=None):
    """The hopfglue ``argparse.ArgumentParser``, for ``argv`` if it is given.

    When ``argv[0]`` names a command, only that command's subparser is
    built; otherwise (no argv, no command, ``--help``, an unknown command)
    all six are.  The single-command parser names all six in its usage
    line, so its error messages read as the full parser's would.
    """
    import argparse

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
    for name, (help_line, fn, epilog, group, options) in commands.items():
        p = sub.add_parser(name, help=help_line, epilog=epilog)
        if group:
            add = p.add_mutually_exclusive_group(required=True).add_argument
            for flag, keywords in group:
                add(flag, **keywords)
        for flag, keywords in options:
            p.add_argument(flag, **keywords)
        p.set_defaults(fn=fn)
    return parser


def _matched_args(argv):
    """The namespace ``build_parser(argv).parse_args(argv)`` returns, or None.

    This answers without argparse in one case only: ``argv[0]`` is a command
    and every later token is an exact long option of it, given at most once,
    as ``--opt=value``, as ``--opt value`` with a value that does not start
    with "-", or as a bare flag.  Every int and choice must convert and the
    required options must be there.  Anything else is left to argparse:
    help, abbreviations, repeats, values that start with "-" and every
    usage error.
    """
    if not argv or argv[0] not in _COMMANDS:
        return None
    _, fn, _, group, options = _COMMANDS[argv[0]]
    table = dict(group + options)
    given = {}
    tokens = iter(argv[1:])
    for token in tokens:
        flag, eq, value = token.partition("=")
        keywords = table.get(flag)
        if keywords is None or flag in given:
            return None
        if "action" in keywords:  # a store_true flag
            if eq:
                return None
            value = True
        else:
            if not eq:
                value = next(tokens, "-")  # a missing value declines as "-" does
                if value.startswith("-"):
                    return None
            try:
                value = keywords.get("type", str)(value)
            except ValueError:
                return None
            if value not in keywords.get("choices", (value,)):
                return None
        given[flag] = value
    if (group and len(given.keys() & dict(group)) != 1
            or any(kw.get("required") and flag not in given for flag, kw in options)):
        return None
    return SimpleNamespace(command=argv[0], fn=fn, **{
        flag[2:].replace("-", "_"):
            given.get(flag, kw.get("default", False if "action" in kw else None))
        for flag, kw in table.items()
    })


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        try:
            args = _matched_args(argv) or build_parser(argv).parse_args(argv)
            code = args.fn(args)
        except SystemExit as exc:  # --help, or a usage error argparse reported
            code = int(exc.code or 0)
        except (DocumentError, SweepSpecError, OutputError) as exc:
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
