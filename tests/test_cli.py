import contextlib
import enum
import gc
import io
import itertools
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hopfglue.abelian import FgAbelianGroup, Presentation, group_from_presentation, is_isomorphic
from hopfglue.cli import (
    CSV_HEADER,
    DocumentError,
    OutputError,
    FACTOR_ORDER,
    _compose_report,
    _group_report,
    _json_text,
    _lists_to_matrix,
    _record_csv_row,
    _record_json_text,
    _summary_json_text,
    certificate_document,
    main,
    matrix_document,
    parse_certificate_document,
    parse_matrix_document,
)
from hopfglue.gluing import (
    CONVENTION,
    GluingMatrix,
    LogTransformParams,
    calibrated_zeta_variant,
    compose_two_fiber,
    group_of_mu,
    normalize_to_sl3,
    pi1_single_gluing,
    pi1_two_log_transforms,
    random_completion,
    reduce_to_normal_form,
    reduce_to_standard,
    standard_gluing_matrix,
)
from hopfglue.linalg import IntMatrix, random_sl3
from hopfglue.sweep import SweepRecord, SweepSpec, SweepSummary, count_skipped, summarize, sweep
from oracles import ZETA
from oracles import lists_to_matrix as _first_lists_to_matrix
from oracles import record_json as _record_json

ZETA_ARG = "1,0,1,0,1,0,0,0,-1"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- classify ---------------------------------------------------------------


def test_classify_zeta_golden(capsys):
    code, out, err = run(capsys, "classify", "--matrix", ZETA_ARG)
    assert code == 0
    report = json.loads(out)
    assert report["homology_hopf"] is True
    assert report["group"] == {"rank": 1, "invariant_factors": []}
    assert report["det"] == -1
    assert (report["g"], report["h"], report["gcd_gh"]) == (1, 0, 1)
    # stable serialization: sorted keys, two-space indent, trailing newline
    assert out == json.dumps(report, indent=2, sort_keys=True) + "\n"


def test_classify_torsion_case(capsys):
    code, out, _ = run(capsys, "classify", "--matrix", "1,0,2,0,1,4,0,0,1")
    assert code == 0
    report = json.loads(out)
    assert report["homology_hopf"] is False
    assert report["group"] == {"rank": 1, "invariant_factors": [2]}


def test_classify_rejects_non_unimodular(capsys):
    code, out, err = run(capsys, "classify", "--matrix", "2,0,0,0,1,0,0,0,1")
    assert code == 2
    assert out == ""
    assert "determinant" in err


def test_classify_from_file(tmp_path, capsys):
    doc = tmp_path / "m.json"
    doc.write_text(json.dumps(matrix_document(ZETA)))
    code, out, _ = run(capsys, "classify", "--file", str(doc))
    assert code == 0
    assert json.loads(out)["homology_hopf"] is True


def test_classify_rejects_broken_documents(tmp_path, capsys):
    doc = tmp_path / "m.json"
    doc.write_text("{ not json")
    assert run(capsys, "classify", "--file", str(doc))[0] == 2
    doc.write_text(json.dumps({"matrix": [[1, 0], [0, 1]]}))
    assert run(capsys, "classify", "--file", str(doc))[0] == 2
    doc.write_text(json.dumps({"matrix": ZETA.matrix.to_lists(),
                               "convention": "rows-are-images"}))
    assert run(capsys, "classify", "--file", str(doc))[0] == 2
    assert run(capsys, "classify", "--file", str(tmp_path / "missing.json"))[0] == 2


# --- compose -----------------------------------------------------------------


def test_compose_trivial_surgeries(capsys):
    code, out, _ = run(capsys, "compose", "--plus", "0,0,1", "--minus", "0,0,1")
    assert code == 0
    report = json.loads(out)
    assert report["agreement"] is True
    assert report["composed_matrix"] == ZETA.matrix.to_lists()
    assert report["group"] == {"rank": 1, "invariant_factors": []}


def test_compose_torsion_three(capsys):
    code, out, _ = run(capsys, "compose", "--plus", "1,0,1", "--minus", "1,0,1")
    assert code == 0
    report = json.loads(out)
    assert report["agreement"] is True
    assert report["group"] == {"rank": 1, "invariant_factors": [3]}
    assert report["group_from_composition"] == report["group"]


def test_compose_rejects_non_primitive(capsys):
    code, out, err = run(capsys, "compose", "--plus", "2,0,2", "--minus", "0,0,1")
    assert code == 2
    assert "primitive" in err


def test_compose_explicit_completions(capsys):
    code, out, _ = run(
        capsys,
        "compose",
        "--plus", "0,0,1", "--minus", "0,0,1",
        "--plus-completion", "1,0,0,0,1,0,0,0,1",
        "--minus-completion", "0,-1,0,1,0,0,5,7,1",
    )
    assert code == 0
    assert json.loads(out)["agreement"] is True


def test_compose_disagreement_is_exit_three(capsys, monkeypatch):
    # the agreement check can only fail if the composition route is broken;
    # simulate that to confirm the reserved exit code is wired up
    wrong = GluingMatrix(IntMatrix([[1, 0, 2], [0, 1, 4], [0, 0, 1]]))
    monkeypatch.setattr("hopfglue.cli.compose_two_fiber", lambda p, m: wrong)
    code, out, err = run(capsys, "compose", "--plus", "0,0,1", "--minus", "0,0,1")
    assert code == 3
    assert json.loads(out)["agreement"] is False
    assert "disagree" in err


def _report_of(group):
    return {"rank": group.rank, "invariant_factors": list(group.invariant_factors)}


def test_group_reports_from_mu_match_the_smith_form_route():
    # Z + Z/mu is Z^2 modulo the relation (mu, 0).
    groups = [group_from_presentation(Presentation(2, [(mu, 0)])) for mu in range(201)]
    for mu, g in enumerate(groups):
        assert _group_report(group_of_mu(mu)) == _report_of(g), mu
    # Groups of two mus are isomorphic exactly when the mus are equal.
    for (x, gx), (y, gy) in itertools.product(enumerate(groups), repeat=2):
        assert (x == y) is is_isomorphic(gx, gy)


def test_compose_report_matches_the_group_route_on_the_box():
    triples = [t for t in itertools.product(range(-2, 3), repeat=3) if math.gcd(*t) == 1]
    canonical = {t: LogTransformParams(*t) for t in triples}
    # Completions other than the canonical one: compose takes mu from the
    # triples without checking them again.
    supplied = {t: LogTransformParams(*t, completion=random_completion(t, i))
                for i, t in enumerate(triples)}
    assert len(triples) ** 2 == 9604
    for params in (canonical, supplied):
        for tp, tm in itertools.product(triples, repeat=2):
            plus, minus = params[tp], params[tm]
            report = _compose_report(plus, minus)
            direct = pi1_two_log_transforms(*tp, *tm)
            via_matrix = pi1_single_gluing(compose_two_fiber(plus, minus))
            assert report["agreement"] is is_isomorphic(direct, via_matrix)
            assert report["group"] == _report_of(direct)
            assert report["group_from_composition"] == _report_of(via_matrix)
            assert (report["plus"], report["minus"]) == (list(tp), list(tm))


def test_compose_rejects_mismatched_completion(capsys):
    code, _, err = run(
        capsys,
        "compose",
        "--plus", "1,0,1", "--minus", "0,0,1",
        "--plus-completion", "1,0,0,0,1,0,0,0,1",
    )
    assert code == 2
    assert "third column" in err


def test_compose_rejects_non_unimodular_completion(capsys):
    for flag in ("--plus", "--minus"):
        code, out, err = run(
            capsys,
            "compose",
            "--plus", "1,0,1", "--minus", "1,0,1",
            f"{flag}-completion", "1,0,0,0,1,0,0,0,2",
        )
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {flag}: ")
        assert "determinant" in err


# --- reduce and verify ----------------------------------------------------------


def test_reduce_emits_verifiable_certificate(capsys):
    code, out, _ = run(capsys, "reduce", "--matrix", "1,0,2,0,1,1,0,0,1")
    assert code == 0
    doc = json.loads(out)
    assert doc["left_factors"] == [[[0, 1, 0], [-1, 2, 0], [0, 0, 1]]]
    assert doc["output"] == [[0, 1, 1], [-1, 2, 0], [0, 0, 1]]
    cert = parse_certificate_document(doc)
    _, expected = reduce_to_normal_form(GluingMatrix(IntMatrix([[1, 0, 2], [0, 1, 1], [0, 0, 1]])))
    assert cert == expected


def test_reduce_standard_on_standard_input(capsys):
    code, out, _ = run(capsys, "reduce", "--standard", "--matrix", "1,0,1,0,1,0,0,0,1")
    assert code == 0
    doc = json.loads(out)
    assert doc["left_factors"] == [] and doc["right_factors"] == []
    assert doc["input"] == doc["output"] == standard_gluing_matrix().matrix.to_lists()


def test_reduce_normalizes_orientation(capsys):
    code, out, _ = run(capsys, "reduce", "--standard", "--matrix", ZETA_ARG)
    assert code == 0
    doc = json.loads(out)
    assert doc["input"] == normalize_to_sl3(ZETA).matrix.to_lists()
    assert doc["output"] == standard_gluing_matrix().matrix.to_lists()


def test_reduce_rejects_non_homology_hopf(capsys):
    code, out, err = run(capsys, "reduce", "--matrix", "1,0,2,0,1,4,0,0,1")
    assert code == 4
    assert out == ""
    assert "gcd(g, h) = gcd(2, 4) = 2" in err


@pytest.mark.parametrize("flags", [[], ["--standard"]], ids=["normal", "standard"])
def test_reduce_refuses_mu_zero(capsys, flags):
    # The private class path reaches C(0, 1) = I; the public command refuses it.
    code, out, err = run(capsys, "reduce", *flags, "--matrix", "1,0,0,0,1,0,0,0,1")
    assert (code, out) == (4, "")
    assert err == "error: gcd(g, h) = gcd(0, 0) = 0 != 1: not a homology Hopf gluing\n"


def test_verify_roundtrip_via_files(tmp_path, capsys):
    code, out, _ = run(capsys, "reduce", "--matrix", "1,0,2,0,1,1,0,0,1")
    cert_path = tmp_path / "cert.json"
    cert_path.write_text(out)
    code, out, _ = run(capsys, "verify", "--file", str(cert_path))
    assert code == 0
    assert out == "VALID\n"


def test_verify_detects_tampering(tmp_path, capsys):
    _, out, _ = run(capsys, "reduce", "--matrix", "1,0,2,0,1,1,0,0,1")
    doc = json.loads(out)
    doc["output"][0][0] += 1
    cert_path = tmp_path / "cert.json"
    cert_path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "verify", "--file", str(cert_path))
    assert code == 5
    assert out.startswith("INVALID")

    doc = json.loads(run(capsys, "reduce", "--matrix", "1,0,2,0,1,1,0,0,1")[1])
    doc["left_factors"][0][2][2] = 2
    cert_path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "verify", "--file", str(cert_path))
    assert code == 5
    assert "left factor 0" in out


def test_verify_rejects_truncated_json(tmp_path, capsys):
    cert_path = tmp_path / "cert.json"
    cert_path.write_text('{"input": [[1,0,1],[0,1,0],[0,0,1]], "output":')
    code, _, err = run(capsys, "verify", "--file", str(cert_path))
    assert code == 2
    assert "parse" in err


def test_verify_reads_stdin(tmp_path, capsys, monkeypatch):
    import io

    _, out, _ = run(capsys, "reduce", "--matrix", "1,0,2,0,1,1,0,0,1")
    monkeypatch.setattr("sys.stdin", io.StringIO(out))
    code, out, _ = run(capsys, "verify")
    assert code == 0 and out == "VALID\n"


def test_verify_rejects_input_that_is_not_a_gluing(tmp_path, capsys):
    diag = [[2, 0, 0], [0, 1, 0], [0, 0, 1]]
    cert_path = tmp_path / "cert.json"
    cert_path.write_text(json.dumps(
        {"input": diag, "output": diag, "left_factors": [], "right_factors": []}
    ))
    code, out, err = run(capsys, "verify", "--file", str(cert_path))
    assert code == 2
    assert out == ""
    assert "input" in err


@pytest.mark.parametrize("text", ["[]", "3", '"x"', "null"])
@pytest.mark.parametrize("source", ["stdin", "file"])
def test_verify_rejects_a_document_that_is_not_an_object(tmp_path, capsys, monkeypatch,
                                                         text, source):
    if source == "stdin":
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        argv = ("verify",)
    else:
        cert_path = tmp_path / "cert.json"
        cert_path.write_text(text)
        argv = ("verify", "--file", str(cert_path))
    assert run(capsys, *argv) == (
        2, "", "error: certificate document must be a JSON object\n")


def test_verify_checks_document_tags(tmp_path, capsys):
    doc = json.loads(run(capsys, "reduce", "--matrix", "1,0,2,0,1,1,0,0,1")[1])
    cert_path = tmp_path / "cert.json"
    for key in ("order", "convention", "zeta_variant"):
        cert_path.write_text(json.dumps(dict(doc, **{key: "bogus"})))
        code, out, err = run(capsys, "verify", "--file", str(cert_path))
        assert code == 2
        assert out == ""
        assert key in err
    for key in ("order", "convention", "zeta_variant"):
        del doc[key]
    cert_path.write_text(json.dumps(doc))
    assert run(capsys, "verify", "--file", str(cert_path))[:2] == (0, "VALID\n")


@pytest.mark.parametrize("argv", [
    ("verify",), ("verify", "--file"), ("classify", "--file"), ("reduce", "--file"),
])
def test_too_deeply_nested_json_exits_two(tmp_path, capsys, monkeypatch, argv):
    deep = "[" * 1500 + "]" * 1500
    path = tmp_path / "deep.json"
    path.write_text(deep)
    monkeypatch.setattr("sys.stdin", io.StringIO(deep))
    code, out, err = run(capsys, *argv, *([str(path)] if "--file" in argv else []))
    assert (code, out) == (2, "")
    assert err.startswith("error: cannot parse ") and "recursion" in err


# A 5001-digit entry: over the interpreter's int/str conversion limit where
# one is set (4,300 digits by default), and a non-unimodular matrix otherwise.
HUGE_DIAG = "[[1" + "0" * 5000 + ", 0, 0], [0, 1, 0], [0, 0, 1]]"
INT_LIMIT_HIT = 0 < getattr(sys, "get_int_max_str_digits", lambda: 0)() < 5001


def test_oversize_integers_in_documents_exit_two(tmp_path, capsys, monkeypatch):
    cert = ('{"input": %s, "output": %s, "left_factors": [], "right_factors": []}'
            % (HUGE_DIAG, HUGE_DIAG))
    cert_path = tmp_path / "cert.json"
    cert_path.write_text(cert)
    monkeypatch.setattr("sys.stdin", io.StringIO(cert))
    for argv in (("verify", "--file", str(cert_path)), ("verify",)):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        if INT_LIMIT_HIT:
            assert "parse" in err

    doc = tmp_path / "m.json"
    doc.write_text('{"matrix": %s}' % HUGE_DIAG)
    code, out, _ = run(capsys, "classify", "--file", str(doc))
    assert code == 2 and out == ""


# Ten to the 4000th: parses, but products and gcds of it exceed the
# interpreter's 4,300-digit int/str limit when the result is written.
BIG = "1" + "0" * 4000


@pytest.mark.skipif(
    not 4001 <= getattr(sys, "get_int_max_str_digits", lambda: 0)() < 8000,
    reason="needs an int/str conversion limit that lets BIG parse but not its square",
)
@pytest.mark.parametrize("argv", [
    ("compose", "--plus", f"1,0,{BIG}", "--minus", f"1,0,{BIG}"),
    ("sweep", "--direction-plus", "1,0", "--direction-minus", "1,0",
     f"--p-range={BIG}:{BIG}", f"--q-range={BIG}:{BIG}"),
    ("sweep", "--direction-plus", "1,0", "--direction-minus", "1,0",
     f"--p-range={BIG}:{BIG}", f"--q-range={BIG}:{BIG}", "--format", "csv"),
])
def test_oversize_computed_integers_exit_two(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("error: ") and "Traceback" not in err
    assert f"{sys.get_int_max_str_digits()}-digit" in err


def test_oversize_determinant_is_reported_by_size(tmp_path, capsys):
    # Entries that parse, with a determinant too long to print in decimal.
    big = 10**1500
    rows = [[big, 1, 0], [0, big, 1], [1, 0, big]]
    nine = ",".join(str(x) for row in rows for x in row)
    code, out, err = run(capsys, "classify", f"--matrix={nine}")
    assert (code, out) == (2, "")
    assert err.startswith("error: determinant is ") and "bits" in err
    cert = tmp_path / "cert.json"
    cert.write_text(json.dumps({"input": rows, "output": rows,
                                "left_factors": [], "right_factors": []}))
    code, out, err = run(capsys, "verify", "--file", str(cert))
    assert (code, out) == (2, "")
    assert "input is not a gluing" in err


# --- sweep -----------------------------------------------------------------------


SWEEP_ARGS = (
    "sweep",
    "--direction-plus", "1,0",
    "--direction-minus", "1,0",
    "--p-range", "0:2",
    "--q-range", "0:2",
)

GOLDEN_CSV = (
    CSV_HEADER
    + "\n"
    + "\n".join(
        [
            "1,0,0,1,0,0,0,false,2,",
            "1,0,0,1,0,1,1,true,1,",
            "1,0,0,1,0,2,2,false,1,2",
            "1,0,1,1,0,0,1,true,1,",
            "1,0,1,1,0,1,3,false,1,3",
            "1,0,1,1,0,2,5,false,1,5",
            "1,0,2,1,0,0,2,false,1,2",
            "1,0,2,1,0,1,5,false,1,5",
            "1,0,2,1,0,2,8,false,1,8",
        ]
    )
    + "\n"
)


def test_sweep_csv_golden(capsys):
    code, out, _ = run(capsys, *SWEEP_ARGS, "--format", "csv")
    assert code == 0
    assert out == GOLDEN_CSV


def test_sweep_csv_deterministic_and_parallel_identical(capsys):
    first = run(capsys, *SWEEP_ARGS, "--format", "csv")[1]
    second = run(capsys, *SWEEP_ARGS, "--format", "csv")[1]
    parallel = run(capsys, *SWEEP_ARGS, "--format", "csv", "--parallel")[1]
    assert first == second == parallel


def test_sweep_random_zero_gives_header_only(capsys):
    code, out, _ = run(capsys, "sweep", "--random", "0", "--format", "csv")
    assert code == 0
    assert out == CSV_HEADER + "\n"


def test_sweep_random_rows_leave_tuple_columns_empty(capsys):
    code, out, _ = run(capsys, "sweep", "--random", "3", "--seed", "5", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 4
    for line in lines[1:]:
        assert line.startswith(",,,,,,")


def test_sweep_json_mode(capsys):
    code, out, _ = run(capsys, *SWEEP_ARGS)
    assert code == 0
    doc = json.loads(out)
    assert len(doc["records"]) == 9
    assert doc["summary"]["total"] == 9
    assert doc["summary"]["homology_hopf"] == 2
    assert doc["summary"]["skipped_non_primitive"] == 0
    assert doc["summary"]["counts_by_mu"] == [[0, 1], [1, 2], [2, 2], [3, 1], [5, 2], [8, 1]]
    assert doc["records"][0] == {
        "a": 1, "b": 0, "p": 0, "c": 1, "d": 0, "q": 0,
        "mu": 0, "homology_hopf": False, "rank": 2, "invariant_factors": [],
    }


def _whole_document(spec):
    """The JSON sweep document built in memory and dumped in one call."""
    records = sweep(spec)
    s = summarize(records)
    doc = {
        "convention": "columns-are-images-alpha-beta-gamma",
        "mode": spec.mode,
        "records": [_record_json(r) for r in records],
        "summary": {
            "counts_by_mu": [[mu, n] for mu, n in s.mu_counts],
            "homology_hopf": s.homology_hopf_count,
            "skipped_non_primitive": count_skipped(spec),
            "total": s.total,
        },
        "zeta_variant": "zeta",
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("argv, spec", [
    # empty sweeps: no samples, only non-primitive cells, no homology-Hopf cell
    (("--random", "0"), SweepSpec.matrices(0)),
    (("--direction-plus", "0,0", "--direction-minus", "2,2", "--p-range=0:0",
      "--q-range=-2:2"),
     SweepSpec.tuples((0, 0), (0, 0), (0, 0), (2, 2), (2, 2), (-2, 2))),
    (("--direction-plus", "1,0", "--direction-minus", "1,0", "--p-range=0:0",
      "--q-range=0:0", "--homology-hopf-only"),
     SweepSpec.tuples((1, 1), (0, 0), (0, 0), (1, 1), (0, 0), (0, 0), True)),
    # tuple sweeps, with and without the filter, and a gcd-2 direction
    (("--direction-plus", "1,2", "--direction-minus", "3,1", "--p-range=-4:4",
      "--q-range=-3:5"),
     SweepSpec.tuples((1, 1), (2, 2), (-4, 4), (3, 3), (1, 1), (-3, 5))),
    (("--direction-plus", "2,0", "--direction-minus", "1,1", "--p-range=-4:4",
      "--q-range=-3:5", "--homology-hopf-only"),
     SweepSpec.tuples((2, 2), (0, 0), (-4, 4), (1, 1), (1, 1), (-3, 5), True)),
    # random sweeps
    (("--random", "40", "--seed", "5", "--word-length", "48"),
     SweepSpec.matrices(40, seed=5, word_length=48)),
    (("--random", "60", "--seed", "9", "--homology-hopf-only"),
     SweepSpec.matrices(60, seed=9, homology_hopf_only=True)),
])
def test_streamed_json_sweep_is_byte_identical_to_one_dump(capsys, argv, spec):
    code, out, err = run(capsys, "sweep", *argv)
    assert (code, err) == (0, "")
    assert out == _whole_document(spec)


MANY_MU = ("--direction-plus", "1,0", "--direction-minus", "1,0",
           "--p-range=0:99", "--q-range=0:99")
MANY_MU_SPEC = SweepSpec.tuples((1, 1), (0, 0), (0, 99), (1, 1), (0, 0), (0, 99))


@pytest.mark.parametrize("argv, spec", [
    # 10,000 rows holding about 2,900 distinct mu
    (MANY_MU, MANY_MU_SPEC),
    (MANY_MU + ("--homology-hopf-only",),
     SweepSpec.tuples((1, 1), (0, 0), (0, 99), (1, 1), (0, 0), (0, 99), homology_hopf_only=True)),
    # multi-digit matrix entries
    (("--random", "80", "--seed", "13", "--word-length", "192"),
     SweepSpec.matrices(80, seed=13, word_length=192)),
    (("--random", "80", "--seed", "13", "--word-length", "192", "--homology-hopf-only"),
     SweepSpec.matrices(80, seed=13, word_length=192, homology_hopf_only=True)),
    # empty: (2, 0, 0) is not primitive
    (("--direction-plus", "2,0", "--direction-minus", "1,0", "--p-range=0:0",
      "--q-range=0:5"),
     SweepSpec.tuples((2, 2), (0, 0), (0, 0), (1, 1), (0, 0), (0, 5))),
])
def test_directly_formatted_json_sweep_is_byte_identical(capsys, argv, spec):
    code, out, err = run(capsys, "sweep", *argv)
    assert (code, err) == (0, "")
    assert out == _whole_document(spec)


def test_record_text_is_the_indented_dump_of_its_dict():
    records = sweep(MANY_MU_SPEC) + sweep(SweepSpec.matrices(80, seed=13, word_length=192))
    assert len({r.mu for r in records}) > 2500
    assert max(abs(x) for r in records if r.matrix is not None
               for row in r.matrix.to_lists() for x in row) >= 10
    # groups with no, one and several invariant factors, and rank 0
    for group in (FgAbelianGroup(0, ()), FgAbelianGroup(0, (2, 6, 12)), FgAbelianGroup(3, (5,))):
        records.append(SweepRecord(mu=7, homology_hopf=False, group=group,
                                   params=(-1, 2, -30, 4, -5, 600)))
        records.append(SweepRecord(mu=1, homology_hopf=True, group=group,
                                   matrix=IntMatrix([[1, -20, 300], [0, 1, -4], [0, 0, 1]])))
    for r in records:
        want = json.dumps(_record_json(r), indent=2, sort_keys=True)
        assert _record_json_text(r) == want.replace("\n", "\n    ")


def test_record_text_is_the_writers_text_of_its_dict():
    records = (sweep(MANY_MU_SPEC) + sweep(SweepSpec.matrices(80, seed=13, word_length=192))
               + _hand_built_records())
    for r in records:
        assert _record_json_text(r) == _json_text(_record_json(r), "\n    ")


_TAGS = (CONVENTION, FACTOR_ORDER, calibrated_zeta_variant(), "tuple", "matrix")
_json_ints = st.one_of(st.integers(-3, 3), st.integers(-(10**6), 10**6),
                       st.integers(-(10**600), 10**600), st.sampled_from([10**599, -(10**599)]))
_json_keys = st.one_of(st.sampled_from(_TAGS), st.text("abcxyz_- :,[]{}@=", max_size=6))
_json_like = st.recursive(
    st.one_of(st.booleans(), _json_ints, st.sampled_from(_TAGS)),
    lambda inner: st.one_of(st.lists(inner, max_size=4), st.lists(inner, max_size=4).map(tuple),
                            st.dictionaries(_json_keys, inner, max_size=4)),
    max_leaves=20,
)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(obj=_json_like)
@example(obj={"a": [], "b": {}, "c": (), "d": [[]], "e": [{}], "f": {"g": ()}})
def test_the_json_writer_writes_what_json_dumps_writes(obj):
    assert _json_text(obj) == json.dumps(obj, indent=2, sort_keys=True)


def _strings_in(obj):
    if isinstance(obj, str):
        yield obj
    elif isinstance(obj, dict):
        for k, v in obj.items():
            yield k
            yield from _strings_in(v)
    elif isinstance(obj, list):
        for v in obj:
            yield from _strings_in(v)


def test_every_string_the_cli_writes_is_printable_ascii_without_quote_or_backslash(capsys):
    # The JSON writer puts strings between double quotes as they are.
    strings = set(_TAGS)
    for argv in (["classify", "--matrix", ZETA_ARG],
                 ["compose", "--plus", "1,0,2", "--minus", "0,1,3"],
                 ["reduce", "--matrix", "1,0,2,0,1,1,0,0,1"],
                 ["reduce", "--standard", "--matrix", "1,0,2,0,1,1,0,0,1"],
                 list(SWEEP_ARGS),
                 ["sweep", "--random", "3"]):
        code, out, _ = run(capsys, *argv)
        assert code == 0, argv
        strings.update(_strings_in(json.loads(out)))
    assert {"order", "counts_by_mu", "records", "tuple", "matrix"} <= strings
    for text in strings:
        assert text.isascii() and text.isprintable(), text
        assert '"' not in text and "\\" not in text, text


@pytest.mark.skipif(getattr(sys, "get_int_max_str_digits", lambda: 0)() == 0,
                    reason="needs an int/str conversion limit")
def test_oversize_record_text_raises_output_error():
    big = 10 ** (sys.get_int_max_str_digits() + 1)
    records = [
        SweepRecord(mu=5, homology_hopf=False, group=FgAbelianGroup(1, (5,)),
                    params=(1, 0, big, 1, 0, 0)),
        SweepRecord(mu=big, homology_hopf=False, group=FgAbelianGroup(1, (big,)),
                    params=(1, 0, 2, 1, 0, 3)),
        SweepRecord(mu=1, homology_hopf=True, group=FgAbelianGroup(1, ()),
                    matrix=IntMatrix([[1, big, 0], [0, 1, 0], [0, 0, 1]])),
    ]
    for r in records:
        with pytest.raises(OutputError):
            _record_json_text(r)


def _hand_built_records():
    """Records whose groups have no, one and several factors, and rank 0."""
    records = []
    for group in (FgAbelianGroup(0, ()), FgAbelianGroup(0, (2, 6, 12)), FgAbelianGroup(3, (5,))):
        records.append(SweepRecord(mu=7, homology_hopf=False, group=group,
                                   params=(-1, 2, -30, 4, -5, 600)))
        records.append(SweepRecord(mu=1, homology_hopf=True, group=group,
                                   matrix=IntMatrix([[1, -20, 300], [0, 1, -4], [0, 0, 1]])))
    return records


def _joined_csv_row(r):
    """The CSV row as each field's str joined by commas, factors by bars."""
    head = ",".join(str(x) for x in r.params) if r.params is not None else ",,,,,"
    factors = "|".join(str(f) for f in r.group.invariant_factors)
    hh = "true" if r.homology_hopf else "false"
    return f"{head},{r.mu},{hh},{r.group.rank},{factors}\n"


def test_csv_row_is_the_joined_fields():
    records = (sweep(MANY_MU_SPEC) + sweep(SweepSpec.matrices(80, seed=13, word_length=192))
               + _hand_built_records())
    for r in records:
        assert _record_csv_row(r) == _joined_csv_row(r)


def _summary_dump(s, skipped):
    summary = {
        "counts_by_mu": [[mu, n] for mu, n in s.mu_counts],
        "homology_hopf": s.homology_hopf_count,
        "skipped_non_primitive": skipped,
        "total": s.total,
    }
    return json.dumps(summary, indent=2, sort_keys=True).replace("\n", "\n  ")


@pytest.mark.parametrize("s, skipped", [
    (summarize(sweep(MANY_MU_SPEC)), 0),
    (summarize([]), 0),
    (summarize(sweep(SweepSpec.matrices(80, seed=13, word_length=192))), 0),
    (SweepSummary(total=7, homology_hopf_count=0, mu_counts=((0, 2), (12345, 5))), 10**12),
    (SweepSummary(total=1, homology_hopf_count=1, mu_counts=((1, 1),)), 3),
])
def test_summary_text_is_the_indented_dump(s, skipped):
    assert _summary_json_text(s, skipped) == _summary_dump(s, skipped)


@pytest.mark.skipif(getattr(sys, "get_int_max_str_digits", lambda: 0)() == 0,
                    reason="needs an int/str conversion limit")
def test_oversize_csv_row_and_summary_raise_output_error():
    big = 10 ** (sys.get_int_max_str_digits() + 1)
    records = [
        SweepRecord(mu=5, homology_hopf=False, group=FgAbelianGroup(1, (5,)),
                    params=(1, 0, big, 1, 0, 0)),
        SweepRecord(mu=big, homology_hopf=False, group=FgAbelianGroup(1, (big,)),
                    params=(1, 0, 2, 1, 0, 3)),
        SweepRecord(mu=big, homology_hopf=False, group=FgAbelianGroup(1, (big,)),
                    matrix=IntMatrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]])),
    ]
    for r in records:
        with pytest.raises(OutputError):
            _record_csv_row(r)
    for s, skipped in [
        (SweepSummary(total=1, homology_hopf_count=0, mu_counts=((big, 1),)), 0),
        (SweepSummary(total=big, homology_hopf_count=0, mu_counts=((2, big),)), 0),
        (SweepSummary(total=1, homology_hopf_count=0, mu_counts=((2, 1),)), big),
    ]:
        with pytest.raises(OutputError):
            _summary_json_text(s, skipped)


@pytest.mark.skipif(
    not 4001 <= getattr(sys, "get_int_max_str_digits", lambda: 0)() < 8000,
    reason="needs an int/str conversion limit that lets BIG parse but not its square",
)
def test_oversize_json_sweep_exits_two_before_writing_the_record(capsys):
    code, out, err = run(capsys, "sweep", "--direction-plus", "1,0", "--direction-minus", "1,0",
                         f"--p-range={BIG}:{BIG}", f"--q-range={BIG}:{BIG}")
    assert code == 2
    assert err.startswith("error: result holds an integer longer than")
    assert out == ('{\n  "convention": "columns-are-images-alpha-beta-gamma",\n'
                   '  "mode": "tuple",\n  "records": [')


@pytest.mark.skipif(
    not 4001 <= getattr(sys, "get_int_max_str_digits", lambda: 0)() < 8000,
    reason="needs an int/str conversion limit that lets BIG parse but not its square",
)
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_oversize_sweep_writes_every_row_before_the_failing_one(capsys, fmt):
    # mu = gcd(BIG**2 - 1, q): small for q < 0 and BIG**2 - 1 at q = 0, the
    # last cell.  1,001 good rows fill one chunk and start the next.
    code, out, err = run(capsys, "sweep", f"--direction-plus={BIG},1",
                         f"--direction-minus=1,{BIG}", "--p-range", "0:0",
                         "--q-range=-1001:0", "--format", fmt)
    assert code == 2
    assert err.startswith("error: result holds an integer longer than")
    b = int(BIG)
    good = sweep(SweepSpec.tuples((b, b), (1, 1), (0, 0), (1, 1), (b, b), (-1001, -1)))
    assert len(good) == 1001
    if fmt == "csv":
        assert out == CSV_HEADER + "\n" + "".join(map(_record_csv_row, good))
    else:
        assert out == ('{\n  "convention": "columns-are-images-alpha-beta-gamma",\n'
                       '  "mode": "tuple",\n  "records": [\n    '
                       + ",\n    ".join(map(_record_json_text, good)))


SRC = Path(__file__).resolve().parent.parent / "src"


def _peak_rss_mib(*argv):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.Popen([sys.executable, "-m", "hopfglue.cli", *argv],
                            stdout=subprocess.DEVNULL, env=env)
    _, status, usage = os.wait4(proc.pid, 0)
    # Popen learns of the exit only from here: otherwise it warns at cleanup.
    proc.returncode = os.waitstatus_to_exitcode(status)
    assert proc.returncode == 0
    return usage.ru_maxrss / 1024  # KiB on Linux


@pytest.mark.skipif(not hasattr(os, "wait4"), reason="needs os.wait4")
def test_json_sweep_memory_does_not_grow_with_the_row_count():
    # Directions (1, 0) and (0, 1) give mu = 1 on every cell, so the summary
    # stays one histogram entry long and only the records could grow.
    args = ("sweep", "--direction-plus", "1,0", "--direction-minus", "0,1")
    one_row = _peak_rss_mib(*args, "--p-range", "0:0", "--q-range", "0:0")
    many_rows = _peak_rss_mib(*args, "--p-range", "0:99", "--q-range", "0:599")
    assert many_rows - one_row < 8


@pytest.mark.parametrize("unbuffered", [False, True])
def test_closed_stdout_exits_one_without_a_traceback(unbuffered):
    # 240,000 CSV rows: far more than a pipe buffer holds.
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    proc = subprocess.Popen(
        [sys.executable, "-m", "hopfglue.cli", "sweep", "--direction-plus", "1,0",
         "--direction-minus", "0,1", "--p-range", "0:399", "--q-range", "0:599",
         "--format", "csv"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.readline().decode() == CSV_HEADER + "\n"
    proc.stdout.close()
    with proc.stderr:
        err = proc.stderr.read()
    assert (proc.wait(), err) == (1, b"")


#: The console script's body: setuptools writes ``sys.exit(<target>())``.
_SCRIPT = "import sys; from hopfglue.cli import %s; sys.exit(%s())"


def test_the_process_entry_point_exits_as_main_does(capsys, monkeypatch):
    # Exit codes 0, 2 (not unimodular), 4 (gcd(g, h) = 2) and 5 (a tampered
    # certificate on stdin), through both ways a process runs the CLI.
    # The [project.scripts] line; tomllib is not in Python 3.10.
    pyproject = (SRC.parent / "pyproject.toml").read_text()
    module, function = re.search(r'^hopfglue = "(.+):(.+)"$', pyproject, re.M).groups()
    assert module == "hopfglue.cli"
    doc = certificate_document(reduce_to_standard(normalize_to_sl3(
        GluingMatrix(random_sl3(7, 12)))))
    doc["output"][0][0] += 1
    tampered = json.dumps(doc)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for argv, want in [(["classify", "--matrix", ZETA_ARG], 0),
                       (["classify", "--matrix", "2,0,0,0,1,0,0,0,1"], 2),
                       (["reduce", "--matrix", "1,0,2,0,1,2,0,0,1"], 4),
                       (["verify"], 5)]:
        monkeypatch.setattr("sys.stdin", io.StringIO(tampered))
        frozen = gc.get_freeze_count()
        code, out, err = run(capsys, *argv)
        assert (code, gc.get_freeze_count()) == (want, frozen), argv
        for entry in (["-m", "hopfglue.cli"], ["-c", _SCRIPT % (function, function)]):
            proc = subprocess.run([sys.executable, *entry, *argv], input=tampered.encode(),
                                  capture_output=True, env=env)
            assert (proc.returncode, proc.stdout, proc.stderr) == (
                code, out.encode(), err.encode()), (entry, argv)

    # Shutdown still runs the atexit handlers, after the heap was frozen.
    probe = ("import atexit, gc, runpy\n"
             "atexit.register(lambda: print('atexit, frozen:', gc.get_freeze_count() > 0))\n"
             "runpy.run_module('hopfglue.cli', run_name='__main__')\n")
    proc = subprocess.run([sys.executable, "-c", probe, "classify", "--matrix", ZETA_ARG],
                          capture_output=True, env=env)
    expected = run(capsys, "classify", "--matrix", ZETA_ARG)[1] + "atexit, frozen: True\n"
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, expected.encode(), b"")


_GRID = ("--direction-plus", "1,0", "--direction-minus", "1,0",
         "--p-range", "0:48", "--q-range", "0:48")


@pytest.mark.parametrize("argv", [
    ("sweep", *_GRID, "--format", "csv"),
    ("sweep", *_GRID, "--format", "json"),
    ("sweep", "--random", "2500", "--seed", "7", "--format", "csv"),
], ids=["tuple-csv", "tuple-json", "random-csv"])
def test_sweep_through_a_pipe_writes_the_bytes_of_main(capsys, argv):
    # Several chunks of rows, written to a real file descriptor with and
    # without Python's own stdout buffer.
    code, expected, _ = run(capsys, *argv)
    assert code == 0 and expected.count("\n") > 2 * 1000
    for unbuffered in (False, True):
        env = dict(os.environ, PYTHONPATH=str(SRC))
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        proc = subprocess.run([sys.executable, "-m", "hopfglue.cli", *argv],
                              capture_output=True, env=env)
        assert (proc.returncode, proc.stderr) == (0, b""), unbuffered
        assert proc.stdout == expected.encode(), unbuffered


def test_sweep_invalid_flags(capsys):
    assert run(capsys, "sweep", "--p-range", "0:2")[0] == 2
    assert run(capsys, *SWEEP_ARGS[:-1], "2:0")[0] == 2
    assert run(capsys, "sweep", "--random", "3", "--p-range", "0:1")[0] == 2
    assert run(capsys, "sweep", "--direction-plus", "1", "--direction-minus", "1,0",
               "--p-range", "0:1", "--q-range", "0:1")[0] == 2


def test_a_tuple_flag_with_an_empty_value_is_given(capsys):
    assert run(capsys, "sweep", "--random", "2", "--p-range=", "--format", "csv") == (
        2, "", "error: --random cannot be combined with tuple-sweep flags\n")
    assert run(capsys, "sweep", "--direction-plus", "1,0", "--direction-minus", "0,1",
               "--p-range=", "--q-range", "0:1") == (
        2, "", "error: --p-range must look like LO:HI\n")


def test_bad_sweep_specs_exit_two_with_the_spec_message(capsys):
    assert run(capsys, *SWEEP_ARGS[:-1], "2:0") == (2, "", "error: empty range for q: 2:0\n")
    assert run(capsys, "sweep", "--random", "-1") == (2, "", "error: sample_count must be >= 0\n")


def test_unknown_flags_exit_two(capsys):
    assert main(["sweep", "--bogus"]) == 2
    capsys.readouterr()


# --- selftest -----------------------------------------------------------------------


def test_selftest(capsys):
    code, out, _ = run(capsys, "selftest")
    assert code == 0
    lines = out.splitlines()
    assert lines[-1] == "SELFTEST OK"
    names = {line.split(":")[0] for line in lines[:-1]}
    assert {"snf-minor-gcd", "cross-invariant-agreement", "reduction-certificates"} <= names
    for line in lines[:-1]:
        assert line.endswith("0 failed")


# --- document round-trips --------------------------------------------------------------


def test_matrix_document_roundtrip():
    doc = matrix_document(ZETA)
    assert parse_matrix_document(doc) == ZETA
    assert parse_matrix_document(json.loads(json.dumps(doc))) == ZETA


def test_certificate_document_roundtrip():
    m = GluingMatrix(IntMatrix([[1, 0, 2], [0, 1, 1], [0, 0, 1]]))
    _, cert = reduce_to_normal_form(m)
    doc = certificate_document(cert)
    assert parse_certificate_document(json.loads(json.dumps(doc))) == cert


class _Entry(enum.IntEnum):
    SEVEN = 7


class _Rows(list):
    pass


def _sequences(items, min_size=2, max_size=4):
    """Lists, tuples and list subclasses of ``items``."""
    return st.lists(items, min_size=min_size, max_size=max_size).flatmap(
        lambda xs: st.sampled_from([xs, tuple(xs), _Rows(xs)]))


_json_leaf = st.one_of(
    st.integers(-9, 9), st.booleans(), st.floats(allow_nan=False), st.text(max_size=2),
    st.none(), st.just(_Entry.SEVEN),
    st.dictionaries(st.text(max_size=1), st.integers(), max_size=1),
)
_entry = st.one_of(st.integers(-(10**30), 10**30), st.just(_Entry.SEVEN))
_int_rows = st.lists(st.lists(_entry, min_size=3, max_size=3), min_size=3, max_size=3)


def _with_entry(rows, i, leaf):
    rows[i // 3][i % 3] = leaf
    return rows


_matrix_like = st.one_of(
    _sequences(_sequences(_entry, 3, 3), 3, 3),  # valid unless a tuple stands in
    st.builds(_with_entry, _int_rows, st.integers(0, 8), _json_leaf),
    _sequences(_sequences(st.one_of(_entry, _json_leaf))),  # ragged or mixed
    _sequences(_json_leaf),
    _json_leaf,
)


def _parsed(parse, *args):
    """The matrix parse returns, with its row and entry types, or its message."""
    try:
        m = parse(*args)
    except DocumentError as exc:
        return str(exc)
    return m, type(m._rows), [(type(row), [type(x) for x in row]) for row in m._rows]


@settings(max_examples=400, deadline=None, derandomize=True)
@given(obj=_matrix_like, label=st.sampled_from(
    [("matrix", None), ("input", None), ("left factor", 0), ("right factor", 12)]))
def test_matrix_parse_matches_the_first_parser(obj, label):
    what, index = label
    first_what = what if index is None else f"{what} {index}"
    assert (_parsed(_lists_to_matrix, obj, what, index)
            == _parsed(_first_lists_to_matrix, obj, first_what))


# --- fuzzing main() ------------------------------------------------------------------

# 4,001 digits: parses, but products of it outgrow the int/str conversion
# limit.  HUGE (5,001 digits) does not even parse; hypothesis reprs its
# strategies and the limit forbids repr of such an int, so documents carry
# it as the placeholder string "HUGE".
BIG_INT = 10**4000
HUGE_DIGITS = "1" + "0" * 5000

_small = st.integers(-12, 12)
_int = st.one_of(_small, st.integers(-(10**40), 10**40),
                 st.sampled_from([BIG_INT, BIG_INT + 1, -BIG_INT]))
_num = st.one_of(_int.map(str), st.just(HUGE_DIGITS))
_text = st.text(alphabet=",:-0123456789 ax[]{}.", max_size=12)

#: Gluings: S^1 x S^3, the standard one, a torsion one, and one whose
#: reduction holds products of 4,001-digit entries.
_GLUINGS = (
    [[1, 0, 1], [0, 1, 0], [0, 0, -1]],
    [[1, 0, 1], [0, 1, 0], [0, 0, 1]],
    [[1, 0, 2], [0, 1, 4], [0, 0, 1]],
    [[1, 0, BIG_INT], [1, 1, BIG_INT + 1], [0, 0, 1]],
)
_gluing = st.one_of(
    st.sampled_from(_GLUINGS),
    st.integers(0, 2**32).map(lambda seed: random_sl3(seed, 12).m.to_lists()),
)
_matrix = st.one_of(
    _gluing,
    st.lists(st.lists(st.one_of(_int, st.just("HUGE")), min_size=3, max_size=3),
             min_size=3, max_size=3),
)


def _joined(count):
    return st.lists(_num, min_size=count, max_size=count).map(",".join)


_nine = _gluing.map(lambda m: ",".join(str(x) for row in m for x in row))
_range = st.one_of(st.tuples(_small, _small).map(lambda t: "%d:%d" % t),
                   st.just(f"{BIG_INT}:{BIG_INT}"))

#: Values for each flag; None marks a switch.
_FLAG_VALUES = {
    "--matrix": st.one_of(_nine, _joined(9), _text),
    "--file": st.just("FILE"),
    "--plus": st.one_of(_joined(3), st.just(f"1,0,{BIG_INT}"), _text),
    "--minus": st.one_of(_joined(3), st.just(f"1,0,{BIG_INT}"), _text),
    "--plus-completion": st.one_of(_nine, _joined(9), _text),
    "--minus-completion": st.one_of(_nine, _joined(9), _text),
    "--direction-plus": st.one_of(_joined(2), _text),
    "--direction-minus": st.one_of(_joined(2), _text),
    "--p-range": st.one_of(_range, _text),
    "--q-range": st.one_of(_range, _text),
    "--random": st.one_of(st.integers(-2, 12).map(str), _text),
    "--seed": st.one_of(_num, _text),
    "--word-length": st.one_of(st.integers(-3, 60).map(str), _text),
    "--format": st.sampled_from(["json", "csv", "xml"]),
    "--standard": None,
    "--homology-hopf-only": None,
    "--parallel": None,
    "--help": None,
}


def _flag(name):
    values = _FLAG_VALUES[name]
    return st.just([name]) if values is None else values.map(lambda v: [f"{name}={v}"])


def _command(name, required=(), optional=()):
    """``name``, one flag from each required group, then some optional flags."""
    extra = (st.lists(st.sampled_from(optional).flatmap(_flag), max_size=3)
             if optional else st.just([]))
    groups = [st.sampled_from(group).flatmap(_flag) for group in required]
    return st.tuples(*groups, extra).map(
        lambda parts: [name] + [a for flag in parts[:-1] + tuple(parts[-1]) for a in flag])


_argv = st.one_of(
    _command("classify", [("--matrix", "--file")]),
    _command("reduce", [("--matrix", "--file")], ("--standard",)),
    _command("compose", [("--plus",), ("--minus",)],
             ("--plus-completion", "--minus-completion")),
    _command("verify", (), ("--file",)),
    _command("verify", [("--file",)]),
    _command("sweep", [("--direction-plus",), ("--direction-minus",), ("--p-range",),
                       ("--q-range",)], ("--homology-hopf-only", "--format", "--parallel")),
    _command("sweep", [("--random",)],
             ("--seed", "--word-length", "--homology-hopf-only", "--format")),
    # anything goes: unknown commands, foreign flags, --help
    st.tuples(st.sampled_from(["classify", "compose", "reduce", "verify", "sweep", "x"]),
              st.lists(st.sampled_from(sorted(_FLAG_VALUES)).flatmap(_flag), max_size=4))
    .map(lambda t: [t[0]] + [a for flag in t[1] for a in flag]),
)


def _real_document(seed, entry, delta):
    """Reduce random_sl3(seed, 12) and shift one entry of the output by delta."""
    gm = normalize_to_sl3(GluingMatrix(random_sl3(seed, 12)))
    if math.gcd(gm.g, gm.h) != 1:
        return matrix_document(gm)
    doc = certificate_document(reduce_to_standard(gm))
    doc["output"][entry // 3][entry % 3] += delta
    return doc


_json = st.recursive(
    st.one_of(st.none(), st.booleans(), _int, st.just("HUGE"), st.floats(allow_nan=False),
              st.text(max_size=5)),
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.dictionaries(st.text(max_size=6), inner, max_size=4)),
    max_leaves=12,
)
_real = st.builds(_real_document, st.integers(0, 10**6), st.integers(0, 8),
                  st.integers(-1, 1))
_document = st.one_of(
    _real,
    _real,
    _json,
    st.fixed_dictionaries({"matrix": _matrix},
                          optional={"convention": st.one_of(st.text(max_size=4), _json)}),
    st.fixed_dictionaries(
        {"input": _matrix, "output": _matrix,
         "left_factors": st.one_of(st.lists(_matrix, max_size=3), _json),
         "right_factors": st.one_of(st.lists(_matrix, max_size=3), _json)},
        optional={"order": _json, "convention": _json, "zeta_variant": _json}),
).map(lambda doc: json.dumps(doc).replace('"HUGE"', HUGE_DIGITS))


@pytest.fixture(scope="module")
def fuzz_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "doc.json"


# Nested deeper than the JSON parser's recursion limit, which Hypothesis
# raises to about 2,000 while a test runs.
DEEP = "[" * 10_000 + "]" * 10_000


@settings(max_examples=200, deadline=None, derandomize=True)
@given(argv=_argv, document=_document, cut=st.booleans())
@example(argv=["verify"], document=DEEP, cut=False)
@example(argv=["verify", "--file=FILE"], document=DEEP, cut=False)
@example(argv=["classify", "--file=FILE"], document=DEEP, cut=False)
def test_main_never_raises(fuzz_file, argv, document, cut):
    """Any argv, with any document on stdin and in --file, gets an exit code."""
    if cut:  # truncated JSON
        document = document[: len(document) // 2]
    fuzz_file.write_text(document)
    argv = [f"--file={fuzz_file}" if a == "--file=FILE" else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    stdin = sys.stdin
    sys.stdin = io.StringIO(document)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        sys.stdin = stdin
    assert code in range(6)
    assert "Traceback" not in err.getvalue()


def test_sweep_bad_range_integer_exits_two(capsys):
    code, out, err = run(capsys, "sweep", "--direction-plus", "1,0", "--direction-minus",
                         "0,1", "--p-range", "0:x", "--q-range", "0:1")
    assert (code, out) == (2, "")
    assert err.startswith("error: bad integer in --p-range: ")


# A value that starts with "-" must be joined to its option with "=": argparse
# reads a separate "-1,0" as an option and exits 2 with "expected one argument".
NEGATIVE_FIRST_ENTRY = {
    "--matrix": ["classify", "--matrix=-1,0,1,0,-1,0,0,0,1"],
    "--plus": ["compose", "--plus=-1,0,1", "--minus", "0,1,1"],
    "--minus": ["compose", "--plus", "0,1,1", "--minus=-1,0,1"],
    "--plus-completion": ["compose", "--plus=-1,0,1", "--minus", "0,1,1",
                          "--plus-completion=-1,0,-1,0,-1,0,0,0,1"],
    "--minus-completion": ["compose", "--plus", "0,1,1", "--minus=-1,0,1",
                           "--minus-completion=-1,0,-1,0,-1,0,0,0,1"],
    "--direction-plus": ["sweep", "--direction-plus=-1,0", "--direction-minus", "0,1",
                         "--p-range", "0:1", "--q-range", "0:1"],
    "--direction-minus": ["sweep", "--direction-plus", "1,0", "--direction-minus=-1,0",
                          "--p-range", "0:1", "--q-range", "0:1"],
    "--p-range": ["sweep", "--direction-plus", "1,0", "--direction-minus", "0,1",
                  "--p-range=-1:1", "--q-range", "0:1"],
    "--q-range": ["sweep", "--direction-plus", "1,0", "--direction-minus", "0,1",
                  "--p-range", "0:1", "--q-range=-1:1"],
}


@pytest.mark.parametrize("option", sorted(NEGATIVE_FIRST_ENTRY))
def test_negative_first_entry_in_equals_form_exits_zero(capsys, option):
    code, out, err = run(capsys, *NEGATIVE_FIRST_ENTRY[option])
    assert (code, err) == (0, "")
    assert out


def test_importing_the_cli_leaves_selftest_unloaded():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    probe = "import sys, hopfglue.cli; print('hopfglue.selftest' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, env=env, check=True)
    assert proc.stdout == "False\n"


#: Runs hopfglue.cli.main on argv in a fresh interpreter, then prints the
#: exit code and which of the watched modules got loaded.
_MAIN_PROBE_OF = """
import contextlib, io, sys
from hopfglue.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(code, [m for m in %r if m in sys.modules])
"""
_MAIN_PROBE = _MAIN_PROBE_OF % (("hopfglue.selftest",),)


def test_non_selftest_commands_leave_selftest_unloaded(tmp_path):
    cert = tmp_path / "cert.json"
    cert.write_text(json.dumps(certificate_document(
        reduce_to_standard(normalize_to_sl3(GluingMatrix(random_sl3(7, 12)))))))
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for argv in (["classify", "--matrix", ZETA_ARG],
                 ["compose", "--plus", "1,0,2", "--minus", "0,1,3"],
                 ["reduce", "--standard", "--matrix", "1,0,2,0,1,1,0,0,1"],
                 ["verify", "--file", str(cert)],
                 ["sweep", "--random", "2"]):
        proc = subprocess.run([sys.executable, "-c", _MAIN_PROBE, *argv],
                              capture_output=True, text=True, env=env, check=True)
        assert proc.stdout == "0 []\n", argv


def test_no_command_loads_dataclasses_and_every_command_loads_sweep(tmp_path):
    # Every result type is a value class, so no command loads dataclasses or
    # the inspect module it pulls in, a sweep's records included.
    cert = tmp_path / "cert.json"
    cert.write_text(json.dumps(certificate_document(
        reduce_to_standard(normalize_to_sl3(GluingMatrix(random_sl3(7, 12)))))))
    probe = _MAIN_PROBE_OF % (("hopfglue.abelian", "hopfglue.sweep", "dataclasses",
                               "inspect"),)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    layers = "0 ['hopfglue.abelian', 'hopfglue.sweep']\n"
    expected = [
        (["reduce", "--standard", "--matrix", "1,0,2,0,1,1,0,0,1"], layers),
        (["verify", "--file", str(cert)], layers),
        (["classify", "--matrix", ZETA_ARG], layers),
        (["compose", "--plus", "1,0,2", "--minus", "0,1,3"], layers),
        (["sweep", "--random", "2"], layers),
        (["sweep", "--direction-plus", "1,0", "--direction-minus", "0,1",
          "--p-range", "0:2", "--q-range", "0:2", "--format", "csv"], layers),
    ]
    for argv, want in expected:
        proc = subprocess.run([sys.executable, "-c", probe, *argv],
                              capture_output=True, text=True, env=env, check=True)
        assert proc.stdout == want, (argv, proc.stdout)


def test_importing_the_package_loads_the_gluing_layer():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    probe = ("import sys, hopfglue; "
             "print('hopfglue.gluing' in sys.modules, 'hopfglue.sweep' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, env=env, check=True)
    assert proc.stdout == "True True\n"


#: The six argv shapes of the benchmark's cli workload, as in its op pool.
_WORKLOAD_ARGVS = (
    ["classify", "--matrix=" + ZETA_ARG],
    ["compose", "--plus=1,0,2", "--minus=-1,0,3"],
    ["reduce", "--standard", "--matrix=1,0,2,0,1,1,0,0,1"],
    ["verify"],
    ["sweep", "--direction-plus=1,0", "--direction-minus=0,1", "--p-range=-2:2",
     "--q-range=-2:2", "--format", "csv"],
    ["sweep", "--random", "3", "--seed", "17", "--word-length", "24"],
)


def test_a_successful_command_loads_neither_argparse_nor_json(tmp_path):
    matrix_doc = tmp_path / "matrix.json"
    matrix_doc.write_text(json.dumps(matrix_document(ZETA)))
    cert = json.dumps(certificate_document(
        reduce_to_standard(normalize_to_sl3(GluingMatrix(random_sl3(7, 12))))))
    probe = _MAIN_PROBE_OF % (("argparse", "gettext", "locale", "json"),)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    expected = [(argv, "0 ['json']\n" if argv == ["verify"] else "0 []\n")
                for argv in _WORKLOAD_ARGVS]
    expected += [
        (["classify", "--file", str(matrix_doc)], "0 ['json']\n"),
        (["reduce", "--help"], "0 ['argparse', 'gettext', 'locale']\n"),
        (["sweep", "--format", "xml"], "2 ['argparse', 'gettext', 'locale']\n"),
    ]
    for argv, want in expected:
        proc = subprocess.run([sys.executable, "-c", probe, *argv], input=cert,
                              capture_output=True, text=True, env=env, check=True)
        assert proc.stdout == want, (argv, proc.stdout)


def test_sweeps_write_their_output_without_loading_json(tmp_path):
    cert = tmp_path / "cert.json"
    cert.write_text(json.dumps(certificate_document(
        reduce_to_standard(normalize_to_sl3(GluingMatrix(random_sl3(7, 12)))))))
    probe = _MAIN_PROBE_OF % (("json",),)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    sweep = ("sweep", "--direction-plus", "1,0", "--direction-minus", "0,1",
             "--p-range", "0:2", "--q-range", "0:2")
    for argv, want in [((*sweep, "--format", "csv"), "0 []\n"),
                       (sweep, "0 []\n"),
                       (("sweep", "--random", "3", "--format", "csv"), "0 []\n"),
                       (("verify", "--file", str(cert)), "0 ['json']\n")]:
        proc = subprocess.run([sys.executable, "-c", probe, *argv],
                              capture_output=True, text=True, env=env, check=True)
        assert proc.stdout == want, (argv, proc.stdout)
