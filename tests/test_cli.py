import io
import json
import sys

from hopfglue.cli import (
    CSV_HEADER,
    certificate_document,
    main,
    matrix_document,
    parse_certificate_document,
    parse_matrix_document,
)
from hopfglue.gluing import (
    GluingMatrix,
    normalize_to_sl3,
    reduce_to_normal_form,
    standard_gluing_matrix,
    zeta_matrix,
)
from hopfglue.linalg import IntMatrix

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
    doc.write_text(json.dumps(matrix_document(zeta_matrix())))
    code, out, _ = run(capsys, "classify", "--file", str(doc))
    assert code == 0
    assert json.loads(out)["homology_hopf"] is True


def test_classify_rejects_broken_documents(tmp_path, capsys):
    doc = tmp_path / "m.json"
    doc.write_text("{ not json")
    assert run(capsys, "classify", "--file", str(doc))[0] == 2
    doc.write_text(json.dumps({"matrix": [[1, 0], [0, 1]]}))
    assert run(capsys, "classify", "--file", str(doc))[0] == 2
    doc.write_text(json.dumps({"matrix": zeta_matrix().matrix.to_lists(),
                               "convention": "rows-are-images"}))
    assert run(capsys, "classify", "--file", str(doc))[0] == 2
    assert run(capsys, "classify", "--file", str(tmp_path / "missing.json"))[0] == 2


# --- compose -----------------------------------------------------------------


def test_compose_trivial_surgeries(capsys):
    code, out, _ = run(capsys, "compose", "--plus", "0,0,1", "--minus", "0,0,1")
    assert code == 0
    report = json.loads(out)
    assert report["agreement"] is True
    assert report["composed_matrix"] == zeta_matrix().matrix.to_lists()
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
    assert doc["input"] == normalize_to_sl3(zeta_matrix()).matrix.to_lists()
    assert doc["output"] == standard_gluing_matrix().matrix.to_lists()


def test_reduce_rejects_non_homology_hopf(capsys):
    code, out, err = run(capsys, "reduce", "--matrix", "1,0,2,0,1,4,0,0,1")
    assert code == 4
    assert out == ""
    assert "gcd(g, h) = gcd(2, 4) = 2" in err


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


def test_sweep_invalid_flags(capsys):
    assert run(capsys, "sweep", "--p-range", "0:2")[0] == 2
    assert run(capsys, *SWEEP_ARGS[:-1], "2:0")[0] == 2
    assert run(capsys, "sweep", "--random", "3", "--p-range", "0:1")[0] == 2
    assert run(capsys, "sweep", "--direction-plus", "1", "--direction-minus", "1,0",
               "--p-range", "0:1", "--q-range", "0:1")[0] == 2


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
    doc = matrix_document(zeta_matrix())
    assert parse_matrix_document(doc) == zeta_matrix()
    assert parse_matrix_document(json.loads(json.dumps(doc))) == zeta_matrix()


def test_certificate_document_roundtrip():
    m = GluingMatrix(IntMatrix([[1, 0, 2], [0, 1, 1], [0, 0, 1]]))
    _, cert = reduce_to_normal_form(m)
    doc = certificate_document(cert)
    assert parse_certificate_document(json.loads(json.dumps(doc))) == cert
