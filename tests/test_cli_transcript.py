"""Pinned CLI transcript: argv, exit code and stdout of 50 main() calls.

Each case's sha256 covers ``(argv, exit code, stdout)``; stderr is not
pinned.  ``FILE:name`` in an argv stands for a file holding
``DOCUMENTS[name]``; a case's third field names the document on stdin.
Run this module as a script to print the current digests.
"""

import hashlib
import io
import json
import sys

import pytest

from hopfglue.cli import main

ZETA = "1,0,1,0,1,0,0,0,-1"
TORSION = "1,0,2,0,1,4,0,0,1"
HOPF = "1,0,2,0,1,1,0,0,1"

_CERT = {
    "convention": "columns-are-images-alpha-beta-gamma",
    "input": [[1, 0, 2], [0, 1, 1], [0, 0, 1]],
    "left_factors": [[[0, 1, 0], [-1, 2, 0], [0, 0, 1]]],
    "order": "left_factors[0] @ ... @ left_factors[-1] @ input"
             " @ right_factors[0] @ ... @ right_factors[-1] == output",
    "output": [[1, 0, 1], [0, 1, 0], [0, 0, 1]],
    "right_factors": [[[2, -1, 0], [1, 0, 0], [0, 0, 1]]],
    "zeta_variant": "zeta",
}

DOCUMENTS = {
    "zeta": json.dumps({"matrix": [[1, 0, 1], [0, 1, 0], [0, 0, -1]],
                        "convention": "columns-are-images-alpha-beta-gamma",
                        "zeta_variant": "zeta"}),
    "torsion": json.dumps({"matrix": [[1, 0, 2], [0, 1, 4], [0, 0, 1]]}),
    "valid": json.dumps(_CERT),
    "invalid": json.dumps(dict(_CERT, output=[[1, 0, 1], [0, 1, 0], [0, 1, 1]])),
    "truncated": json.dumps(_CERT)[:60],
}

TUPLE = ("sweep", "--direction-plus", "1,0", "--direction-minus", "1,0",
         "--p-range", "0:2", "--q-range=-1:2")

CASES = {
    "classify-zeta": (("classify", "--matrix", ZETA),),
    "classify-torsion": (("classify", "--matrix", TORSION),),
    "classify-not-unimodular": (("classify", "--matrix", "2,0,0,0,1,0,0,0,1"),),
    "classify-eight-ints": (("classify", "--matrix", "1,0,0,0,1,0,0,0"),),
    "classify-bad-int": (("classify", "--matrix", "1,0,0,0,x,0,0,0,1"),),
    "classify-file": (("classify", "--file", "FILE:zeta"),),
    "classify-file-truncated": (("classify", "--file", "FILE:truncated"),),
    "classify-file-missing": (("classify", "--file", "FILE:missing"),),
    "compose": (("compose", "--plus", "1,0,1", "--minus", "1,0,1"),),
    "compose-completions": (("compose", "--plus", "0,0,1", "--minus", "0,0,1",
                             "--plus-completion", "1,0,0,0,1,0,0,0,1",
                             "--minus-completion", "0,-1,0,1,0,0,5,7,1"),),
    "compose-bad-completion": (("compose", "--plus", "1,0,1", "--minus", "1,0,1",
                                "--minus-completion", "1,0,0,0,1,0,0,0,2"),),
    "compose-non-primitive": (("compose", "--plus", "2,0,2", "--minus", "0,0,1"),),
    "compose-two-ints": (("compose", "--plus", "1,0", "--minus", "0,0,1"),),
    "reduce": (("reduce", "--matrix", HOPF),),
    "reduce-standard": (("reduce", "--standard", "--matrix", HOPF),),
    "reduce-standard-zeta": (("reduce", "--standard", "--matrix", ZETA),),
    "reduce-file": (("reduce", "--standard", "--file", "FILE:zeta"),),
    "reduce-not-hopf": (("reduce", "--matrix", TORSION),),
    "reduce-file-not-hopf": (("reduce", "--standard", "--file", "FILE:torsion"),),
    "verify-file-valid": (("verify", "--file", "FILE:valid"),),
    "verify-file-invalid": (("verify", "--file", "FILE:invalid"),),
    "verify-file-missing": (("verify", "--file", "FILE:missing"),),
    "verify-stdin-valid": (("verify",), "valid"),
    "verify-stdin-invalid": (("verify",), "invalid"),
    "verify-stdin-truncated": (("verify",), "truncated"),
    "verify-stdin-matrix-document": (("verify",), "zeta"),
    "sweep-json": (TUPLE,),
    "sweep-csv": (TUPLE + ("--format", "csv"),),
    "sweep-hopf-only-json": (TUPLE + ("--homology-hopf-only",),),
    "sweep-hopf-only-csv": (TUPLE + ("--homology-hopf-only", "--format", "csv"),),
    "sweep-random-json": (("sweep", "--random", "6", "--seed", "3"),),
    "sweep-random-csv": (("sweep", "--random", "6", "--seed", "3", "--word-length", "30",
                          "--format", "csv"),),
    "sweep-random-hopf-only": (("sweep", "--random", "8", "--seed", "1",
                                "--homology-hopf-only"),),
    "sweep-random-zero": (("sweep", "--random", "0"),),
    "sweep-zero-direction-json": (("sweep", "--direction-plus", "0,0", "--direction-minus",
                                   "2,2", "--p-range", "0:0", "--q-range=-2:2"),),
    "sweep-zero-direction-csv": (("sweep", "--direction-plus", "0,0", "--direction-minus",
                                  "2,2", "--p-range", "0:0", "--q-range=-2:2",
                                  "--format", "csv"),),
    "sweep-empty-range": (("sweep", "--direction-plus", "1,0", "--direction-minus", "1,0",
                           "--p-range", "2:0", "--q-range", "0:2"),),
    "sweep-bad-range": (("sweep", "--direction-plus", "1,0", "--direction-minus", "1,0",
                         "--p-range", "0-2", "--q-range", "0:2"),),
    "sweep-random-with-tuple-flags": (("sweep", "--random", "3", "--p-range", "0:1"),),
    "sweep-missing-flags": (("sweep", "--p-range", "0:2"),),
    "sweep-negative-random": (("sweep", "--random", "-1"),),
    "selftest": (("selftest",),),
    "help": (("--help",),),
    "help-classify": (("classify", "--help"),),
    "help-compose": (("compose", "--help"),),
    "help-reduce": (("reduce", "--help"),),
    "help-verify": (("verify", "--help"),),
    "help-sweep": (("sweep", "--help"),),
    "help-selftest": (("selftest", "--help"),),
    "no-command": ((),),
}

#: sha256 of json.dumps([argv, exit code, stdout]) per case.
DIGESTS = {
    "classify-bad-int": "109a12df9575b5aefb08fb0a0e57a4b473dc690e57566687624bb0de2c0e5575",
    "classify-eight-ints": "9c15278ed731117985ac8d24f6464d806861a2b4b1f15fe087482a9995dac007",
    "classify-file": "7b4429b1d958f12ca8e7680a26d78b677b549186ab863099bda4f730a338fdde",
    "classify-file-missing": "7101504a048856ba12051dc7fd1e835d9abb393ece022131d3a38a5afca2630d",
    "classify-file-truncated": "8c79230272faff633be4c7a895ba7b66981539947eb122e057a6a8738859f5cb",
    "classify-not-unimodular": "d79cc72fb8d35b1f1d7c104c5663f0bc5f29ac7c3df4f2ed03992de17d1805c4",
    "classify-torsion": "e63f0901d0a2131bc1f9e21e918d86bc9bf3e8fa52f47ea6cf880d24b81b59fb",
    "classify-zeta": "7f23ff402c29d50d54c2150edd54cb6ea6afa938b6f34c26518b3006bec49581",
    "compose": "a7feb33ed5977f56dd712f5e43f0f43ee7b12aac24c034c122df2ba0805efd0f",
    "compose-bad-completion": "f7e8bbba102c339d1db3118dfaabf9a8925a91d2de76c91184e42943f0217f57",
    "compose-completions": "2b304db95fa3a4d880d3ac1da5aa4bdb71d394bc82dc09a29fa720f1b5dc6fc4",
    "compose-non-primitive": "9dc3328c2625300087756b70272f52201a6e210533d210160e3658c4b40aceb2",
    "compose-two-ints": "9cf19d1e587ed21f7e071fe37f351b1ea1803a2a3cbff1bae335419ef818272b",
    "help": "29f3d2a5f5dc646281877c81a8b26d26d6f784c64597e45fe301f32662f0173a",
    "help-classify": "76afb610ba920789d2d0c113df3f577d6d5cd2b65a14aea006c9f67b8e5a9291",
    "help-compose": "f8ede62215f1e49eb41d67b9a821a76dfddf1c432e98c3b3764d6663af4aeeac",
    "help-reduce": "87cb469c072c47294e4b5d2e6b574ed94ecdb229f5ade3081275acf84576434e",
    "help-selftest": "348bda1f4e69a9e3213a9a5c4d2da72f0c37efdadd901bc29f44050d32f4eed0",
    "help-sweep": "1f3566279d6373fa08049b24de3baa265e332c284ff2c6902b655abab86f08fa",
    "help-verify": "4c9ccb0d700206b9b744d56ad05abb9267a89a1aa32e1645ed755035cc2b5d79",
    "no-command": "99361b6b5fea0536fbef36362528facf48e910fb130b7f7185d42e74ba46d6bc",
    "reduce": "485f99eae90ed2ddc456ef8adb65caf90dfba8a78e3f24e99b587d0077080506",
    "reduce-file": "a5ad6b5335cc4bdf923dcb6b8d33aa30eb0c2e5df2d1f048fe71ed45298a3ffa",
    "reduce-file-not-hopf": "55925d67ca8b35473fca3a553010c69b3e139abb008201f64ac1890129eb6c2b",
    "reduce-not-hopf": "76eb1c58dfa25e0c404fe6043de0b941238738ac0c9b7121838e67e114280418",
    "reduce-standard": "d98d5a5a27d0eb70e57c71ceaec038660b82417367d878bb3c680870e6e4c953",
    "reduce-standard-zeta": "e30298f92bd0d853818b85371e0dc3b4c8298b52fdaf7cb67f17070baf24ff96",
    "selftest": "dcbad3cebfb925d9e34cb88a5c4993bff50d5ac37ba4616b1f3b22349e2f1e2d",
    "sweep-bad-range": "d8c970d801d40b79f9fa882a60158dbe9ecf7b1bec2c0c00460b9c2e6ea01d18",
    "sweep-csv": "f76db168e01bd54e37b77ade0d2807a5fc2ab1be72ff53f38ac4f65f25e08b25",
    "sweep-empty-range": "1817129f6a1962933b2405fc546a0dce89236ee2d75cce01a653b89f749788d8",
    "sweep-hopf-only-csv": "7414dc3e994a543f52d2950447131fe12c085255baa9857989a25329abd4a66b",
    "sweep-hopf-only-json": "c05bd334353bc65cd07ddac664bbd8bfbe59d7ed68c0114e070a5c5310e34928",
    "sweep-json": "01b3dd1a93d786d17ce37673fa5f6dc57f11277924f408f050b336315c6a4e9b",
    "sweep-missing-flags": "25eb63b817bd3b487660cb5c39547a8a57a645e15d4cec43ea74466824b3b1a8",
    "sweep-negative-random": "dff2f6f9b0500f1d7f59d0ef49eb5daab3fcd91550bfba836352798d6ef5930d",
    "sweep-random-csv": "cdccb9fdf2791979f9a19e38fd0cb9d41e730d552be1969381d50dec372be296",
    "sweep-random-hopf-only": "6770cf69c1038b8f8c6986a095e7398101f38dac39adceeb83332ca89f7e4447",
    "sweep-random-json": "30a8dc1327de414c4247ca1a960e638aa904435ac15ba672e8e9d5668a963e44",
    "sweep-random-with-tuple-flags": "a4e56011b94ba3ac20970b1612711cda59e8b5ee2ae1c463a932f71dd4403704",
    "sweep-random-zero": "6bc5ad323dcb115b5a51d03320a0acf1dab6a2f9b46fbd9772e841937d1605de",
    "sweep-zero-direction-csv": "84574809e6b01830eab616a0ef2499dc6cda563b62c100ae95792168cda12434",
    "sweep-zero-direction-json": "67a07f662c7a02643121fec2a1d46cceb05741f4a6091d2de28f799b9e386d72",
    "verify-file-invalid": "60e9f348804eb06c5e25d4c27713227a47787dcb91e4b6f4803906c1f02032f8",
    "verify-file-missing": "042231d1ca504d1b87e9c551a3aa2da50b4c202ae09f5c25a94862e5adf6b327",
    "verify-file-valid": "79c5f648f3fbe2740c9365ce5f5f49b759a6df0f016da6b6c4809eefa73f5a6b",
    "verify-stdin-invalid": "c3e3f474c8241d502013c9e6dd6b146e7640fca33c9bd724cecfc058af7dd081",
    "verify-stdin-matrix-document": "42fcf3b010d5af15648fa65f96e44d8e99bc8a97068bb4472f837e772c2d3b0a",
    "verify-stdin-truncated": "42fcf3b010d5af15648fa65f96e44d8e99bc8a97068bb4472f837e772c2d3b0a",
    "verify-stdin-valid": "6991af92152c9dc39109853ee8328687757a47c122391172848bd8163e0f76c9",
}


def transcript(case, tmp_path, monkeypatch):
    """Run one case in process and return (argv, exit code, stdout)."""
    argv, stdin = (CASES[case] + (None,))[:2]
    args = []
    for a in argv:
        if a.startswith("FILE:"):
            path = tmp_path / (a[5:] + ".json")
            if a[5:] in DOCUMENTS:
                path.write_text(DOCUMENTS[a[5:]])
            a = str(path)
        args.append(a)
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps --help to the terminal
    monkeypatch.setattr("sys.stdin", io.StringIO(DOCUMENTS.get(stdin, "")))
    out = io.StringIO()
    monkeypatch.setattr("sys.stdout", out)
    code = main(args)
    return list(argv), code, out.getvalue()


def digest(argv, code, stdout):
    return hashlib.sha256(json.dumps([argv, code, stdout]).encode()).hexdigest()


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_transcript_is_pinned(case, tmp_path, monkeypatch):
    assert digest(*transcript(case, tmp_path, monkeypatch)) == DIGESTS[case]


if __name__ == "__main__":
    import tempfile
    from pathlib import Path

    stdout = sys.stdout
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        for case in sorted(CASES):
            d = digest(*transcript(case, Path(tmp), mp))
            stdout.write(f'    "{case}": "{d}",\n')
