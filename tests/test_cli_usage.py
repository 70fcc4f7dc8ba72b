"""Pinned CLI help, usage and error text: argv, exit code, stdout and stderr.

The transcript in test_cli_transcript.py pins stdout only.  Here each
case's sha256 covers ``(argv, exit code, stdout, stderr)`` of one
``main()`` call with ``COLUMNS=80``, so every help page, usage line and
argparse error message stays byte-identical.  Run this module as a script
to print the current digests.
"""

import hashlib
import io
import json
import sys

import pytest

from hopfglue.cli import main

COMMANDS = ("classify", "compose", "reduce", "verify", "sweep", "selftest")

CASES = {
    "no-arguments": (),
    "help": ("--help",),
    "h": ("-h",),
    "h-reduce": ("-h", "reduce"),
    "bogus-flag": ("--bogus",),
    "bogus-command": ("bogus",),
    **{f"help-{c}": (c, "--help") for c in COMMANDS},
    "reduce-no-input": ("reduce",),
    "reduce-matrix-and-file": ("reduce", "--matrix", "1,0,2,0,1,1,0,0,1", "--file", "m.json"),
    "compose-no-flags": ("compose",),
    "classify-matrix-no-value": ("classify", "--matrix"),
    "sweep-bogus-flag": ("sweep", "--bogus"),
    "sweep-format-xml": ("sweep", "--format", "xml"),
    "sweep-random-not-int": ("sweep", "--random", "x"),
}

#: sha256 of json.dumps([argv, exit code, stdout, stderr]) per case.
DIGESTS = {
    "bogus-command": "f774b311a0c5c7d40230aa8e735e54ea7df8fbd78557f6d1177de14ac21f4d6c",
    "bogus-flag": "63e42ef3b00371b7b529fe35596077f8973167d90acf6a4b5db0e6bfcf2a9ddc",
    "classify-matrix-no-value": "ed4aacb9ef26534f1de55e6e338bd004fd4d03f8d93097bc1f87e95ce24b4fbb",
    "compose-no-flags": "0996fffcbea2cb7054a74a4d67ff07ecd75cbf9d3a4a8131165f5ad517d21460",
    "h": "e81664521325aab1499056870a2b6a7d8cc8d1bd8e06a7c41e04df8d447dc619",
    "h-reduce": "e0adb7b786ae335c46de503e962fd97693f6c842dddaf7400d5576c9f9081505",
    "help": "ae8fdc218cd9845ffd7bc1c021d1d0613e1af16efb1c7b2b45d852aaf180f0dc",
    "help-classify": "d52752ddb395bd4c7789afd04deffb9fc34daba764df04d476a7fc0a672d9a55",
    "help-compose": "ffd790dfe012ff445505c1d6232cdd95084fce2573c9d223f5c6a98e0c230e83",
    "help-reduce": "d74067f28ab50da154654cdb5b9d0796cb4bc57133dae1e111ea7875bda5f032",
    "help-selftest": "fb5efe494969bd3b0100c876da209474d609845828bb9fad5b86c64d5467f55b",
    "help-sweep": "bcb525760f41f8dc3e7950e3efbf63c876c32322db00e68d5e1f96c4b652c5c4",
    "help-verify": "5dec3fde6959b79621f8a326234a2eaea540e87862666e79b614ff122ea04a4c",
    "no-arguments": "e7f502b49cf6dc7ed378ccab4af8ceb1398e3d0ee6b2273e9d6f3c445ae1e8ba",
    "reduce-matrix-and-file": "322125985d65a0cd58cb7c753c25ea0fc1b0559bc0268898a84b60625cd9d25c",
    "reduce-no-input": "2c5b77a2337a7acc36df92885d3e13255f889316a4881170bae13c15282436c4",
    "sweep-bogus-flag": "0acdac473634bd562dd76fdbd1c49140c9eda41d0a0e12fdf9a99dfbe3a8ba30",
    "sweep-format-xml": "b0d3db22ea4d6d8eac17f769c16fd985a26a61ec5e2afed210f29dccc405a158",
    "sweep-random-not-int": "124d40b6d938b65f8b241747a488ec1ecf47b61554351513eb31fee7b144c036",
}


def outcome(argv, monkeypatch):
    """Run main(argv) in process and return (argv, exit code, stdout, stderr)."""
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps to the terminal width
    out, err = io.StringIO(), io.StringIO()
    monkeypatch.setattr("sys.stdout", out)
    monkeypatch.setattr("sys.stderr", err)
    code = main(list(argv))
    return list(argv), code, out.getvalue(), err.getvalue()


def digest(argv, code, stdout, stderr):
    return hashlib.sha256(json.dumps([argv, code, stdout, stderr]).encode()).hexdigest()


def test_there_are_nineteen_cases():
    assert len(CASES) == 19


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_usage_text_is_pinned(case, monkeypatch):
    assert digest(*outcome(CASES[case], monkeypatch)) == DIGESTS[case]


if __name__ == "__main__":
    stdout = sys.stdout
    with pytest.MonkeyPatch.context() as mp:
        for case in sorted(CASES):
            d = digest(*outcome(CASES[case], mp))
            stdout.write(f'    "{case}": "{d}",\n')
