"""The option table: argparse's parser and the matcher that answers without it.

``main`` first asks ``_matched_args``, which reads the same table that
``build_parser`` builds its parser from.  Whenever the matcher answers, its
namespace must be the one argparse builds; whenever argparse exits (help or
a usage error), the matcher must have declined.
"""

import contextlib
import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfglue.cli import _COMMANDS, _matched_args, build_parser


def _parsed(argv):
    """vars() of argparse's namespace for argv, or None if argparse exits."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(build_parser(argv).parse_args(argv))
        except SystemExit:
            return None


def _agrees(argv):
    """Check the matcher against argparse on argv; return what it matched."""
    matched = _matched_args(list(argv))
    parsed = _parsed(list(argv))
    if matched is not None:
        assert vars(matched) == parsed, argv
    return matched


def _options(command):
    _, _, _, group, options = _COMMANDS[command]
    return group, options


def _value(keywords):
    """A value argparse accepts for an option that takes one."""
    if "choices" in keywords:
        return keywords["choices"][-1]
    return "7" if "type" in keywords else "1,0,2"


def _bases(command):
    """The shortest argvs argparse accepts: the required options, with each
    member of the exclusive group in turn."""
    group, options = _options(command)
    required = [t for flag, kw in options if kw.get("required") for t in (flag, _value(kw))]
    return [[command, flag, _value(kw), *required] for flag, kw in group] or [
        [command, *required]]


def _answered():
    """Argvs the matcher answers: each base, and each base with one more
    option in every form it takes, and with all of them in the = form."""
    for command in _COMMANDS:
        _, options = _options(command)
        optional = [(flag, kw) for flag, kw in options if not kw.get("required")]
        for base in _bases(command):
            yield base
            every = list(base)
            for flag, kw in optional:
                if "action" in kw:
                    yield [*base, flag]
                    every.append(flag)
                else:
                    yield [*base, flag, _value(kw)]
                    yield [*base, f"{flag}={_value(kw)}"]
                    if "type" not in kw and "choices" not in kw:
                        yield [*base, f"{flag}="]
                    every.append(f"{flag}={_value(kw)}")
            yield every


ANSWERED = list(_answered())

SWEEP = ["sweep", "--direction-plus", "1,0", "--direction-minus", "0,1",
         "--p-range", "0:2", "--q-range", "0:2"]

#: Argvs the matcher leaves to argparse, which accepts some of them.
DECLINED = [
    # abbreviations: one argparse takes, and ambiguous ones
    ["classify", "--mat", "1,0,1,0,1,0,0,0,-1"],
    ["reduce", "--matrix", "1,0,2,0,1,1,0,0,1", "--stand"],
    ["sweep", "--dir", "1,0", "--direction-minus", "0,1", "--p-range", "0:2", "--q-range", "0:2"],
    ["compose", "--plu", "1,0,2", "--minus", "0,1,3"],
    # repeats, and flags given a value
    ["compose", "--plus", "1,0,2", "--minus", "0,1,3", "--minus", "0,1,5"],
    ["verify", "--file", "a.json", "--file=b.json"],
    ["reduce", "--matrix", "1,0,2,0,1,1,0,0,1", "--standard", "--standard"],
    ["reduce", "--matrix", "1,0,2,0,1,1,0,0,1", "--standard=x"],
    ["reduce", "--matrix", "1,0,2,0,1,1,0,0,1", "--standard="],
    [*SWEEP, "--parallel=1"],
    # separate values that start with "-"
    ["sweep", "--random", "2", "--seed", "-5"],
    ["compose", "--plus", "1,0,2", "--minus", "-1,0,1"],
    ["classify", "--matrix", "-1,0,0,0,-1,0,0,0,1"],
    ["verify", "--file", "-"],
    # ints and choices that do not convert, and missing values
    ["sweep", "--random", "x"],
    ["sweep", "--random=2.0"],
    [*SWEEP, "--format", "xml"],
    [*SWEEP, "--format=JSON"],
    ["classify", "--matrix"],
    ["sweep", "--random"],
    # unknown options and commands, help and the end of options
    ["classify", "--matrix", "1,0,1,0,1,0,0,0,-1", "--bogus"],
    ["classify", "--matrix", "1,0,1,0,1,0,0,0,-1", "extra"],
    ["selftest", "--file", "x"],
    ["bogus"],
    [],
    ["-h"],
    ["--help"],
    ["classify", "-h"],
    ["sweep", "--help"],
    ["classify", "--", "--matrix", "1,0,1,0,1,0,0,0,-1"],
    ["classify", "--matrix", "1,0,1,0,1,0,0,0,-1", "--"],
    # the exclusive group with both members, and with neither
    ["classify", "--matrix", "1,0,1,0,1,0,0,0,-1", "--file", "m.json"],
    ["reduce", "--file=m.json", "--matrix=1,0,2,0,1,1,0,0,1", "--standard"],
    ["classify"],
    ["reduce", "--standard"],
    # a required option left out
    ["compose", "--plus", "1,0,2"],
]

#: Values that convert as ints, in both forms, where argparse agrees.
INTS = [[*base, form] for base in (["sweep", "--random", " 5"], ["sweep", "--random", "5_0"],
                                   ["sweep", "--random", "+5"], ["sweep", "--random", "0"])
        for form in ("--seed= 3", "--seed=-3", "--word-length=4_8")]


def test_the_explicit_lists_cover_every_command():
    assert {argv[0] for argv in ANSWERED} == set(_COMMANDS)
    assert len(ANSWERED) > 40


@pytest.mark.parametrize("argv", ANSWERED + INTS, ids=" ".join)
def test_the_matcher_answers_as_argparse_does(argv):
    assert _agrees(argv) is not None


@pytest.mark.parametrize("argv", DECLINED, ids=" ".join)
def test_the_matcher_declines(argv):
    assert _agrees(argv) is None


_flags = sorted({flag for command in _COMMANDS for part in _options(command)
                 for flag, _ in part})
_values = st.one_of(
    st.sampled_from(["1,0,2", "-1,0,1", "1,0,1,0,1,0,0,0,-1", "0:2", "-2:2", "5", "-5",
                     " 5", "5_0", "x", "", "json", "csv", "xml", "=", "a=b", "-", "--"]),
    st.text(max_size=4),
)
_token = st.one_of(
    st.sampled_from(_flags),
    st.sampled_from(_flags).flatmap(lambda f: st.integers(3, len(f) - 1).map(lambda n: f[:n])),
    st.tuples(st.sampled_from(_flags), _values).map("=".join),
    st.tuples(st.sampled_from(_flags), _values).map(list),
    _values,
    st.sampled_from(["-h", "--help", "--", "--bogus", *_COMMANDS]),
)


@settings(max_examples=500, deadline=None, derandomize=True)
@given(command=st.sampled_from([*_COMMANDS, "bogus", "--help"]),
       tokens=st.lists(_token, max_size=8))
def test_the_matcher_agrees_with_argparse_on_any_argv(command, tokens):
    argv = [command]
    for token in tokens:
        argv += token if isinstance(token, list) else [token]
    _agrees(argv)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(command=st.sampled_from(sorted(_COMMANDS)), data=st.data())
def test_the_matcher_agrees_with_argparse_on_a_reordered_valid_argv(command, data):
    # Pairs of a base argv, shuffled, with a few options added in either form.
    base = data.draw(st.sampled_from(_bases(command)))
    units = [base[i:i + 2] for i in range(1, len(base), 2)]
    _, options = _options(command)
    for flag, kw in data.draw(st.lists(st.sampled_from(options), max_size=3)) if options else ():
        if "action" in kw:
            units.append([flag])
        else:
            value = data.draw(_values)
            units.append(data.draw(st.sampled_from([[flag, value], [f"{flag}={value}"]])))
    units = data.draw(st.permutations(units))
    _agrees([command] + [t for unit in units for t in unit])
