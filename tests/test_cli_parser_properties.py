"""Property test of the command-line parser: on argvs drawn from qp3's
grammar, the table parser `cli._parsed` and the argparse reference
`oracles.argparse_parsed` agree, giving the same question and limit
flags or both a UsageError.  The draws cover the commands, options in
full and by unique prefix, `--x v` and `--x=v`, valid and invalid
values, negative numbers, switches given a value, unknown options and
stray or repeated positionals.  They hold only tokens that argparse
reads alike on Python 3.10 to 3.13: a value that begins with `-` is
drawn as a separate token only after `--gamma` in full (which the
reference joins to it) or when it is a plain negative number, and no
draw holds `-h`, `--help`, a bare `--` or an ambiguous prefix with `=`.
Those are pinned below, on the table parser alone.  The property needs
hypothesis, which the `test` extra installs."""

import re

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st

from oracles import argparse_parsed
from qp3 import cli
from qp3.cli import UsageError

VALUES = {
    "--gamma": ("1", "4", "3/2+i", "1/2+3/2*i", "-1", "-1/2", "-i", "-5",
                "2^3", "0", "1/0", "x", "(1"),
    "--format": ("text", "json", "xml", "TEXT", "-1"),
    "--max-pairs": ("1", "3", "500", "0", "-5", "x", "1.5"),
    "--max-basis": ("2", "5000", "0", "-2", "2e3"),
    "--max-degree": ("1", "40", "-1", "ten"),
    "--tolerance": ("1e-8", "1e-3", "0.5", "0", "-1.5", "-.5", "nan", "inf", "x"),
    "--point": ("e1", "e2", "e3", "e4", "generic", "e5", "-1"),
}
SWITCHES = ("--verify", "--symbolic", "--numeric")
# a value that argparse reads as a value on every version, not as an option
PLAIN = re.compile(r"[^-]|-\d+$|-\d*\.\d+$")


def spellings(option):
    """The option in full and by each of its unique prefixes."""
    others = [o for o in cli.OPTIONS if o != option]
    return [option[:k] for k in range(3, len(option) + 1)
            if not any(o.startswith(option[:k]) for o in others)]


def _valued(option, name, value, joined):
    if joined:
        return [f"{name}={value}"]
    if PLAIN.match(value) or name == "--gamma":
        return [name, value]
    return [f"{name}={value}"]


values = st.one_of(*(
    st.tuples(st.sampled_from(spellings(o)), st.sampled_from(v), st.booleans())
    .map(lambda t, o=o: _valued(o, *t)) for o, v in VALUES.items()))
switches = st.one_of(
    st.sampled_from([[s] for o in SWITCHES for s in spellings(o)]),
    st.tuples(st.sampled_from(SWITCHES), st.sampled_from(("x", "1", "true")))
    .map(lambda t: ["=".join(t)]))
strays = st.sampled_from([["bogus"], ["point"], ["-5"], ["-x"], ["--bogus"],
                          ["--bogus=1"], ["--gammas=1"], ["--max"], ["--m", "3"],
                          ["--max-"], ["--verify-all"]])
commands = st.sampled_from([[c] for c in cli.COMMANDS])
gammas = st.tuples(st.sampled_from(spellings("--gamma")),
                   st.sampled_from(VALUES["--gamma"]), st.booleans()).map(
    lambda t: _valued("--gamma", *t))
chunks = st.one_of(values, switches, strays, commands)
# mostly a command and a gamma among a few other chunks, in any order
argvs = st.one_of(
    st.tuples(commands, gammas, st.lists(chunks, max_size=4)).flatmap(
        lambda t: st.permutations([t[0], t[1], *t[2]])),
    st.lists(chunks, max_size=6),
).map(lambda cs: [token for c in cs for token in c])


def outcome(parse, argv):
    try:
        return parse(argv)
    except UsageError:
        return UsageError


@settings(derandomize=True, database=None, max_examples=600, deadline=None)
@given(argvs)
@example(["--gamma", "-1/2", "lines-through", "--point", "e2"])
@example(["--gam=-i", "--max-p", "3", "line-scheme", "--ver"])
@example(["lines-through", "--num", "--tol", "-.5", "--gamma=1"])
def test_table_parser_agrees_with_argparse(argv):
    assert outcome(cli._parsed.__wrapped__, tuple(argv)) == outcome(argparse_parsed, argv)


@pytest.mark.parametrize("argv", [
    ["-h"], ["--help"], ["--he"], ["point-scheme", "-h"],
    ["--gamma=1", "line-scheme", "--verify", "--help"],
    ["--bogus", "-h", "stray"], ["-h", "--format=xml"], ["--help", "bogus"],
])
def test_help_anywhere_before_a_bad_value(argv):
    assert cli._parsed.__wrapped__(tuple(argv)) is None


@pytest.mark.parametrize("argv,message", [
    (["--format=xml", "-h"],
     "argument --format: invalid choice: 'xml' (choose from 'text', 'json')"),
    (["bogus", "--help"], "argument command: invalid choice: 'bogus' "
                          "(choose from 'point-scheme', 'line-scheme', 'lines-through')"),
    (["--help=x"], "argument --help: ignored explicit argument 'x'"),
    (["--gamma", "--", "point-scheme"], "--gamma needs a value, such as 4 or 1/2+3/2*i"),
    (["--gamma=--", "point-scheme"], "--gamma needs a value, such as 4 or 1/2+3/2*i"),
    (["--max=3", "--gamma=1", "point-scheme"],
     "ambiguous option: --max=3 could match --max-pairs, --max-basis, --max-degree"),
    (["point-scheme", "--", "--gamma=1"], "unrecognized arguments: --gamma=1"),
    (["--gamma=1", "point-scheme", "--", "--"], "unrecognized arguments: --"),
    (["--gamma=1", "--", "--", "point-scheme"], "argument command: invalid choice: '--' "
     "(choose from 'point-scheme', 'line-scheme', 'lines-through')"),
    (["--format=--", "--gamma=1", "point-scheme"],
     "argument --format: invalid choice: '--' (choose from 'text', 'json')"),
    (["--max-pairs=--", "--gamma=1", "point-scheme"],
     "argument --max-pairs: invalid int value: '--'"),
    (["--gamma=1", "point-scheme", "--max-pairs"],
     "argument --max-pairs: expected one argument"),
])
def test_usage_errors_the_draws_leave_out(argv, message):
    # a bad value before the help raises; a bare `--` makes every later
    # token positional, a second `--` too; a `--` value is no value
    with pytest.raises(UsageError) as err:
        cli._parsed.__wrapped__(tuple(argv))
    assert str(err.value) == message


@pytest.mark.parametrize("argv,question", [
    (["--gamma=1", "--", "point-scheme"], (cli.cmd_point_scheme, "1", "text")),
    (["--gamma=1", "point-scheme", "--"], (cli.cmd_point_scheme, "1", "text")),
    # a value option takes the next token, whatever it looks like
    (["--gam", "-1/2", "point-scheme"], (cli.cmd_point_scheme, "-1/2", "text")),
])
def test_accepted_argvs_the_draws_leave_out(argv, question):
    got, flags = cli._parsed.__wrapped__(tuple(argv))
    assert got == (question[0], cli.parse_gamma(question[1]), *question[2:])
    assert flags == (None, None, None)
