"""The command-table parser against the argparse front end it replaced.

``cli_oracle.outcome`` runs the argparse parser the CLI used to build on
every call. For every argv drawn, ``cli._parse_args`` must give the same
outcome, error text included: accepted with equal values, a usage error
(exit 2) or help (exit 0).

The argv are well-formed ones built from the command table, then mutated:
long flags cut to prefixes, ``--flag=value`` forms, ``--``, tokens that
look like negative numbers, ``-``, ``''``, repeated, missing or extra
options and values, unknown options, ``--switch=x`` and ``-h``.

The table parser keeps Python 3.11's reading of argv, and later argparse
releases read some token shapes differently, so the drawn comparison runs
on 3.11 only; ``test_pinned_readings`` pins that reading on every Python.
``--opt=--`` is never drawn: 3.11 read it as the value ``[]`` (a list,
which crashed the commands) and the table parser reads it as ``--``.
"""

import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cli_oracle import outcome
from cmdpkit import cli


def table_outcome(argv):
    try:
        return "ok", vars(cli._parse_args(list(argv)))
    except cli._HelpRequested:
        return "help", ""
    except cli._UsageError as exc:
        return "usage", str(exc)


VALUES = ["y", "y=a", "5", "0", "1/2", "a b", "-5", "-0.5", "-.5", "-1/2", "-1_0", "-", ""]
NOISE = ["--bogus", "-x", "-h", "--help", "-hh", "-hx", "-h=x", "--help=x", "--he", "extra"]


@st.composite
def occurrence(draw, option):
    """One use of an option: its flag or a prefix of it, then its value."""
    flag = option.flag[:draw(st.one_of(st.just(len(option.flag)), st.integers(3, len(option.flag))))]
    if option.kind is bool:
        return [flag]
    value = draw(st.sampled_from(VALUES))
    form = draw(st.sampled_from(["separate"] * 3 + ["attached", "missing"]))
    if form == "attached":
        return [f"{flag}={value}"]
    return [flag] if form == "missing" else [flag, value]


@st.composite
def mutated(draw, tokens, options):
    tokens = list(tokens)
    kinds = ["insert", "delete", "marker"] + ["repeat"] * bool(options)
    kind = draw(st.sampled_from(kinds))
    at = draw(st.integers(0, len(tokens)))
    if kind == "insert":
        switches = [f"{o.flag}=x" for o in options if o.kind is bool]
        tokens.insert(at, draw(st.sampled_from(NOISE + VALUES + switches)))
    elif kind == "delete" and tokens:
        del tokens[min(at, len(tokens) - 1)]
    elif kind == "repeat":
        tokens[at:at] = draw(occurrence(draw(st.sampled_from(options))))
    elif kind == "marker":
        tokens.insert(at, "--")
    return tokens


@st.composite
def argvs(draw):
    name = draw(st.sampled_from(list(cli._COMMANDS)))
    options = cli._COMMANDS[name].options
    groups = [draw(occurrence(o)) for o in options if o.required or draw(st.booleans())]
    file = draw(st.sampled_from(["f.json", "f.json", *VALUES]))
    groups.insert(draw(st.integers(0, len(groups))), [file])
    tokens = [token for group in groups for token in group]
    for _ in range(draw(st.sampled_from([0, 0, 1, 2, 3]))):
        tokens = draw(mutated(tokens, options))
    head = draw(st.sampled_from([[]] * 10 + [["-h"], ["--he"], ["--bogus"], ["-x"], ["--help=x"], ["--"]]))
    command = draw(st.sampled_from([name] * 36 + ["nonsense", "", "-5", name[:3]]))
    return head + [command] + tokens


@pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                    reason="the table parser keeps Python 3.11's reading of argv")
@settings(max_examples=400, deadline=None)
@given(argvs())
def test_table_parser_reads_argv_as_argparse_did(argv):
    assert table_outcome(argv) == outcome(argv)


def solve(file, start=None):
    return {"command": "solve", "file": file, "start": start}


# The 3.11 reading of the shapes later argparse releases may read otherwise,
# and a few more: the values of an accepted argv, the first line of a usage
# error, or help.
@pytest.mark.parametrize("argv, kind, expected", [
    (["certify", "x", "--policy", "p", "--gain", "-1/2"], "usage",
     "cmdpkit certify: error: argument --gain: expected one argument"),
    (["certify", "x", "--pol", "", "--gain=-1/2", "--search"], "ok",
     {"command": "certify", "file": "x", "policy": "", "search": True, "mu": None,
      "gain": "-1/2", "potential": None}),
    (["residual", "x", "--to=y", "--ti", "-5"], "ok",
     {"command": "residual", "file": "x", "to": "y", "time": -5}),
    (["decompose", "x", "--sel"], "ok", {"command": "decompose", "file": "x", "selective": True}),
    (["solve", "-5"], "ok", solve("-5")),
    (["solve", "x", "-1_0"], "usage", "cmdpkit: error: unrecognized arguments: -1_0"),
    (["--", "solve", "x"], "usage",
     "cmdpkit: error: argument command: invalid choice: '--' (choose from 'validate', "
     "'solve', 'evaluate', 'residual', 'certify', 'audit', 'samplepath', 'decompose', "
     "'simulate')"),
    (["solve", "--", "x"], "ok", solve("x")),
    (["solve", "--", "--start"], "ok", solve("--start")),
    (["solve", "x", "--"], "ok", solve("x")),
    (["solve", "x", "--", "--"], "usage", "cmdpkit: error: unrecognized arguments: --"),
    (["solve", "x", "--start", "y", "--"], "usage", "cmdpkit: error: unrecognized arguments: --"),
    (["solve", "x", "--start", "a", "--start", "b"], "ok", solve("x", "b")),
    (["solve", "x", "--start=--"], "ok", solve("x", "--")),
    (["simulate", "x", "--policy", "p", "--steps=--", "--seed", "1"], "usage",
     "cmdpkit simulate: error: argument --steps: invalid int value: '--'"),
    (["solve", "-h", "--start"], "help", ""),
    (["--bogus", "-h"], "help", ""),
    (["simulate", "x", "--bogus", "--help"], "help", ""),
    # Errors met before -h still win, and an ambiguous prefix anywhere.
    (["solve", "x", "--start", "-h"], "usage",
     "cmdpkit solve: error: argument --start: expected one argument"),
    (["certify", "x", "-h", "--po"], "usage",
     "cmdpkit certify: error: ambiguous option: --po could match --policy, --potential"),
])
def test_pinned_readings(argv, kind, expected):
    got_kind, got = table_outcome(argv)
    assert got_kind == kind
    assert (got.splitlines()[0] if kind == "usage" else got) == expected


def test_every_flag_is_long():
    # "-h" is the only short flag, which is what _read_token and _check_switch assume.
    for command in cli._COMMANDS.values():
        assert all(o.flag.startswith("--") for o in command.options)
