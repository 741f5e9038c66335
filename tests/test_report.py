"""The report writer against json.dumps(indent=2, sort_keys=True), on random
JSON trees and on every CLI report."""

import json
import math
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyadjoint import _report
from polyadjoint.cli import COMMANDS, main
from polyadjoint.fixtures import FIXTURES


def _outcome(write, obj):
    """The text `write` returns for obj, or the type and message it raises."""
    try:
        return write(obj)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


def _reference(obj):
    return json.dumps(obj, indent=2, sort_keys=True)


class _Int(int):
    def __repr__(self):
        return "not-json"


class _Float(float):
    def __repr__(self):
        return "not-json"


class _Str(str):
    pass


class _Dict(dict):
    pass


class _List(list):
    pass


# every code point, surrogates, controls and non-ASCII included
_text = st.text(st.characters(exclude_categories=()), max_size=8)
_scalars = st.one_of(
    _text,
    _text.map(_Str),
    st.integers(),  # past 64 bits too
    st.integers(-(2**70), 2**70).map(_Int),
    st.floats(),  # nan, infinities, -0.0, subnormals and the extremes
    st.sampled_from([-0.0, 5e-324, 1.7976931348623157e308, 1e-310, 1e22, 1e16]),
    st.floats(allow_nan=False).map(_Float),
    st.booleans(),
    st.none(),
)
_keys = st.one_of(_text, st.integers(), st.floats(), st.booleans(), st.none())


def _containers(children):
    return st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.lists(children, max_size=5).map(_List),
        st.lists(st.integers(), max_size=6),  # the one-join rows
        st.dictionaries(_text, children, max_size=5),
        st.dictionaries(_text, children, max_size=5).map(_Dict),
        # one key type per dict sorts; mixed key types raise as json raises
        st.dictionaries(_keys, children, max_size=4),
    )


_trees = st.recursive(_scalars, _containers, max_leaves=40)


@settings(max_examples=400, deadline=None)
@given(_trees)
def test_writer_matches_json_dumps_on_random_trees(tree):
    assert _outcome(_report.dumps, tree) == _outcome(_reference, tree)


@pytest.mark.parametrize("tree", [
    {}, [], (), {"a": {}}, {"a": []}, [[], {}, ()], [[[]]], {"": [{}]},
    [True, False, None], [1, True], [1, 2.5], [0, -1, 2**64, -(2**200)],
    {"\x00\x1f\x7f": "𐏿", "é": "☃", "\U0001f600": " "},
    {"b": 1, "a": (1, ("x", 2)), "c": [-0.0, math.inf, -math.inf, math.nan]},
    {1: "int", 2: "keys"}, {1.5: "x", -0.0: "y"}, {True: 1, False: 0}, {None: 1},
    {1: "mixed", "a": "keys"}, {(1, 2): "tuple key"}, {"a": object()}, [{1, 2}],
], ids=repr)
def test_writer_matches_json_dumps_on_edge_cases(tree):
    assert _outcome(_report.dumps, tree) == _outcome(_reference, tree)


def test_ints_past_the_str_digit_limit_raise_where_json_raises():
    big = 10**4400  # built by arithmetic; only writing it can hit the limit
    trees = [big, [big], [0, 1, big], (big,), {"a": [0, {"b": -big}]}, {big: 1},
             {"a": 1, "b": [2, {"c": big}], "d": big + 1}]
    limited = getattr(sys, "get_int_max_str_digits", lambda: 0)() not in (0, None)
    for tree in trees:
        outcome = _outcome(_report.dumps, tree)
        assert outcome == _outcome(_reference, tree)
        if limited:
            assert outcome[0] is ValueError


def _cli_cases():
    extra = {
        "verify-detrep": ["--matrix", "builtin"],
        "assoc-adjoint": ["--degree", "10"],
        "sweep": ["--count", "5"],
    }
    for command in sorted(COMMANDS):
        for fixture in [None, *sorted(FIXTURES)]:
            argv = [command, *(["--fixture", fixture] if fixture else []), *extra.get(command, [])]
            yield argv
            yield argv + ["--approx"]


@pytest.mark.parametrize("argv", list(_cli_cases()), ids=" ".join)
def test_every_cli_report_matches_json_dumps(argv, monkeypatch, capsys):
    # successes, certificate failures and input errors alike
    reports, write = [], _report.dumps
    monkeypatch.setattr(_report, "dumps", lambda report: reports.append(report) or write(report))
    main(argv)
    [report] = reports
    assert capsys.readouterr().out == _reference(report) + "\n"
