"""The CLI's report format: ``json.dumps(report, indent=2, sort_keys=True)``,
frozen.

The report bytes are the user-facing output and the input of the
benchmark's output digest, so `dumps` returns exactly what that call
returns, on every supported Python.  With ``indent`` set, CPython's json
encodes in pure Python, one generator step per token.  Here each container
is one ``str.join``, strings go through the C ``encode_basestring_ascii``,
and a list of plain ints (a polynomial's exponent row, most of a report's
bytes) is one join over ``int.__repr__``.  Containers are recognised by
``isinstance``, as json does (tuples are written as lists, dict and list
subclasses as dicts and lists); only scalars other than str and int
(floats, bools, None) are handed to ``json.dumps``.  Reports are trees: a
container that holds itself raises RecursionError here, where json raises
"Circular reference detected".
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii as _string

_INDENT = "  "
_INT = frozenset((int,))


def dumps(report):
    """``json.dumps(report, indent=2, sort_keys=True)``, byte for byte."""
    return _dumps(report, "\n")


def _dumps(o, newline):
    """o written at the indentation that `newline` ("\\n" and the current
    indent) ends with."""
    if isinstance(o, str):
        return _string(o)
    if isinstance(o, dict):
        if not o:
            return "{}"
        inner = newline + _INDENT
        items = [
            (_string(k) if isinstance(k, str) else _key(k)) + ": " + _dumps(v, inner)
            for k, v in sorted(o.items())
        ]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if isinstance(o, (list, tuple)):
        if not o:
            return "[]"
        inner = newline + _INDENT
        if _INT.issuperset(map(type, o)):  # plain ints only: no bool, no subclass
            items = map(int.__repr__, o)
        else:
            items = [_dumps(x, inner) for x in o]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    if type(o) is int:
        return int.__repr__(o)
    return json.dumps(o)


def _key(key):
    """A dict key that is not a str, as json writes it: an int, float, bool
    or None becomes its JSON scalar text, in quotes."""
    if isinstance(key, (int, float)) or key is None:
        return _string(json.dumps(key))
    raise TypeError(
        f"keys must be str, int, float, bool or None, not {key.__class__.__name__}"
    )
