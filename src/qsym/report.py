"""Report serialization: one walk from report dataclasses to JSON text.

Every analysis returns a frozen dataclass deriving from :class:`Report`;
its ``to_dict`` mirrors the dataclass fields in declaration order, so the
JSON form of a report is fixed by its field list alone.  :func:`to_json`
writes such dicts with floats at 17 significant digits.
"""

from __future__ import annotations

import dataclasses
import json

import numpy as np


def _plain(value):
    """Nested reports, named tuples, tuples and arrays as dicts and lists."""
    if isinstance(value, Report):
        return value.to_dict()
    if isinstance(value, tuple) and hasattr(value, "_fields"):
        return {k: _plain(v) for k, v in zip(value._fields, value)}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, (np.ndarray, np.generic)):
        return value.tolist()
    return value


class Report:
    """Base of every analysis report (a dataclass subclass)."""

    def to_dict(self) -> dict:
        return {f.name: _plain(getattr(self, f.name)) for f in dataclasses.fields(self)}


def to_json(x) -> str:
    """Serialize one value as JSON with 17 significant digits on floats."""
    if isinstance(x, bool) or isinstance(x, np.bool_):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        x = float(x)
        if x != x:
            return "NaN"
        if x == float("inf"):
            return "Infinity"
        if x == float("-inf"):
            return "-Infinity"
        return f"{x:.17g}"
    if x is None:
        return "null"
    if isinstance(x, str):
        return json.dumps(x)
    if isinstance(x, dict):
        items = ", ".join(f"{to_json(str(k))}: {to_json(v)}" for k, v in x.items())
        return "{" + items + "}"
    if isinstance(x, (list, tuple, np.ndarray)):
        return "[" + ", ".join(to_json(v) for v in x) + "]"
    raise TypeError(f"cannot serialize {type(x).__name__}")
