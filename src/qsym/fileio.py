"""Flat-file formats: spaces, maps, and envelope step points.

Two space formats: a structured JSON document
{"name": ..., "points": [...], "matrix": [[...]]} and a CSV alternative
(header row of labels, then matrix rows).  Maps are JSON documents with
an assignment object; envelopes are plain "t H" lines in ascending t.
Floats are written with repr, so a load of a save is bitwise identical.
"""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path
from typing import Optional, Union

import numpy as np

from .errors import ParseError
from .spaces import DEFAULT_TOL, PointMap, SemimetricSpace, _valid_tol, build_map, build_space

PathLike = Union[str, Path]


def sha256_file(path: PathLike) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _require(cond: bool, message: str, path: PathLike, line: Optional[int] = None):
    if not cond:
        raise ParseError(message, path=str(path), line=line)


#: the JSON number types; bool, an int subclass, is not one of them
_NUMBER_TYPES = frozenset((int, float))


def _open(path: PathLike, mode: str = "r", newline: Optional[str] = None):
    """``open`` in text mode; an OSError surfaces as :class:`ParseError`."""
    try:
        return open(path, mode, encoding="utf-8", newline=newline)
    except OSError as exc:
        verb = "read" if mode == "r" else "write"
        raise ParseError(f"cannot {verb} file: {exc.strerror}", path=str(path))


def _load_json(path: PathLike) -> dict:
    try:
        with _open(path) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", path=str(path), line=exc.lineno)
    _require(isinstance(doc, dict), "top level must be an object", path)
    return doc


def load_space_document(path: PathLike, tol: float = DEFAULT_TOL):
    """Read a space file (JSON or CSV by extension) -> (space, name).

    Validation failures surface as :class:`ParseError` with location;
    semimetric axiom violations pass through from ``build_space``.
    """
    _valid_tol(tol)
    if str(path).lower().endswith(".csv"):
        return _load_space_csv(path, tol)
    doc = _load_json(path)
    _require("points" in doc, 'missing "points"', path)
    _require("matrix" in doc, 'missing "matrix"', path)
    points = doc["points"]
    matrix = doc["matrix"]
    name = doc.get("name", "")
    _require(isinstance(name, str), '"name" must be a string', path)
    _require(
        isinstance(points, list) and all(isinstance(p, str) for p in points),
        '"points" must be a list of strings',
        path,
    )
    n = len(points)
    _require(
        isinstance(matrix, list) and len(matrix) == n,
        f'"matrix" must have {n} rows to match "points"',
        path,
    )
    for i, row in enumerate(matrix):
        _require(
            isinstance(row, list) and len(row) == n,
            f"matrix row {i} must have {n} entries",
            path,
        )
        _require(
            set(map(type, row)) <= _NUMBER_TYPES,
            f"matrix row {i} contains a non-numeric entry",
            path,
        )
    space = build_space(points, np.array(matrix, dtype=float), tol=tol)
    return space, name


def _load_space_csv(path: PathLike, tol: float):
    with _open(path, newline="") as fh:
        rows = [row for row in csv.reader(fh) if any(cell.strip() for cell in row)]
    _require(len(rows) >= 1, "empty CSV", path)
    labels = [cell.strip() for cell in rows[0]]
    n = len(labels)
    _require(len(rows) == n + 1, f"expected {n} matrix rows after the header", path,
             line=len(rows))
    matrix = np.empty((n, n))
    for i, row in enumerate(rows[1:], start=2):
        _require(len(row) == n, f"expected {n} entries", path, line=i)
        for j, cell in enumerate(row):
            try:
                matrix[i - 2, j] = float(cell)
            except ValueError:
                raise ParseError(
                    f"bad number {cell.strip()!r}", path=str(path), line=i
                )
    return build_space(labels, matrix, tol=tol), ""


def load_space(path: PathLike, tol: float = DEFAULT_TOL) -> SemimetricSpace:
    return load_space_document(path, tol)[0]


def save_space(space: SemimetricSpace, path: PathLike, name: str = ""):
    """Write a space as JSON, or CSV when the path ends in .csv."""
    if str(path).lower().endswith(".csv"):
        with _open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(space.labels)
            for row in np.asarray(space.dist):
                writer.writerow([repr(float(v)) for v in row])
        return
    doc = {
        "name": name,
        "points": list(space.labels),
        "matrix": [[float(v) for v in row] for row in np.asarray(space.dist)],
    }
    with _open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def load_map_document(path: PathLike):
    """Read a map file -> (domain_name, codomain_name, assignment dict)."""
    doc = _load_json(path)
    _require("assignment" in doc, 'missing "assignment"', path)
    assignment = doc["assignment"]
    _require(
        isinstance(assignment, dict)
        and all(isinstance(k, str) and isinstance(v, str) for k, v in assignment.items()),
        '"assignment" must map label strings to label strings',
        path,
    )
    dom = doc.get("domain", "")
    cod = doc.get("codomain", "")
    _require(isinstance(dom, str), '"domain" must be a string', path)
    _require(isinstance(cod, str), '"codomain" must be a string', path)
    return dom, cod, assignment


def load_map(
    path: PathLike,
    domain: SemimetricSpace,
    codomain: SemimetricSpace,
    require_bijective: bool = False,
) -> PointMap:
    _, _, assignment = load_map_document(path)
    return build_map(domain, codomain, assignment, require_bijective=require_bijective)


def save_map(
    f: PointMap, path: PathLike, domain_name: str = "", codomain_name: str = ""
):
    doc = {
        "domain": domain_name,
        "codomain": codomain_name,
        "assignment": {
            f.domain.labels[i]: f.codomain.labels[f.assignment[i]]
            for i in range(f.domain.n)
        },
    }
    with _open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


#: knots formatted per block: the float objects and line strings of one
#: block are freed before the next, so the peak is about twice the text
_TEXT_BLOCK = 1 << 16


def envelope_text(env) -> str:
    """Envelope step points as ascending "t H" lines, each ending in a newline.

    Accepts anything with ``ts``/``hs`` arrays (envelope or step modulus).
    """
    ts = np.asarray(env.ts, dtype=float)
    hs = np.asarray(env.hs, dtype=float)
    blocks = []
    for i in range(0, len(ts), _TEXT_BLOCK):
        tb, hb = ts[i:i + _TEXT_BLOCK].tolist(), hs[i:i + _TEXT_BLOCK].tolist()
        blocks.append("".join([f"{t!r} {h!r}\n" for t, h in zip(tb, hb)]))
    return "".join(blocks)


def save_envelope(env, path: PathLike) -> str:
    """Write :func:`envelope_text` to ``path``; returns the text written."""
    text = envelope_text(env)
    with _open(path, "w") as fh:
        fh.write(text)
    return text


def load_envelope_points(path: PathLike):
    """Read "t H" lines -> (ts, hs) arrays; blank lines are skipped."""
    ts, hs = [], []
    with _open(path) as fh:
        lines = fh.readlines()
    for lineno, line in enumerate(lines, start=1):
        parts = line.split()
        if not parts:
            continue
        _require(len(parts) == 2, "expected two numbers per line", path, line=lineno)
        try:
            ts.append(float(parts[0]))
            hs.append(float(parts[1]))
        except ValueError:
            raise ParseError(
                f"bad number on envelope line {line.strip()!r}",
                path=str(path),
                line=lineno,
            )
    _require(len(ts) > 0, "envelope file has no points", path)
    return np.array(ts), np.array(hs)
