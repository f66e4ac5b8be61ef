"""Command-line interface.

Exit status contract: 0 when the checked property holds (or an object was
produced), 1 when the property fails, 2 when no verdict could be reached:
a usage error, or any :class:`~qsym.errors.QsymError` or ValueError, among
them a failed hypothesis (:class:`~qsym.errors.PreconditionFailed`).  A
failed property is a report, never an exception, so exit 1 always comes
with a report on stdout, its witness included.

Every handler builds only its own report fields and text lines and
returns through :func:`_emit`, which prints the lines, or under ``--json``
one structured document with floats at 17 significant digits, and maps the
verdict to the exit status.  The document opens with ``command``; a
handler that read files goes on with their sha256 ``inputs`` and its
tolerance, so failures are reproducible from the report alone.

A process loads only the modules its subcommand runs: each handler
imports what it calls, and the parser needs only ``spaces``.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections.abc import Iterator
from itertools import chain, islice

import numpy as np

from .errors import ParseError, QsymError
from .spaces import DEFAULT_TOL, RANK_TOL, build_map

#: the text lines that :func:`_emit` joins into one write
_LINES_PER_WRITE = 4096

#: the flags that name a map's domain, codomain and assignment files
_MAP_FLAGS = ("--domain", "--codomain", "--map")


def _emit(args, payload: dict, lines, holds=True, files=(), tol: str = "tol") -> int:
    """Print one report and return its exit status: 0 if ``holds``, else 1.

    Under ``--json`` the document is ``command``, then, when the handler
    read ``files``, their sha256 hashes as ``inputs`` and the option
    ``tol`` names (the verdict's tolerance) under its own name, then the
    handler's ``payload``, written one field at a time; a payload value
    that is an iterator yields the JSON text of one value in pieces, each
    written as it comes.  Otherwise each of ``lines``, an iterable that
    may be lazy, is printed, a chunk of lines per write.
    """
    out = sys.stdout
    if args.json:
        from .report import to_json

        head = {"command": args.command}
        if files:
            from .fileio import sha256_file

            head["inputs"] = {str(p): sha256_file(p) for p in files}
            head[tol] = getattr(args, tol)
        sep = "{"
        for key, value in {**head, **payload}.items():
            out.write(f"{sep}{to_json(key)}: ")
            if isinstance(value, Iterator):
                out.writelines(value)
            else:
                out.write(to_json(value))
            sep = ", "
        out.write("}\n")
    else:
        lines = iter(lines)
        while chunk := [f"{line}\n" for line in islice(lines, _LINES_PER_WRITE)]:
            out.write("".join(chunk))
    return 0 if holds else 1


def _triples_json(triples):
    """The JSON list of betweenness ``triples`` by the rules of
    :func:`report.to_json`, formatted from their columns in pieces of
    :data:`_LINES_PER_WRITE` triples."""
    from .report import to_json

    yield "["
    sep = ""
    for lo in range(0, len(triples), _LINES_PER_WRITE):
        block = triples[lo:lo + _LINES_PER_WRITE]
        x, y, z, slack = (c.tolist() for c in (block.x, block.y, block.z, block.slack))
        yield sep + ", ".join([
            f'{{"x": {a}, "y": {b}, "z": {c}, "slack": {to_json(d)}}}'
            for a, b, c, d in zip(x, y, z, slack)])
        sep = ", "
    yield "]"


def _indices(text: str, n: int, what: str):
    try:
        idx = tuple(int(v) for v in text.split(","))
    except ValueError:
        raise ParseError(f"{what} must be a comma-separated index list, got {text!r}")
    for k, i in enumerate(idx):
        if not 0 <= i < n:
            raise ParseError(f"{what} index {i} out of range for {n} points")
        if i in idx[:k]:
            raise ParseError(f"{what} repeats index {i}")
    return idx


def _load_map_bundle(args, require_bijective=False):
    """The map that ``--map`` makes from ``--domain`` to ``--codomain``, and
    those three paths; each flag must be given, and names that the map file
    gives its spaces must match the space files' names."""
    from .fileio import load_map_document, load_space_document

    paths = (args.domain, args.codomain, args.map)
    for flag, path in zip(_MAP_FLAGS, paths):
        if path is None:
            raise ParseError(f"a map needs {flag}")
    spaces = [load_space_document(path, args.tol) for path in paths[:2]]
    *wanted, assignment = load_map_document(args.map)
    for role, want, (_, name) in zip(("domain", "codomain"), wanted, spaces):
        if want and name and want != name:
            raise ParseError(
                f'map expects {role} "{want}" but the space file is named "{name}"',
                path=str(args.map),
            )
    f = build_map(spaces[0][0], spaces[1][0], assignment,
                  require_bijective=require_bijective)
    return f, paths


def _verdict(holds) -> str:
    return "HOLDS" if holds else "FAILS"


# ---------------------------------------------------------------- handlers


def _cmd_check(args) -> int:
    from .fileio import load_space_document
    from .triangle import (
        Additive,
        MaxGauge,
        check_triangle,
        is_ptolemaic,
        minimal_bmetric_K,
        parse_triangle_function,
    )

    space, _ = load_space_document(args.space, args.tol)
    files = (args.space,)
    if args.phi is not None and args.cls is not None:
        raise ParseError("give either --class or --phi, not both")
    if args.cls == "bmetric":
        K = minimal_bmetric_K(space)
        rep = check_triangle(space, parse_triangle_function(f"bmetric:{max(K, 1.0)}"),
                             tol=args.tol)
        payload = {"class": "bmetric", "minimal_K": K, "report": rep.to_dict()}
        return _emit(args, payload, [f"minimal K = {K:g}"], files=files)
    if args.cls == "ptolemaic":
        rep = is_ptolemaic(space, tol=args.tol)
        payload = {"class": "ptolemaic"}
        at, fewer = f"quadruple {rep.worst_labels(space)} ({rep.mode})", 4
    else:
        phi = (
            parse_triangle_function(args.phi)
            if args.phi is not None
            else {"metric": Additive(), "ultrametric": MaxGauge()}[args.cls or "metric"]
        )
        rep = check_triangle(space, phi, tol=args.tol)
        payload = {"gauge": phi.describe()}
        at, fewer = f"(x, z, y) = {rep.worst_labels(space)}", 3
    payload["report"] = rep.to_dict()
    if rep.worst_labels(space) is None:
        lines = [f"HOLDS (vacuous: fewer than {fewer} points)"]
    else:
        lines = [_verdict(rep.holds), f"worst margin {rep.margin:.6g} at {at}"]
    return _emit(args, payload, lines, rep.holds, files)


def _evaluate_at(args, eta, payload: dict, name: str = "eta") -> list:
    """Evaluate eta at each ``--at`` point (default 0.25, 0.5, 1, 2, 4): add
    "at" and "values" to payload, and return eta's name and one
    "name(t) = value" line per point."""
    ts = args.at if args.at else [0.25, 0.5, 1.0, 2.0, 4.0]
    vals = [float(np.asarray(eta.eval(t))) for t in ts]
    payload.update(at=list(ts), values=vals)
    return [eta.describe()] + [f"{name}({t:g}) = {v:.12g}" for t, v in zip(ts, vals)]


def _cmd_modulus(args) -> int:
    from .moduli import parse_modulus

    eta = parse_modulus(args.eta)
    payload = {"eta": eta.describe()}
    lines = _evaluate_at(args, eta, payload)
    if not args.involution:
        return _emit(args, payload, lines)
    from .weak_similarity import check_involution_identity

    rep = check_involution_identity(eta, tol=args.tol)
    payload["involution"] = rep.to_dict()
    lines.append(
        f"involution identity {_verdict(rep.holds)} "
        f"(max defect {rep.max_defect:.3g} at k = {rep.worst_k:g}, grid)"
    )
    return _emit(args, payload, lines, rep.holds)


def _cmd_qs_check(args) -> int:
    from .fileio import envelope_text, save_envelope
    from .moduli import parse_modulus
    from .quasisymmetry import check_qs, empirical_modulus

    f, files = _load_map_bundle(args)
    if args.out and os.path.exists(args.out):
        for flag, path in zip(_MAP_FLAGS, files):
            if os.path.samefile(args.out, path):
                raise ParseError(f"-o would overwrite the {flag} file", path=args.out)
    if args.out or args.eta is None:
        env = empirical_modulus(f)
        text = save_envelope(env, args.out) if args.out else None
    if args.eta is None:
        if args.json:
            pairs = [[t, h] for t, h in zip(env.ts.tolist(), env.hs.tolist())]
            return _emit(args, {"envelope": pairs}, [], files=files)
        text = envelope_text(env) if text is None else text
        # the text ends each record's line already: print it as one line
        return _emit(args, {}, [text[:-1]] if text else [], files=files)
    eta = parse_modulus(args.eta)
    rep = check_qs(f, eta, tol=args.tol)
    if rep.holds:
        lines = [f"HOLDS: {eta.describe()} verifies the map "
                 f"({rep.checked} realized ratios)"]
    else:
        lines = [
            "FAILS",
            f"witness (x, a, b) = {rep.witness_labels}: at t = {rep.t:.9g} the "
            f"image ratio is {rep.image_ratio:.9g} but eta(t) = {rep.eta_at_t:.9g}",
        ]
    payload = {"eta": eta.describe(), "report": rep.to_dict()}
    return _emit(args, payload, lines, rep.holds, files)


def _cmd_invert_eta(args) -> int:
    from .moduli import inverse_modulus, parse_modulus

    eta = parse_modulus(args.eta)
    inv = inverse_modulus(eta)
    payload = {"eta": eta.describe(), "inverse": inv.describe()}
    return _emit(args, payload, _evaluate_at(args, inv, payload, name="eta'"))


def _cmd_transfer(args) -> int:
    from . import transfer as tr
    from .moduli import parse_modulus
    from .triangle import parse_triangle_function

    eta = parse_modulus(args.eta)
    if args.minimal_k2 is not None:
        for flag, path in zip(_MAP_FLAGS, (args.domain, args.codomain, args.map)):
            if path is not None:
                raise ParseError(f"--minimal-k2 reads no map: drop {flag}")
        K2 = tr.minimal_transfer_K2(args.minimal_k2, eta)
        payload = {"eta": eta.describe(), "K1": args.minimal_k2, "minimal_K2": K2}
        return _emit(args, payload, [f"minimal K2 = {K2:.12g}"])
    phi1 = parse_triangle_function(args.phi1)
    phi2 = parse_triangle_function(args.phi2)
    files = ()
    if args.domain or args.codomain or args.map:
        f, files = _load_map_bundle(args, require_bijective=True)
        rep = tr.verify_transfer_end_to_end(f, phi1, phi2, eta, tol=args.tol)
        lines = [
            f"implication checked on {rep.transfer.checked_pairs} realized pairs",
            f"image triangle margin {rep.image_triangle.margin:.6g}",
        ]
    else:
        rep = tr.check_transfer_condition(phi1, phi2, eta, tol=args.tol)
        lines = [f"{rep.checked_pairs} premise pairs on the grid"]
        if rep.worst is not None:
            t1, t2, lhs1, lhs2 = rep.worst
            lines.append(
                f"worst pair t1 = {t1:.6g}, t2 = {t2:.6g}: premise side {lhs1:.6g}, "
                f"conclusion side {lhs2:.6g}"
            )
    payload = {
        "tol": args.tol, "eta": eta.describe(), "phi1": phi1.describe(),
        "phi2": phi2.describe(), "report": rep.to_dict(),
    }
    return _emit(args, payload, [_verdict(rep.holds), *lines], rep.holds, files)


def _cmd_ptolemy_transfer(args) -> int:
    from .moduli import parse_modulus
    from .transfer import ptolemy_transfer_check

    eta = parse_modulus(args.eta)
    f, files = _load_map_bundle(args, require_bijective=True)
    rep = ptolemy_transfer_check(
        f, eta, tol=args.tol, force_realized=args.force_realized
    )
    lines = [
        _verdict(rep.holds),
        f"mode {rep.mode}; implication "
        f"{'holds' if rep.implication_holds else 'fails'} on {rep.checked} "
        f"checked arrangements; image "
        f"{'Ptolemaic' if rep.image.holds else 'not Ptolemaic'}",
    ]
    payload = {"eta": eta.describe(), "report": rep.to_dict()}
    return _emit(args, payload, lines, rep.holds, files)


def _cmd_distortion(args) -> int:
    from . import quasisymmetry as qs
    from .moduli import parse_modulus
    from .spaces import SubsetRef
    from .triangle import parse_triangle_function

    eta = parse_modulus(args.eta)
    phi1 = parse_triangle_function(args.phi1)
    phi2 = parse_triangle_function(args.phi2)
    f, files = _load_map_bundle(args)
    if args.A is not None:
        A = SubsetRef(f.domain, _indices(args.A, f.domain.n, "--A"))
        B = SubsetRef(
            f.domain,
            _indices(args.B, f.domain.n, "--B")
            if args.B is not None
            else tuple(range(f.domain.n)),
        )
        rep = qs.tv_bounds(f, eta, A, B, phi1, phi2, tol=args.tol)
        lines = [
            f"diam ratio {rep.upper_lhs:.9g} <= {rep.upper_rhs:.9g} "
            f"(upper slack {rep.upper_slack:.3g})",
            f"lower bound {rep.lower_lhs:.9g} <= {rep.lower_rhs:.9g} "
            f"(lower slack {rep.lower_slack:.3g})",
        ]
        if rep.classical is not None:
            c = rep.classical
            lines.append(
                f"classical: {c.lower:.9g} <= {c.ratio:.9g} <= {c.upper:.9g} "
                f"(K1 = {c.K1:g}, K2 = {c.K2:g})"
            )
    else:
        rep = qs.bounded_image_bounds(f, eta, phi1, phi2, tol=args.tol)
        lines = [
            f"worst upper slack {rep.worst_upper_slack:.3g} at pair "
            f"{rep.worst_upper_pair}",
            f"worst lower slack {rep.worst_lower_slack:.3g} at pair "
            f"{rep.worst_lower_pair}",
        ]
        if rep.derived_L is not None:
            lines.append(
                f"derived bi-Lipschitz L = {rep.derived_L:.9g} "
                f"(minimal {rep.minimal_L:.9g})"
            )
    payload = {
        "eta": eta.describe(), "phi1": phi1.describe(), "phi2": phi2.describe(),
        "report": rep.to_dict(),
    }
    return _emit(args, payload, [_verdict(rep.holds), *lines], rep.holds, files)


def _cmd_between(args) -> int:
    from . import betweenness as btw
    from .fileio import load_space_document

    space, _ = load_space_document(args.space, args.tol)
    files = (args.space,)
    if args.quadruple is not None:
        idx = _indices(args.quadruple, space.n, "--quadruple")
        if len(idx) != 4:
            raise ParseError("--quadruple needs exactly four indices")
        shape = btw.detect_pseudolinear(space.subspace(idx), tol=args.tol)
        if shape.found:
            lines = [f"pseudolinear: ordering {shape.ordering}, "
                     f"s = {shape.s:g}, t = {shape.t:g}"]
        else:
            lines = ["not pseudolinear"]
        payload = {"quadruple": list(idx), "report": shape.to_dict()}
        return _emit(args, payload, lines, shape.found, files)
    if args.line:
        coords = btw.line_embed(space, tol=args.tol)
        payload = {
            "line_embeddable": coords is not None,
            "coordinates": None if coords is None else [float(c) for c in coords],
        }
        if coords is None:
            lines = ["not line-embeddable"]
        else:
            lines = [f"{lab} @ {float(c)!r}" for lab, c in zip(space.labels, coords)]
        return _emit(args, payload, lines, coords is not None, files)
    if args.codomain or args.map:
        args.domain = args.space
        f, files = _load_map_bundle(args)
        rep = btw.preserves_betweenness(f, tol=args.tol)
        lines = [
            "PRESERVED" if rep.holds else "VIOLATED",
            f"{rep.checked} domain betweenness triples",
        ]
        for v in rep.violations[:5]:
            lines.append(
                f"triple ({space.labels[v[0]]}, {space.labels[v[1]]}, "
                f"{space.labels[v[2]]}): image slack {v[4]:.6g}"
            )
        payload = {"report": rep.to_dict()} if args.json else {}
        return _emit(args, payload, lines, rep.holds, files)
    triples = btw.betweenness_triples(space, tol=args.tol)
    if args.json:
        return _emit(args, {"triples": _triples_json(triples)}, (), files=files)
    labels = space.labels
    lines = chain([f"{len(triples)} betweenness triples"], (
        f"{labels[y]} between {labels[x]} and {labels[z]} (slack {slack:.3g})"
        for x, y, z, slack in triples))
    return _emit(args, {}, lines, files=files)


def _cmd_eta_k8(args) -> int:
    from . import betweenness as btw

    eta = btw.eta_from_generators(
        btw.power_generator(args.n1),
        btw.power_generator(args.n2),
        label=f"k8:{args.n1:g},{args.n2:g}",
    )
    payload = {"eta": eta.describe()}
    lines = _evaluate_at(args, eta, payload)
    if not args.check_l02:
        return _emit(args, payload, lines)
    rep = btw.check_l02_conditions(eta, tol=args.tol)
    payload["l02"] = rep.to_dict()
    lines.append(
        f"partition equalities {'HOLD' if rep.sufficiency_holds else 'FAIL'} "
        f"(max defects {rep.max_sum_defect:.3g} / "
        f"{rep.max_reciprocal_defect:.3g} on {rep.samples} samples)"
    )
    return _emit(args, payload, lines, rep.holds)


def _cmd_weaksim(args) -> int:
    from . import weak_similarity as wsim
    from .fileio import load_space_document

    X, _ = load_space_document(args.X, args.tol)
    Y, _ = load_space_document(args.Y, args.tol)
    files = (args.X, args.Y)
    finder = (
        wsim.brute_force_weak_similarity if args.oracle else wsim.find_weak_similarity
    )
    ws = finder(X, Y, tol=args.rank_tol)
    if ws is None:
        return _emit(args, {"found": False}, ["no weak similarity"], False, files,
                     tol="rank_tol")
    payload = {
        "found": True,
        "assignment": {
            X.labels[i]: Y.labels[ws.f.assignment[i]] for i in range(X.n)
        },
        "phi": [[float(a), float(b)] for a, b in ws.phi.pairs()],
    }
    lines = [
        f"{X.labels[i]} -> {Y.labels[ws.f.assignment[i]]}" for i in range(X.n)
    ] + [f"{float(a)!r} -> {float(b)!r}" for a, b in ws.phi.pairs()]
    return _emit(args, payload, lines, files=files, tol="rank_tol")


def _cmd_gen(args) -> int:
    params = {}
    if args.kind in ("euclidean", "ultrametric", "random_semimetric", "wilson"):
        if args.n is None:
            raise ParseError(f"{args.kind} needs --n")
        params["n"] = args.n
    if args.kind == "euclidean":
        params["dim"] = args.dim if args.dim is not None else 2
    if args.kind == "pseudolinear":
        if args.s is None or args.t is None:
            raise ParseError("pseudolinear needs --s and --t")
        params["s"] = args.s
        params["t"] = args.t
    if args.kind == "collinear":
        if args.coords is None:
            raise ParseError("collinear needs --coords")
        try:
            params["coordinates"] = [float(v) for v in args.coords.split(",")]
        except ValueError:
            raise ParseError(f"bad --coords {args.coords!r}")
    from .fileio import save_space
    from .generators import generate

    space = generate(args.kind, seed=args.seed, **params)
    save_space(space, args.out, name=args.name or f"{args.kind}")
    payload = {"kind": args.kind, "seed": args.seed, "n": space.n, "out": str(args.out)}
    return _emit(args, payload, [f"wrote {space.n} points to {args.out}"])


def _cmd_fit_snowflake(args) -> int:
    from .quasisymmetry import fit_snowflake

    f, files = _load_map_bundle(args)
    fit = fit_snowflake(f, tol=args.tol)
    if fit is None:
        return _emit(args, {"found": False}, ["no exact power fit"], False, files)
    lines = [f"rho = {fit.scale:.12g} * d^{fit.exponent:.12g}"]
    if fit.similarity:
        lines.append("similarity (exponent 1)")
    return _emit(args, {"found": True, "report": fit.to_dict()}, lines, files=files)


# ----------------------------------------------------------------- parser


def _number(need: str, ok):
    """An argparse type: a float that passes ``ok``, which NaN must fail."""
    def parse(text: str) -> float:
        try:
            t = float(text)
        except ValueError:
            t = np.nan
        if not ok(t):
            raise argparse.ArgumentTypeError(f"need {need}, got {text!r}")
        return t
    return parse


#: a modulus is defined on t >= 0; a tolerance is a finite slack >= 0
_domain_point = _number("a number t >= 0", lambda t: t >= 0.0)
_tolerance = _number("a finite number >= 0", lambda t: 0.0 <= t < np.inf)


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="qsym",
        description="analysis of finite semimetric spaces and quasisymmetric maps",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def command(name, handler, help, eta=None, maps=None, at=False, tol=DEFAULT_TOL):
        """Add subcommand ``name`` with ``--tol`` (default ``tol``) and
        ``--json``; ``eta`` and ``maps``, unless None, add ``--eta`` and
        ``--domain``/``--codomain``/``--map``, required when True."""
        sp = sub.add_parser(name, help=help)
        sp.set_defaults(handler=handler)
        if eta is not None:
            sp.add_argument("--eta", required=eta)
        if maps is not None:
            for flag in _MAP_FLAGS:
                sp.add_argument(flag, required=maps)
        if at:
            sp.add_argument("--at", type=_domain_point, action="append")
        sp.add_argument("--tol", type=_tolerance, default=tol)
        sp.add_argument("--json", action="store_true")
        return sp

    sp = command("check", _cmd_check, "triangle-function classification")
    sp.add_argument("space")
    sp.add_argument("--class", dest="cls",
                    choices=["metric", "bmetric", "ultrametric", "ptolemaic"])
    sp.add_argument("--phi", help="triangle gauge spec: additive | bmetric:K | max")

    sp = command("modulus", _cmd_modulus, "evaluate a modulus spec", eta=True, at=True)
    sp.add_argument("--involution", action="store_true",
                    help="also certify eta(k) eta(1/k) = 1 on the grid")

    sp = command("qs-check", _cmd_qs_check, "empirical envelope / verify a modulus",
                 eta=False, maps=True)
    sp.add_argument("-o", "--out", help="write the envelope's records as 't H' lines")

    command("invert-eta", _cmd_invert_eta, "the inverse-map control function",
            eta=True, at=True)

    sp = command("transfer", _cmd_transfer, "triangle-function transfer condition",
                 eta=True, maps=False)
    sp.add_argument("--phi1", default="additive")
    sp.add_argument("--phi2", default="additive")
    sp.add_argument("--minimal-k2", type=float, metavar="K1",
                    help="derive the smallest image coefficient for this K1")

    sp = command("ptolemy-transfer", _cmd_ptolemy_transfer, "Ptolemy inequality transfer",
                 eta=True, maps=True)
    sp.add_argument("--force-realized", action="store_true")

    sp = command("distortion", _cmd_distortion, "two-sided diameter distortion bounds",
                 eta=True, maps=True)
    sp.add_argument("--phi1", default="additive")
    sp.add_argument("--phi2", default="additive")
    sp.add_argument("--A", help="subset indices, e.g. 0,1")
    sp.add_argument("--B", help="subset indices; default: all points")

    sp = command("between", _cmd_between, "betweenness triples and line structure")
    sp.add_argument("--space", required=True)
    sp.add_argument("--codomain")
    sp.add_argument("--map")
    sp.add_argument("--quadruple", help="four indices to match the pseudolinear pattern")
    sp.add_argument("--line", action="store_true", help="attempt a line embedding")

    # --check-l02 defaults to the check's own tolerance
    sp = command("eta-k8", _cmd_eta_k8, "two-generator partition modulus", at=True,
                 tol=1e-10)
    sp.add_argument("--n1", type=float, required=True)
    sp.add_argument("--n2", type=float, required=True)
    sp.add_argument("--check-l02", action="store_true")

    sp = command("weaksim", _cmd_weaksim, "weak-similarity search")
    sp.add_argument("X")
    sp.add_argument("Y")
    sp.add_argument("--oracle", action="store_true", help="factorial brute force")
    sp.add_argument("--rank-tol", type=_tolerance, default=RANK_TOL)

    sp = command("gen", _cmd_gen, "write a generated space to a file")
    sp.add_argument("kind", choices=[
        "euclidean", "ultrametric", "random_semimetric",
        "pseudolinear", "wilson", "collinear",
    ])
    sp.add_argument("--n", type=int)
    sp.add_argument("--dim", type=int)
    sp.add_argument("--s", type=float)
    sp.add_argument("--t", type=float)
    sp.add_argument("--coords", help="comma-separated line coordinates")
    sp.add_argument("--name")
    sp.add_argument("-o", "--out", required=True)
    sp.add_argument("--seed", type=int, default=0)

    command("fit-snowflake", _cmd_fit_snowflake, "exact power-law fit of a map", maps=True)

    return p


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (QsymError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
