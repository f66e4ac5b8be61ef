"""Command-line interface.

Exit status contract: 0 when the checked property holds (or an object was
produced), 1 when the property fails (a witness is printed), 2 on usage
or input errors.  ``--json`` switches every report to one structured
document with floats at 17 significant digits; reports echo input hashes
and tolerances so failures are reproducible from the report alone.

A process loads only the modules its subcommand runs: each handler
imports what it calls, and the parser needs only ``spaces``.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .errors import NotQuasisymmetric, ParseError, QsymError, UnboundedEnvelope
from .spaces import DEFAULT_TOL, RANK_TOL, build_map

#: errors that represent a failing property rather than bad input
_PROPERTY_FAILURES = (UnboundedEnvelope, NotQuasisymmetric)


def _emit(args, payload: dict, lines):
    if getattr(args, "json", False):
        from .report import to_json

        print(to_json(payload))
    else:
        sys.stdout.write("".join([f"{line}\n" for line in lines]))


def _inputs(*paths) -> dict:
    from .fileio import sha256_file

    return {str(p): sha256_file(p) for p in paths if p}


def _indices(text: str, n: int, what: str):
    try:
        idx = tuple(int(v) for v in text.split(","))
    except ValueError:
        raise ParseError(f"{what} must be a comma-separated index list, got {text!r}")
    for i in idx:
        if not 0 <= i < n:
            raise ParseError(f"{what} index {i} out of range for {n} points")
    return idx


def _load_map_bundle(args, tol, require_bijective=False):
    from .fileio import load_map_document, load_space_document

    dom, dom_name = load_space_document(args.domain, tol)
    cod, cod_name = load_space_document(args.codomain, tol)
    want_dom, want_cod, assignment = load_map_document(args.map)
    if want_dom and dom_name and want_dom != dom_name:
        raise ParseError(
            f'map expects domain "{want_dom}" but the space file is named '
            f'"{dom_name}"',
            path=str(args.map),
        )
    if want_cod and cod_name and want_cod != cod_name:
        raise ParseError(
            f'map expects codomain "{want_cod}" but the space file is named '
            f'"{cod_name}"',
            path=str(args.map),
        )
    return build_map(dom, cod, assignment, require_bijective=require_bijective)


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
    inputs = _inputs(args.space)
    if args.phi is not None and args.cls is not None:
        raise ParseError("give either --class or --phi, not both")
    if args.cls == "bmetric":
        K = minimal_bmetric_K(space)
        rep = check_triangle(space, parse_triangle_function(f"bmetric:{max(K, 1.0)}"),
                             tol=args.tol)
        payload = {
            "command": "check", "inputs": inputs, "tol": args.tol,
            "class": "bmetric", "minimal_K": K, "report": rep.to_dict(),
        }
        _emit(args, payload, [f"minimal K = {K:g}"])
        return 0
    if args.cls == "ptolemaic":
        rep = is_ptolemaic(space, tol=args.tol)
        payload = {
            "command": "check", "inputs": inputs, "tol": args.tol,
            "class": "ptolemaic", "report": rep.to_dict(),
        }
        lines = [
            "HOLDS" if rep.holds else "FAILS",
            f"worst margin {rep.margin:.6g} at quadruple "
            f"{rep.worst_labels(space)} ({rep.mode})",
        ] if rep.worst_quadruple is not None else ["HOLDS (vacuous: fewer than 4 points)"]
        _emit(args, payload, lines)
        return 0 if rep.holds else 1
    phi = (
        parse_triangle_function(args.phi)
        if args.phi is not None
        else {"metric": Additive(), "ultrametric": MaxGauge()}[args.cls or "metric"]
    )
    rep = check_triangle(space, phi, tol=args.tol)
    payload = {
        "command": "check", "inputs": inputs, "tol": args.tol,
        "gauge": phi.describe(), "report": rep.to_dict(),
    }
    if rep.worst_triple is not None:
        lines = [
            "HOLDS" if rep.holds else "FAILS",
            f"worst margin {rep.margin:.6g} at (x, z, y) = {rep.worst_labels(space)}",
        ]
    else:
        lines = ["HOLDS (vacuous: fewer than 3 points)"]
    _emit(args, payload, lines)
    return 0 if rep.holds else 1


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
    payload = {"command": "modulus", "eta": eta.describe()}
    lines = _evaluate_at(args, eta, payload)
    code = 0
    if args.involution:
        from .weak_similarity import check_involution_identity

        rep = check_involution_identity(eta, tol=args.tol)
        payload["involution"] = rep.to_dict()
        lines.append(
            f"involution identity {'HOLDS' if rep.holds else 'FAILS'} "
            f"(max defect {rep.max_defect:.3g} at k = {rep.worst_k:g}, grid)"
        )
        code = 0 if rep.holds else 1
    _emit(args, payload, lines)
    return code


def _cmd_qs_check(args) -> int:
    from .fileio import envelope_text, save_envelope
    from .moduli import parse_modulus
    from .quasisymmetry import check_qs, empirical_modulus

    f = _load_map_bundle(args, args.tol)
    inputs = _inputs(args.domain, args.codomain, args.map)
    if args.out or args.eta is None:
        env = empirical_modulus(f)
        text = save_envelope(env, args.out) if args.out else None
    if args.eta is None:
        if args.json:
            payload = {
                "command": "qs-check", "inputs": inputs, "tol": args.tol,
                "envelope": [[t, h] for t, h in zip(env.ts.tolist(), env.hs.tolist())],
            }
            _emit(args, payload, [])
        else:
            sys.stdout.write(envelope_text(env) if text is None else text)
        return 0
    eta = parse_modulus(args.eta)
    rep = check_qs(f, eta, tol=args.tol)
    payload = {
        "command": "qs-check", "inputs": inputs, "tol": args.tol,
        "eta": eta.describe(), "report": rep.to_dict(),
    }
    if rep.holds:
        lines = [f"HOLDS: {eta.describe()} verifies the map "
                 f"({rep.checked} realized ratios)"]
    else:
        lines = [
            "FAILS",
            f"witness (x, a, b) = {rep.witness_labels}: at t = {rep.t:.9g} the "
            f"image ratio is {rep.image_ratio:.9g} but eta(t) = {rep.eta_at_t:.9g}",
        ]
    _emit(args, payload, lines)
    return 0 if rep.holds else 1


def _cmd_invert_eta(args) -> int:
    from .moduli import inverse_modulus, parse_modulus

    eta = parse_modulus(args.eta)
    inv = inverse_modulus(eta)
    payload = {"command": "invert-eta", "eta": eta.describe(), "inverse": inv.describe()}
    lines = _evaluate_at(args, inv, payload, name="eta'")
    _emit(args, payload, lines)
    return 0


def _cmd_transfer(args) -> int:
    from . import transfer as tr
    from .moduli import parse_modulus
    from .triangle import parse_triangle_function

    eta = parse_modulus(args.eta)
    if args.minimal_k2 is not None:
        K2 = tr.minimal_transfer_K2(args.minimal_k2, eta)
        payload = {
            "command": "transfer", "eta": eta.describe(),
            "K1": args.minimal_k2, "minimal_K2": K2,
        }
        _emit(args, payload, [f"minimal K2 = {K2:.12g}"])
        return 0
    phi1 = parse_triangle_function(args.phi1)
    phi2 = parse_triangle_function(args.phi2)
    if args.map:
        f = _load_map_bundle(args, args.tol, require_bijective=True)
        inputs = _inputs(args.domain, args.codomain, args.map)
        rep = tr.verify_transfer_end_to_end(f, phi1, phi2, eta, tol=args.tol)
        payload = {
            "command": "transfer", "inputs": inputs, "tol": args.tol,
            "eta": eta.describe(), "phi1": phi1.describe(),
            "phi2": phi2.describe(), "report": rep.to_dict(),
        }
        lines = [
            "HOLDS" if rep.holds else "FAILS",
            f"implication checked on {rep.transfer.checked_pairs} realized pairs",
            f"image triangle margin {rep.image_triangle.margin:.6g}",
        ]
        _emit(args, payload, lines)
        return 0 if rep.holds else 1
    rep = tr.check_transfer_condition(phi1, phi2, eta, tol=args.tol)
    payload = {
        "command": "transfer", "tol": args.tol, "eta": eta.describe(),
        "phi1": phi1.describe(), "phi2": phi2.describe(),
        "report": rep.to_dict(),
    }
    lines = ["HOLDS" if rep.holds else "FAILS",
             f"{rep.checked_pairs} premise pairs on the grid"]
    if rep.worst is not None:
        t1, t2, lhs1, lhs2 = rep.worst
        lines.append(
            f"worst pair t1 = {t1:.6g}, t2 = {t2:.6g}: premise side {lhs1:.6g}, "
            f"conclusion side {lhs2:.6g}"
        )
    _emit(args, payload, lines)
    return 0 if rep.holds else 1


def _cmd_ptolemy_transfer(args) -> int:
    from .moduli import parse_modulus
    from .transfer import ptolemy_transfer_check

    eta = parse_modulus(args.eta)
    f = _load_map_bundle(args, args.tol, require_bijective=True)
    inputs = _inputs(args.domain, args.codomain, args.map)
    rep = ptolemy_transfer_check(
        f, eta, tol=args.tol, force_realized=args.force_realized
    )
    payload = {
        "command": "ptolemy-transfer", "inputs": inputs, "tol": args.tol,
        "eta": eta.describe(), "report": rep.to_dict(),
    }
    lines = [
        "HOLDS" if rep.holds else "FAILS",
        f"mode {rep.mode}; implication "
        f"{'holds' if rep.implication_holds else 'fails'} on {rep.checked} "
        f"checked arrangements; image "
        f"{'Ptolemaic' if rep.image.holds else 'not Ptolemaic'}",
    ]
    _emit(args, payload, lines)
    return 0 if rep.holds else 1


def _cmd_distortion(args) -> int:
    from . import quasisymmetry as qs
    from .moduli import parse_modulus
    from .spaces import SubsetRef
    from .triangle import parse_triangle_function

    eta = parse_modulus(args.eta)
    phi1 = parse_triangle_function(args.phi1)
    phi2 = parse_triangle_function(args.phi2)
    f = _load_map_bundle(args, args.tol)
    inputs = _inputs(args.domain, args.codomain, args.map)
    if args.A is not None:
        A = SubsetRef(f.domain, _indices(args.A, f.domain.n, "--A"))
        B = SubsetRef(
            f.domain,
            _indices(args.B, f.domain.n, "--B")
            if args.B is not None
            else tuple(range(f.domain.n)),
        )
        rep = qs.tv_bounds(f, eta, A, B, phi1, phi2, tol=args.tol)
        payload = {
            "command": "distortion", "inputs": inputs, "tol": args.tol,
            "eta": eta.describe(), "phi1": phi1.describe(),
            "phi2": phi2.describe(), "report": rep.to_dict(),
        }
        lines = [
            "HOLDS" if rep.holds else "FAILS",
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
        _emit(args, payload, lines)
        return 0 if rep.holds else 1
    rep = qs.bounded_image_bounds(f, eta, phi1, phi2, tol=args.tol)
    payload = {
        "command": "distortion", "inputs": inputs, "tol": args.tol,
        "eta": eta.describe(), "phi1": phi1.describe(),
        "phi2": phi2.describe(), "report": rep.to_dict(),
    }
    lines = [
        "HOLDS" if rep.holds else "FAILS",
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
    _emit(args, payload, lines)
    return 0 if rep.holds else 1


def _cmd_between(args) -> int:
    from . import betweenness as btw
    from .fileio import load_space_document

    space, _ = load_space_document(args.space, args.tol)
    inputs = _inputs(args.space)
    if args.quadruple is not None:
        idx = _indices(args.quadruple, space.n, "--quadruple")
        if len(idx) != 4:
            raise ParseError("--quadruple needs exactly four indices")
        shape = btw.detect_pseudolinear(space.subspace(idx), tol=args.tol)
        payload = {
            "command": "between", "inputs": inputs, "tol": args.tol,
            "quadruple": list(idx), "report": shape.to_dict(),
        }
        if shape.found:
            lines = [f"pseudolinear: ordering {shape.ordering}, "
                     f"s = {shape.s:g}, t = {shape.t:g}"]
        else:
            lines = ["not pseudolinear"]
        _emit(args, payload, lines)
        return 0 if shape.found else 1
    if args.line:
        coords = btw.line_embed(space, tol=args.tol)
        payload = {
            "command": "between", "inputs": inputs, "tol": args.tol,
            "line_embeddable": coords is not None,
            "coordinates": None if coords is None else [float(c) for c in coords],
        }
        if coords is None:
            lines = ["not line-embeddable"]
        else:
            lines = [f"{lab} @ {float(c)!r}" for lab, c in zip(space.labels, coords)]
        _emit(args, payload, lines)
        return 0 if coords is not None else 1
    if args.map:
        args.domain = args.space
        f = _load_map_bundle(args, args.tol)
        inputs = _inputs(args.space, args.codomain, args.map)
        rep = btw.preserves_betweenness(f, tol=args.tol)
        payload = {
            "command": "between", "inputs": inputs, "tol": args.tol,
            "report": rep.to_dict(),
        }
        lines = [
            "PRESERVED" if rep.holds else "VIOLATED",
            f"{rep.checked} domain betweenness triples",
        ]
        for v in rep.violations[:5]:
            lines.append(
                f"triple ({space.labels[v[0]]}, {space.labels[v[1]]}, "
                f"{space.labels[v[2]]}): image slack {v[4]:.6g}"
            )
        _emit(args, payload, lines)
        return 0 if rep.holds else 1
    triples = btw.betweenness_triples(space, tol=args.tol)
    payload = {
        "command": "between", "inputs": inputs, "tol": args.tol,
        "triples": [
            {"x": t.x, "y": t.y, "z": t.z, "slack": t.slack} for t in triples
        ],
    }
    lines = [f"{len(triples)} betweenness triples"] + [
        f"{space.labels[t.y]} between {space.labels[t.x]} and {space.labels[t.z]} "
        f"(slack {t.slack:.3g})"
        for t in triples
    ]
    _emit(args, payload, lines)
    return 0


def _cmd_eta_k8(args) -> int:
    from . import betweenness as btw

    eta = btw.eta_from_generators(
        btw.power_generator(args.n1),
        btw.power_generator(args.n2),
        label=f"k8:{args.n1:g},{args.n2:g}",
    )
    payload = {"command": "eta-k8", "eta": eta.describe()}
    lines = _evaluate_at(args, eta, payload)
    code = 0
    if args.check_l02:
        rep = btw.check_l02_conditions(eta)
        payload["l02"] = rep.to_dict()
        lines.append(
            f"partition equalities {'HOLD' if rep.sufficiency_holds else 'FAIL'} "
            f"(max defects {rep.max_sum_defect:.3g} / "
            f"{rep.max_reciprocal_defect:.3g} on {rep.samples} samples)"
        )
        code = 0 if rep.holds else 1
    _emit(args, payload, lines)
    return code


def _cmd_weaksim(args) -> int:
    from . import weak_similarity as wsim
    from .fileio import load_space_document

    X, _ = load_space_document(args.X, args.tol)
    Y, _ = load_space_document(args.Y, args.tol)
    inputs = _inputs(args.X, args.Y)
    finder = (
        wsim.brute_force_weak_similarity if args.oracle else wsim.find_weak_similarity
    )
    ws = finder(X, Y, tol=args.rank_tol)
    if ws is None:
        payload = {
            "command": "weaksim", "inputs": inputs, "rank_tol": args.rank_tol,
            "found": False,
        }
        _emit(args, payload, ["no weak similarity"])
        return 1
    payload = {
        "command": "weaksim", "inputs": inputs, "rank_tol": args.rank_tol,
        "found": True,
        "assignment": {
            X.labels[i]: Y.labels[ws.f.assignment[i]] for i in range(X.n)
        },
        "phi": [[float(a), float(b)] for a, b in ws.phi.pairs()],
    }
    lines = [
        f"{X.labels[i]} -> {Y.labels[ws.f.assignment[i]]}" for i in range(X.n)
    ] + [f"{float(a)!r} -> {float(b)!r}" for a, b in ws.phi.pairs()]
    _emit(args, payload, lines)
    return 0


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
    payload = {
        "command": "gen", "kind": args.kind, "seed": args.seed,
        "n": space.n, "out": str(args.out),
    }
    _emit(args, payload, [f"wrote {space.n} points to {args.out}"])
    return 0


def _cmd_fit_snowflake(args) -> int:
    from .quasisymmetry import fit_snowflake

    f = _load_map_bundle(args, args.tol)
    inputs = _inputs(args.domain, args.codomain, args.map)
    fit = fit_snowflake(f, tol=args.tol)
    if fit is None:
        payload = {
            "command": "fit-snowflake", "inputs": inputs, "tol": args.tol,
            "found": False,
        }
        _emit(args, payload, ["no exact power fit"])
        return 1
    payload = {
        "command": "fit-snowflake", "inputs": inputs, "tol": args.tol,
        "found": True, "report": fit.to_dict(),
    }
    lines = [f"rho = {fit.scale:.12g} * d^{fit.exponent:.12g}"]
    if fit.similarity:
        lines.append("similarity (exponent 1)")
    _emit(args, payload, lines)
    return 0


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

    def common(sp):
        sp.add_argument("--tol", type=_tolerance, default=DEFAULT_TOL)
        sp.add_argument("--json", action="store_true")

    def map_flags(sp):
        sp.add_argument("--domain", required=True)
        sp.add_argument("--codomain", required=True)
        sp.add_argument("--map", required=True)

    sp = sub.add_parser("check", help="triangle-function classification")
    sp.add_argument("space")
    sp.add_argument("--class", dest="cls",
                    choices=["metric", "bmetric", "ultrametric", "ptolemaic"])
    sp.add_argument("--phi", help="triangle gauge spec: additive | bmetric:K | max")
    common(sp)
    sp.set_defaults(handler=_cmd_check)

    sp = sub.add_parser("modulus", help="evaluate a modulus spec")
    sp.add_argument("--eta", required=True)
    sp.add_argument("--at", type=_domain_point, action="append")
    sp.add_argument("--involution", action="store_true",
                    help="also certify eta(k) eta(1/k) = 1 on the grid")
    common(sp)
    sp.set_defaults(handler=_cmd_modulus)

    sp = sub.add_parser("qs-check", help="empirical envelope / verify a modulus")
    map_flags(sp)
    sp.add_argument("--eta")
    sp.add_argument("-o", "--out", help="write the envelope's records as 't H' lines")
    common(sp)
    sp.set_defaults(handler=_cmd_qs_check)

    sp = sub.add_parser("invert-eta", help="the inverse-map control function")
    sp.add_argument("--eta", required=True)
    sp.add_argument("--at", type=_domain_point, action="append")
    common(sp)
    sp.set_defaults(handler=_cmd_invert_eta)

    sp = sub.add_parser("transfer", help="triangle-function transfer condition")
    sp.add_argument("--phi1", default="additive")
    sp.add_argument("--phi2", default="additive")
    sp.add_argument("--eta", required=True)
    sp.add_argument("--domain")
    sp.add_argument("--codomain")
    sp.add_argument("--map")
    sp.add_argument("--minimal-k2", type=float, metavar="K1",
                    help="derive the smallest image coefficient for this K1")
    common(sp)
    sp.set_defaults(handler=_cmd_transfer)

    sp = sub.add_parser("ptolemy-transfer", help="Ptolemy inequality transfer")
    sp.add_argument("--eta", required=True)
    map_flags(sp)
    sp.add_argument("--force-realized", action="store_true")
    common(sp)
    sp.set_defaults(handler=_cmd_ptolemy_transfer)

    sp = sub.add_parser("distortion", help="two-sided diameter distortion bounds")
    sp.add_argument("--eta", required=True)
    map_flags(sp)
    sp.add_argument("--phi1", default="additive")
    sp.add_argument("--phi2", default="additive")
    sp.add_argument("--A", help="subset indices, e.g. 0,1")
    sp.add_argument("--B", help="subset indices; default: all points")
    common(sp)
    sp.set_defaults(handler=_cmd_distortion)

    sp = sub.add_parser("between", help="betweenness triples and line structure")
    sp.add_argument("--space", required=True)
    sp.add_argument("--codomain")
    sp.add_argument("--map")
    sp.add_argument("--quadruple", help="four indices to match the pseudolinear pattern")
    sp.add_argument("--line", action="store_true", help="attempt a line embedding")
    common(sp)
    sp.set_defaults(handler=_cmd_between)

    sp = sub.add_parser("eta-k8", help="two-generator partition modulus")
    sp.add_argument("--n1", type=float, required=True)
    sp.add_argument("--n2", type=float, required=True)
    sp.add_argument("--at", type=_domain_point, action="append")
    sp.add_argument("--check-l02", action="store_true")
    common(sp)
    sp.set_defaults(handler=_cmd_eta_k8)

    sp = sub.add_parser("weaksim", help="weak-similarity search")
    sp.add_argument("X")
    sp.add_argument("Y")
    sp.add_argument("--oracle", action="store_true", help="factorial brute force")
    sp.add_argument("--rank-tol", type=_tolerance, default=RANK_TOL)
    common(sp)
    sp.set_defaults(handler=_cmd_weaksim)

    sp = sub.add_parser("gen", help="write a generated space to a file")
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
    common(sp)
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(handler=_cmd_gen)

    sp = sub.add_parser("fit-snowflake", help="exact power-law fit of a map")
    map_flags(sp)
    common(sp)
    sp.set_defaults(handler=_cmd_fit_snowflake)

    return p


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except _PROPERTY_FAILURES as exc:
        print(f"FAILS: {exc}", file=sys.stderr)
        return 1
    except (QsymError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
