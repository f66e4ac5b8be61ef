"""End-to-end exercises of the command-line interface.

Every test drives ``qsym.cli.main`` with an argv list and asserts on the
exit status contract: 0 when the property holds or an object is written,
1 when a property fails (with a report and its witness on stdout), 2 on
usage or input errors and failed hypotheses (one ``error:`` line on
stderr).
"""

import ast
import inspect
import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qsym
from qsym import (
    collinear_space,
    empirical_modulus,
    euclidean_space,
    load_envelope_points,
    load_space,
    pseudolinear_quadruple,
    save_space,
    snowflake,
    snowflake_map,
    transform_distances,
    ultrametric_space,
)
from qsym.cli import main
from qsym.fileio import load_space_document, sha256_file


@pytest.fixture
def files(tmp_path):
    line = collinear_space([0.0, 1.0, 3.0, 6.0])
    out = {"tmp": tmp_path}

    def put(name, space):
        path = tmp_path / name
        save_space(space, path)
        out[name] = str(path)

    put("line.json", line)
    put("line3.json", collinear_space([0.0, 1.0, 2.0]))
    put("sq.json", transform_distances(collinear_space([0.0, 1.0, 2.0, 3.0]),
                                       lambda d: d * d))
    put("snow.json", snowflake(line, 0.5))
    put("scaled3.json", transform_distances(line, lambda d: 3.0 * d))
    put("bump.json", transform_distances(line, lambda d: d + d * d))
    put("ultra.json", ultrametric_space(5, seed=1))
    put("pl.json", pseudolinear_quadruple(1.0, 2.0))

    def put_map(name, labels, images):
        path = tmp_path / name
        path.write_text(json.dumps(
            {"assignment": dict(zip(labels, images))}) + "\n")
        out[name] = str(path)

    put_map("idmap.json", line.labels, line.labels)
    put_map("idmap3.json", ("0", "1", "2"), ("0", "1", "2"))
    put_map("collapse.json", line.labels, ("0", "0", "3", "6"))
    return out


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ------------------------------------------------------------------ check


def test_check_metric_holds(files, capsys):
    code, out, _ = run(capsys, "check", files["line.json"])
    assert code == 0
    assert out.startswith("HOLDS")
    assert "worst margin" in out


def test_check_metric_fails_with_witness(files, capsys):
    code, out, _ = run(capsys, "check", files["sq.json"])
    assert code == 1
    assert out.startswith("FAILS")
    assert "(x, z, y)" in out


def test_check_minimal_bmetric_class(files, capsys):
    code, out, _ = run(capsys, "check", files["sq.json"], "--class", "bmetric")
    assert code == 0
    assert "minimal K = 2" in out


def test_check_explicit_gauges(files, capsys):
    assert run(capsys, "check", files["sq.json"], "--phi", "bmetric:1.9")[0] == 1
    assert run(capsys, "check", files["sq.json"], "--phi", "bmetric:2")[0] == 0
    assert run(capsys, "check", files["ultra.json"], "--class", "ultrametric")[0] == 0


def test_check_ptolemaic(files, capsys):
    assert run(capsys, "check", files["line.json"], "--class", "ptolemaic")[0] == 0
    code, out, _ = run(capsys, "check", files["sq.json"], "--class", "ptolemaic")
    assert code == 1
    assert "FAILS" in out


def test_check_rejects_class_and_phi_together(files, capsys):
    code, _, err = run(capsys, "check", files["line.json"],
                       "--class", "metric", "--phi", "max")
    assert code == 2
    assert err.startswith("error:")


def test_check_missing_file(files, capsys):
    code, _, err = run(capsys, "check", str(files["tmp"] / "absent.json"))
    assert code == 2
    assert "cannot read file" in err


def test_check_rejects_a_space_without_points(files, capsys):
    path = files["tmp"] / "empty.json"
    path.write_text('{"points": [], "matrix": []}\n')
    code, out, err = run(capsys, "check", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error:") and "at least one point" in err


def test_check_json_payload(files, capsys):
    code, out, _ = run(capsys, "check", files["line.json"], "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["command"] == "check"
    assert payload["report"]["holds"] is True
    assert payload["tol"] == 1e-9
    assert payload["inputs"][files["line.json"]] == sha256_file(files["line.json"])


#: per report: a command line, the files its JSON document hashes, and the
#: tolerance it echoes (weaksim's verdict reads --rank-tol)
JSON_HEADERS = {
    "check": (["check", "line.json"], ["line.json"], "tol"),
    "modulus": (["modulus", "--eta", "power:0.5"], [], None),
    "qs-check": (["qs-check", "--domain", "line.json", "--codomain", "snow.json",
                  "--map", "idmap.json"], ["line.json", "snow.json", "idmap.json"], "tol"),
    "invert-eta": (["invert-eta", "--eta", "power:2"], [], None),
    "transfer": (["transfer", "--eta", "power:0.5", "--domain", "line.json",
                  "--codomain", "snow.json", "--map", "idmap.json"],
                 ["line.json", "snow.json", "idmap.json"], "tol"),
    "transfer without a map": (["transfer", "--eta", "power:2", "--phi2", "bmetric:2"],
                               [], "tol"),
    "transfer --minimal-k2": (["transfer", "--eta", "power:2", "--minimal-k2", "1"],
                              [], None),
    "ptolemy-transfer": (["ptolemy-transfer", "--eta", "power:0.5", "--domain", "line.json",
                          "--codomain", "snow.json", "--map", "idmap.json"],
                         ["line.json", "snow.json", "idmap.json"], "tol"),
    "distortion": (["distortion", "--eta", "power:0.5", "--domain", "line.json",
                    "--codomain", "snow.json", "--map", "idmap.json"],
                   ["line.json", "snow.json", "idmap.json"], "tol"),
    "between": (["between", "--space", "line.json", "--codomain", "scaled3.json",
                 "--map", "idmap.json"], ["line.json", "scaled3.json", "idmap.json"], "tol"),
    "eta-k8": (["eta-k8", "--n1", "2", "--n2", "3", "--check-l02"], [], None),
    "weaksim": (["weaksim", "line.json", "scaled3.json"], ["line.json", "scaled3.json"],
                "rank_tol"),
    "gen": (["gen", "euclidean", "--n", "4", "-o", "gen.json"], [], None),
    "fit-snowflake": (["fit-snowflake", "--domain", "line.json", "--codomain", "snow.json",
                       "--map", "idmap.json"], ["line.json", "snow.json", "idmap.json"],
                      "tol"),
}


@pytest.mark.parametrize("case", list(JSON_HEADERS))
def test_every_json_report_opens_with_its_header(files, capsys, case):
    argv, hashed, tol = JSON_HEADERS[case]
    files["gen.json"] = str(files["tmp"] / "gen.json")
    code, out, _ = run(capsys, *[files.get(a, a) for a in argv], "--json")
    assert code == 0
    doc = json.loads(out)
    head = ["command"] + ["inputs"] * bool(hashed) + [tol] * bool(tol)
    assert list(doc)[:len(head)] == head
    assert not {"inputs", "tol", "rank_tol"} & set(list(doc)[len(head):])
    assert doc["command"] == argv[0]
    assert doc.get("inputs") == ({files[h]: sha256_file(files[h]) for h in hashed}
                                 if hashed else None)


# ---------------------------------------------------------------- modulus


def test_modulus_evaluation(capsys):
    code, out, _ = run(capsys, "modulus", "--eta", "power:0.5", "--at", "4")
    assert code == 0
    assert "eta(4) = 2" in out


def test_modulus_involution_failure(capsys):
    code, out, _ = run(capsys, "modulus", "--eta", "bilip:3", "--involution")
    assert code == 1
    assert "involution identity FAILS" in out
    assert "max defect 80" in out


def test_modulus_bad_spec(capsys):
    code, _, err = run(capsys, "modulus", "--eta", "power:-1")
    assert code == 2
    assert err.startswith("error:")


MODULUS_ARGS = {
    "modulus": ["--eta", "power:0.5"],
    "invert-eta": ["--eta", "power:0.5"],
    "eta-k8": ["--n1", "2", "--n2", "3"],
}


@pytest.mark.parametrize("command", sorted(MODULUS_ARGS))
@pytest.mark.parametrize("at", ["-4", "-1e-300", "nan", "-inf", "abc"])
def test_at_outside_the_modulus_domain_is_a_usage_error(capsys, command, at):
    with pytest.raises(SystemExit) as exc:
        main([command, *MODULUS_ARGS[command], f"--at={at}"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1].endswith(
        f"argument --at: need a number t >= 0, got {at!r}")
    code, out, _ = run(capsys, command, *MODULUS_ARGS[command], "--at", "0", "--json")
    assert code == 0 and json.loads(out)["values"] == [0.0]


#: a command line for each tolerance option, on inputs where it holds
TOLERANCE_ARGS = {
    "--tol": lambda files: ["check", files["line.json"]],
    "--rank-tol": lambda files: ["weaksim", files["line.json"], files["scaled3.json"]],
}


@pytest.mark.parametrize("option", sorted(TOLERANCE_ARGS))
@pytest.mark.parametrize("value", ["nan", "inf", "-1"])
def test_a_tolerance_outside_finite_nonnegative_is_a_usage_error(files, capsys, option,
                                                                 value):
    argv = TOLERANCE_ARGS[option](files)
    with pytest.raises(SystemExit) as exc:
        main([*argv, f"{option}={value}"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1].endswith(
        f"argument {option}: need a finite number >= 0, got {value!r}")
    assert run(capsys, *argv, f"{option}=0")[0] == 0


def test_an_infinite_tol_does_not_switch_off_space_validation(tmp_path, capsys):
    path = tmp_path / "bad3.json"
    path.write_text(json.dumps({"name": "bad", "points": ["a", "b", "c"],
                                "matrix": [[5, -1, 2], [7, 0, 1], [2, 1, 0]]}))
    code, out, err = run(capsys, "check", str(path))
    assert (code, out) == (2, "") and "d(a,b) != d(b,a)" in err
    with pytest.raises(SystemExit) as exc:
        main(["check", str(path), "--tol", "inf"])
    assert exc.value.code == 2
    assert "HOLDS" not in capsys.readouterr().out


def test_a_nan_rank_tol_cannot_match_distinct_spaces(tmp_path, capsys):
    X, Y = str(tmp_path / "e0.json"), str(tmp_path / "e9.json")
    for seed, path in (("0", X), ("9", Y)):
        assert run(capsys, "gen", "euclidean", "--n", "5", "--seed", seed, "-o", path)[0] == 0
    assert run(capsys, "weaksim", X, Y) == (1, "no weak similarity\n", "")
    with pytest.raises(SystemExit) as exc:
        main(["weaksim", X, Y, "--rank-tol", "nan"])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


# --------------------------------------------------------------- qs-check


def test_qs_check_envelope_dump(files, capsys):
    base = ["qs-check", "--domain", files["line.json"], "--codomain", files["snow.json"],
            "--map", files["idmap.json"]]
    env_path = files["tmp"] / "env.txt"
    code, out, _ = run(capsys, *base, "-o", str(env_path))
    assert code == 0
    # the file and stdout carry the one text, also without -o
    assert env_path.read_text(encoding="utf-8") == out
    assert run(capsys, *base) == (0, out, "")
    ts, hs = load_envelope_points(env_path)
    env = empirical_modulus(snowflake_map(collinear_space([0.0, 1.0, 3.0, 6.0]), 0.5))
    assert ts.tobytes() == env.ts.tobytes() and hs.tobytes() == env.hs.tobytes()
    assert len(out.splitlines()) == len(env)
    # --json changes stdout only
    json_path = files["tmp"] / "env_json.txt"
    code, out, _ = run(capsys, *base, "--json", "-o", str(json_path))
    assert code == 0 and json_path.read_bytes() == env_path.read_bytes()
    assert json.loads(out)["envelope"] == [[t, h] for t, h in zip(ts.tolist(), hs.tolist())]


@pytest.mark.parametrize("eta", [[], ["--eta", "power:0.5"]])
def test_qs_check_write_failure_is_an_input_error(files, capsys, eta):
    target = files["tmp"] / "missing" / "env.txt"
    code, out, err = run(capsys, "qs-check", "--domain", files["line.json"],
                         "--codomain", files["snow.json"], "--map", files["idmap.json"],
                         *eta, "-o", str(target))
    assert (code, out) == (2, "")
    assert err == f"error: {target}: cannot write file: No such file or directory\n"


def test_qs_check_verdicts(files, capsys):
    base = [
        "qs-check",
        "--domain", files["line.json"], "--codomain", files["snow.json"],
        "--map", files["idmap.json"],
    ]
    code, out, _ = run(capsys, *base, "--eta", "power:0.5")
    assert code == 0 and "HOLDS" in out
    code, out, _ = run(capsys, *base, "--eta", "power:0.45")
    assert code == 1
    assert "FAILS" in out and "witness" in out


def test_qs_check_counts_realized_ratios_with_or_without_dump(files, capsys):
    base = [
        "qs-check",
        "--domain", files["line.json"], "--codomain", files["snow.json"],
        "--map", files["idmap.json"],
    ]
    dump = ["-o", str(files["tmp"] / "env.txt")]
    code, out, _ = run(capsys, *base, "--eta", "power:0.5")
    assert code == 0 and "(36 realized ratios)" in out  # 4 * 3**2
    for eta, status in (("power:0.5", 0), ("power:0.45", 1)):
        reports = []
        for extra in ([], dump):
            code, out, _ = run(capsys, *base, "--eta", eta, "--json", *extra)
            assert code == status
            payload = json.loads(out)
            assert "envelope_points" not in payload
            assert payload["report"]["checked"] == 36
            reports.append(payload["report"])
        assert reports[0] == reports[1]


def test_qs_check_unbounded_ratio_is_a_property_failure(files, capsys):
    argv = ["qs-check", "--domain", files["line.json"], "--codomain", files["line.json"],
            "--map", files["collapse.json"], "--eta", "power:1"]
    code, out, err = run(capsys, *argv)
    assert (code, err) == (1, "")
    assert out == ("FAILS\nwitness (x, a, b) = ('0', '3', '1'): at t = 3 the image ratio "
                   "is inf but eta(t) = 3\n")
    code, out, err = run(capsys, *argv, "--json")
    assert (code, err) == (1, "")
    assert '"image_ratio": Infinity' in out
    report = json.loads(out)["report"]
    assert report["holds"] is False and report["checked"] == 0
    assert report["witness_labels"] == ["0", "3", "1"]
    assert report["image_ratio"] == np.inf and report["t"] == report["eta_at_t"] == 3.0
    # the envelope of such a map does not exist: an input error
    code, out, err = run(capsys, *argv[:-2])
    assert (code, out) == (2, "")
    assert err == ("error: rho(f0, f1) = 0 but rho(f0, f3) > 0: "
                   "no finite control function exists\n")


@pytest.mark.parametrize("flag", ["--domain", "--codomain", "--map"])
def test_qs_check_refuses_to_write_over_an_input(files, capsys, flag):
    paths = {"--domain": files["line.json"], "--codomain": files["snow.json"],
             "--map": files["idmap.json"]}
    before = Path(paths[flag]).read_bytes()
    code, out, err = run(capsys, "qs-check", *[a for kv in paths.items() for a in kv],
                         "-o", paths[flag])
    assert (code, out) == (2, "")
    assert err == f"error: {paths[flag]}: -o would overwrite the {flag} file\n"
    assert Path(paths[flag]).read_bytes() == before


def test_qs_check_json_envelope_roundtrips(files, capsys):
    code, out, _ = run(
        capsys, "qs-check",
        "--domain", files["line.json"], "--codomain", files["snow.json"],
        "--map", files["idmap.json"], "--json",
    )
    assert code == 0
    payload = json.loads(out)
    env = empirical_modulus(snowflake_map(collinear_space([0.0, 1.0, 3.0, 6.0]), 0.5))
    assert payload["envelope"] == [[t, h] for t, h in zip(env.ts.tolist(),
                                                          env.hs.tolist())]


def test_map_name_crosscheck(files, capsys):
    named = files["tmp"] / "named.json"
    save_space(collinear_space([0.0, 1.0, 3.0, 6.0]), named, name="lineX")
    strict = files["tmp"] / "strict_map.json"
    strict.write_text(json.dumps({
        "domain": "other",
        "assignment": {lab: lab for lab in ("0", "1", "3", "6")},
    }))
    code, _, err = run(
        capsys, "qs-check",
        "--domain", str(named), "--codomain", files["snow.json"],
        "--map", str(strict), "--eta", "power:0.5",
    )
    assert code == 2
    assert 'expects domain "other"' in err


# ------------------------------------------------------------- invert-eta


def test_invert_eta(capsys):
    code, out, _ = run(capsys, "invert-eta", "--eta", "power:2", "--at", "9")
    assert code == 0
    assert "eta'(9) = 3" in out


def test_invert_eta_inverts_k8_at_a_large_ratio(capsys):
    # eta'(1e30) inverts k8:2,3 at 1e-30, where its low branch reads t
    code, out, _ = run(capsys, "invert-eta", "--eta", "k8:2,3", "--at", "1e30")
    assert code == 0
    assert "eta'(1e+30) = 1e+30" in out


# --------------------------------------------------------------- transfer


def test_transfer_minimal_k2(capsys):
    code, out, _ = run(capsys, "transfer", "--eta", "power:2",
                       "--minimal-k2", "1")
    assert code == 0
    assert "minimal K2 = 2" in out


def test_transfer_grid_modes(capsys):
    code, out, _ = run(capsys, "transfer", "--phi1", "additive",
                       "--phi2", "bmetric:2", "--eta", "power:2")
    assert code == 0
    assert "HOLDS" in out
    assert "worst pair t1 = 2, t2 = 2" in out
    code, out, _ = run(capsys, "transfer", "--phi1", "additive",
                       "--phi2", "additive", "--eta", "power:2")
    assert code == 1
    assert "FAILS" in out


def test_transfer_has_no_grid_option(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["transfer", "--eta", "power:0.5", "--grid", "0"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --grid 0" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--domain", "--codomain", "--map"])
def test_transfer_minimal_k2_with_a_map_flag_is_an_input_error(capsys, flag):
    # the flag would otherwise be ignored, its file never read
    code, out, err = run(capsys, "transfer", "--eta", "power:2", "--minimal-k2", "1",
                         flag, "nonexist.json")
    assert (code, out, err) == (2, "", f"error: --minimal-k2 reads no map: drop {flag}\n")


def test_transfer_minimal_k2_rejects_nan(capsys):
    code, out, err = run(capsys, "transfer", "--eta", "power:2", "--minimal-k2", "nan")
    assert (code, out, err) == (2, "", "error: K1 must be >= 1\n")


def test_transfer_end_to_end_on_map(files, capsys):
    code, out, _ = run(
        capsys, "transfer", "--eta", "power:1",
        "--domain", files["line.json"], "--codomain", files["scaled3.json"],
        "--map", files["idmap.json"],
    )
    assert code == 0
    assert "HOLDS" in out and "realized pairs" in out


# ------------------------------------------------------- ptolemy-transfer


def test_ptolemy_transfer_analytic_and_realized(files, capsys):
    base = [
        "ptolemy-transfer", "--eta", "power:0.5",
        "--domain", files["line.json"], "--codomain", files["snow.json"],
        "--map", files["idmap.json"],
    ]
    code, out, _ = run(capsys, *base)
    assert code == 0 and "mode analytic" in out
    code, out, _ = run(capsys, *base, "--force-realized")
    assert code == 0 and "mode realized" in out


#: every subcommand that reads a map: its other arguments and its domain flag
MAP_COMMANDS = {
    "qs-check": ([], "--domain"),
    "transfer": (["--eta", "power:0.5"], "--domain"),
    "ptolemy-transfer": (["--eta", "power:0.5"], "--domain"),
    "distortion": (["--eta", "power:0.5"], "--domain"),
    "fit-snowflake": ([], "--domain"),
    "between": ([], "--space"),
}
#: the map of the line onto its 1/2-snowflake
SNOW_MAP = ["--domain", "line.json", "--codomain", "snow.json", "--map", "idmap.json"]


@pytest.mark.parametrize("missing", [0, 1, 2])
@pytest.mark.parametrize("command", list(MAP_COMMANDS))
def test_a_missing_map_flag_is_an_input_error(files, capsys, command, missing):
    extra, domain = MAP_COMMANDS[command]
    flags = [domain, *SNOW_MAP[2::2]]
    argv = [command, *extra]
    for i, (flag, path) in enumerate(zip(flags, SNOW_MAP[1::2])):
        if i != missing:
            argv += [flag, files[path]]
    try:
        code = main(argv)
    except SystemExit as exc:  # a flag that argparse requires
        code = exc.code
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err.splitlines()[-1].endswith(flags[missing])


@pytest.mark.parametrize("argv,flag", [
    (["between", "--space", "pl.json", "--quadruple", "0,1,2,1"], "--quadruple"),
    (["distortion", "--eta", "power:0.5", *SNOW_MAP, "--A", "0,0,1"], "--A"),
    (["distortion", "--eta", "power:0.5", *SNOW_MAP, "--A", "0,1", "--B", "0,1,3,3"], "--B"),
])
def test_a_repeated_index_is_an_input_error(files, capsys, argv, flag):
    code, out, err = run(capsys, *[files.get(a, a) for a in argv])
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {flag} repeats index ")


@pytest.mark.parametrize("argv", [
    ["distortion"], ["distortion", "--A", "0,1"], ["transfer"], ["ptolemy-transfer"],
])
def test_a_modulus_that_does_not_verify_the_map_is_a_failed_hypothesis(files, capsys,
                                                                     argv):
    code, out, err = run(capsys, *argv, "--eta", "power:0.45",
                         *[files.get(a, a) for a in SNOW_MAP])
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert "power:0.45" in err and "(witness ('6', '0', '1'))" in err


def test_ptolemy_transfer_precondition_is_input_error(files, capsys):
    code, _, err = run(
        capsys, "ptolemy-transfer", "--eta", "power:0.45",
        "--domain", files["line.json"], "--codomain", files["snow.json"],
        "--map", files["idmap.json"],
    )
    assert code == 2
    assert "quasisymmetry" in err


# ------------------------------------------------------------- distortion


def test_distortion_subset_bounds(files, capsys):
    code, out, _ = run(
        capsys, "distortion", "--eta", "power:1",
        "--domain", files["line3.json"], "--codomain", files["line3.json"],
        "--map", files["idmap3.json"], "--A", "0,2",
    )
    assert code == 0
    assert "HOLDS" in out
    assert "classical:" in out
    assert "K1 = 1, K2 = 1" in out


def test_distortion_bounded_image(files, capsys):
    code, out, _ = run(
        capsys, "distortion", "--eta", "linear:1",
        "--domain", files["line.json"], "--codomain", files["scaled3.json"],
        "--map", files["idmap.json"],
    )
    assert code == 0
    assert "derived bi-Lipschitz L = 6 (minimal 3)" in out


# ---------------------------------------------------------------- between


def test_between_triples(files, capsys):
    code, out, _ = run(capsys, "between", "--space", files["line.json"])
    assert code == 0
    assert out.startswith("4 betweenness triples")
    assert "1 between 0 and 3" in out


def test_between_line_embedding(files, capsys):
    code, out, _ = run(capsys, "between", "--space", files["line.json"], "--line")
    assert code == 0
    assert "0 @ 0.0" in out and "6 @ 6.0" in out
    code, out, _ = run(capsys, "between", "--space", files["pl.json"], "--line")
    assert code == 1
    assert "not line-embeddable" in out


def test_between_quadruple(files, capsys):
    code, out, _ = run(capsys, "between", "--space", files["pl.json"],
                       "--quadruple", "0,1,2,3")
    assert code == 0
    assert "pseudolinear: ordering (0, 1, 2, 3), s = 1, t = 2" in out
    code, out, _ = run(capsys, "between", "--space", files["sq.json"],
                       "--quadruple", "0,1,2,3")
    assert code == 1
    assert "not pseudolinear" in out
    code, _, err = run(capsys, "between", "--space", files["pl.json"],
                       "--quadruple", "0,1")
    assert code == 2
    assert "four indices" in err


def test_between_map_preservation(files, capsys):
    code, out, _ = run(
        capsys, "between", "--space", files["line.json"],
        "--codomain", files["scaled3.json"], "--map", files["idmap.json"],
    )
    assert code == 0 and "PRESERVED" in out
    code, out, _ = run(
        capsys, "between", "--space", files["line.json"],
        "--codomain", files["snow.json"], "--map", files["idmap.json"],
    )
    assert code == 1
    assert "VIOLATED" in out and "image slack" in out


# ----------------------------------------------------------------- eta-k8


def test_eta_k8_values_and_conditions(capsys):
    code, out, _ = run(capsys, "eta-k8", "--n1", "3", "--n2", "3",
                       "--at", "0.25", "--at", "4")
    assert code == 0
    assert "eta(0.25) = 0.296875" in out
    code, out, _ = run(capsys, "eta-k8", "--n1", "2", "--n2", "5",
                       "--check-l02")
    assert code == 0
    assert "partition equalities HOLD" in out


def test_eta_k8_check_l02_honours_tol(capsys):
    # the sums miss 1 by up to 3.3e-16: within the check's default 1e-10,
    # beyond a tolerance of 0
    argv = ["eta-k8", "--n1", "2", "--n2", "3", "--check-l02"]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out.endswith("partition equalities HOLD (max defects 2.22e-16 / 3.33e-16 "
                        "on 512 samples)\n")
    code, out, _ = run(capsys, *argv, "--tol", "0")
    assert code == 1
    assert "partition equalities FAIL" in out
    code, out, _ = run(capsys, *argv, "--json")
    assert json.loads(out)["l02"]["tol"] == 1e-10


def test_eta_k8_json(capsys):
    code, out, _ = run(capsys, "eta-k8", "--n1", "3", "--n2", "3",
                       "--at", "0.25", "--json")
    payload = json.loads(out)
    assert code == 0
    assert payload["values"] == [19.0 / 64.0]


# ---------------------------------------------------------------- weaksim


def test_weaksim_found_and_not_found(files, capsys):
    code, out, _ = run(capsys, "weaksim", files["line.json"], files["scaled3.json"])
    assert code == 0
    assert "0 -> 0" in out
    assert "1.0 -> 3.0" in out
    code, out, _ = run(capsys, "weaksim", files["line.json"],
                       files["scaled3.json"], "--oracle")
    assert code == 0
    code, out, _ = run(capsys, "weaksim", files["line.json"], files["ultra.json"])
    assert code == 1
    assert "no weak similarity" in out


# -------------------------------------------------------------------- gen


@pytest.mark.parametrize("argv,n", [
    (["euclidean", "--n", "5"], 5),
    (["ultrametric", "--n", "6"], 6),
    (["random_semimetric", "--n", "4"], 4),
    (["pseudolinear", "--s", "1", "--t", "2"], 4),
    (["wilson", "--n", "4"], 6),
    (["collinear", "--coords", "0,1,3,6"], 4),
])
def test_gen_kinds(files, capsys, argv, n):
    target = files["tmp"] / "gen.json"
    code, out, _ = run(capsys, "gen", *argv, "-o", str(target))
    assert code == 0
    assert f"wrote {n} points" in out
    assert load_space(target).n == n


def test_gen_collinear_coordinates_equal_to_six_digits(files, capsys):
    target = files["tmp"] / "gen.json"
    code, out, _ = run(capsys, "gen", "collinear", "--coords",
                       "0.1234561,0.1234562,1", "-o", str(target))
    assert code == 0
    assert load_space(target).labels == ("0.1234561", "0.1234562", "1")


@pytest.mark.parametrize("name", ["gen.json", "gen.csv"])
def test_gen_write_failure_is_an_input_error(files, capsys, name):
    target = files["tmp"] / "missing" / name
    code, out, err = run(capsys, "gen", "euclidean", "--n", "4", "-o", str(target))
    assert (code, out) == (2, "")
    assert err == f"error: {target}: cannot write file: No such file or directory\n"


def test_gen_name_and_param_errors(files, capsys):
    target = files["tmp"] / "gen.json"
    code, _, _ = run(capsys, "gen", "collinear", "--coords", "0,2",
                     "--name", "segment", "-o", str(target))
    assert code == 0
    assert load_space_document(target)[1] == "segment"
    assert run(capsys, "gen", "euclidean", "-o", str(target))[0] == 2
    assert run(capsys, "gen", "pseudolinear", "--s", "1", "-o", str(target))[0] == 2
    assert run(capsys, "gen", "collinear", "--coords", "a,b",
               "-o", str(target))[0] == 2


# ---------------------------------------------------------- fit-snowflake


def test_fit_snowflake(files, capsys):
    code, out, _ = run(
        capsys, "fit-snowflake",
        "--domain", files["line.json"], "--codomain", files["snow.json"],
        "--map", files["idmap.json"],
    )
    assert code == 0
    assert "rho = 1 * d^0.5" in out
    code, out, _ = run(
        capsys, "fit-snowflake",
        "--domain", files["line.json"], "--codomain", files["bump.json"],
        "--map", files["idmap.json"],
    )
    assert code == 1
    assert "no exact power fit" in out


# ------------------------------------------------------------ usage errors


def test_usage_errors_raise_systemexit_2(capsys):
    for argv in ([], ["check"], ["gen", "euclidean"], ["modulus"],
                 ["check", "x.json", "--unknown"]):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
        capsys.readouterr()


# ------------------------------------------------------------ dependencies


def _probe(code, *argv):
    """stdout of ``python -c code argv...``, started beside the package."""
    return subprocess.run([sys.executable, "-c", code, *argv],
                          cwd=Path(qsym.__file__).resolve().parents[1],
                          capture_output=True, text=True, check=True).stdout


def test_import_pulls_in_no_scipy():
    # the star import loads every submodule behind the public names
    out = _probe("import sys, qsym.cli; from qsym import *; "
                 "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])")
    assert out.strip() == "[]"


#: analysis modules that neither ``check`` nor ``invert-eta`` runs
ANALYSIS_MODULES = ("quasisymmetry", "transfer", "betweenness", "weak_similarity",
                    "generators")


def test_cli_loads_only_what_its_subcommand_runs(tmp_path):
    space = tmp_path / "E8.json"
    save_space(euclidean_space(8, 2, seed=5), space, name="E8")
    probe = ("import sys; from qsym.cli import main; code = main(sys.argv[1:]); "
             f"print(code, [m for m in {ANALYSIS_MODULES!r} if 'qsym.' + m in sys.modules])")
    for argv in (["check", str(space)], ["invert-eta", "--eta", "expratio"]):
        assert _probe(probe, *argv).splitlines()[-1] == "0 []"
    assert _probe(probe, "between", "--space", str(space)).splitlines()[-1] == \
        "0 ['betweenness']"


def test_every_public_name_resolves():
    for name in qsym.__all__:
        assert getattr(qsym, name) is not None
    assert set(qsym.__all__) <= set(dir(qsym))
    star = {}
    exec("from qsym import *", star)
    assert set(qsym.__all__) <= set(star)
    assert star["check_qs"] is qsym.check_qs
    for gone in ("spectrum", "Spectrum", "eval_modulus", "no_such_name",
                 "UnboundedEnvelope", "NotQuasisymmetric", "NoBracket", "NonSymmetric",
                 "eta_from_sandwich", "SandwichModulus", "eta_from_antisymmetric",
                 "InvolutiveModulus", "betweenness_image_structure",
                 "compose_weak_similarities", "load_map", "save_map", "invert_diag"):
        with pytest.raises(AttributeError):
            getattr(qsym, gone)


#: where a public function or class counts as used by name: the CLI, the
#: demos, the acceptance tests and the benchmark (strings too, so a traced
#: benchmark target counts)
REACHING_FILES = ("src/qsym/cli.py", "demos/*.py", "tests/test_acceptance.py", "bench/*.py")


def test_every_public_function_is_reached():
    root = Path(__file__).resolve().parents[1]
    words = set()
    for pattern in REACHING_FILES:
        for path in sorted(root.glob(pattern)):
            words |= set(re.findall(r"\w+", path.read_text()))
    # or by code in the library itself: names, attributes and imports, not
    # docstrings
    for path in sorted((root / "src" / "qsym").glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                words.add(node.id)
            elif isinstance(node, ast.Attribute):
                words.add(node.attr)
            elif isinstance(node, ast.alias):
                words.add(node.name)
    functions = [name for name in qsym.__all__ if inspect.isfunction(getattr(qsym, name))]
    classes = [name for name in qsym.__all__ if inspect.isclass(getattr(qsym, name))]
    assert len(functions) > 40 and len(classes) > 30
    # CustomGauge is the paper's general triangle function; no CLI spec
    # builds one yet, so only unit tests reach it
    assert [name for name in functions + classes if name not in words] == ["CustomGauge"]


def test_six_error_classes_one_per_action():
    from qsym import errors

    defined = {name for name, value in vars(errors).items() if isinstance(value, type)}
    assert defined == {"QsymError", "ValidationError", "ParseError", "PreconditionFailed",
                       "NotInvertible", "TooLarge"}
    assert issubclass(errors.ValidationError, ValueError)
    assert defined <= set(qsym.__all__)


def test_rank_tol_default_is_the_search_constant():
    from qsym import weak_similarity
    from qsym.cli import _build_parser

    args = _build_parser().parse_args(["weaksim", "X.json", "Y.json"])
    assert args.rank_tol is weak_similarity.RANK_TOL
