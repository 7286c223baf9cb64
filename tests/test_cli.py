"""The command-line interface: reports, exit codes, determinism."""

import hashlib
import json
import time
from itertools import combinations
from operator import itemgetter

import pytest

from msetramsey import cli, mset
from msetramsey.cli import main


@pytest.fixture
def files(tmp_path):
    def write(name, obj):
        path = tmp_path / name
        path.write_text(json.dumps(obj))
        return str(path)

    z2 = {"size": 2, "identity": 0, "table": [[0, 1], [1, 0]]}
    trivial = {"size": 1, "identity": 0, "table": [[0]]}
    return {
        "z2": write("z2.json", z2),
        "trivial": write("trivial.json", trivial),
        "bad_mset": write("bad_mset.json", {
            "monoid": z2, "carrier": ["a", "b", "c"],
            "action": [[0, 1, 2], [1, 2, 0]]}),
        "swap": write("swap.json", {
            "monoid": z2, "carrier": ["a1", "a2"],
            "action": [[0, 1], [1, 0]], "order": ["a1", "a2"]}),
        "fixed1": write("fixed1.json", {
            "monoid": z2, "carrier": ["u"],
            "action": [[0], [0]], "order": ["u"]}),
        "fixed2": write("fixed2.json", {
            "monoid": z2, "carrier": ["v0", "v1"],
            "action": [[0, 1], [0, 1]], "order": ["v0", "v1"]}),
        "pair": write("pair.json", {
            "monoid": trivial, "carrier": ["a1", "a2"],
            "action": [[0, 1]], "order": ["a1", "a2"]}),
        "pair_unordered": write("pair_unordered.json", {
            "monoid": trivial, "carrier": ["a1", "a2"],
            "action": [[0, 1]]}),
        "chain2": write("chain2.json", [0, 1]),
        "chain3": write("chain3.json", [0, 1, 2]),
        "chain5": write("chain5.json", [0, 1, 2, 3, 4]),
        "chain6": write("chain6.json", [0, 1, 2, 3, 4, 5]),
        "forest": write("forest.json", {
            "carrier": ["x", "y", "z"],
            "parent": {"x": "x", "y": "x", "z": "y"},
            "order": ["x", "y", "z"]}),
        "degrees": write("degrees.json", [
            {"order": [0, 1], "degree": 1},
            {"order": [1, 0], "degree": 1}]),
        "tmp": tmp_path,
    }


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    report = json.loads(captured.out) if captured.out.strip() else None
    return code, report, captured.err


def test_validate_good_monoid(capsys, files):
    code, report, _ = run(capsys, ["validate", "--monoid", files["z2"]])
    assert code == 0
    assert report["verdicts"]["monoid"]["valid"]
    assert "sha256" in report["inputs"]["monoid"]


@pytest.mark.parametrize("kind, obj, size", [
    ("unary", {"alphabet": ["f"], "carrier": ["x", "y"],
               "generator_actions": {"f": [1, 1]}}, 2),
    ("mset", {"monoid": {"size": 2, "identity": 0,
                         "table": [[0, 1], [1, 0]]},
              "carrier": [], "action": [[], []]}, 0),
    ("forest", {"carrier": [], "parent": {}}, 0),
])
def test_validate_reports_size(capsys, tmp_path, kind, obj, size):
    path = tmp_path / f"{kind}.json"
    path.write_text(json.dumps(obj))
    code, report, _ = run(capsys, ["validate", f"--{kind}", str(path)])
    assert code == 0
    assert report["verdicts"][kind] == {"valid": True, "size": size}


def test_validate_bad_mset_exits_1_with_witness(capsys, files):
    code, report, err = run(capsys, ["validate", "--mset", files["bad_mset"]])
    assert code == 1
    assert report is None
    assert f"{files['bad_mset']}: action composition axiom" in err


def test_validate_requires_an_input(capsys, files):
    code, _, err = run(capsys, ["validate"])
    assert code == 1 and "give one of" in err


@pytest.mark.parametrize("argv, name", [
    (["bigramsey", "--A", "swap", "--N", "4", "--k", "2", "--trials", "0"],
     "--trials"),
    (["bigramsey", "--A", "swap", "--N", "4", "--k", "0"], "--k"),
    (["bigramsey", "--A", "swap", "--N", "-1", "--k", "2"], "--N"),
    (["arrow-check", "--A", "chain2", "--B", "chain3", "--C", "chain5",
      "-k", "0"], "-k"),
    (["arrow-check", "--A", "chain2", "--B", "chain3", "--C", "chain5",
      "-k", "-3"], "-k"),
    (["arrow-check", "--A", "chain2", "--B", "chain3", "--C", "chain5",
      "-k", "2", "-t", "-1"], "-t"),
    (["transport", "--U", "fixed1", "--V", "fixed2", "-k", "0"], "-k"),
    (["laws", "--functor", "list", "--size", "-1"], "--size"),
    (["laws", "--functor", "list", "--size", "2", "--max-length", "-1"],
     "--max-length"),
    (["arrow-check", "--A", "chain2", "--B", "chain3", "--C", "chain5",
      "-k", "2", "--cap", "-1"], "--cap"),
    (["degree-probe", "--A", "pair_unordered", "--cap", "-1"], "--cap"),
    (["transport", "--U", "fixed1", "--V", "fixed2", "-k", "2",
      "--budget", "-1"], "--budget"),
    (["transport", "--U", "fixed1", "--V", "fixed2", "-k", "2",
      "--certify-cap", "-1"], "--certify-cap"),
    (["transport", "--U", "fixed1", "--V", "fixed2", "-k", "2",
      "--lift-cap", "-1"], "--lift-cap"),
    (["bigramsey", "--A", "swap", "--N", "4", "--k", "2", "--r-cap", "-1"],
     "--r-cap"),
])
def test_out_of_range_parameters_exit_1(capsys, files, argv, name):
    argv = [files.get(arg, arg) for arg in argv]
    code, report, err = run(capsys, argv)
    assert code == 1 and report is None
    assert f"argument {name}: must be >=" in err


@pytest.mark.parametrize("argv", [
    ["validate", "--chain", "chain3", "--threads", "2"],
    ["arrow-check", "--A", "chain2", "--B", "chain3", "-k", "2"],
    ["arrow-check", "--A", "chain2", "--B", "chain3", "--C", "chain5",
     "-k", "2", "--seed", "3"],
])
def test_usage_errors_exit_1(capsys, files, argv):
    code, report, err = run(capsys, [files.get(arg, arg) for arg in argv])
    assert code == 1 and report is None
    assert "usage:" in err and "error:" in err


def _parsed(capsys, parse, argv):
    """(SystemExit code or None, stdout, stderr, the options parsed)."""
    try:
        options = vars(parse(list(argv)))
        code = None
    except SystemExit as exc:
        code, options = exc.code, None
    out, err = capsys.readouterr()
    return code, out, err, options


_ARROW = ["arrow-check", "--A", "a", "--B", "b", "--C", "c"]
_ARGV_EDGES = {
    "none": [], "help": ["-h"], "long-help": ["--help"],
    "unknown-command": ["bogus"], "abbreviated-command": ["validat"],
    "help-before-command": ["-h", "validate"],
    "separator-before-command": ["--", "validate", "--chain", "c"],
    "subcommand-help": ["validate", "-h"],
    "subcommand-long-help": ["arrow-check", "--help"],
    "help-after-options": ["validate", "--chain", "c", "-h"],
    "missing-required": ["arrow-check", "--A", "a"],
    "missing-value": ["validate", "--chain"],
    "bad-type": _ARROW + ["-k", "two"],
    "out-of-range": _ARROW + ["-k", "0"],
    "bad-choice": ["degree-probe", "--A", "a", "--ctx", "sets"],
    "unknown-option": ["validate", "--bogus"],
    "unknown-options": ["validate", "--bogus", "--chain", "c", "-x"],
    "stray-positionals": ["validate", "--chain", "c", "stray", "more"],
    "separator-after-options": ["validate", "--chain", "c", "--", "x"],
    "separator-first": ["arrow-check", "--"] + _ARROW[1:],
    "option-equals-value": ["validate", "--chain=c.json"],
    "abbreviated-option": ["validate", "--cha", "c"],
    "attached-short-value": _ARROW + ["-k2"],
    "short-equals-value": _ARROW + ["-k=2", "-t", "0", "--ctx=msets"],
    "negative-number": ["bigramsey", "--A", "a", "--N", "-1", "--k", "2"],
    "flags": ["validate", "--chain", "c", "--timing", "--out", "o.json"],
}


@pytest.mark.parametrize("argv", _ARGV_EDGES.values(), ids=_ARGV_EDGES)
def test_subcommand_dispatch_parses_as_the_full_parser(capsys, argv):
    """An argv that starts with a subcommand name skips the top-level
    parse, with the same options, exit code, stdout and stderr."""
    assert _parsed(capsys, cli._parse_args, argv) == \
        _parsed(capsys, cli.build_parser().parse_args, argv)


def test_help_exits_0(capsys):
    assert main(["--help"]) == 0
    assert "usage:" in capsys.readouterr().out


def test_laws_monoid_action(capsys, files):
    code, report, _ = run(capsys, ["laws", "--functor", "monoid_action",
                                   "--monoid", files["z2"], "--size", "2"])
    assert code == 0
    assert report["verdicts"]["all_pass"] is True


@pytest.mark.parametrize("size,work", [(34, 34 ** 3 * 27),
                                       (100, 100 ** 3 * 27)])
def test_laws_monoid_action_work_over_cap_exits_2(capsys, files, size,
                                                  work):
    """|A|^|M| elements times the |M|^3 entries of delta(delta(h)) are
    checked against the cap before the sweep: over Z3, size 33 is the
    largest that runs."""
    z3 = files["tmp"] / "z3.json"
    z3.write_text(json.dumps({"size": 3, "identity": 0, "table": [
        [0, 1, 2], [1, 2, 0], [2, 0, 1]]}))
    start = time.monotonic()
    code, report, err = run(capsys, ["laws", "--functor", "monoid_action",
                                     "--monoid", str(z3),
                                     "--size", str(size)])
    assert time.monotonic() - start < 1
    assert code == 2 and report is None
    assert f"has size {work}, exceeding cap 1000000" in err


@pytest.mark.parametrize("argv, size", [
    (["--functor", "duplicate_free_list", "--size", "11"], 108505112),
    (["--functor", "list", "--size", "30", "--max-length", "6"], 754137930),
])
def test_laws_list_carrier_over_cap_exits_2(capsys, argv, size):
    """The carrier's count is checked against the cap before a sequence
    is built."""
    start = time.monotonic()
    code, report, err = run(capsys, ["laws"] + argv)
    assert time.monotonic() - start < 1
    assert code == 2 and report is None
    assert f"has size {size}, exceeding cap 1000000" in err


def test_laws_duplicate_free_list_skips_counit(capsys, files):
    code, report, _ = run(capsys, ["laws", "--functor",
                                   "duplicate_free_list", "--size", "3"])
    assert code == 0
    names = [l["law"] for l in report["verdicts"]["laws"]]
    assert "counit_left" not in names


def test_arrow_check_holds_and_refuted_both_exit_0(capsys, files):
    code, report, _ = run(capsys, [
        "arrow-check", "--A", files["chain2"], "--B", files["chain3"],
        "--C", files["chain6"], "-k", "2", "-t", "1"])
    assert code == 0 and report["verdicts"]["status"] == "holds"
    code, report, _ = run(capsys, [
        "arrow-check", "--A", files["chain2"], "--B", files["chain3"],
        "--C", files["chain5"], "-k", "2", "-t", "1"])
    assert code == 0 and report["verdicts"]["status"] == "refuted"
    assert report["verdicts"]["bad_coloring"]


_Z2 = {"size": 2, "identity": 0, "table": [[0, 1], [1, 0]]}
_NO_POINT = {"monoid": _Z2, "carrier": [], "action": [[], []], "order": []}
_FIXED1 = {"monoid": _Z2, "carrier": ["u"], "action": [[0], [0]],
           "order": ["u"]}
_FIXED2 = {"monoid": _Z2, "carrier": ["v0", "v1"],
           "action": [[0, 1], [0, 1]], "order": ["v0", "v1"]}
# fixed points u < v < w around the swap pair a1 < a2
_AROUND_SWAP = {"monoid": _Z2, "carrier": ["u", "a1", "v", "a2", "w"],
                "action": [[0, 1, 2, 3, 4], [0, 3, 2, 1, 4]],
                "order": ["u", "a1", "v", "a2", "w"]}


@pytest.mark.parametrize("ctx,a,b,c,verdicts,digest", [
    ("chains", [], [0, 1, 2], [0, 1, 2, 3, 4],
     {"reason": "exhausted_with_pruning", "status": "holds",
      "witness_stats": {"hom_AB": 1, "hom_AC": 1, "hom_BC": 10}},
     "2c0615f8"),
    ("chains", [0], [0, 1, 2], [0, 1, 2, 3],
     {"bad_coloring": [0, 0, 1, 1], "reason": "bad_coloring_found",
      "status": "refuted", "witness_stats": {}},
     "affd636e"),
    ("ordered-msets", _NO_POINT, _FIXED2, _AROUND_SWAP,
     {"reason": "exhausted_with_pruning", "status": "holds",
      "witness_stats": {"hom_AB": 1, "hom_AC": 1, "hom_BC": 3}},
     "65542aa6"),
    ("ordered-msets", _FIXED1, _FIXED2, _AROUND_SWAP,
     {"reason": "exhausted_with_pruning", "status": "holds",
      "witness_stats": {"hom_AB": 2, "hom_AC": 3, "hom_BC": 3}},
     "6d95c207"),
], ids=["chains-empty", "chains-point", "ordered-msets-empty",
        "ordered-msets-point"])
def test_arrow_check_with_at_most_one_point_in_a(
        capsys, tmp_path, monkeypatch, ctx, a, b, c, verdicts, digest):
    """|A| <= 1 composes without itemgetter, which rejects no index and
    returns a scalar for one; the report bytes are pinned."""
    def getter(*positions):
        assert len(positions) > 1
        return itemgetter(*positions)

    monkeypatch.setattr(mset, "itemgetter", getter)
    argv = ["arrow-check", "--ctx", ctx, "-k", "2", "-t", "1"]
    for name, obj in zip("ABC", (a, b, c)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(obj))
        argv += [f"--{name}", str(path)]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert json.loads(out)["verdicts"] == verdicts
    masked = out.replace(str(tmp_path), "<tmp>")
    assert hashlib.sha256(masked.encode()).hexdigest()[:8] == digest


def test_arrow_check_ctx_mismatch(capsys, files):
    code, _, err = run(capsys, [
        "arrow-check", "--A", files["pair_unordered"], "--B", files["pair_unordered"],
        "--C", files["pair_unordered"], "-k", "2", "--ctx", "ordered-msets"])
    assert code == 1 and "unordered" in err


def test_degree_probe(capsys, files):
    code, report, _ = run(capsys, [
        "degree-probe", "--A", files["pair_unordered"], "--ctx", "msets",
        "--budget", "small"])
    assert code == 0
    assert report["verdicts"]["lower"] == 2
    assert report["verdicts"]["upper"] == 2


def test_transport(capsys, files):
    code, report, _ = run(capsys, [
        "transport", "--U", files["fixed1"], "--V", files["fixed2"],
        "-k", "2"])
    assert code == 0
    assert report["verdicts"]["chain_witness_size"] == 3
    assert report["verdicts"]["certified"] == "holds"


def test_transport_witness_contains_v(capsys, files):
    """U the Z2 swap pair, V the swap pair plus a fixed point: W must hold
    a copy of chain(V), so W = omega_6 (R(3,3) = 6), not omega_1."""
    swap_fixed = files["tmp"] / "swap_fixed.json"
    swap_fixed.write_text(json.dumps({
        "monoid": {"size": 2, "identity": 0, "table": [[0, 1], [1, 0]]},
        "carrier": ["a1", "a2", "f"], "action": [[0, 1, 2], [1, 0, 2]],
        "order": ["a1", "a2", "f"]}))
    code, report, _ = run(capsys, [
        "transport", "--U", files["swap"], "--V", str(swap_fixed),
        "-k", "2", "--budget", "8"])
    assert code == 0
    verdicts = report["verdicts"]
    assert (verdicts["chain_witness_size"], verdicts["lift_size"]) == (6, 36)
    assert verdicts["certified"] == "holds"
    assert verdicts["verdict"]["reason"] == "exhausted_with_pruning"
    assert verdicts["verdict"]["witness_stats"] == {
        "hom_AB": 1, "hom_AC": 15, "hom_BC": 35}


def test_transport_inconclusive_reason_names_certify_cap(capsys, files):
    code, report, _ = run(capsys, [
        "transport", "--U", files["fixed1"], "--V", files["fixed2"],
        "-k", "4", "--certify-cap", "2"])
    assert code == 0
    assert report["verdicts"]["certified"] == "inconclusive"
    assert report["verdicts"]["verdict"]["reason"] == \
        "search_nodes_exceed_cap_2"


def test_bigramsey_trials(capsys, files):
    code, report, _ = run(capsys, [
        "bigramsey", "--A", files["swap"], "--N", "4", "--k", "2",
        "--trials", "3", "--seed", "5"])
    assert code == 0
    assert report["verdicts"]["all_within_bound"] is True
    assert len(report["verdicts"]["trials"]) == 3
    assert report["verdicts"]["trials"][0]["seed"] == 5


@pytest.mark.parametrize("argv, message", [
    (["bigramsey", "--A", "swap", "--N", "0", "--k", "2"],
     "raise the truncation"),
    (["transport", "--U", "swap", "--V", "swap", "-k", "2", "--budget", "0"],
     "no chain witness found up to size 0"),
])
def test_budget_too_small_exits_2(capsys, files, argv, message):
    code, report, err = run(capsys, [files.get(arg, arg) for arg in argv])
    assert code == 2 and report is None
    assert message in err and "Traceback" not in err


def test_arrow_check_beyond_recursion_depth(capsys, files, tmp_path):
    # 1081 positions, more than the default recursion limit
    chain47 = tmp_path / "chain47.json"
    chain47.write_text(json.dumps(list(range(47))))
    code, report, _ = run(capsys, [
        "arrow-check", "--A", files["chain2"], "--B", files["chain3"],
        "--C", str(chain47), "-k", "2", "-t", "1", "--cap", "5000"])
    assert code == 0
    assert report["verdicts"]["status"] == "holds"
    assert report["verdicts"]["witness_stats"]["hom_AC"] == 1081


def test_forest_label_collision_exits_1(capsys, tmp_path):
    path = tmp_path / "forest.json"
    path.write_text(json.dumps({"carrier": [1, "1"], "parent": {"1": "1"}}))
    code, report, err = run(capsys, ["validate", "--forest", str(path)])
    assert code == 1 and report is None
    assert "carrier labels 1 and '1'" in err


@pytest.mark.parametrize("command, obj, message", [
    pytest.param("validate --forest",
                 {"carrier": ["x"], "parent": {"x": "q"}},
                 "parent 'q' of 'x' is not in the carrier",
                 id="parent-outside-carrier"),
    pytest.param("validate --forest",
                 {"carrier": ["x"], "parent": {"x": "x"}, "order": ["q"]},
                 "input.json: order label 'q' is not in the carrier",
                 id="order-outside-carrier"),
    pytest.param("validate --forest",
                 {"carrier": ["x", "y"], "parent": {"x": "y", "y": "x"}},
                 "input.json: parent map has a non-root cycle",
                 id="parent-cycle"),
    pytest.param("forest --decode",
                 {"carrier": ["x"], "structure": [["x"]], "order": ["q"]},
                 "input.json: order label 'q' is not in the carrier",
                 id="decode-order-outside-carrier"),
    pytest.param("forest --decode",
                 {"carrier": ["x"], "structure": [["x"], ["y"]]},
                 "input.json: carrier and structure sizes differ",
                 id="decode-sizes-differ"),
    pytest.param("forest --decode", [], "a coalgebra file is a JSON object",
                 id="decode-array"),
    pytest.param("forest --decode",
                 {"carrier": ["x"], "structure": [["x", "q"]]},
                 "input.json: structure value at 'x' is not a root path",
                 id="decode-path-outside-carrier"),
    pytest.param("forest --decode", {"carrier": ["x"], "structure": [5]},
                 "the structure is a JSON array of root paths",
                 id="decode-structure-not-paths"),
    pytest.param("validate --forest", {"carrier": 5, "parent": {}},
                 "input.json: field 'carrier' is not a JSON array",
                 id="carrier-not-array"),
    pytest.param("forest --decode", {"carrier": 5, "structure": []},
                 "input.json: the carrier is a JSON array",
                 id="decode-carrier-not-array"),
    pytest.param("validate --mset",
                 {"monoid": {"size": 1, "identity": 0, "table": [[0]]},
                  "carrier": 5, "action": [[0]]},
                 "input.json: field 'carrier' is not a JSON array",
                 id="mset-carrier-not-array"),
    pytest.param("validate --unary",
                 {"alphabet": 5, "generator_actions": {"f": [0]}},
                 "input.json: field 'alphabet' is not a JSON array",
                 id="unary-alphabet-not-array"),
    pytest.param("validate --monoid",
                 {"size": 1, "identity": 0, "table": 5},
                 "input.json: field 'table' is not a JSON array",
                 id="monoid-table-not-array"),
    pytest.param("validate --monoid",
                 {"size": 1, "identity": 0, "table": [5]},
                 "input.json: field 'table' is not a JSON array of int arrays",
                 id="monoid-table-row-not-array"),
    pytest.param("validate --mset",
                 {"monoid": {"size": 1, "identity": 0, "table": [[0]]},
                  "carrier": [0], "action": 5},
                 "input.json: field 'action' is not a JSON array",
                 id="mset-action-not-array"),
    pytest.param("validate --mset",
                 {"monoid": {"size": 1, "identity": 0, "table": [[0]]},
                  "carrier": [0], "action": [["a"]]},
                 "input.json: field 'action' is not a JSON array of int arrays",
                 id="mset-action-entry-not-int"),
    pytest.param("validate --unary",
                 {"alphabet": ["f"], "generator_actions": 5},
                 "input.json: field 'generator_actions' is not a JSON object",
                 id="unary-actions-not-object"),
    pytest.param("validate --unary",
                 {"alphabet": ["f"], "generator_actions": {"f": 5}},
                 "input.json: field 'generator_actions' is not a JSON object",
                 id="unary-action-row-not-array"),
    pytest.param("validate --unary",
                 {"alphabet": ["f"], "generator_actions": {"f": [[0]]}},
                 "input.json: field 'generator_actions' is not a JSON object",
                 id="unary-action-entry-not-int"),
    pytest.param("validate --monoid",
                 {"size": 1, "identity": "x", "table": [[0]]},
                 "input.json: field 'identity' is not an int",
                 id="monoid-identity-not-int"),
    pytest.param("validate --monoid",
                 {"size": 1.0, "identity": 0, "table": [[0]]},
                 "input.json: field 'size' is not an int",
                 id="monoid-size-not-int"),
    pytest.param("validate --monoid",
                 {"size": 1, "identity": 0, "table": [[0]], "well_order": 5},
                 "input.json: field 'well_order' is not a JSON array of ints",
                 id="monoid-well-order-not-array"),
    pytest.param("validate --monoid",
                 {"size": 2, "identity": 0, "table": [[0, 1], [1, 0]],
                  "well_order": [0, "a"]},
                 "input.json: field 'well_order' is not a JSON array of ints",
                 id="monoid-well-order-entry-not-int"),
    pytest.param("validate --monoid",
                 {"size": 2, "identity": False,
                  "table": [[False, True], [True, False]]},
                 "input.json: field 'table' is not a JSON array of int arrays",
                 id="monoid-bool-entries"),
    pytest.param("validate --monoid",
                 {"size": True, "identity": 0, "table": [[0]]},
                 "input.json: field 'size' is not an int",
                 id="monoid-size-bool"),
    pytest.param("validate --monoid",
                 {"size": 1, "identity": False, "table": [[0]]},
                 "input.json: field 'identity' is not an int",
                 id="monoid-identity-bool"),
    pytest.param("validate --monoid",
                 {"size": 2, "identity": 0, "table": [[0, 1], [1, 0]],
                  "well_order": [0, True]},
                 "input.json: field 'well_order' is not a JSON array of ints",
                 id="monoid-well-order-bool"),
    pytest.param("bigramsey --N 4 --k 2 --A",
                 {"monoid": {"size": 1, "identity": 0, "table": [[0]]},
                  "carrier": [0, 1], "action": [[False, True]],
                  "order": [0, 1]},
                 "input.json: field 'action' is not a JSON array of int arrays",
                 id="bigramsey-mset-action-bool"),
    pytest.param("validate --unary",
                 {"alphabet": ["f"], "generator_actions": {"f": [True]}},
                 "input.json: field 'generator_actions' is not a JSON object",
                 id="unary-action-entry-bool"),
    pytest.param("validate --chain", [1, 2, {"a": 1}],
                 "input.json: chain label {'a': 1} is neither a JSON scalar",
                 id="chain-label-object"),
    pytest.param("validate --chain", [[[1]], 2],
                 "input.json: chain label [[1]] is neither a JSON scalar",
                 id="chain-label-nested-array"),
    pytest.param("validate --forest",
                 {"carrier": [[1]], "parent": {"[1]": [1]}, "order": [[1]]},
                 "input.json: field 'carrier' holds [1], which is not a JSON "
                 "scalar label", id="forest-label-array"),
    pytest.param("forest --encode",
                 {"carrier": [[1]], "parent": {"[1]": [1]}, "order": [[1]]},
                 "input.json: field 'carrier' holds [1], which is not a JSON "
                 "scalar label", id="encode-label-array"),
    pytest.param("forest --encode",
                 {"carrier": [{"a": 1}], "parent": {"{'a': 1}": {"a": 1}},
                  "order": [{"a": 1}]},
                 "input.json: field 'carrier' holds {'a': 1}, which is not "
                 "a JSON scalar label", id="encode-label-object"),
    pytest.param("forest --encode",
                 {"carrier": ["x"], "parent": {"x": ["x"]}, "order": ["x"]},
                 "input.json: field 'parent' holds ['x'], which is not a "
                 "JSON scalar label", id="encode-parent-array"),
    pytest.param("forest --decode", {"carrier": [[1]], "structure": [[[1]]]},
                 "input.json: field 'carrier' holds [1], which is not a JSON "
                 "scalar label", id="decode-label-array"),
    pytest.param("forest --decode",
                 {"carrier": ["x"], "structure": [["x", [1]]]},
                 "input.json: field 'structure' holds [1], which is not a "
                 "JSON scalar label", id="decode-path-entry-array"),
    pytest.param("validate --mset",
                 {"monoid": {"size": 1, "identity": 0, "table": [[0]]},
                  "carrier": [[1], {"a": 2}], "action": [[0, 1]]},
                 "input.json: field 'carrier' holds [1], which is not a JSON "
                 "scalar label", id="mset-label-array"),
    pytest.param("validate --mset",
                 {"monoid": {"size": 1, "identity": 0, "table": [[0]]},
                  "carrier": ["a", "a"], "action": [[0, 1]]},
                 "input.json: field 'carrier' holds 'a' and 'a', which are "
                 "equal labels", id="mset-repeated-label"),
    pytest.param("validate --mset",
                 {"monoid": {"size": 1, "identity": 0, "table": [[0]]},
                  "carrier": [1, True], "action": [[0, 1]],
                  "order": [True, 1]},
                 "input.json: field 'carrier' holds 1 and True, which are "
                 "equal labels", id="mset-one-and-true"),
    pytest.param("forest --encode",
                 {"carrier": [1, True], "parent": {"1": 1, "True": 1},
                  "order": [1, True]},
                 "input.json: field 'carrier' holds 1 and True, which are "
                 "equal labels", id="encode-one-and-true"),
    pytest.param("validate --forest",
                 {"carrier": [1, 1.0], "parent": {"1": 1, "1.0": 1}},
                 "input.json: field 'carrier' holds 1 and 1.0, which are "
                 "equal labels", id="forest-one-and-one-point-zero"),
    pytest.param("forest --decode",
                 {"carrier": ["x", "x"], "structure": [["x"], ["x"]]},
                 "input.json: field 'carrier' holds 'x' and 'x', which are "
                 "equal labels", id="decode-repeated-label"),
    pytest.param("validate --unary",
                 {"alphabet": ["f"], "carrier": [0, False],
                  "generator_actions": {"f": [0, 1]}},
                 "input.json: field 'carrier' holds 0 and False, which are "
                 "equal labels", id="unary-zero-and-false"),
    pytest.param("validate --unary",
                 {"alphabet": ["f"], "carrier": "ab",
                  "generator_actions": {"f": [0, 1]}},
                 "input.json: field 'carrier' is not a JSON array",
                 id="unary-carrier-string"),
    pytest.param("validate --chain", [1, True],
                 "input.json: the chain holds 1 and True, which are equal "
                 "labels", id="chain-one-and-true"),
    pytest.param("validate --mset",
                 {"monoid": {"size": 1, "identity": 0, "table": [[0]]},
                  "carrier": [1, "a"], "action": [[0, 1]],
                  "order": ["a", True]},
                 "order label True is not in the carrier",
                 id="mset-order-true-for-1"),
    pytest.param("validate --mset",
                 {"monoid": {"size": 1, "identity": 0, "table": [[0]]},
                  "carrier": [1, "a"], "action": [[0, 1]],
                  "order": [1.0, "a"]},
                 "order label 1.0 is not in the carrier",
                 id="mset-order-float-for-1"),
    pytest.param("validate --forest",
                 {"carrier": [1, 2], "parent": {"1": 1, "2": 1},
                  "order": [True, 2]},
                 "order label True is not in the carrier",
                 id="forest-order-true-for-1"),
    pytest.param("forest --encode",
                 {"carrier": [1, 2], "parent": {"1": 1, "2": 1},
                  "order": [1.0, 2]},
                 "order label 1.0 is not in the carrier",
                 id="encode-order-float-for-1"),
    pytest.param("forest --decode",
                 {"carrier": [1, 2], "structure": [[1], [2, 1]],
                  "order": [True, 2]},
                 "order label True is not in the carrier",
                 id="decode-order-true-for-1"),
    pytest.param("forest --decode",
                 {"carrier": [1, 2], "structure": [[1], [2, 1]],
                  "order": [1, 2.0]},
                 "order label 2.0 is not in the carrier",
                 id="decode-order-float-for-2"),
    pytest.param("validate --unary",
                 {"alphabet": ["f"], "generator_actions": {"f": [0]},
                  "order": "not an order"},
                 "input.json: field 'order' is not part of the unary algebra "
                 "format", id="unary-order"),
    pytest.param("validate --unary",
                 {"alphabet": [["f"]], "generator_actions": {"f": [0]}},
                 "input.json: field 'alphabet' holds ['f'], which is not a "
                 "JSON scalar label", id="unary-alphabet-label-array"),
    pytest.param("validate --unary",
                 {"alphabet": [], "generator_actions": {"f": [7, -3]}},
                 "input.json: generator action for symbol 'f', which is not "
                 "in the alphabet", id="unary-row-outside-empty-alphabet"),
    pytest.param("validate --unary",
                 {"alphabet": ["f"],
                  "generator_actions": {"f": [0, 1], "g": [5]}},
                 "input.json: generator action for symbol 'g', which is not "
                 "in the alphabet", id="unary-row-outside-alphabet"),
    pytest.param("forest --decode", {},
                 "input.json: missing field 'carrier'",
                 id="decode-missing-carrier"),
    pytest.param("forest --decode", {"carrier": ["x"]},
                 "input.json: missing field 'structure'",
                 id="decode-missing-structure"),
])
def test_malformed_forest_files_exit_1(capsys, tmp_path, command, obj,
                                       message):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(obj))
    code, report, err = run(capsys, command.split() + [str(path)])
    assert code == 1 and report is None
    assert message in err


def test_arrow_check_non_scalar_chain_label_exits_1(capsys, files):
    path = files["tmp"] / "bad_chain.json"
    path.write_text(json.dumps([1, 2, {"a": 1}]))
    code, report, err = run(capsys, [
        "arrow-check", "--ctx", "chains", "--A", str(path),
        "--B", files["chain2"], "--C", files["chain3"], "-k", "2"])
    assert code == 1 and report is None
    assert "bad_chain.json: chain label {'a': 1}" in err


def test_arrow_check_names_the_file_of_an_order_label_outside_the_carrier(
        capsys, files):
    """The error raised inside validate_mset says which of A, B and C
    holds the bad order."""
    path = files["tmp"] / "bad_order.json"
    path.write_text(json.dumps({
        "monoid": {"size": 2, "identity": 0, "table": [[0, 1], [1, 0]]},
        "carrier": ["c1", "c2"], "action": [[0, 1], [1, 0]],
        "order": ["c1", "q"]}))
    code, report, err = run(capsys, [
        "arrow-check", "--ctx", "ordered-msets", "--A", files["fixed1"],
        "--B", files["swap"], "--C", str(path), "-k", "2"])
    assert code == 1 and report is None
    assert f"{path}: order label 'q' is not in the carrier" in err
    assert "Traceback" not in err


def test_bigramsey_boolean_coloring_exits_1(capsys, files):
    path = files["tmp"] / "bools.json"
    path.write_text(json.dumps([True, False] * 3))   # |R| = C(4, 2)
    code, report, err = run(capsys, [
        "bigramsey", "--A", files["pair"], "--N", "4", "--k", "2",
        "--coloring", str(path)])
    assert code == 1 and report is None
    assert str(path) in err and "Traceback" not in err


def test_bigramsey_r_cap_is_the_only_cap_on_n(capsys, files):
    """|R| = 51,040 while the lift of omega_320 has 102,400 elements: R's
    cap is the only one on N."""
    path = files["tmp"] / "par.json"
    path.write_text(json.dumps(
        [(x + y) % 2 for x, y in combinations(range(320), 2)]))
    code, report, _ = run(capsys, [
        "bigramsey", "--A", files["swap"], "--N", "320", "--k", "2",
        "--coloring", str(path)])
    assert code == 0
    (trial,) = report["verdicts"]["trials"]
    assert trial["tower"] == [320, 160]
    assert trial["colors_used"] == 1 and trial["R_size"] == 51040


def test_bigramsey_cap_exits_2(capsys, files):
    code, _, err = run(capsys, [
        "bigramsey", "--A", files["pair"], "--N", "30", "--k", "2",
        "--r-cap", "10"])
    assert code == 2 and "cap exceeded" in err


def test_degree_bound(capsys, files):
    code, report, _ = run(capsys, [
        "degree-bound", "--A", files["pair_unordered"],
        "--ordered-degrees", files["degrees"]])
    assert code == 0 and report["verdicts"]["bound"] == 2
    code, report, _ = run(capsys, [
        "degree-bound", "--A", files["pair_unordered"],
        "--ordered-degrees", files["degrees"], "--big"])
    assert code == 0 and report["verdicts"]["within_formula"] is True


def test_degree_bound_big_rejects_empty_carrier(capsys, files):
    """2^(n-1) counts subchains through a least element, which an empty A
    lacks; the plain fiber sum still runs (one empty ordering)."""
    a = files["tmp"] / "empty.json"
    a.write_text(json.dumps({"monoid": {"size": 1, "identity": 0,
                                        "table": [[0]]},
                             "carrier": [], "action": [[]]}))
    degrees = files["tmp"] / "empty_degrees.json"
    degrees.write_text(json.dumps([{"order": [], "degree": 1}]))
    argv = ["degree-bound", "--A", str(a), "--ordered-degrees", str(degrees)]
    code, report, err = run(capsys, argv + ["--big"])
    assert code == 1 and report is None
    assert "no least element" in err
    code, report, _ = run(capsys, argv)
    assert code == 0
    assert report["verdicts"] == {"bound": 1, "fiber_size": 1}


@pytest.mark.parametrize("entries", [
    [{"order": [0, 1]}, {"order": [1, 0], "degree": 1}],
    [[0, 1]],
    [{"order": 0, "degree": 1}],
    [{"order": [0, 1], "degree": "x"}, {"order": [1, 0], "degree": 1}],
    [{"order": [[0], 1], "degree": 1}],
    [{"order": [False, True], "degree": True},
     {"order": [True, False], "degree": 1}],
    [{"order": [0, 1], "degree": True}, {"order": [1, 0], "degree": 1}],
    pytest.param([{"order": [0, 1], "degree": -5},
                  {"order": [1, 0], "degree": 1}], id="degree-below-1"),
], ids=["no-degree", "not-an-object", "order-not-array", "degree-not-int",
        "order-not-ints", "bools", "degree-bool", "degree-below-1"])
def test_degree_bound_malformed_entry_exits_1(capsys, files, entries):
    path = files["tmp"] / "bad_degrees.json"
    path.write_text(json.dumps(entries))
    code, report, err = run(capsys, [
        "degree-bound", "--A", files["pair_unordered"],
        "--ordered-degrees", str(path)])
    assert code == 1 and report is None
    assert "bad_degrees.json" in err and "is not an" in err


def test_forest_encode_decode_roundtrip(capsys, files):
    code, report, _ = run(capsys, ["forest", "--encode", files["forest"]])
    assert code == 0
    coalg = report["verdicts"]["coalgebra"]
    assert coalg["structure"][2] == ["z", "y", "x"]
    path = files["tmp"] / "coalg.json"
    path.write_text(json.dumps(dict(coalg, order=["x", "y", "z"])))
    code, report, _ = run(capsys, ["forest", "--decode", str(path)])
    assert code == 0
    assert report["verdicts"]["forest"]["parent"] == {
        "x": "x", "y": "x", "z": "y"}


def test_reports_are_byte_identical(capsys, files):
    argv = ["bigramsey", "--A", files["swap"], "--N", "4", "--k", "2",
            "--trials", "2", "--seed", "9"]
    main(argv)
    first = capsys.readouterr().out
    main(argv)
    second = capsys.readouterr().out
    assert first == second and first


def test_out_flag_writes_file(capsys, files):
    out = files["tmp"] / "report.json"
    code, report, _ = run(capsys, ["validate", "--chain", files["chain3"],
                                   "--out", str(out)])
    assert code == 0 and report is None
    text = out.read_text()
    assert json.loads(text)["verdicts"]["chain"]["valid"]
    assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) \
        + "\n"


def test_timing_flag_is_opt_in(capsys, files):
    _, report, _ = run(capsys, ["validate", "--chain", files["chain3"]])
    assert "timing_seconds" not in report
    assert main(["validate", "--chain", files["chain3"], "--timing"]) == 0
    text = capsys.readouterr().out
    assert "timing_seconds" in json.loads(text)
    assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) \
        + "\n"


# Every file option of every subcommand, with the other options valid;
# FILE marks the option under test.
FILE = object()
_FILE_OPTIONS = {
    "validate-monoid": ["validate", "--monoid", FILE],
    "validate-mset": ["validate", "--mset", FILE],
    "validate-chain": ["validate", "--chain", FILE],
    "validate-forest": ["validate", "--forest", FILE],
    "validate-unary": ["validate", "--unary", FILE],
    "laws-monoid": ["laws", "--functor", "monoid_action", "--size", "2",
                    "--monoid", FILE],
    "arrow-check-A": ["arrow-check", "--A", FILE, "--B", "chain3",
                      "--C", "chain5", "-k", "2"],
    "arrow-check-B": ["arrow-check", "--A", "chain2", "--B", FILE,
                      "--C", "chain5", "-k", "2"],
    "arrow-check-C": ["arrow-check", "--A", "chain2", "--B", "chain3",
                      "--C", FILE, "-k", "2"],
    "degree-probe-A": ["degree-probe", "--A", FILE, "--budget", "tiny"],
    "transport-U": ["transport", "--U", FILE, "--V", "fixed2", "-k", "2"],
    "transport-V": ["transport", "--U", "fixed1", "--V", FILE, "-k", "2"],
    "bigramsey-A": ["bigramsey", "--A", FILE, "--N", "4", "--k", "2"],
    "bigramsey-coloring": ["bigramsey", "--A", "pair", "--N", "4",
                           "--k", "2", "--coloring", FILE],
    "degree-bound-A": ["degree-bound", "--A", FILE,
                       "--ordered-degrees", "degrees"],
    "degree-bound-ordered-degrees": ["degree-bound", "--A", "pair_unordered",
                                     "--ordered-degrees", FILE],
    "forest-encode": ["forest", "--encode", FILE],
    "forest-decode": ["forest", "--decode", FILE],
}


def _with_file(files, argv, path):
    """`argv` with FILE replaced by `path` and file names by their paths;
    the subcommand, argv[0], is kept as it is."""
    return argv[:1] + [str(path) if arg is FILE else files.get(arg, arg)
                       for arg in argv[1:]]


@pytest.mark.parametrize("argv, digest", [
    (["degree-probe", "--ctx", "msets", "--A", "pair_unordered"], "57c4c390"),
    (["degree-probe", "--ctx", "ordered-msets", "--A", "swap"], "d37bbc15"),
    (["transport", "--U", "fixed1", "--V", "fixed2", "-k", "2"], "64347d5d"),
    (["laws", "--functor", "duplicate_free_list", "--size", "3"],
     "beb2104e"),
], ids=["degree-probe-msets", "degree-probe-ordered-msets", "transport",
        "laws-duplicate-free-list"])
def test_report_bytes_are_pinned(capsys, files, argv, digest):
    """The report bytes, with the input directory masked."""
    assert main(_with_file(files, argv, None)) == 0
    masked = capsys.readouterr().out.replace(str(files["tmp"]), "<tmp>")
    assert hashlib.sha256(masked.encode()).hexdigest()[:8] == digest


@pytest.mark.parametrize("kind", ["missing", "directory"])
@pytest.mark.parametrize("argv", _FILE_OPTIONS.values(), ids=_FILE_OPTIONS)
def test_unreadable_input_path_exits_1_naming_it(capsys, files, argv, kind):
    path = files["tmp"] / kind
    if kind == "directory":
        path.mkdir()
    code, report, err = run(capsys, _with_file(files, argv, path))
    assert code == 1 and report is None
    assert f"input error: cannot read {path}: " in err
    assert "Traceback" not in err


@pytest.mark.parametrize("kind", ["in-missing-directory", "directory"])
def test_unwritable_out_exits_1_naming_it_and_writes_nothing(
        capsys, files, kind):
    out = files["tmp"] / "missing" / "report.json"
    if kind == "directory":
        out = files["tmp"] / "reports"
        out.mkdir()
    code, report, err = run(capsys, ["validate", "--chain", files["chain3"],
                                     "--out", str(out)])
    assert code == 1 and report is None
    assert f"output error: cannot write {out}: " in err
    assert "Traceback" not in err
    if kind == "directory":
        assert list(out.iterdir()) == []
    else:
        assert not out.parent.exists()


@pytest.mark.parametrize("argv, text, message", [
    pytest.param(["bigramsey", "--A", FILE, "--N", "4", "--k", "2"],
                 None, "bigramsey: A must carry an order, but {} has none",
                 id="bigramsey-unordered-A"),
    pytest.param(["validate", "--chain", FILE], "[0, 1",
                 "{} is not valid JSON", id="not-json"),
    pytest.param(["validate", "--forest", FILE],
                 '{"carrier": ["x"], "parent": ["x"]}',
                 "{}: parent is a JSON object", id="parent-not-object"),
    pytest.param(["forest", "--encode", FILE],
                 '{"carrier": ["x", "y"], "parent": {"x": "x"}}',
                 "{}: no parent for element 'y'", id="parent-lacks-element"),
    pytest.param(["degree-bound", "--A", "pair_unordered",
                  "--ordered-degrees", FILE],
                 '{"order": [0, 1], "degree": 1}',
                 "{}: the degrees file is a JSON array",
                 id="degrees-not-array"),
    pytest.param(["forest", "--encode", FILE],
                 '{"carrier": ["x"], "parent": {"x": "x"}}',
                 "forest: forest must carry an order, but {} has none",
                 id="forest-encode-unordered"),
    pytest.param(["validate", "--mset", FILE],
                 '{"monoid": "z2.json", "carrier": [], "action": [[]]}',
                 "{}: field 'monoid' is not a JSON object",
                 id="mset-monoid-path"),
    pytest.param(["arrow-check", "--ctx", "ordered-msets", "--A", "pair",
                  "--B", "pair", "--C", FILE, "-k", "2"],
                 None, "--ctx ordered-msets but C ({}) is unordered",
                 id="arrow-check-unordered-C"),
    pytest.param(["arrow-check", "--ctx", "ordered-msets", "--A", "pair",
                  "--B", "pair", "--C", FILE, "-k", "2"],
                 json.dumps({"monoid": {"size": 2, "identity": 0,
                                        "table": [[0, 1], [1, 0]]},
                             "carrier": ["c"], "action": [[0], [0]],
                             "order": ["c"]}),
                 "C ({}) lives over another monoid than A",
                 id="arrow-check-C-over-another-monoid"),
    pytest.param(_FILE_OPTIONS["bigramsey-coloring"], "[0, 1, 0]",
                 "{}: coloring has 3 entries for 6 embeddings",
                 id="coloring-length"),
    pytest.param(_FILE_OPTIONS["bigramsey-coloring"], "[0, 1, 0, 5, 0, 1]",
                 "{}: coloring value 5 at index 3 is out of range for k = 2",
                 id="coloring-value"),
    pytest.param(_FILE_OPTIONS["degree-bound-ordered-degrees"],
                 '[{"order": [0, 1], "degree": null}, '
                 '{"order": [1, 0], "degree": 1}]',
                 "{}: no degree for ordering (0, 1)", id="degrees-null"),
    pytest.param(_FILE_OPTIONS["degree-bound-ordered-degrees"] + ["--big"],
                 '[{"order": [0, 1], "degree": 1}, '
                 '{"order": [1, 0], "degree": 1}, '
                 '{"order": [5], "degree": 2}]',
                 "{}: degree for (5,), not an ordering of A",
                 id="degrees-stray-ordering"),
    pytest.param(["bigramsey", "--A", FILE, "--N", "3", "--k", "2"],
                 '{"monoid": {"size": 1, "identity": 0, "table": [[0]]}, '
                 '"carrier": [], "action": [[]], "order": []}',
                 "{}: the empty chain has no least element",
                 id="bigramsey-empty-A"),
    pytest.param(_FILE_OPTIONS["degree-bound-A"] + ["--big"],
                 '{"monoid": {"size": 1, "identity": 0, "table": [[0]]}, '
                 '"carrier": [], "action": [[]]}',
                 "{}: the empty M-set has no least element",
                 id="degree-bound-big-empty-A"),
])
def test_input_errors_exit_1_naming_the_file(capsys, files, argv, text,
                                             message):
    if text is None:
        path = files["pair_unordered"]
    else:
        path = files["tmp"] / "input.json"
        path.write_text(text)
    code, report, err = run(capsys, _with_file(files, argv, path))
    assert code == 1 and report is None
    assert f"input error: {message.format(path)}" in err


# One content fault per loader, each raised below the loader's parser.
_ONE_FAULT = {
    "validate-monoid": '{"size": 2, "identity": 1, "table": [[0, 1], [1, 0]]}',
    "validate-mset": '{"monoid": {"size": true, "identity": 0, '
                     '"table": [[0]]}, "carrier": [], "action": [[]]}',
    "validate-unary": '{"alphabet": ["f"], "generator_actions": {"g": [0]}}',
    "validate-chain": "[0, 1, 0]",
    "validate-forest": '{"carrier": ["x", "y"], '
                       '"parent": {"x": "y", "y": "x"}}',
    "forest-decode": '{"carrier": ["x"], "structure": [["y"]]}',
    "bigramsey-coloring": '[0, 1, "2"]',
    "degree-bound-ordered-degrees": '[{"order": [0, 1]}]',
}


@pytest.mark.parametrize("option", _ONE_FAULT)
def test_a_content_error_names_its_file_once(capsys, files, option):
    path = files["tmp"] / "input.json"
    path.write_text(_ONE_FAULT[option])
    code, report, err = run(capsys, _with_file(
        files, _FILE_OPTIONS[option], path))
    assert code == 1 and report is None
    assert err.startswith(f"input error: {path}: ")
    assert err.count(str(path)) == 1


@pytest.mark.parametrize("label", [[], {}], ids=["array", "object"])
@pytest.mark.parametrize("argv, obj", [
    (["validate", "--mset", FILE],
     {"monoid": {"size": 1, "identity": 0, "table": [[0]]},
      "carrier": ["c"], "action": [[0]]}),
    (["arrow-check", "--ctx", "ordered-msets", "--A", "fixed1",
      "--B", "fixed2", "--C", FILE, "-k", "2"],
     {"monoid": {"size": 2, "identity": 0, "table": [[0, 1], [1, 0]]},
      "carrier": ["c"], "action": [[0], [0]]}),
    (["forest", "--decode", FILE], {"carrier": ["c"], "structure": [["c"]]}),
], ids=["validate-mset", "arrow-check-C", "forest-decode"])
def test_unhashable_order_label_exits_1_naming_the_file(capsys, files, argv,
                                                        obj, label):
    path = files["tmp"] / "input.json"
    path.write_text(json.dumps(dict(obj, order=[label])))
    code, report, err = run(capsys, _with_file(files, argv, path))
    assert code == 1 and report is None
    assert err == (f"input error: {path}: order label {label!r} is not in "
                   "the carrier\n")


def test_bigramsey_coloring_out_of_range_names_index_and_value(capsys,
                                                                files):
    path = files["tmp"] / "coloring.json"
    path.write_text(json.dumps([0, 1, 5, 0, -1, 1]))   # |R| = C(4, 2)
    code, report, err = run(capsys, [
        "bigramsey", "--A", files["pair"], "--N", "4", "--k", "2",
        "--coloring", str(path)])
    assert code == 1 and report is None
    assert err == (f"input error: {path}: coloring value 5 at index 2 is "
                   "out of range for k = 2\n")


def test_forest_without_encode_or_decode_exits_1(capsys):
    code, report, err = run(capsys, ["forest"])
    assert code == 1 and report is None
    assert "input error: forest: give --encode or --decode" in err
