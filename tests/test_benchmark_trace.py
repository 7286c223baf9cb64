"""The benchmark's layer tracer still finds and counts every function it
traces: a renamed target, or a result that no longer fits its counter,
would drop that target's metrics from the benchmark's result line."""

import json
from pathlib import Path

import msetramsey.cli
from msetramsey.forests import fig1_forest
from msetramsey.ramsey import ForestContext

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

Z2 = {"size": 2, "identity": 0, "table": [[0, 1], [1, 0]]}
TRIVIAL = {"size": 1, "identity": 0, "table": [[0]]}


def _fixed_points(n, monoid=Z2, ordered=True):
    labels = [f"v{i}" for i in range(n)]
    rows = [list(range(n))] * len(monoid["table"])
    obj = {"monoid": monoid, "carrier": labels, "action": rows}
    if ordered:
        obj["order"] = labels
    return obj


def test_tracer_finds_every_target_and_counts_every_result(
        monkeypatch, tmp_path, capsys):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layertrace
    assert layertrace.PACKAGE == msetramsey.cli.__package__

    def write(name, obj):
        path = tmp_path / name
        path.write_text(json.dumps(obj))
        return str(path)

    one, two, three = (write(f"fixed{n}.json", _fixed_points(n))
                       for n in (1, 2, 3))
    pair = write("pair.json", _fixed_points(2, TRIVIAL))
    points = write("points.json", _fixed_points(2, ordered=False))
    z2 = write("z2.json", Z2)
    forest = write("forest.json", {"carrier": ["x", "y"],
                                   "parent": {"x": "x", "y": "x"},
                                   "order": ["x", "y"]})
    coalgebra = write("coalgebra.json", {"carrier": ["x", "y"],
                                         "structure": [["x"], ["y", "x"]]})
    runs = (
        ["arrow-check", "--ctx", "ordered-msets", "--A", one, "--B", two,
         "--C", three, "-k", "2"],
        ["degree-probe", "--ctx", "msets", "--A", points, "--budget",
         "tiny"],
        ["bigramsey", "--A", pair, "--N", "4", "--k", "2"],
        ["transport", "--U", one, "--V", two, "-k", "2"],
        ["laws", "--functor", "monoid_action", "--monoid", z2, "--size",
         "2"],
        ["forest", "--encode", forest],
        ["forest", "--decode", coalgebra],
    )
    with layertrace.Tracer() as tracer:
        assert tracer.missing == []
        # through the module, as the benchmark calls it, so that the
        # wrapped main is the one called
        codes = [msetramsey.cli.main(argv) for argv in runs]
        # no subcommand reaches the forest hom-set; the benchmark calls it
        fig1 = fig1_forest()
        assert ForestContext().hom(fig1, fig1)
    capsys.readouterr()
    assert codes == [0] * len(runs)
    assert tracer.count_failures == set()
    assert tracer.calls["cli.main"] == len(runs)
    for metric in ("mset.enumerate_embeddings", "ramsey._all_actions",
                   "ramsey.hom", "ramsey.ForestContext.hom",
                   "ramsey.composite_images",
                   "ramsey._search_bad_coloring",
                   "bigramsey.big_ramsey_reduce", "transport.hat_E",
                   "comonad.check_comonad_laws", "forests.encode_forest",
                   "forests.decode_coalgebra", "io.file_sha256",
                   "io.dump_report"):
        assert tracer.calls[metric] > 0, metric
