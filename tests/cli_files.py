"""Input files for CLI runs, and every file option of every subcommand."""

import json
import os


def write_files(directory):
    """Write the valid input files into `directory`; {name: path}."""
    def write(name, obj):
        path = os.path.join(directory, name)
        with open(path, "w") as fh:
            json.dump(obj, fh)
        return path

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
    }


# Every file option of every subcommand, with the other options valid;
# FILE marks the option under test.
FILE = object()
FILE_OPTIONS = {
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


def with_file(files, argv, path):
    """`argv` with FILE replaced by `path` and file names by their paths;
    the subcommand, argv[0], is kept as it is."""
    return argv[:1] + [str(path) if arg is FILE else files.get(arg, arg)
                       for arg in argv[1:]]
