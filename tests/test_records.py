"""The package's value types: equality, hashing, repr, immutability and
construction, pinned type by type, and an import that generates no code."""

import copy
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from msetramsey.bigramsey import AggregateBound, ReductionRecord, \
    ReductionResult
from msetramsey.chains import Chain, ChainEmbedding
from msetramsey.comonad import Coalgebra, CoalgebraHom, LawReport
from msetramsey.errors import InputError
from msetramsey.forests import RootedForest
from msetramsey.monoid import FiniteMonoid
from msetramsey.mset import MSet, MSetMorphism, UnaryAlgebra
from msetramsey.ramsey import ArrowVerdict, Coloring, DegreeProbe, \
    ProbeBudget
from msetramsey.transport import LexLift, TransportedWitness, WeakCoalgebra

SRC = Path(__file__).resolve().parent.parent / "src"

# (type, field names, field values, repr of the instance); every value
# is hashable, except where a type's own check needs a dict
FROZEN = [
    (FiniteMonoid, ("table", "identity", "well_order"),
     (((0,),), 0, (0,)),
     "FiniteMonoid(table=((0,),), identity=0, well_order=(0,))"),
    (Chain, ("labels",), (("a", "b"),), "Chain(labels=('a', 'b'))"),
    (ChainEmbedding, ("source", "target", "map"),
     (Chain((1,)), Chain((1, 2)), (1,)),
     "ChainEmbedding(source=Chain(labels=(1,)), "
     "target=Chain(labels=(1, 2)), map=(1,))"),
    (RootedForest, ("carrier", "parent", "order"),
     (("r", "c"), (0, 0), (1, 0)),
     "RootedForest(carrier=('r', 'c'), parent=(0, 0), order=(1, 0))"),
    (MSet, ("monoid", "carrier", "action", "order"),
     ("M", ("x", "y"), ((0, 1),), (1, 0)),
     "MSet(monoid='M', carrier=('x', 'y'), action=((0, 1),), "
     "order=(1, 0))"),
    (MSetMorphism, ("source", "target", "map"), ("A", "B", (2, 0)),
     "MSetMorphism(source='A', target='B', map=(2, 0))"),
    (UnaryAlgebra, ("alphabet", "carrier", "actions"),
     (("f",), ("x", "y"), {"f": (1, 1)}),
     "UnaryAlgebra(alphabet=('f',), carrier=('x', 'y'), "
     "actions={'f': (1, 1)})"),
    (Coalgebra, ("functor", "carrier", "structure"),
     ("E", ("x",), ((0,),)),
     "Coalgebra(functor='E', carrier=('x',), structure=((0,),))"),
    (CoalgebraHom, ("source", "target", "map"), ("C", "D", (("x", "y"),)),
     "CoalgebraHom(source='C', target='D', map=(('x', 'y'),))"),
    (LexLift, ("base", "lifted", "functions", "index"),
     ("W", "L", ((0,), (1,)), {(0,): 0, (1,): 1}),
     "LexLift(base='W', lifted='L', functions=((0,), (1,)))"),
    (WeakCoalgebra, ("lift", "embedding"), ("L", "e"),
     "WeakCoalgebra(lift='L', embedding='e')"),
    (TransportedWitness, ("lift", "verdict"), ("L", "v"),
     "TransportedWitness(lift='L', verdict='v')"),
    (ReductionRecord, ("f", "rho_blocks", "ell", "subchain", "f_star"),
     ("f", ((0, 1),), 0, "S", "g"),
     "ReductionRecord(f='f', rho_blocks=((0, 1),), ell=0, subchain='S', "
     "f_star='g')"),
]

MUTABLE = [
    (LawReport, ("laws",), ([("law", True, None)],),
     "LawReport(laws=[('law', True, None)])"),
    (Coloring, ("colors", "k"), ((0, 1, 1), 2),
     "Coloring(colors=(0, 1, 1), k=2)"),
    (ArrowVerdict, ("status", "bad_coloring", "reason", "witness_stats"),
     ("refuted", Coloring((0,), 1), "r", {"n": 1}),
     "ArrowVerdict(status='refuted', bad_coloring=Coloring(colors=(0,), "
     "k=1), reason='r', witness_stats={'n': 1})"),
    (DegreeProbe, ("lower", "upper", "evidence"), (1, 2, {"e": 3}),
     "DegreeProbe(lower=1, upper=2, evidence={'e': 3})"),
    (ProbeBudget, ("max_b_size", "max_c_size", "max_k"), (2, 3, 2),
     "ProbeBudget(max_b_size=2, max_c_size=3, max_k=2)"),
    (ReductionResult, ("u", "colors_used", "bound", "tower", "step_colors",
                       "r_size"), ("u", 1, 2, (9, 5), (0,), 7),
     "ReductionResult(u='u', colors_used=1, bound=2, tower=(9, 5), "
     "step_colors=(0,), r_size=7)"),
    (AggregateBound, ("aggregate", "formula", "within_formula"),
     (3, 4, True),
     "AggregateBound(aggregate=3, formula=4, within_formula=True)"),
]

CASES = FROZEN + MUTABLE
IDS = [case[0].__name__ for case in CASES]
UNHASHABLE = (UnaryAlgebra,)    # its actions are a dict
# types whose constructor checks its arguments
CHECKED = (Chain, ChainEmbedding, RootedForest, MSet, UnaryAlgebra,
           Coloring)


def test_every_value_type_is_covered():
    assert len(FROZEN) == 13 and len(MUTABLE) == 7
    assert len(set(IDS)) == 20


@pytest.mark.parametrize("cls, names, values, text", CASES, ids=IDS)
def test_construction_equality_and_repr(cls, names, values, text):
    obj = cls(*values)
    assert repr(obj) == text
    assert cls(**dict(zip(names, values))) == obj
    assert obj == cls(*values) and not obj != cls(*values)
    assert all(getattr(obj, n) == v for n, v in zip(names, values))
    assert obj != values and values != obj


@pytest.mark.parametrize("cls, names, values, text", CASES, ids=IDS)
def test_equality_is_by_value_and_within_one_type(cls, names, values,
                                                  text):
    obj = cls(*values)
    for other, _, other_values, _ in CASES:
        if other not in (cls,) + CHECKED and \
                len(other_values) == len(values):
            twin = other(*values)
            assert obj != twin and twin != obj
    if cls not in CHECKED:
        assert cls("changed", *values[1:]) != obj


@pytest.mark.parametrize("cls, names, values, text", FROZEN,
                         ids=IDS[:len(FROZEN)])
def test_frozen_types_hash_by_value_and_refuse_changes(cls, names,
                                                       values, text):
    obj, twin = cls(*values), cls(*values)
    if cls in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(obj)
    else:
        assert hash(obj) == hash(twin)
        assert {obj: 1}[twin] == 1
        # the hash of the compared fields' tuple, as before, so the
        # iteration order of sets and dicts of these values is kept
        assert hash(obj) == hash(tuple(getattr(obj, n) for n in names
                                       if n != "index"))
    for name in names + ("not_a_field",):
        with pytest.raises(AttributeError):
            setattr(obj, name, 0)
    for name in names:
        with pytest.raises(AttributeError):
            delattr(obj, name)
    assert obj == twin


@pytest.mark.parametrize("cls, names, values, text", MUTABLE,
                         ids=IDS[len(FROZEN):])
def test_mutable_types_are_unhashable_and_settable(cls, names, values,
                                                   text):
    obj = cls(*values)
    with pytest.raises(TypeError):
        hash(obj)
    setattr(obj, names[-1], "changed")
    assert getattr(obj, names[-1]) == "changed" and obj != cls(*values)


@pytest.mark.parametrize("cls, names, values, text", CASES, ids=IDS)
def test_copies_and_pickles_keep_every_field(cls, names, values, text):
    obj = cls(*values)
    for twin in (copy.copy(obj), copy.deepcopy(obj),
                 pickle.loads(pickle.dumps(obj))):
        assert type(twin) is cls and twin == obj and twin is not obj
        assert all(getattr(twin, n) == getattr(obj, n) for n in names)


def test_hidden_fields_are_neither_compared_nor_shown():
    one = LexLift("W", "L", ((0,),), {(0,): 0})
    other = LexLift("W", "L", ((0,),), {})
    assert one == other and hash(one) == hash(other)
    assert one.index == {(0,): 0} and "index" not in repr(one)
    ms = MSet("M", ("x", "y", "z"), ((0, 1, 2),), (2, 0, 1))
    assert ms.positions == (1, 2, 0) and "positions" not in repr(ms)
    assert pickle.loads(pickle.dumps(ms)).positions == (1, 2, 0)
    assert MSet("M", ("x",), ((0,),)).positions is None
    assert ms == MSet("M", ("x", "y", "z"), ((0, 1, 2),), (2, 0, 1))
    assert hash(ms) == hash(("M", ("x", "y", "z"), ((0, 1, 2),), (2, 0, 1)))
    forest = RootedForest(("x", "y", "z"), (0, 0, 0), (2, 0, 1))
    assert forest.positions == (1, 2, 0) and "positions" not in repr(forest)
    for twin in (copy.copy(forest), copy.deepcopy(forest),
                 pickle.loads(pickle.dumps(forest))):
        assert twin.positions == (1, 2, 0)
    assert RootedForest(("x",), (0,)).positions is None
    assert forest == RootedForest(("x", "y", "z"), (0, 0, 0), (2, 0, 1))
    assert hash(forest) == hash((("x", "y", "z"), (0, 0, 0), (2, 0, 1)))


def test_defaults_and_fresh_containers():
    assert RootedForest((0,), (0,)).order is None
    assert MSet("M", ("x",), ((0,),)).order is None
    assert ProbeBudget() == ProbeBudget(3, 4, 3) == ProbeBudget(
        max_b_size=3, max_c_size=4, max_k=3)
    assert ProbeBudget(2, max_k=1) == ProbeBudget(2, 4, 1)
    verdict = ArrowVerdict("holds")
    assert (verdict.bad_coloring, verdict.reason, verdict.witness_stats) \
        == (None, "", {})
    assert ArrowVerdict("holds", reason="r").reason == "r"
    assert ArrowVerdict("x").witness_stats is not verdict.witness_stats
    probe = DegreeProbe(1, 2)
    assert probe.evidence == {} and DegreeProbe(1, 2).evidence \
        is not probe.evidence
    report = LawReport()
    assert report.laws == [] and LawReport().laws is not report.laws
    report.record("law")
    assert LawReport().laws == []


def test_constructors_normalise_sequences():
    assert Chain([1, 2]).labels == (1, 2)
    assert Chain([1, 2]) == Chain((1, 2))
    emb = ChainEmbedding(Chain((1,)), Chain((1, 2)), [1])
    assert emb.map == (1,)


@pytest.mark.parametrize("build, error, match", [
    (lambda: MSet("M", ("x", "y"), ((0, 1),), (0, 0)), InputError,
     "not a permutation"),
    (lambda: MSet("M", ("x", "y"), ((0, 1),), (0,)), InputError,
     "not a permutation"),
    (lambda: RootedForest(("x", "y"), (0, 0), (0, 0)), InputError,
     "not a permutation"),
    (lambda: RootedForest(("x", "y"), (0, 0), (0,)), InputError,
     "not a permutation"),
    (lambda: UnaryAlgebra(("f",), ("x",), {}), InputError,
     "no generator action for symbol 'f'"),
    (lambda: UnaryAlgebra(("f",), ("x",), {"f": (1,)}), InputError,
     "malformed"),
    (lambda: UnaryAlgebra(("f",), ("x",), {"f": (0,), "g": (0,)}),
     InputError, "'g', which is not in the alphabet"),
    (lambda: Coloring((0, 2), 2), ValueError, "color out of range"),
    (lambda: Chain(("a", "a")), InputError, "not distinct"),
    (lambda: ChainEmbedding(Chain((1,)), Chain((1, 2)), (0, 1)),
     InputError, "not total"),
    (lambda: ChainEmbedding(Chain((1, 2)), Chain((1, 2)), (1, 0)),
     InputError, "not strictly increasing"),
    (lambda: ChainEmbedding(Chain((1,)), Chain((1, 2)), (2,)),
     InputError, "leaves the target"),
], ids=["mset-order-repeat", "mset-order-short", "forest-order-repeat",
        "forest-order-short", "unary-missing",
        "unary-malformed", "unary-extra", "coloring", "chain",
        "embedding-total", "embedding-increasing", "embedding-range"])
def test_construction_checks_still_raise(build, error, match):
    with pytest.raises(error, match=match):
        build()


def test_importing_the_cli_generates_no_code():
    """A cold import of the CLI loads neither dataclasses nor inspect,
    which dataclasses imports and which is slow to compile."""
    script = ("import sys; sys.path.insert(0, sys.argv[1]); "
              "import msetramsey.cli; "
              "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    done = subprocess.run([sys.executable, "-S", "-c", script, str(SRC)],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
