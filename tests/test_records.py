"""The result records keep the contract they had as dataclasses, and the
package imports none of the slow standard modules that dataclasses,
inspect and secrets would bring in."""

import copy
import dataclasses
import inspect
import os
import pickle
import subprocess
import sys
from fractions import Fraction

import pytest

from ramseylab.coloring import (CnfDocument, EdgeColoring, GlobalVerdict, RamseyQuery,
                                RamseyVerdict, SearchStats)
from ramseylab.facts import FactReport
from ramseylab.graphs import Pattern, clique, clique_graph, cycle_graph
from ramseylab.perturb import DrcReport, MonteCarloRow, ScanResult
from ramseylab.thresholds import ThresholdAnswer

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
MISSING = dataclasses.MISSING
K3 = clique_graph(3)
COLORING = EdgeColoring(K3, 2, (0, 1, 0))
ROW = MonteCarloRow(5, 0.1, 10, 3, 1, 0.1, 0.6)

# (class, frozen, [(field, default)] as the dataclass declared them, where
# list/dict/SearchStats stand for a default factory, and sample values)
RECORDS = [
    (RamseyQuery, True,
     [("host", MISSING), ("targets", MISSING), ("forbidden", MISSING),
      ("node_budget", 10 ** 8)],
     (K3, ((clique(3),), (clique(3),)), (frozenset(), frozenset()), 5)),
    (SearchStats, False,
     [("nodes", 0), ("checks", 0), ("elapsed", 0.0), ("note", ""), ("backjumps", 0),
      ("max_depth", 0), ("symmetry_cuts", 0), ("route", "")],
     (1, 2, 0.5, "n", 3, 4, 5, "search")),
    (EdgeColoring, True,
     [("host", MISSING), ("r", MISSING), ("colors", MISSING)],
     (K3, 2, (0, 1, 0))),
    (RamseyVerdict, False,
     [("status", MISSING), ("witness", None), ("stats", SearchStats)],
     ("not_ramsey", COLORING, SearchStats(7))),
    (GlobalVerdict, False,
     [("status", MISSING), ("subset", None), ("witness", None),
      ("subsets_checked", 0), ("note", "")],
     ("not_globally_ramsey", (0, 1), COLORING, 3, "x")),
    (CnfDocument, False,
     [("nvars", MISSING), ("clauses", MISSING), ("comments", MISSING)],
     (2, [(1, 2), (-1,)], ["c"])),
    (Pattern, True,
     [("kind", MISSING), ("size", 0), ("graph", None)],
     ("arbitrary", 0, cycle_graph(4))),
    (MonteCarloRow, False,
     [("n", MISSING), ("p", MISSING), ("trials", MISSING), ("successes", MISSING),
      ("inconclusive", MISSING), ("wilson_lo", MISSING), ("wilson_hi", MISSING)],
     (5, 0.1, 10, 3, 1, 0.1, 0.6)),
    (ScanResult, False,
     [("rows", MISSING), ("crossings", MISSING), ("exponent", MISSING),
      ("flags", list)],
     ([ROW], {5: 0.2}, None, ["flag"])),
    (DrcReport, False,
     [("selected", MISSING), ("removed", MISSING), ("samples", MISSING),
      ("subsets_checked", MISSING), ("verified", MISSING), ("error", "")],
     ([1], [2], [[3, 4]], 4, True, "e")),
    (ThresholdAnswer, True,
     [("kind", MISSING), ("exponent", None), ("lo", None), ("hi", None),
      ("provenance", ""), ("note", "")],
     ("interval", None, Fraction(1, 3), Fraction(1, 2), "prov", "note")),
    (FactReport, False,
     [("fact_id", MISSING), ("statement", MISSING), ("status", MISSING),
      ("certificate", dict), ("exploration", dict), ("runtime", 0.0)],
     ("id", "stmt", "verified", {"a": 1}, {"b": [2]}, 0.5)),
]
IDS = [cls.__name__ for cls, *_ in RECORDS]
FACTORIES = (list, dict, SearchStats)
# a Pattern needs a size or a graph besides its kind
SHORTEST = {Pattern: ("clique", 3)}


def _reference(cls, frozen, spec):
    """The dataclass the record used to be."""
    fields = []
    for name, default in spec:
        if default is MISSING:
            fields.append(name)
        elif default in FACTORIES:
            fields.append((name, object, dataclasses.field(default_factory=default)))
        else:
            fields.append((name, object, dataclasses.field(default=default)))
    return dataclasses.make_dataclass(cls.__name__, fields, frozen=frozen)


def _required(cls, spec, values):
    """The shortest valid positional arguments: the fields without a default."""
    return SHORTEST.get(cls, values[:sum(default is MISSING for _, default in spec)])


@pytest.mark.parametrize("cls, frozen, spec, values", RECORDS, ids=IDS)
class TestRecordContract:
    def test_signature(self, cls, frozen, spec, values):
        params = list(inspect.signature(cls).parameters.values())
        assert [p.name for p in params] == [name for name, _ in spec]
        for param, (_, default) in zip(params, spec):
            if default is MISSING:
                assert param.default is inspect.Parameter.empty
            elif default in FACTORIES:
                assert param.default is None
            else:
                assert param.default == default
        assert cls.__match_args__ == tuple(name for name, _ in spec)

    def test_positional_and_keyword_construction(self, cls, frozen, spec, values):
        names = [name for name, _ in spec]
        by_position = cls(*values)
        by_keyword = cls(**dict(zip(names, values)))
        assert by_position == by_keyword
        assert [getattr(by_keyword, name) for name in names] == list(values)
        required = _required(cls, spec, values)
        defaults = cls(*required)
        ref = _reference(cls, frozen, spec)(*required)
        assert [getattr(defaults, name) for name in names] == \
            [getattr(ref, name) for name in names]

    def test_repr_is_the_dataclass_text(self, cls, frozen, spec, values):
        ref = _reference(cls, frozen, spec)
        assert repr(cls(*values)) == repr(ref(*values))
        required = _required(cls, spec, values)
        assert repr(cls(*required)) == repr(ref(*required))

    def test_equality(self, cls, frozen, spec, values):
        a, b = cls(*values), cls(*values)
        assert a == b and not a != b
        other = cls(*_required(cls, spec, values))
        assert (a == other) == (values == tuple(getattr(other, n) for n, _ in spec))
        for cls2, _, _, values2 in RECORDS:
            if cls2 is not cls:
                assert a.__eq__(cls2(*values2)) is NotImplemented
                assert a != cls2(*values2)
        ref = _reference(cls, frozen, spec)(*values)
        assert a.__eq__(ref) is NotImplemented and a != ref

    def test_hash_and_mutability(self, cls, frozen, spec, values):
        a, b = cls(*values), cls(*values)
        name = spec[0][0]
        if frozen:
            assert hash(a) == hash(b)
            assert hash(a) == hash(_reference(cls, frozen, spec)(*values))
            with pytest.raises(AttributeError, match="cannot assign"):
                setattr(a, name, values[0])
            with pytest.raises(AttributeError, match="cannot assign"):
                a.extra = 1
            with pytest.raises(AttributeError, match="cannot delete"):
                delattr(a, name)
            assert a == b
        else:
            with pytest.raises(TypeError):
                hash(a)
            setattr(a, name, "changed")
            assert getattr(a, name) == "changed" and a != b

    def test_pickle_and_deepcopy(self, cls, frozen, spec, values):
        a = cls(*values)
        for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
            back = pickle.loads(pickle.dumps(a, protocol))
            assert type(back) is cls and back == a and repr(back) == repr(a)
        dup = copy.deepcopy(a)
        assert type(dup) is cls and dup == a and dup is not a
        assert copy.copy(a) == a


@pytest.mark.parametrize("cls, args, field", [
    (RamseyVerdict, ("ramsey",), "stats"),
    (FactReport, ("id", "stmt", "verified"), "certificate"),
    (FactReport, ("id", "stmt", "verified"), "exploration"),
    (ScanResult, ([], {}, None), "flags"),
])
def test_mutable_defaults_are_fresh(cls, args, field):
    a, b = cls(*args), cls(*args)
    assert getattr(a, field) == getattr(b, field)
    assert getattr(a, field) is not getattr(b, field)


@pytest.mark.parametrize("args, message", [
    (("square",), "unknown pattern kind 'square'"),
    (("clique", 0), "clique size must be >= 1"),
    (("cycle", 2), "cycle length must be >= 3"),
    (("path", 0), "path vertex count must be >= 1"),
    (("arbitrary",), "arbitrary pattern needs a nonempty graph"),
    (("arbitrary", 0, clique_graph(0)), "arbitrary pattern needs a nonempty graph"),
])
def test_pattern_validation(args, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        Pattern(*args)


@pytest.mark.parametrize("args, message", [
    ((K3, 2, (0, 1)), "color count does not match edge count"),
    ((K3, 0, ()), "color count does not match edge count"),
    ((K3, 0, (0, 0, 0)), "colors must lie in 0..r-1"),
    ((K3, 2, (0, 2, 1)), "colors must lie in 0..r-1"),
    ((K3, 2, (0, -1, 1)), "colors must lie in 0..r-1"),
])
def test_edge_coloring_validation(args, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        EdgeColoring(*args)


def test_import_footprint():
    """import ramseylab loads none of these slow standard modules (beyond
    what the interpreter's start-up already loaded)."""
    slow = ("dataclasses", "inspect", "secrets", "hashlib", "ast", "dis")
    code = ("import sys; before = set(sys.modules); import ramseylab; "
            f"print(','.join(m for m in {slow!r} if m in set(sys.modules) - before))")
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == ""
