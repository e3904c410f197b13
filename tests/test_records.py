"""The record classes: their fields, construction, immutability and repr.

Most records are ``typing.NamedTuple`` classes; the two that keep derived
state (``JointTable``, ``DerivationResult``) are plain classes. Either way a
record builds positionally or by keyword, refuses attribute assignment,
compares by its field values, hashes as the tuple of them, prints as
``Name(field=value, ...)`` and copies and pickles. Importing the package
loads none of ``dataclasses``, ``hashlib`` and ``inspect``, and the package
exports exactly the names pinned here.
"""

import copy
import inspect
import os
import pickle
import subprocess
import sys
from fractions import Fraction

import pytest

import obscon
from obscon import (
    CIStatement,
    ConditionReport,
    Configuration,
    Constraint,
    DerivationResult,
    DeriveOptions,
    District,
    FunctionalSystem,
    GraphStructureError,
    HRep,
    JointTable,
    RewriteLog,
    TableError,
    Variable,
    ViolationReport,
    VRep,
    derive_all,
    parse_graph,
)
from obscon.constraints import CIStatus, DistrictResult
from obscon.fixtures import FIXTURE_GRAPHS
from obscon.response import DEFAULT_COLUMN_LIMIT
from obscon.transform import RewriteStep

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")

REQUIRED = inspect.Parameter.empty
STATEMENT = CIStatement(("A",), ("B",), ("C",))
CONSTRAINT = Constraint(((0, 1), (2, -1)), "<=", 0, True, 3)
STEP = RewriteStep("exogenize", "made U exogenous", (("add_edge", "Z", "X"),))
CI_STATUS = CIStatus(STATEMENT, "satisfied", Fraction(0))
DISTRICT_RESULT = DistrictResult(("A", "B"), 1, None, (CONSTRAINT,))
GRAPH = parse_graph("var A 2\nvar B 2\nlatent U\nedge U A\nedge U B\n")

# class: ((field, default), ...) in order, and the values of one instance
RECORDS = {
    Variable: ((("name", REQUIRED), ("kind", REQUIRED), ("cardinality", None)),
               ("A", "observed", 2)),
    District: ((("members", REQUIRED), ("latents", REQUIRED)), (("A", "B"), ("U",))),
    ConditionReport: ((("violations", ()),), ((("C1", "U", "latent has parents A"),),)),
    CIStatement: ((("lhs", REQUIRED), ("rhs", REQUIRED), ("given", REQUIRED)),
                  (("A",), ("B",), ("C",))),
    VRep: ((("points", REQUIRED),), (((0, 2), (2, 1)),)),
    HRep: ((("ineq", REQUIRED), ("eq", REQUIRED)), ((((1, 0), 1),), (((0, 1), 0),))),
    Configuration: ((("items", REQUIRED),), ((("A", 0), ("B", 1)),)),
    FunctionalSystem: ((("names", REQUIRED), ("shape", REQUIRED)),
                       (("A", "B"), (2, (2, 2), ((), ()), (0, 1)))),
    RewriteStep: ((("rule", REQUIRED), ("description", REQUIRED), ("edits", REQUIRED)),
                  ("exogenize", "made U exogenous", (("add_edge", "Z", "X"),))),
    RewriteLog: ((("steps", ()),), ((STEP,),)),
    Constraint: ((("terms", REQUIRED), ("relation", REQUIRED), ("rhs", REQUIRED),
                  ("flagged", REQUIRED), ("witness", REQUIRED)),
                 (((0, 1), (2, -1)), "<=", 0, True, 3)),
    DeriveOptions: ((("merge", False), ("max_ci_size", None),
                     ("column_limit", DEFAULT_COLUMN_LIMIT), ("timings", False)),
                    (True, 3, 1000, True)),
    CIStatus: ((("statement", REQUIRED), ("status", REQUIRED), ("margin", REQUIRED)),
               (STATEMENT, "violated", Fraction(1, 7))),
    ViolationReport: ((("constraint_statuses", REQUIRED), ("ci_statuses", REQUIRED),
                       ("tolerance", REQUIRED)),
                      ((), (CI_STATUS,), Fraction(1, 10 ** 9))),
    DistrictResult: ((("members", REQUIRED), ("c_degree", REQUIRED), ("system", REQUIRED),
                      ("constraints", REQUIRED)),
                     (("A", "B"), 1, None, (CONSTRAINT,))),
    # meta's default None stands for a new empty dict (see below)
    DerivationResult: ((("fingerprint", REQUIRED), ("graph_text", REQUIRED),
                        ("derived_graph", REQUIRED), ("merged", REQUIRED),
                        ("ci_statements", REQUIRED), ("districts", REQUIRED),
                        ("meta", None)),
                       ("0" * 64, GRAPH.to_text(), GRAPH, False, (STATEMENT,),
                        (DISTRICT_RESULT,), {"tool": "obscon"})),
    JointTable: ((("variables", REQUIRED), ("cardinalities", REQUIRED), ("probs", REQUIRED),
                  ("decimal_source", False)),
                 (("A",), (2,), {(0,): Fraction(1, 3), (1,): Fraction(2, 3)}, True)),
}


def test_every_record_is_listed():
    # the former dataclasses but the test reference ResponseSpec, and no
    # record is left out of the contract
    assert len(RECORDS) == 17


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_record_contract(cls):
    fields, values = RECORDS[cls]
    names = tuple(name for name, _ in fields)
    assert cls._fields == names
    assert [(p.name, p.default) for p in inspect.signature(cls).parameters.values()] \
        == list(fields)

    record = cls(*values)
    assert tuple(getattr(record, name) for name in names) == values
    assert record == cls(**dict(zip(names, values)))
    assert not record != cls(*values)
    assert repr(record) == (
        f"{cls.__name__}(" + ", ".join(f"{n}={v!r}" for n, v in zip(names, values)) + ")")

    assert copy.copy(record) == record == pickle.loads(pickle.dumps(record))

    for name in names + ("not_a_field",):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    assert tuple(getattr(record, name) for name in names) == values

    try:
        expected = hash(values)
    except TypeError:  # a dict field: unhashable, as a frozen dataclass was
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == hash(cls(*values)) == expected


def test_defaults_build_records():
    assert Variable("U", "latent").cardinality is None
    assert ConditionReport().violations == () and ConditionReport().ok
    assert RewriteLog().steps == () and RewriteLog().lines() == []
    assert RewriteLog((STEP,)) + RewriteLog() == RewriteLog((STEP,))
    assert DeriveOptions() == DeriveOptions(False, None, DEFAULT_COLUMN_LIMIT, False)
    assert JointTable(("A",), (2,), {(0,): 1}).decimal_source is False
    # each derivation gets its own meta dict
    fields = RECORDS[DerivationResult][1][:-1]
    first, second = DerivationResult(*fields), DerivationResult(*fields)
    assert first.meta == {} and first.meta is not second.meta


def test_derived_state_stays_out_of_equality():
    table = JointTable(*RECORDS[JointTable][1])
    assert table.denominator == 3
    table.prob({"A": 1})
    assert table == JointTable(*RECORDS[JointTable][1])
    assert "denominator" not in repr(table) and "_marginals" not in repr(table)
    dag = parse_graph(FIXTURE_GRAPHS["iv"])
    result = derive_all(dag)
    record = result.districts[1]
    assert result.check_plans is result.check_plans  # a cached_property value
    fresh = derive_all(dag)
    assert record == fresh.districts[1] and hash(record) == hash(fresh.districts[1])
    assert result == fresh
    assert "check_plans" not in repr(result)


@pytest.mark.parametrize("args, message", [
    (("A", "weird"), "unknown variable kind 'weird'"),
    (("A", "observed"), "observed variable 'A' needs cardinality >= 2"),
    (("A", "observed", 1), "observed variable 'A' needs cardinality >= 2"),
    (("U", "latent", 2), "latent variable 'U' must not carry a cardinality"),
])
def test_variable_rejects_bad_input(args, message):
    with pytest.raises(GraphStructureError) as exc:
        Variable(*args)
    assert str(exc.value) == message


def test_replace_checks_variables_too():
    with pytest.raises(GraphStructureError, match="needs cardinality >= 2"):
        Variable("A", "observed", 2)._replace(cardinality=1)


@pytest.mark.parametrize("points, message", [
    ((), "VRep needs at least one point"),
    (((0, 1), (1,)), "points have inconsistent dimensions"),
    (((0, 1), (1, Fraction(1, 2))), "coordinates must be int, not Fraction"),
    (((0, 1), (1, 0.5)), "coordinates must be int, not float"),
    (((0, 1), (True, 0)), "coordinates must be int, not bool"),
])
def test_vrep_rejects_bad_input(points, message):
    with pytest.raises(ValueError) as exc:
        VRep(points)
    assert str(exc.value) == message
    with pytest.raises(ValueError) as exc:
        VRep(((0, 0),))._replace(points=points)
    assert str(exc.value) == message


@pytest.mark.parametrize("probs, message", [
    ({(0, 1): 1}, "configuration arity mismatch"),
    ({(2,): 1}, "value 2 out of range in (2,)"),
    ({(0,): Fraction(-1, 2), (1,): Fraction(3, 2)}, "negative probability for (0,)"),
    ({(0,): Fraction(1, 2)}, "probabilities sum to 1/2, expected 1"),
    ({(0,): 0.5, (1,): Fraction(1, 2)}, "probability for (0,) is a float, not an int or Fraction"),
    # a row that fails several checks gets the first one's message, and a
    # row's message comes before any later row's
    ({(0, 1): -0.5, (0,): 1}, "configuration arity mismatch"),
    ({(2,): -0.5, (0,): 1}, "value 2 out of range in (2,)"),
    ({(-1,): -0.5, (0,): 1}, "value -1 out of range in (-1,)"),
    ({(0,): -0.5, (2,): 1}, "probability for (0,) is a float, not an int or Fraction"),
    ({(0,): Fraction(-1, 2), (1,): 0.5}, "negative probability for (0,)"),
    ({(1,): -1, (0,): 2}, "negative probability for (1,)"),
])
def test_joint_table_rejects_bad_input(probs, message):
    with pytest.raises(TableError) as exc:
        JointTable(("A",), (2,), probs)
    assert str(exc.value) == message


def test_import_loads_neither_dataclasses_nor_inspect():
    # -I ignores PYTHON* variables, -S skips site-packages hooks, -B writes
    # no bytecode; the last line lists what the import loads from outside
    # obscon and the standard library, which must be nothing. hashlib, which
    # loads OpenSSL, waits for derive_all's fingerprint
    code = ("import sys; sys.path.insert(0, sys.argv[1]); before = set(sys.modules); "
            "import obscon; print(obscon.__file__); "
            "print(sorted({'dataclasses', 'hashlib', 'inspect'} & set(sys.modules))); "
            "print(sorted({name.partition('.')[0] for name in set(sys.modules) - before}"
            " - {'obscon'} - sys.stdlib_module_names))")
    proc = subprocess.run([sys.executable, "-I", "-S", "-B", "-c", code, os.path.abspath(SRC)],
                          capture_output=True, text=True, check=True, timeout=60)
    module_file, loaded, outside = proc.stdout.splitlines()
    assert module_file.startswith(os.path.abspath(SRC))
    assert loaded == "[]"
    assert outside == "[]"


# the public surface: a name leaves or joins the package only with this list
PUBLIC_NAMES = {
    "__version__",
    "CIStatement", "ColumnLimitError", "ConditionReport", "ConditionsError",
    "Configuration", "Constraint", "DerivationResult", "DeriveOptions", "District",
    "FunctionalSystem", "GraphParseError", "GraphStructureError", "HRep", "HiddenDag",
    "JointTable", "RewriteError", "RewriteLog", "TableError",
    "UnboundedPolytopeError", "VRep", "Variable", "ViolationReport",
    "absorb_nested_latents", "build_functional_system", "d_separated", "derive_all",
    "enumerate_ci", "evaluate", "exogenize", "flag_nontrivial",
    "hlp_add_edge", "load_graph", "load_table", "merge_district_latents", "normalize",
    "parse_graph", "parse_table", "render", "replace_latent_with_edges",
    "star_probability", "strong_face_split", "v_to_h",
    "validate_conditions",
}


def test_public_names_are_pinned_and_resolve():
    assert len(obscon.__all__) == len(set(obscon.__all__))
    assert set(obscon.__all__) == PUBLIC_NAMES
    for name in obscon.__all__:
        assert hasattr(obscon, name), name
