"""One attribute matrix format at every entry point, and distinct attribute names in files.

Every function that takes attribute values checks them through one helper
in ``rdsim.graph``, so they all give the same verdict on the same input:
a 0/1 vector or single column is accepted, while a second column, a row
vector, an empty input or a value other than 0 or 1 is a ``ValueError``.
The entry points are ``write_attributes`` (test id ``AttributeVector``: one
named vector), ``prevalence``, ``differential_activity``, ``mixing_counts``,
the dyad classes that ``fit_dyad_model`` and ``simulate_from_model`` share
(test id ``expected_statistics``), ``simulate_from_model``, ``run_rds`` and
``RecruitmentForest``. ``read_attributes`` returns the same checked matrix,
as ``(names, z)``, and names the file and the column of a value other than
0 or 1.
"""

import os
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays, from_dtype

from rdsim import (
    DyadModel,
    RecruitmentForest,
    SamplerConfig,
    differential_activity,
    mixing_counts,
    prevalence,
    read_attributes,
    read_forest,
    run_rds,
    simulate_from_model,
    write_attributes,
    write_forest,
)
from rdsim.cli import main
from rdsim.graph import _as_attributes
from rdsim.netgen import _PatternClasses
from rdsim.tables import read_table
from conftest import path_graph

N = 4
GRAPH = path_graph(N)
BASE = np.array([1, 0, 1, 0])
# the path 0-1-2-3 recruited as one chain
CHAIN = dict(
    nodes=[0, 1, 2, 3],
    recruiters=[-1, 0, 1, 2],
    waves=[0, 1, 2, 3],
    seed_ids=[0, 0, 0, 0],
    coupon_indices=[-1, 0, 0, 0],
    degrees=[1, 2, 2, 1],
)

# Each entry point in its one-attribute form.
ENTRY_POINTS = {
    # one named attribute vector, as the attribute file takes it
    "AttributeVector": lambda z: write_attributes(os.devnull, ("z",), z),
    "prevalence": prevalence,
    "differential_activity": lambda z: differential_activity(GRAPH, z),
    "mixing_counts": lambda z: mixing_counts(GRAPH, z),
    # the expected statistic vector of the dyad classes that fit_dyad_model and simulate_from_model share
    "expected_statistics": lambda z: _PatternClasses(z).expected(np.zeros(3)),
    "simulate_from_model": lambda z: simulate_from_model(DyadModel(np.zeros(3)), z, np.random.default_rng(0)),
    "run_rds": lambda z: run_rds(GRAPH, z, SamplerConfig(1, 2, N), np.random.default_rng(0), ("z",)),
    "RecruitmentForest": lambda z: RecruitmentForest(**CHAIN, attributes=z, attribute_names=("z",)),
}
SINGLE_COLUMN = {"AttributeVector", "prevalence", "differential_activity", "mixing_counts"}

# input -> accepted?
INPUTS = {
    "vector": (BASE, True),
    "column": (BASE[:, None], True),
    "bool vector": (BASE.astype(bool), True),
    "two columns": (np.column_stack([BASE, BASE]), False),
    "row": (BASE[None, :], False),
    "empty": (np.array([]), False),
    "no column": (np.zeros((N, 0), dtype=np.int8), False),
    "256": (np.array([256, 0, 1, 0]), False),
    "0.5": (np.array([0.5, 0.0, 1.0, 0.0]), False),
    "-1": (np.array([-1, 0, 1, 0]), False),
    "int8 2": (np.array([2, 0, 1, 0], dtype=np.int8), False),
    "uint8 255": (np.array([255, 0, 1, 0], dtype=np.uint8), False),
    "uint64 2**63": (np.array([2**63, 0, 1, 0], dtype=np.uint64), False),
    "nan": (np.array([np.nan, 0.0, 1.0, 0.0]), False),
    "float 0/1": (BASE.astype(np.float64), True),
    "bool matrix": (BASE.astype(bool)[:, None], True),
}


@pytest.mark.parametrize("entry", ENTRY_POINTS)
@pytest.mark.parametrize("case", INPUTS)
def test_every_entry_point_gives_the_same_verdict(entry, case):
    values, accepted = INPUTS[case]
    call = ENTRY_POINTS[entry]
    if accepted:
        call(values)
        return
    with pytest.raises(ValueError) as info:
        call(values)
    if entry in SINGLE_COLUMN and case in ("two columns", "row"):
        assert str(values.shape) in str(info.value)


DTYPES = (np.int8, np.int16, np.int64, np.uint8, np.uint64, np.float64, np.bool_)


@st.composite
def small_matrices(draw):
    """Small arrays of one dtype, mostly 0 and 1, sometimes any value of the dtype."""
    dtype = np.dtype(draw(st.sampled_from(DTYPES)))
    shape = draw(st.tuples(st.integers(1, 4), st.integers(1, 3)))
    elements = st.one_of(st.sampled_from([0, 1]).map(dtype.type), from_dtype(dtype))
    return draw(arrays(dtype, shape, elements=elements))


@settings(max_examples=400, deadline=None)
@given(z=small_matrices())
def test_attribute_check_accepts_exactly_the_zero_one_values(z):
    if np.isin(z, (0, 1)).all():
        assert np.array_equal(_as_attributes(z), z.astype(np.int8))
    else:
        with pytest.raises(ValueError, match="attribute values must be 0 or 1"):
            _as_attributes(z)


def test_accepted_values_become_a_read_only_int8_column():
    forest = RecruitmentForest(**CHAIN, attributes=BASE.astype(np.float64), attribute_names=("z",))
    assert forest.attributes.dtype == np.int8 and forest.attributes.shape == (N, 1)
    assert not forest.attributes.flags.writeable


def test_forest_columns_must_match_names():
    two = np.column_stack([BASE, BASE])
    with pytest.raises(ValueError, match=r"^1 attribute names for 2 columns \(shape \(4, 2\)\)$"):
        RecruitmentForest(**CHAIN, attributes=two, attribute_names=("z",))
    assert RecruitmentForest(**CHAIN, attributes=two, attribute_names=("a", "b")).attributes.shape == (N, 2)


def test_two_attribute_run_keeps_both_columns():
    z = np.column_stack([BASE, 1 - BASE])
    forest = run_rds(GRAPH, z, SamplerConfig(1, 2, N), np.random.default_rng(0))
    assert forest.attribute_names == ("z0", "z1")
    assert np.array_equal(forest.attributes, z[forest.nodes])


def test_read_attributes_returns_a_read_only_int8_matrix(tmp_path):
    path = tmp_path / "attributes.csv"
    path.write_text("node,a,b\n0,1,0\n1,0,0\n2,1,1\n")
    names, z = read_attributes(path)
    assert names == ("a", "b")
    assert z.dtype == np.int8 and z.shape == (3, 2) and not z.flags.writeable
    assert z.tolist() == [[1, 0], [0, 0], [1, 1]]


def test_attribute_vector_error_names_the_attribute(tmp_path):
    # a file value outside 0/1 names the file and its column; int8 would
    # wrap 256 to 0, so the check comes before the narrowing
    path = tmp_path / "attributes.csv"
    for value in (2, 256):
        path.write_text(f"node,cas,hiv\n0,1,0\n1,0,{value}\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: attribute 'hiv': .*0 or 1.*outside"):
            read_attributes(path)


def test_write_attributes_needs_one_column_per_name(tmp_path):
    path = tmp_path / "attributes.csv"
    with pytest.raises(ValueError, match=r"1 attribute names for 2 columns \(shape \(4, 2\)\)"):
        write_attributes(path, ("z",), np.column_stack([BASE, BASE]))
    with pytest.raises(ValueError, match=r"2 attribute names for 1 columns \(shape \(4,\)\)"):
        write_attributes(path, ("a", "b"), BASE)
    assert not path.exists()


# ---------------------------------------------------------------------------
# Repeated attribute names
# ---------------------------------------------------------------------------

EDGES_CSV = "src,dst\n0,1\n1,2\n"
FOREST_CSV = "node,recruiter,wave,seed_id,coupon_index,degree,z,z\n0,,0,0,,1,1,0\n1,0,1,0,0,2,0,1\n"


def test_read_table_rejects_a_repeated_name(tmp_path):
    path = tmp_path / "attributes.csv"
    path.write_text("node,a,b,a\n0,1,0,1\n")
    with pytest.raises(ValueError, match=f"{path}: column name 'a' is repeated"):
        read_table(path, ("node",), named=True)


def _fails_naming(capsys, argv, path, name):
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(path) in err and repr(name) in err


def test_rds_rejects_repeated_attribute_names(tmp_path, capsys):
    (tmp_path / "edges.csv").write_text(EDGES_CSV)
    attributes = tmp_path / "attributes.csv"
    attributes.write_text("node,z,z\n0,1,0\n1,0,1\n2,1,1\n")
    (tmp_path / "rds.cfg").write_text("[rds]\nseeds = 1\ncoupons = 2\nsample_size = 3\n")
    argv = [
        "rds",
        "--config", str(tmp_path / "rds.cfg"),
        "--edges", str(tmp_path / "edges.csv"),
        "--attributes", str(attributes),
        "--out", str(tmp_path / "out"),
    ]
    _fails_naming(capsys, argv, attributes, "z")
    assert not (tmp_path / "out").exists()


def test_estimate_rejects_repeated_attribute_names(tmp_path, capsys):
    forest = tmp_path / "forest.csv"
    forest.write_text(FOREST_CSV)
    _fails_naming(capsys, ["estimate", "--forest", str(forest), "--out", str(tmp_path / "out")], forest, "z")


def test_forest_rejects_a_repeated_attribute_name():
    with pytest.raises(ValueError, match="column name 'z' is repeated"):
        run_rds(GRAPH, np.column_stack([BASE, BASE]), SamplerConfig(1, 2, N), np.random.default_rng(0), ("z", "z"))


@pytest.mark.parametrize("names, empty", [(("a", ""), "''"), ((" ", "b"), "' '")])
def test_forest_rejects_an_empty_attribute_name(names, empty):
    with pytest.raises(ValueError, match=f"column name {empty} is empty"):
        RecruitmentForest(**CHAIN, attributes=np.column_stack([BASE, BASE]), attribute_names=names)


def test_write_attributes_rejects_a_repeated_or_empty_name(tmp_path):
    path = tmp_path / "attributes.csv"
    with pytest.raises(ValueError, match="column name 'z' is repeated"):
        write_attributes(path, ("z", "z"), np.column_stack([BASE, 1 - BASE]))
    with pytest.raises(ValueError, match="column name '' is empty"):
        write_attributes(path, ("",), BASE)
    assert not path.exists()


def test_names_that_differ_only_in_blanks_are_repeated(tmp_path):
    # read_table strips the header cells, so " z" reads back as "z"
    with pytest.raises(ValueError, match="column name 'z' is repeated"):
        write_attributes(tmp_path / "attributes.csv", ("z", " z"), np.column_stack([BASE, BASE]))


def test_distinct_names_round_trip(tmp_path):
    z = np.column_stack([BASE, 1 - BASE])
    forest = run_rds(GRAPH, z, SamplerConfig(1, 2, N), np.random.default_rng(0), ("a", "b"))
    write_forest(forest, tmp_path / "forest.csv")
    assert read_forest(tmp_path / "forest.csv").attribute_names == ("a", "b")
    write_attributes(tmp_path / "attributes.csv", ("a", "b"), z)
    names, back = read_attributes(tmp_path / "attributes.csv")
    assert names == ("a", "b") and np.array_equal(back, z)
