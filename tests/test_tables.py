"""The shared CSV table format: round trips, malformed files, forest invariants."""

from __future__ import annotations

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rdsim import (
    Graph,
    SamplerConfig,
    read_attributes,
    read_edge_list,
    read_forest,
    run_rds,
    write_attributes,
    write_edge_list,
    write_forest,
)
from rdsim.harness import write_rows
from rdsim.tables import read_table, write_table


FOREST_FIELDS = ("nodes", "recruiters", "waves", "seed_ids", "coupon_indices", "degrees", "attributes")


@st.composite
def graphs(draw, max_nodes: int = 16) -> Graph:
    n = draw(st.integers(1, max_nodes))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return Graph(n, [i for i, _ in chosen], [j for _, j in chosen])


names = st.lists(
    st.from_regex(r"[A-Za-z][A-Za-z0-9_+]{0,7}", fullmatch=True), min_size=1, max_size=4, unique=True
)


@st.composite
def attribute_matrices(draw, node_count: int) -> tuple[list[str], np.ndarray]:
    labels = draw(names)
    size = node_count * len(labels)
    cells = draw(st.lists(st.integers(0, 1), min_size=size, max_size=size))
    return labels, np.array(cells, dtype=np.int64).reshape(node_count, len(labels))


@settings(max_examples=60, deadline=None)
@given(graph=graphs())
def test_edge_list_round_trip(tmp_path_factory, graph):
    path = tmp_path_factory.mktemp("edges") / "edges.csv"
    write_edge_list(graph, path)
    back = read_edge_list(path, node_count=graph.node_count)
    assert back.node_count == graph.node_count
    assert np.array_equal(back.src, graph.src)
    assert np.array_equal(back.dst, graph.dst)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), node_count=st.integers(1, 30))
def test_attribute_round_trip(tmp_path_factory, data, node_count):
    labels, values = data.draw(attribute_matrices(node_count))
    path = tmp_path_factory.mktemp("attributes") / "attributes.csv"
    write_attributes(path, labels, values)
    back_names, back = read_attributes(path)
    assert back_names == tuple(labels)
    assert np.array_equal(back, values)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), graph=graphs(), seed=st.integers(0, 2**32 - 1))
def test_forest_round_trip(tmp_path_factory, data, graph, seed):
    n = graph.node_count
    labels, values = data.draw(attribute_matrices(n))
    num_seeds = data.draw(st.integers(1, n))
    config = SamplerConfig(
        num_seeds=num_seeds,
        coupons_per_node=data.draw(st.integers(1, 3)),
        target_sample_size=data.draw(st.integers(num_seeds, n)),
        reseed_on_death=data.draw(st.booleans()),
    )
    forest = run_rds(graph, values, config, np.random.default_rng(seed), tuple(labels))
    path = tmp_path_factory.mktemp("forest") / "forest.csv"
    write_forest(forest, path)
    back = read_forest(path)
    for field in FOREST_FIELDS:
        assert np.array_equal(getattr(back, field), getattr(forest, field)), field
    assert back.attribute_names == forest.attribute_names


def test_empty_edge_list_round_trip(tmp_path):
    path = tmp_path / "edges.csv"
    write_edge_list(Graph(4, [], []), path)
    assert path.read_bytes() == b"src,dst\r\n"
    back = read_edge_list(path, node_count=4)
    assert (back.node_count, back.edge_count) == (4, 0)


def test_empty_cell_is_missing(tmp_path):
    path = tmp_path / "table.csv"
    write_table(path, ["a", "b", "x"], [[1, None, 0], [None, 2, 1]])
    assert path.read_text().splitlines() == ["a,b,x", "1,,0", ",2,1"]
    names, values = read_table(path, ("a", "b"), named=True)
    assert names == ("x",)
    assert values.dtype == np.int64
    assert values.tolist() == [[1, -1, 0], [-1, 2, 1]]


def _edge_contents(path):
    graph = read_edge_list(path, node_count=3)
    return graph.node_count, graph.src.tolist(), graph.dst.tolist()


def _attribute_contents(path):
    names, z = read_attributes(path)
    return names, z.tolist()


def _forest_contents(path):
    forest = read_forest(path)
    return forest.attribute_names, [getattr(forest, field).tolist() for field in FOREST_FIELDS]


@pytest.mark.parametrize(
    "reader, text",
    [
        (_edge_contents, "src,dst\n0,1\n1,2\n"),
        (_attribute_contents, "node,z,w\n0,1,0\n1,0,0\n2,1,1\n"),
        (_forest_contents, "node,recruiter,wave,seed_id,coupon_index,degree,z\n0,,0,0,,2,1\n1,0,1,0,0,2,0\n"),
    ],
    ids=["edges", "attributes", "forest"],
)
def test_byte_order_mark_is_not_part_of_the_header(tmp_path, reader, text):
    # spreadsheet "CSV UTF-8" exports start with EF BB BF
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    plain.write_bytes(text.encode())
    marked.write_bytes(b"\xef\xbb\xbf" + text.encode())
    assert reader(marked) == reader(plain)


class _Float(float):
    """A float subclass with a repr of its own, which a cell must not use."""

    def __repr__(self):
        return "not a number's repr"


CELL_RULES = [
    (True, "true"),  # a bool is an int: the bool rule comes first
    (False, "false"),
    (np.bool_(True), "true"),
    (np.bool_(False), "false"),
    (7, "7"),
    (np.int64(-7), "-7"),
    (0.1, "0.1"),
    (-0.0, "-0.0"),
    (1e300, "1e+300"),
    (np.float64(0.25), "0.25"),
    (np.float64(1 / 3), repr(1 / 3)),
    (_Float(0.5), "0.5"),  # any float subclass goes through repr(float(v))
    (None, ""),
    ("text", "text"),
]


@pytest.mark.parametrize("value, cell", CELL_RULES, ids=[f"{type(v).__module__}.{type(v).__name__}:{c}" for v, c in CELL_RULES])
def test_write_rows_cell_rules(tmp_path, value, cell):
    path = tmp_path / "rows.csv"
    write_rows(path, ["a", "b"], [{"a": value}])
    assert path.read_text().splitlines() == ["a,b", f"{cell},"]


def _raises_naming(path, reader):
    with pytest.raises(ValueError, match=re.escape(str(path))):
        reader(path)


MALFORMED = {
    "ragged row": ("edges", "src,dst\n0,1\n1,2,3\n"),
    "short row": ("attributes", "node,z\n0,1\n1\n"),
    "every row too long": ("edges", "src,dst\n0,1,2\n1,2,3\n"),
    "non-integer cell": ("attributes", "node,z\n0,1\n1,0.5\n"),
    "word cell": ("forest", "node,recruiter,wave,seed_id,coupon_index,degree,z\n0,,0,0,,two,1\n"),
    "int64-overflow cell": ("edges", "src,dst\n0,9223372036854775808\n"),
    "comment cell": ("edges", "src,dst\n0,1\n# 1,2\n"),
    "trailing comment": ("attributes", "node,z\n0,1 # note\n"),
    "attributes without names": ("attributes", "node\n0\n1\n"),
    "forest without names": ("forest", "node,recruiter,wave,seed_id,coupon_index,degree\n0,,0,0,,2\n"),
    "edge list with names": ("edges", "src,dst,weight\n0,1,5\n"),
    "empty name": ("attributes", "node,z,\n0,1,0\n"),
    "wrong fixed columns": ("forest", "node,wave\n0,0\n"),
    "empty file": ("edges", ""),
    "empty endpoint": ("edges", "src,dst\n0,\n"),
    "empty attribute value": ("attributes", "node,z\n0,1\n1,\n"),
    "empty node": ("attributes", "node,z\n,1\n"),
    "empty forest degree": ("forest", "node,recruiter,wave,seed_id,coupon_index,degree,z\n0,,0,0,,,1\n"),
    "empty forest wave": ("forest", "node,recruiter,wave,seed_id,coupon_index,degree,z\n0,,,0,,2,1\n"),
}
READERS = {
    "edges": lambda path: read_edge_list(path, node_count=3),
    "attributes": read_attributes,
    "forest": read_forest,
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_file_names_the_file(tmp_path, case):
    kind, text = MALFORMED[case]
    path = tmp_path / f"{kind}.csv"
    path.write_text(text)
    _raises_naming(path, READERS[kind])


@pytest.mark.parametrize(
    "text, message",
    [
        ("src,dst\n0,0\n", "self-loops"),
        ("src,dst\n0,1\n1,0\n", "parallel"),
        ("src,dst\n0,-2\n", "out of range"),
    ],
)
def test_invalid_graph_names_the_file(tmp_path, text, message):
    path = tmp_path / "edges.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match=rf"{re.escape(str(path))}: .*{message}"):
        read_edge_list(path, node_count=2)


@pytest.mark.parametrize(
    "text",
    ["node,z\n1,0\n0,1\n", "node,z\n0,0\n2,1\n", "node,z\n"],
    ids=["out of order", "gap", "no rows"],
)
def test_attribute_rows_must_cover_nodes(tmp_path, text):
    path = tmp_path / "attributes.csv"
    path.write_text(text)
    _raises_naming(path, read_attributes)


def test_attribute_value_outside_int8_is_rejected(tmp_path):
    # 256 would wrap to 0 if narrowed before the 0/1 check
    path = tmp_path / "attributes.csv"
    path.write_text("node,z\n0,256\n1,1\n")
    with pytest.raises(ValueError, match=rf"{re.escape(str(path))}: .*outside"):
        read_attributes(path)


FOREST_HEADER = "node,recruiter,wave,seed_id,coupon_index,degree,z\n"
# seed 0 recruits 1 and 2; 1 recruits 3; 5 is a second seed
VALID_FOREST = ["0,,0,0,,2,1", "1,0,1,0,0,3,0", "2,0,1,0,1,1,1", "3,1,2,0,0,2,0", "5,,0,1,,1,0"]


def _forest_file(tmp_path, lines):
    path = tmp_path / "forest.csv"
    path.write_text(FOREST_HEADER + "".join(line + "\n" for line in lines))
    return path


def test_valid_forest_reads(tmp_path):
    forest = read_forest(_forest_file(tmp_path, VALID_FOREST))
    assert forest.nodes.tolist() == [0, 1, 2, 3, 5]
    assert forest.recruiters.tolist() == [-1, 0, 0, 1, -1]
    assert forest.coupon_indices.tolist() == [-1, 0, 1, 0, -1]
    assert forest.attribute_names == ("z",)


@pytest.mark.parametrize(
    "row, line, message",
    [
        (3, "3,9,2,0,0,2,0", "recruiter 9 is not an earlier entry"),
        (1, "1,3,1,0,0,3,0", "recruiter 3 is not an earlier entry"),
        (3, "3,3,2,0,0,2,0", "recruiter 3 is not an earlier entry"),
        (3, "3,-5,2,0,0,2,0", "recruiter -5 is not an earlier entry"),
        (3, "1,1,2,0,0,2,0", "distinct"),
        (3, "-3,1,2,0,0,2,0", "nonnegative"),
        (3, "3,1,3,0,0,2,0", "wave"),
        (3, "3,1,2,1,0,2,0", "seed_id"),
        (3, "3,1,2,0,,2,0", "coupon_index"),
        (4, "5,,1,1,,1,0", "wave 0"),
        (4, "5,,0,1,0,1,0", "empty coupon_index"),
        (4, "5,,0,-1,,1,0", "seed_id"),
        (0, "0,,0,0,,-2,1", "degree"),
        (0, "0,,0,0,,2,2", "0 or 1"),
        (0, "0,,0,0,,2,513", "0 or 1"),
    ],
)
def test_forest_invariants_are_checked(tmp_path, row, line, message):
    lines = list(VALID_FOREST)
    lines[row] = line
    path = _forest_file(tmp_path, lines)
    with pytest.raises(ValueError, match=rf"{re.escape(str(path))}: .*{re.escape(message)}"):
        read_forest(path)


def test_forest_without_entries_is_rejected(tmp_path):
    _raises_naming(_forest_file(tmp_path, []), read_forest)
