import csv
import itertools
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from plantrecon import plc, synth
from plantrecon.graph import Edge, EdgeKind, Node, NodeKind, PropertyGraph
from plantrecon.grouping import functional_grouping
from plantrecon.traces import IO_COLUMNS, RTLS_COLUMNS, RTLS_LABEL_COLUMN, load_io_trace, load_rtls_trace


@pytest.fixture(scope="session")
def mini_plant():
    return synth.generate(synth.mini_spec())


@pytest.fixture(scope="session")
def mini_project(mini_plant):
    return plc.parse_project(mini_plant.plc_xml)


@pytest.fixture(scope="session")
def mini_tree(mini_project):
    return plc.build_call_tree(mini_project)


@pytest.fixture(scope="session")
def mini_functional(mini_project, mini_tree):
    return functional_grouping(mini_project, mini_tree)


@pytest.fixture(scope="session")
def reference_plant():
    return synth.generate(synth.reference_spec(noise_sigma_m=0.0))


@pytest.fixture(scope="session")
def load_rows(tmp_path_factory):
    """Builder of a trace from row tuples, through the loaders the pipeline
    runs: ``load_rows(load_io_trace, rows)`` for ``(timestamp_ms, tag,
    value)`` rows, ``load_rows(load_rtls_trace, rows)`` for
    ``(timestamp_ms, tracker_id, x, y, z, location_label)`` rows. The rows
    are written with ``csv.writer`` and LF line ends, a None label as an
    empty field, and the file is loaded and checked like any trace CSV."""
    headers = {load_io_trace: IO_COLUMNS, load_rtls_trace: (*RTLS_COLUMNS, RTLS_LABEL_COLUMN)}
    out = tmp_path_factory.mktemp("rows")
    names = itertools.count()

    def build(load, rows):
        path = out / f"{next(names)}.csv"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(headers[load])
            writer.writerows(rows)
        return load(path)

    return build


@pytest.fixture(scope="session")
def plant_traces(load_rows):
    """Builder of a generated plant's traces: ``plant_traces(plant)`` is its
    IO trace, its RTLS trace without labels and its labeled RTLS trace."""

    def build(plant):
        unlabeled = [(*row[:5], None) for row in plant.rtls_rows]
        return (
            load_rows(load_io_trace, plant.io_rows),
            load_rows(load_rtls_trace, unlabeled),
            load_rows(load_rtls_trace, plant.rtls_rows),
        )

    return build


@pytest.fixture(scope="session")
def contains_chain():
    """Builder of a SystemRoot over one chain of ``depth`` nested FunctionalGroups."""

    def build(depth: int) -> PropertyGraph:
        graph = PropertyGraph()
        graph.add_node(Node("SystemRoot:R", NodeKind.SYSTEM_ROOT, "R", {}))
        parent = "SystemRoot:R"
        for k in range(depth):
            nid = f"FunctionalGroup:G{k}"
            graph.add_node(Node(nid, NodeKind.FUNCTIONAL_GROUP, f"G{k}", {}))
            graph.add_edge(Edge(EdgeKind.CONTAINS, parent, nid))
            parent = nid
        return graph

    return build
