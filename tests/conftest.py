import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from plantrecon import plc, synth
from plantrecon.graph import Edge, EdgeKind, Node, NodeKind, PropertyGraph
from plantrecon.grouping import functional_grouping


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
