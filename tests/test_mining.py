import dataclasses
import math
import random
import re
import time

import pytest

from plantrecon import pipeline, plc, synth
from plantrecon.config import PipelineConfig, write_kv_file
from plantrecon.graph import Edge, EdgeKind, Node, NodeKind, PropertyGraph, load_graph
from plantrecon.grouping import functional_grouping
from plantrecon.mining import (
    DEFAULT_EXCLUDED_KINDS,
    MiningError,
    MiningGraph,
    Pattern,
    StaleEmbeddingError,
    find_monomorphism,
    mark_templates,
    mine,
    patterns_isomorphic,
    project_for_mining,
    select_templates,
    summarize,
    write_templates_report,
)

from oracles import (
    enumerate_embeddings,
    mine_oracle,
    mni_oracle,
    tiny_graphs_isomorphic,
)
from references import min_dfs_code, mine_frequent

PLACE_TEMPLATE = Pattern(
    code=(),
    support=2,
    embeddings=[],
    vertex_labels=("FunctionalGroup", "Sensor", "Actuator", "SoftwareComponent"),
    arcs=(
        (0, 1, "Contains"),
        (0, 2, "Contains"),
        (0, 3, "Contains"),
        (3, 1, "Reads"),
        (3, 2, "Writes"),
    ),
)


def _graph_from(vlabels, arcs):
    ids = [f"v{i}" for i in range(len(vlabels))]
    return MiningGraph(
        vertex_ids=ids,
        vertex_labels={f"v{i}": lab for i, lab in enumerate(vlabels)},
        edges=[(f"v{u}", f"v{v}", lab) for (u, v, lab) in arcs],
    )


def _two_triangles():
    # Two disjoint directed triangles with one vertex label and one edge label.
    vlabels = ["N"] * 6
    arcs = [(0, 1, "e"), (1, 2, "e"), (2, 0, "e"), (3, 4, "e"), (4, 5, "e"), (5, 3, "e")]
    return _graph_from(vlabels, arcs)


class TestMiningGraph:
    def test_duplicate_edge_rejected(self):
        # The same pair in the other direction or with another label is
        # another edge.
        _graph_from(["A", "B"], [(0, 1, "e"), (1, 0, "e"), (0, 1, "f")])
        with pytest.raises(MiningError, match="duplicate"):
            _graph_from(["A", "B"], [(0, 1, "e"), (1, 0, "e"), (0, 1, "e")])

    def test_duplicate_edges_listed_in_linear_time(self):
        # 20,001 edges with one repeated: counting each edge's copies one
        # edge at a time took seconds before raising.
        ids = [f"v{k}" for k in range(20001)]
        edges = [(ids[k], ids[k + 1], "e") for k in range(20000)]
        start = time.perf_counter()
        with pytest.raises(MiningError) as info:
            MiningGraph(ids, dict.fromkeys(ids, "N"), edges + [edges[0]])
        assert time.perf_counter() - start < 1.0
        assert str(info.value) == "duplicate (src, dst, label) edges [('v0', 'v1', 'e')]"


class TestMineSmall:
    def test_two_triangles(self):
        g = _two_triangles()
        patterns = mine_frequent(g, min_support=2, min_nodes=2, max_nodes=6)
        triangle = [p for p in patterns if p.edge_count == 3 and p.vertex_count == 3]
        assert len(triangle) == 1
        # Rotational automorphisms put all six vertices in every position's
        # image set, so the minimum-image support is 6; the naive oracle
        # must agree.
        host_vl = {v: g.vertex_labels[v] for v in g.vertex_ids}
        assert triangle[0].support == mni_oracle(
            triangle[0].vertex_labels, list(triangle[0].arcs), host_vl, g.edges
        )
        # Sub-edges are reported too, at support >= 2.
        assert any(p.edge_count == 1 for p in patterns)
        templates = select_templates(patterns)
        assert len(templates) == 1
        assert templates[0].edge_count == 3

    def test_min_support_prunes(self):
        g = _two_triangles()
        assert mine_frequent(g, min_support=7, min_nodes=2, max_nodes=6) == []

    def test_bad_parameters(self):
        g = _two_triangles()
        for search in (mine, mine_frequent):
            with pytest.raises(MiningError):
                search(g, min_support=1)
            with pytest.raises(MiningError):
                search(g, min_support=2, min_nodes=1, max_nodes=0)

    def test_direction_matters(self):
        # a->b twice vs a->b and b->a: the antiparallel pair is not the
        # same pattern as the parallel pair.
        g1 = _graph_from(["A", "B", "A", "B"], [(0, 1, "e"), (2, 3, "e")])
        p1 = mine_frequent(g1, min_support=2, min_nodes=2, max_nodes=4)
        assert len(p1) == 1
        g2 = _graph_from(["A", "B", "A", "B"], [(0, 1, "e"), (3, 2, "e")])
        p2 = mine_frequent(g2, min_support=2, min_nodes=2, max_nodes=4)
        assert p2 == []  # one A->B and one B->A: no repeated pattern


class TestOracleEquivalence:
    @staticmethod
    def _random_graph(
        rng: random.Random, edge_labels=("x", "y"), vertex_labels="AB", max_vertices=7, dense=False
    ):
        n = rng.randint(3, max_vertices)
        vlabels = [rng.choice(vertex_labels) for _ in range(n)]
        possible = [(u, v) for u in range(n) for v in range(n) if u != v]
        rng.shuffle(possible)
        m = rng.randint(n - 1, min(len(possible), 3 * n if dense else n + 4))
        arcs = []
        for (u, v) in possible[:m]:
            arcs.append((u, v, rng.choice(edge_labels)))
        return vlabels, arcs

    def test_mine_equals_exhaustive_enumeration_on_100_graphs(self):
        rng = random.Random(424242)
        for case in range(100):
            vlabels, arcs = self._random_graph(rng)
            g = _graph_from(vlabels, arcs)
            mined = mine_frequent(g, min_support=2, min_nodes=2, max_nodes=12)
            expected = mine_oracle(vlabels, arcs, 2, 2, 12)
            assert len(mined) == len(expected), (case, vlabels, arcs)
            for (evl, earcs, esup) in expected:
                matches = [
                    p
                    for p in mined
                    if p.support == esup
                    and tiny_graphs_isomorphic(evl, list(earcs), p.vertex_labels, list(p.arcs))
                ]
                assert len(matches) == 1, (case, evl, earcs, esup)

    def test_anti_monotonicity(self):
        rng = random.Random(777)
        for _ in range(20):
            vlabels, arcs = self._random_graph(rng)
            g = _graph_from(vlabels, arcs)
            for p in mine_frequent(g, min_support=2, min_nodes=2, max_nodes=12):
                # Every connected one-edge-removed subpattern supports at
                # least as much as the parent.
                for drop in range(p.edge_count):
                    sub_arcs = [a for i, a in enumerate(p.arcs) if i != drop]
                    used = sorted({x for (u, v, _) in sub_arcs for x in (u, v)})
                    if not sub_arcs or not _connected(sub_arcs, used):
                        continue
                    renum = {v: i for i, v in enumerate(used)}
                    sub_vl = {renum[v]: p.vertex_labels[v] for v in used}
                    sub = [(renum[u], renum[v], lab) for (u, v, lab) in sub_arcs]
                    host_vl = {vid: g.vertex_labels[vid] for vid in g.vertex_ids}
                    assert mni_oracle(sub_vl, sub, host_vl, g.edges) >= p.support

    def test_canonical_code_stable_under_reencoding(self):
        # A pattern's code must not depend on how its vertices and arcs are
        # numbered, so each is renumbered at random before its code is
        # recomputed.
        shuffle = random.Random(4242)
        checked = 0
        for edge_labels, graphs in ((("x", "y"), 30), (("Contains", "y"), 200)):
            rng = random.Random(31337)
            for _ in range(graphs):
                vlabels, arcs = self._random_graph(rng, edge_labels)
                g = _graph_from(vlabels, arcs)
                for p in mine_frequent(g, 2, 2, 12):
                    position = list(range(p.vertex_count))
                    shuffle.shuffle(position)
                    labels = [""] * p.vertex_count
                    for old, new in enumerate(position):
                        labels[new] = p.vertex_labels[old]
                    moved = [(position[u], position[v], label) for (u, v, label) in p.arcs]
                    shuffle.shuffle(moved)
                    assert min_dfs_code(tuple(labels), tuple(moved)) == p.code
                    checked += 1
        # 502 at these seeds.
        assert checked >= 500

    def test_determinism(self):
        vlabels, arcs = self._random_graph(random.Random(5))
        g = _graph_from(vlabels, arcs)
        a = mine_frequent(g, min_support=2, min_nodes=2, max_nodes=12)
        b = mine_frequent(g, min_support=2, min_nodes=2, max_nodes=12)
        assert [(p.code, p.support, p.embeddings) for p in a] == [
            (p.code, p.support, p.embeddings) for p in b
        ]


def _view_of(plc_xml: bytes):
    project = plc.parse_project(plc_xml)
    graph = functional_grouping(project, plc.build_call_tree(project))
    return graph, project_for_mining(graph)


def _irregular_reference_xml() -> bytes:
    """The reference plant's PLC project with a third place in row 1_1
    and no actuator in place 2_3_2."""
    xml = synth.generate(synth.reference_spec()).plc_xml.decode()
    edits = [
        ('    <Tag name="A_station_1"',
         '    <Tag name="S_occ_1_1_3" dataType="Bool" address="%I4.3" device="DI5" channel="3" />\n'
         '    <Tag name="A_eject_1_1_3" dataType="Bool" address="%Q3.1" device="DO4" channel="1" />\n'
         '    <Tag name="A_station_1"'),
        ('      <Call callee="FB_Place" instanceDb="DB_Place_1_1_2" />\n',
         '      <Call callee="FB_Place" instanceDb="DB_Place_1_1_2" />\n'
         '      <Call callee="FB_Place" instanceDb="DB_Place_1_1_3" />\n'),
        ('    <DataBlock name="DB_Row_1_2"',
         '    <DataBlock name="DB_Place_1_1_3" ofType="FB_Place">\n'
         '      <TagAccess tag="S_occ_1_1_3" mode="Read" />\n'
         '      <TagAccess tag="A_eject_1_1_3" mode="Write" />\n'
         '    </DataBlock>\n'
         '    <DataBlock name="DB_Row_1_2"'),
        ('      <TagAccess tag="A_eject_2_3_2" mode="Write" />\n', ''),
    ]
    for old, new in edits:
        assert xml.count(old) == 1, old
        xml = xml.replace(old, new)
    xml, removed = re.subn(r'    <Tag name="A_eject_2_3_2"[^\n]*\n', '', xml)
    assert removed == 1
    return xml.encode()


def _hand_graph(groups):
    """A SystemRoot over one FunctionalGroup per entry of ``groups``, each
    a list of (kind, name) children; a SoftwareComponent ``reads`` the
    Sensors named in the group's ``reads`` set."""
    g = PropertyGraph()
    g.add_node(Node("SystemRoot:P", NodeKind.SYSTEM_ROOT, "P", {}))
    for k, (children, reads) in enumerate(groups):
        group = f"FunctionalGroup:G{k}"
        g.add_node(Node(group, NodeKind.FUNCTIONAL_GROUP, f"G{k}", {}))
        g.add_edge(Edge(EdgeKind.CONTAINS, "SystemRoot:P", group))
        for kind, name in children:
            g.add_node(Node(f"{kind.value}:{name}", kind, name, {}))
            g.add_edge(Edge(EdgeKind.CONTAINS, group, f"{kind.value}:{name}"))
        for name in reads:
            g.add_edge(Edge(EdgeKind.READS, f"SoftwareComponent:C{k}", f"Sensor:{name}"))
    return g


class TestUnitSearch:
    @pytest.mark.parametrize("places", [2, 3, 4])
    def test_symmetry_broken_embeddings_mark_the_same_instances(self, places):
        # A row's places are interchangeable: all its embeddings are
        # places! per row, the search enumerates one. Marking either set
        # gives the same graph, and the support is the MNI support of all
        # embeddings.
        plant = synth.generate(synth.PlantSpec(levels=1, rows_per_level=2, places_per_row=places))
        graph, view = _view_of(plant.plc_xml)
        templates = mine(view, 2, 3, 2 + 4 * places)
        assert [(p.vertex_count, p.support) for p in templates] == [
            (4, 2 * places), (2 + 4 * places, 2)
        ]
        every = []
        for pattern in templates:
            found = enumerate_embeddings(
                pattern.vertex_labels, list(pattern.arcs), view.vertex_labels, view.edges
            )
            embeddings = sorted(tuple(e[p] for p in range(pattern.vertex_count)) for e in found)
            every.append(dataclasses.replace(pattern, embeddings=embeddings))
            images = [{vmap[p] for vmap in embeddings} for p in range(pattern.vertex_count)]
            assert min(map(len, images)) == pattern.support
        row = templates[1]
        assert len(row.embeddings) == 2
        assert len(every[1].embeddings) == 2 * math.factorial(places)
        broken, full = graph.copy(), graph.copy()
        mark_templates(broken, templates)
        mark_templates(full, every)
        assert broken == full
        assert row.code == min_dfs_code(row.vertex_labels, row.arcs)

    def test_reference_ladder_codes_match_the_unpruned_walk(self):
        # The canonical-code walk keeps one map per orbit of the swaps; the
        # rows of five places are the largest the unpruned walk finishes
        # quickly (120 automorphisms).
        spec = dataclasses.replace(synth.reference_spec(), places_per_row=5)
        _, view = _view_of(synth.generate(spec).plc_xml)
        templates = mine(view, 4, 3, 22)
        assert [(p.vertex_count, p.support) for p in templates] == [(4, 43), (22, 8)]
        for p in templates:
            assert p.code == min_dfs_code(p.vertex_labels, p.arcs)

    def test_unit_inside_a_larger_unit_counts(self):
        # Two groups hold two sensors each; a third holds three. Only the
        # two-sensor unit repeats, and by MNI it occurs three times. Its
        # sensors are interchangeable, so it has one embedding in each of
        # the first groups and one per pair of the third group's sensors.
        sensors = [[(NodeKind.SENSOR, name) for name in names] for names in ("ab", "cd", "efg")]
        g = _hand_graph([(children, ()) for children in sensors])
        [unit] = mine(project_for_mining(g), 2, 2, 4)
        assert unit.vertex_labels == ("FunctionalGroup", "Sensor", "Sensor") and unit.support == 3
        assert len(unit.embeddings) == 1 + 1 + 3
        [annotation] = mark_templates(g, [unit])
        members = [g.node(nid).labels["members"] for nid in annotation.instance_node_ids]
        assert members == [
            "FunctionalGroup:G0,Sensor:a,Sensor:b",
            "FunctionalGroup:G1,Sensor:c,Sensor:d",
            "FunctionalGroup:G2,Sensor:e,Sensor:f,Sensor:g",
        ]

    def test_alike_siblings_told_apart_by_an_arc(self):
        # Each group holds two sensors and a component that reads one of
        # them: the sensors are no longer interchangeable. The read sensor
        # sorts first in one group and last in the other, so a search that
        # ordered their images would lose one occurrence.
        sensors = [(NodeKind.SENSOR, name) for name in ("a", "b")]
        g = _hand_graph([
            ([*sensors, (NodeKind.SOFTWARE_COMPONENT, "C0")], {"a"}),
            ([(NodeKind.SENSOR, "c"), (NodeKind.SENSOR, "d"), (NodeKind.SOFTWARE_COMPONENT, "C1")], {"d"}),
        ])
        [unit] = mine(project_for_mining(g), 2, 3, 4)
        assert unit.support == 2 and len(unit.embeddings) == 2
        # Without the Reads arcs the two sensors swap, and each group has
        # one embedding instead of two.
        plain = _hand_graph([(sensors, ()), ([(NodeKind.SENSOR, "c"), (NodeKind.SENSOR, "d")], ())])
        [pair] = mine(project_for_mining(plain), 2, 3, 3)
        assert pair.support == 2 and len(pair.embeddings) == 2

    def test_unit_nested_once_in_an_equal_support_unit(self):
        # Both A -> X -> S chains and their X -> S parts repeat twice; mine
        # returns both, and select_templates keeps the maximal one.
        g = _graph_from(
            ["A", "X", "S", "A", "X", "S"],
            [(0, 1, "Contains"), (1, 2, "Contains"), (3, 4, "Contains"), (4, 5, "Contains")],
        )
        units = mine(g, 2, 2, 3)
        assert [(p.vertex_labels, p.support) for p in units] == [
            (("A", "X", "S"), 2), (("S", "X"), 2)
        ]
        assert select_templates(units) == units[:1]

    def test_mini_plant(self, mini_view):
        [place] = mine(mini_view, 2, 3, 12)
        assert place.support == 2 and patterns_isomorphic(place, PLACE_TEMPLATE)
        assert select_templates([place]) == [place]

    def test_irregular_plant(self):
        # One row gains a third place and one place loses its actuator. The
        # place still occurs 19 times (16 places and 3 units with sensors
        # and actuators), and the two-place row 7 times: the 6 unchanged
        # rows and the three-place row, but not the row with the broken
        # place.
        _, view = _view_of(_irregular_reference_xml())
        templates = mine(view, 4, 3, 12)
        expected = {t["name"]: t for t in synth.generate(synth.reference_spec()).ground_truth.templates}
        assert [t.support for t in templates] == [19, 7]
        assert patterns_isomorphic(templates[0], Pattern.from_structure(expected["place"], 19))
        assert patterns_isomorphic(templates[1], Pattern.from_structure(expected["row"], 7))

    def test_contains_forest_required(self):
        two_parents = _graph_from(["A", "A", "B"], [(0, 2, "Contains"), (1, 2, "Contains")])
        with pytest.raises(MiningError, match="two Contains parents"):
            mine(two_parents, 2, 2, 3)
        cycle = _graph_from(["A", "B", "C"], [(0, 1, "Contains"), (1, 0, "Contains"), (0, 2, "y")])
        with pytest.raises(MiningError, match="cycle"):
            mine(cycle, 2, 2, 3)

    def test_empty_graph_and_no_contains_arcs(self):
        assert mine(project_for_mining(PropertyGraph())) == []
        assert mine(_graph_from(["A", "B", "A", "B"], [(0, 1, "Reads"), (2, 3, "Reads")]), 2, 2, 4) == []

    def test_run_all_at_eight_places_per_row(self, tmp_path):
        # 34-vertex rows, with 8! automorphisms each: 67 places (64 and the
        # 3 units) and 8 rows.
        spec = dataclasses.replace(synth.reference_spec(), places_per_row=8)
        synth.generate(spec).write_outputs(tmp_path)
        conf = synth.recommended_config(spec, tmp_path)
        assert conf["max_nodes"] == "34"
        write_kv_file(tmp_path / "pipeline.conf", conf)
        report = pipeline.run_all(PipelineConfig.load(tmp_path / "pipeline.conf")).report
        assert report.template_recovery == 1.0 and report.template_precision == 1.0
        stored = pipeline.templates_from_graph(load_graph(tmp_path / "plant.dtgraph"))
        assert sorted((t.vertex_count, t.support) for t in stored) == [(4, 67), (34, 8)]


def _connected(arcs, vertices):
    adj = {v: set() for v in vertices}
    for (u, v, _) in arcs:
        adj[u].add(v)
        adj[v].add(u)
    seen = {vertices[0]}
    stack = [vertices[0]]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == len(vertices)


@pytest.fixture(scope="module")
def mini_view(mini_functional):
    return project_for_mining(mini_functional, DEFAULT_EXCLUDED_KINDS)


class TestProjectForMining:
    def test_hardware_excluded_by_default(self, mini_functional):
        view = project_for_mining(mini_functional)
        labels = set(view.vertex_labels.values())
        assert "Plc" not in labels
        assert "IoDevice" not in labels
        assert "Channel" not in labels
        assert "Sensor" in labels

    def test_empty_graph(self):
        view = project_for_mining(PropertyGraph())
        assert view.vertex_ids == []

    def test_root_anchored_filter(self):
        # A Reads-linked pair is connected but not spanned by Contains arcs
        # from any single vertex, so the rooted-shape reading drops it.
        g = _graph_from(
            ["SoftwareComponent", "Sensor", "FunctionalGroup",
             "SoftwareComponent", "Sensor", "FunctionalGroup"],
            [
                (0, 1, "Reads"), (2, 1, "Contains"),
                (3, 4, "Reads"), (5, 4, "Contains"),
            ],
        )
        plain = mine_frequent(g, min_support=2, min_nodes=2, max_nodes=4)
        anchored = mine(g, min_support=2, min_nodes=2, max_nodes=4)
        assert len(anchored) < len(plain)
        for p in anchored:
            assert all(lab == "Contains" for (_, _, lab) in p.arcs) or p.edge_count == 0

    def test_star_minable_only_without_exclusion(self):
        # Two input devices, four channels and four wired sensors each. With
        # exclusion disabled the device star becomes the dominant pattern;
        # with the default exclusion no hardware vertex appears at all.
        g = PropertyGraph()
        g.add_node(Node("SystemRoot:P", NodeKind.SYSTEM_ROOT, "P", {}))
        for d in range(2):
            dev = f"IoDevice:D{d}"
            g.add_node(Node(dev, NodeKind.IO_DEVICE, f"D{d}", {}))
            g.add_edge(Edge(EdgeKind.CONTAINS, "SystemRoot:P", dev))
            for c in range(4):
                ch = f"Channel:D{d}/{c}"
                s = f"Sensor:S{d}{c}"
                g.add_node(Node(ch, NodeKind.CHANNEL, f"D{d}:{c}", {}))
                g.add_node(Node(s, NodeKind.SENSOR, f"S{d}{c}", {}))
                g.add_edge(Edge(EdgeKind.CONTAINS, dev, ch))
                g.add_edge(Edge(EdgeKind.CONTAINS, "SystemRoot:P", s))
                g.add_edge(Edge(EdgeKind.WIRED_TO, s, ch))
        unrestricted = project_for_mining(g, excluded_kinds=frozenset())
        patterns = mine_frequent(unrestricted, min_support=2, min_nodes=3, max_nodes=9)
        templates = select_templates(patterns)
        star = max(templates, key=lambda p: p.vertex_count)
        assert "IoDevice" in star.vertex_labels
        assert star.vertex_labels.count("Channel") == 4
        assert star.vertex_labels.count("Sensor") == 4
        assert star.support == 2
        # Cross-check the star's support against the naive oracle.
        host_vl = {v: unrestricted.vertex_labels[v] for v in unrestricted.vertex_ids}
        assert mni_oracle(star.vertex_labels, list(star.arcs), host_vl, unrestricted.edges) == 2

        restricted = project_for_mining(g)
        patterns = mine_frequent(restricted, min_support=2, min_nodes=2, max_nodes=9)
        for p in patterns:
            assert not {"Plc", "IoDevice", "Channel"} & set(p.vertex_labels)


class TestMiniMining:
    def test_place_group_pattern_found(self, mini_view):
        patterns = mine_frequent(mini_view, min_support=2, min_nodes=4, max_nodes=12)
        spec_pattern = Pattern(
            code=(),
            support=2,
            embeddings=[],
            vertex_labels=("FunctionalGroup", "Sensor", "Actuator", "SoftwareComponent"),
            arcs=((0, 1, "Contains"), (0, 2, "Contains"), (0, 3, "Contains")),
        )
        hits = [
            p
            for p in patterns
            if p.support == 2 and patterns_isomorphic(spec_pattern, p)
        ]
        assert len(hits) == 1

    def test_min_support_above_place_multiplicity(self, mini_view):
        # Only two places exist, so above support 2 nothing place-related
        # remains; the controller spine (group-in-group plus component)
        # still repeats up to four times, and disappears above that.
        for p in mine_frequent(mini_view, min_support=3, min_nodes=3, max_nodes=12):
            assert not {"Sensor", "Actuator"} & set(p.vertex_labels)
        assert mine_frequent(mini_view, min_support=5, min_nodes=3, max_nodes=12) == []

    def test_maximal_templates(self, mini_view):
        # Three maximal structures repeat in the tiny plant: the place
        # group, the two-level controller spine with its call edge, and the
        # group-in-group-with-component chain (which also covers the OB).
        templates = select_templates(mine_frequent(mini_view, 2, 3, 12))
        assert len(templates) == 3
        place_hits = [t for t in templates if patterns_isomorphic(t, PLACE_TEMPLATE)]
        assert len(place_hits) == 1
        assert place_hits[0].support == 2
        chain = templates[0]
        assert chain.support == 3
        assert chain.vertex_labels == ("FunctionalGroup", "FunctionalGroup", "SoftwareComponent")
        spine = templates[1]
        assert spine.support == 2
        assert spine.vertex_labels.count("FunctionalGroup") == 3
        assert any(lab == "Calls" for (_, _, lab) in spine.arcs)


class TestSelectTemplates:
    def test_triangle_dominates_equal_support_edges(self):
        patterns = mine_frequent(_two_triangles(), min_support=2, min_nodes=2, max_nodes=6)
        kept = select_templates(patterns)
        assert len(kept) == 1 and kept[0].edge_count == 3

    def test_incomparable_patterns_both_kept(self):
        g = _graph_from(
            ["A", "B", "A", "B", "C", "D", "C", "D"],
            [(0, 1, "x"), (2, 3, "x"), (4, 5, "y"), (6, 7, "y")],
        )
        patterns = mine_frequent(g, min_support=2, min_nodes=2, max_nodes=4)
        kept = select_templates(patterns)
        assert len(kept) == 2

    def test_empty_input(self):
        assert select_templates([]) == []

    def test_lower_support_container_does_not_drop(self):
        # A sub-pattern with strictly higher support than its container
        # must survive maximality filtering.
        vlabels = ["A", "B", "C", "A", "B", "C", "A", "B"]
        arcs = [
            (0, 1, "e"), (1, 2, "f"),
            (3, 4, "e"), (4, 5, "f"),
            (6, 7, "e"),
        ]
        g = _graph_from(vlabels, arcs)
        kept = select_templates(mine_frequent(g, min_support=2, min_nodes=2, max_nodes=4))
        sizes = sorted(p.edge_count for p in kept)
        assert sizes == [1, 2]  # A->B at support 3, A->B->C at support 2


class TestMarkTemplates:
    def _marked_mini(self, mini_functional, mini_view):
        graph = mini_functional.copy()
        templates = select_templates(mine_frequent(mini_view, 2, 3, 12))
        annotations = mark_templates(graph, templates)
        return graph, templates, annotations

    def test_place_template_instances(self, mini_functional, mini_view):
        graph, templates, annotations = self._marked_mini(mini_functional, mini_view)
        assert len(graph.query(kinds={NodeKind.TEMPLATE_PATTERN})) == 3
        place = next(
            a for a in annotations if patterns_isomorphic(a.pattern, PLACE_TEMPLATE)
        )
        assert len(place.instance_node_ids) == 2
        for nid in place.instance_node_ids:
            node = graph.node(nid)
            assert node.labels["templateId"] == place.template_id
            out = graph.out_edges(nid, EdgeKind.INSTANCE_OF)
            assert [e.target for e in out] == [place.pattern_node_id]
        assert graph.validate() == []

    def test_instance_anchored_at_member_lca(self, mini_functional, mini_view):
        graph, _, annotations = self._marked_mini(mini_functional, mini_view)
        place = next(
            a for a in annotations if patterns_isomorphic(a.pattern, PLACE_TEMPLATE)
        )
        nid = place.instance_node_ids[0]
        parent = graph.contains_parent(nid)
        members = str(graph.node(nid).labels["members"]).split(",")
        assert parent in members  # the place group anchors its own instance

    def test_idempotent(self, mini_functional, mini_view):
        graph = mini_functional.copy()
        templates = select_templates(mine_frequent(mini_view, 2, 3, 12))
        mark_templates(graph, templates)
        snapshot = graph.copy()
        mark_templates(graph, templates)
        assert graph == snapshot

    def test_one_instance_per_support_occurrence(self, mini_functional, mini_view):
        # Two groups of two sensors: FunctionalGroup -> Sensor has four
        # embeddings but support 2, one occurrence per group.
        nested = PropertyGraph()
        nested.add_node(Node("SystemRoot:P", NodeKind.SYSTEM_ROOT, "P", {}))
        for i in range(2):
            grp = f"FunctionalGroup:G{i}"
            nested.add_node(Node(grp, NodeKind.FUNCTIONAL_GROUP, f"G{i}", {}))
            nested.add_edge(Edge(EdgeKind.CONTAINS, "SystemRoot:P", grp))
            for j in range(2):
                s = f"Sensor:S{i}{j}"
                nested.add_node(Node(s, NodeKind.SENSOR, f"S{i}{j}", {}))
                nested.add_edge(Edge(EdgeKind.CONTAINS, grp, s))
        cases = [
            (mini_functional.copy(), mine_frequent(mini_view, 2, 3, 12)),
            (nested, mine_frequent(project_for_mining(nested), 2, 2, 3)),
        ]
        for graph, patterns in cases:
            for annotation in mark_templates(graph, patterns):
                pattern = annotation.pattern
                assert len(annotation.instance_node_ids) == pattern.support
                members = {
                    m
                    for nid in annotation.instance_node_ids
                    for m in str(graph.node(nid).labels["members"]).split(",")
                }
                assert members == {v for vmap in pattern.embeddings for v in vmap}

    def test_empty_template_list_is_identity(self, mini_functional):
        graph = mini_functional.copy()
        mark_templates(graph, [])
        assert graph == mini_functional

    def test_stale_embedding(self, mini_functional):
        graph = mini_functional.copy()
        ghost = Pattern(
            code=(),
            support=2,
            embeddings=[("Sensor:S_occ_1_1", "Sensor:nope")],
            vertex_labels=("Sensor", "Sensor"),
            arcs=((0, 1, "Contains"),),
        )
        with pytest.raises(StaleEmbeddingError):
            mark_templates(graph, [ghost])


class TestSummarize:
    def test_no_templates_before_equals_after(self, mini_functional):
        report = summarize(mini_functional)
        assert report.nodes_before == report.nodes_after
        assert report.edges_before == report.edges_after
        assert report.collapses == []

    def test_mini_counts(self, mini_functional, mini_view):
        graph = mini_functional.copy()
        templates = select_templates(mine_frequent(mini_view, 2, 3, 12))
        mark_templates(graph, templates)
        report = summarize(graph)
        assert report.nodes_before == graph.node_count
        # Smallest pattern collapses first: the 3-vertex chain folds every
        # group and component (9 nodes), the place template then only adds
        # the four field devices, and the 5-vertex spine adds nothing new.
        assert [c.pattern_vertices for c in report.collapses] == [3, 4, 5]
        assert [c.nodes_removed for c in report.collapses] == [9, 4, 0]
        place = report.collapses[1]
        assert place.instance_count == 2
        assert place.support == 2
        assert report.nodes_after == report.nodes_before - 13
        assert report.edges_after < report.edges_before

    def test_nested_templates_inner_first(self):
        # Hand-built nesting: inner pair pattern inside an outer triple.
        g = PropertyGraph()
        g.add_node(Node("SystemRoot:P", NodeKind.SYSTEM_ROOT, "P", {}))
        for i in range(2):
            grp = f"FunctionalGroup:G{i}"
            g.add_node(Node(grp, NodeKind.FUNCTIONAL_GROUP, f"G{i}", {}))
            g.add_edge(Edge(EdgeKind.CONTAINS, "SystemRoot:P", grp))
            for j in range(2):
                s = f"Sensor:S{i}{j}"
                g.add_node(Node(s, NodeKind.SENSOR, f"S{i}{j}", {}))
                g.add_edge(Edge(EdgeKind.CONTAINS, grp, s))
        inner = Pattern(
            code=(), support=4, embeddings=[],
            vertex_labels=("FunctionalGroup", "Sensor"), arcs=((0, 1, "Contains"),),
        )
        outer = Pattern(
            code=(), support=2, embeddings=[],
            vertex_labels=("FunctionalGroup", "Sensor", "Sensor"),
            arcs=((0, 1, "Contains"), (0, 2, "Contains")),
        )
        view = project_for_mining(g)
        patterns = mine_frequent(view, min_support=2, min_nodes=2, max_nodes=3)
        by_size = {p.edge_count: p for p in patterns}
        mark_templates(g, [by_size[1], by_size[2]])
        report = summarize(g)
        # Inner (2-vertex) collapses first and removes all sensors plus
        # groups; the outer collapse then removes nothing new.
        assert report.collapses[0].pattern_vertices == 2
        assert report.collapses[0].nodes_removed == 6
        assert report.collapses[1].nodes_removed == 0
        assert patterns_isomorphic(by_size[1], inner)
        assert patterns_isomorphic(by_size[2], outer)

    def test_templates_report_file(self, tmp_path, mini_view):
        templates = select_templates(mine_frequent(mini_view, 2, 3, 12))
        path = tmp_path / "templates.txt"
        write_templates_report(templates, path)
        text = path.read_text()
        assert "template T1" in text
        assert "support 2" in text


class TestMonomorphism:
    def test_pattern_contained_in_bigger(self):
        small = Pattern(
            code=(), support=0, embeddings=[],
            vertex_labels=("A", "B"), arcs=((0, 1, "e"),),
        )
        big = Pattern(
            code=(), support=0, embeddings=[],
            vertex_labels=("A", "B", "C"), arcs=((0, 1, "e"), (1, 2, "f")),
        )
        assert find_monomorphism(small, big)
        assert not find_monomorphism(big, small)

    def test_label_mismatch(self):
        a = Pattern(code=(), support=0, embeddings=[], vertex_labels=("A", "A"), arcs=((0, 1, "e"),))
        b = Pattern(code=(), support=0, embeddings=[], vertex_labels=("A", "B"), arcs=((0, 1, "e"),))
        assert not find_monomorphism(a, b)
