"""Acceptance suite: every criterion checked at its stated tolerance.

Each test prints one machine-readable pass/fail line; run with
``pytest -v -s tests/test_acceptance.py`` to see them.
"""

import random
import time

import pytest

from plantrecon import pipeline, plc, synth
from plantrecon.aml import export_aml, import_aml
from plantrecon.clustering import KMeansParams, cluster_positions
from plantrecon.config import PipelineConfig, write_kv_file
from plantrecon.dtw import knn_distances, knn_train
from plantrecon.dynamics import DynamicsParams, analyze_dynamics, training_segments
from plantrecon.graph import NodeKind, load_graph
from plantrecon.grouping import functional_grouping
from plantrecon.metrics import ari, functional_partition_of
from plantrecon.mining import (
    MiningGraph,
    mine,
    patterns_isomorphic,
    project_for_mining,
    select_templates,
)
from plantrecon.traces import EstimateStatus

from oracles import (
    dtw_oracle,
    enumerate_embeddings,
    mine_oracle,
    mni_oracle,
    tiny_graphs_isomorphic,
    unit_mine_oracle,
)
from references import (
    call_tree_shape,
    group_tree_shape,
    min_dfs_code,
    mine_frequent,
)


class _criterion:
    def __init__(self, number: int, name: str):
        self.number = number
        self.name = name

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        status = "PASS" if exc_type is None else "FAIL"
        print(f"\nacceptance criterion {self.number} ({self.name}): {status}")
        return False


def _tag_maps(plant):
    project = plc.parse_project(plant.plc_xml)
    kinds = {t.name: (NodeKind.SENSOR if t.is_input else NodeKind.ACTUATOR) for t in project.tags}
    types = {t.name: t.data_type.value for t in project.tags}
    return project, kinds, types


@pytest.fixture(scope="module")
def reference_run(tmp_path_factory):
    """The canonical reference pipeline run, executed twice for the
    determinism criterion; wall time of the first run recorded."""
    ws = tmp_path_factory.mktemp("reference_ws")
    spec = synth.reference_spec()  # noise 0.05 m, 10 Hz, seed 42
    plant = synth.generate(spec)
    plant.write_outputs(ws)
    write_kv_file(ws / "pipeline.conf", synth.recommended_config(spec, ws))

    runs = []
    for name in ("run1", "run2"):
        out = ws / name
        cfg = PipelineConfig.load(ws / "pipeline.conf")
        cfg.out_dir = out
        start = time.perf_counter()
        result = pipeline.run_all(cfg)
        elapsed = time.perf_counter() - start
        runs.append({"out": out, "result": result, "elapsed": elapsed})
    return {"ws": ws, "plant": plant, "runs": runs}


def test_criterion_1_functional_grouping_exactness():
    with _criterion(1, "functional grouping exactness"):
        start = time.perf_counter()
        plant = synth.generate(synth.reference_spec(noise_sigma_m=0.0))
        project = plc.parse_project(plant.plc_xml)
        tree = plc.build_call_tree(project)
        graph = functional_grouping(project, tree)
        elapsed = time.perf_counter() - start

        assert plant.ground_truth.counts["sensors"] == 35
        assert plant.ground_truth.counts["actuators"] == 25
        truth = plant.ground_truth.functional_partition
        mined = functional_partition_of(graph)
        assert ari(truth, {t: mined[t] for t in truth}) == 1.0
        top = f"FunctionalGroup:{project.name}"
        assert group_tree_shape(graph, top) == call_tree_shape(tree)
        assert elapsed < 5.0, f"functional grouping took {elapsed:.2f}s"


def test_criterion_2_dtw_oracle_equivalence():
    with _criterion(2, "DTW oracle equivalence"):
        rng = random.Random(90125)
        pairs = 0
        for case in range(200):
            dims = 1 if case % 2 == 0 else 3
            n, m = rng.randint(1, 50), rng.randint(1, 50)

            def mk(count):
                if dims == 1:
                    return [rng.uniform(-20, 20) for _ in range(count)]
                return [tuple(rng.uniform(-20, 20) for _ in range(3)) for _ in range(count)]

            a, b = mk(n), mk(m)
            assert knn_distances(knn_train([(b, "x")]), a) == [dtw_oracle(a, b)]
            pairs += 1
        assert pairs == 200


def test_criterion_3_classification_accuracy(plant_traces):
    with _criterion(3, "1-NN/DTW classification accuracy"):
        clustering_checked = False
        for seed in (1, 2, 3, 4, 5):
            plant = synth.generate(synth.reference_spec(seed=seed, noise_sigma_m=0.05))
            project, kinds, types = _tag_maps(plant)
            io, rtls, labeled = plant_traces(plant)
            result = analyze_dynamics(
                io, rtls, training_segments(labeled), kinds, types, project.name, DynamicsParams()
            )
            truth = plant.ground_truth.physical_partition
            known = [
                t for t, e in result.estimates.items() if e.status is EstimateStatus.KNOWN
            ]
            assert known, "no components with Known positions"
            correct = sum(1 for t in known if result.assignments.get(t) == truth[t])
            accuracy = correct / len(known)
            assert accuracy >= 0.90, f"seed {seed}: accuracy {accuracy:.3f} < 0.90"

            if not clustering_checked:
                # Clustering alternative: only required to beat the random
                # baseline; trajectories are continuous, so splits drift.
                clusters = cluster_positions(
                    result.estimates,
                    KMeansParams(k=len(plant.ground_truth.zone_labels), seed=seed),
                )
                subset = {t: truth[t] for t in clusters}
                cluster_ari = ari(subset, clusters)
                assert cluster_ari > 0.0, f"clustering ARI {cluster_ari:.3f}"
                clustering_checked = True


def _random_mining_graph(rng, edge_labels):
    n = rng.randint(3, 7)
    vlabels = [rng.choice("AB") for _ in range(n)]
    possible = [(u, v) for u in range(n) for v in range(n) if u != v]
    rng.shuffle(possible)
    arcs = [(u, v, rng.choice(edge_labels)) for (u, v) in possible[: rng.randint(n - 1, n + 4)]]
    view = MiningGraph(
        vertex_ids=[f"v{i}" for i in range(n)],
        vertex_labels={f"v{i}": lab for i, lab in enumerate(vlabels)},
        edges=[(f"v{u}", f"v{v}", lab) for (u, v, lab) in arcs],
    )
    return vlabels, arcs, view


def _random_forest_graph(rng):
    """A random graph whose Contains arcs form a forest: one to three
    copies each of one or two small random units (a Contains tree of two
    to four vertices, maybe with one other arc), a copy sometimes with an
    extra child or hung under an earlier vertex, then up to two arcs
    between random vertices, with the vertices renumbered at random."""
    vlabels, arcs = [], []
    for _ in range(rng.randint(1, 2)):
        size = rng.randint(2, 4)
        labels = [rng.choice("AB") for _ in range(size)]
        unit = [(rng.randrange(k), k, "Contains") for k in range(1, size)]
        u, v = rng.sample(range(size), 2)
        unit += [(u, v, rng.choice("yz"))] if rng.random() < 0.5 else []
        for _ in range(rng.randint(1, 3)):
            base = len(vlabels)
            if base and rng.random() < 0.3:
                arcs.append((rng.randrange(base), base, "Contains"))
            vlabels += labels
            arcs += [(base + u, base + v, label) for (u, v, label) in unit]
            if rng.random() < 0.3:
                vlabels.append(rng.choice("AB"))
                arcs.append((base + rng.randrange(size), len(vlabels) - 1, "Contains"))
    n = len(vlabels)
    for _ in range(rng.randint(0, 2)):
        u, v = rng.sample(range(n), 2)
        arcs.append((u, v, rng.choice("yz")))
    arcs = sorted(set(arcs))
    new = rng.sample(range(n), n)
    vlabels = [vlabels[new.index(k)] for k in range(n)]
    arcs = [(new[u], new[v], label) for (u, v, label) in arcs]
    view = MiningGraph(
        vertex_ids=[f"v{i}" for i in range(n)],
        vertex_labels={f"v{i}": lab for i, lab in enumerate(vlabels)},
        edges=[(f"v{u}", f"v{v}", lab) for (u, v, lab) in arcs],
    )
    return vlabels, arcs, view


def _assert_same_patterns(mined, expected, case):
    """``mined`` holds one pattern per oracle (labels, arcs, support), by
    structure and support."""
    assert len(mined) == len(expected), case
    for (evl, earcs, esup) in expected:
        hits = [
            p
            for p in mined
            if p.support == esup
            and tiny_graphs_isomorphic(evl, list(earcs), p.vertex_labels, list(p.arcs))
        ]
        assert len(hits) == 1, (case, evl, earcs)


def test_criterion_4_mining_oracle_equivalence():
    with _criterion(4, "mining oracle equivalence"):
        rng = random.Random(24601)
        graphs = 0
        for case in range(100):
            vlabels, arcs, view = _random_mining_graph(rng, "xy")
            mined = mine_frequent(view, min_support=2, min_nodes=2, max_nodes=12)
            _assert_same_patterns(mined, mine_oracle(vlabels, arcs, 2, 2, 12), (case, vlabels, arcs))
            # Anti-monotonicity of every reported pattern, via the oracle.
            host_vl = {f"v{i}": lab for i, lab in enumerate(vlabels)}
            host_arcs = view.edges
            for p in mined:
                for drop in range(p.edge_count):
                    sub = [a for k, a in enumerate(p.arcs) if k != drop]
                    used = sorted({x for (u, v, _) in sub for x in (u, v)})
                    if not sub or not _connected(sub, used):
                        continue
                    renum = {v: i for i, v in enumerate(used)}
                    sub_vl = {renum[v]: p.vertex_labels[v] for v in used}
                    sub_arcs = [(renum[u], renum[v], lab) for (u, v, lab) in sub]
                    assert mni_oracle(sub_vl, sub_arcs, host_vl, host_arcs) >= p.support
            graphs += 1
        assert graphs == 100
        # mine, the pipeline's search, on graphs whose Contains arcs form a
        # forest. Each template has its canonical code, and its embeddings,
        # enumerated up to symmetry, give each root image the vertex sets
        # that all embeddings through it give.
        rng = random.Random(3141)
        with_templates = 0
        for case in range(100):
            vlabels, arcs, view = _random_forest_graph(rng)
            expected = unit_mine_oracle(vlabels, arcs, 2, 2, 6)
            mined = mine(view, 2, 2, 6)
            _assert_same_patterns(mined, expected, (case, vlabels, arcs))
            for p in mined:
                assert p.code == min_dfs_code(p.vertex_labels, p.arcs), case
                root = min(set(range(p.vertex_count)) - {v for (_, v, lab) in p.arcs if lab == "Contains"})
                every = enumerate_embeddings(p.vertex_labels, list(p.arcs), view.vertex_labels, view.edges)
                assert {(e[root], frozenset(e.values())) for e in every} == {
                    (e[root], frozenset(e)) for e in p.embeddings
                }, case
            with_templates += bool(expected)
        assert with_templates >= 30


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


def test_criterion_5_template_recovery(reference_run):
    with _criterion(5, "template recovery and device exclusion"):
        run = reference_run["runs"][0]
        report = run["result"].report
        assert report is not None
        assert report.template_recovery == 1.0

        # The expected structures carry their supports: the storage row
        # repeats 8 times (2 levels x 4 rows).
        truth = reference_run["plant"].ground_truth
        expected = {t["name"]: t["support"] for t in truth.templates}
        assert expected["row"] == 8
        templates = pipeline.templates_from_graph(load_graph(run["out"] / "plant.dtgraph"))
        from plantrecon.metrics import _as_pattern

        for structure in truth.templates:
            wanted = _as_pattern(structure)
            hits = [
                t
                for t in templates
                if t.support == wanted.support and patterns_isomorphic(wanted, t)
            ]
            assert len(hits) == 1, structure["name"]

        # Device-exclusion regression: with hardware left in, the IO-device
        # star dominates the mined templates; with the default exclusion no
        # hardware vertex appears at all.
        from plantrecon.graph import Edge, EdgeKind, Node, PropertyGraph

        g = PropertyGraph()
        g.add_node(Node("SystemRoot:P", NodeKind.SYSTEM_ROOT, "P", {}))
        for d in range(2):
            dev = f"IoDevice:D{d}"
            g.add_node(Node(dev, NodeKind.IO_DEVICE, f"D{d}", {}))
            g.add_edge(Edge(EdgeKind.CONTAINS, "SystemRoot:P", dev))
            for c in range(4):
                ch, s = f"Channel:D{d}/{c}", f"Sensor:S{d}{c}"
                g.add_node(Node(ch, NodeKind.CHANNEL, f"D{d}:{c}", {}))
                g.add_node(Node(s, NodeKind.SENSOR, f"S{d}{c}", {}))
                g.add_edge(Edge(EdgeKind.CONTAINS, dev, ch))
                g.add_edge(Edge(EdgeKind.CONTAINS, "SystemRoot:P", s))
                g.add_edge(Edge(EdgeKind.WIRED_TO, s, ch))
        no_exclusion = select_templates(
            mine_frequent(project_for_mining(g, frozenset()), 2, 3, 9)
        )
        star = max(no_exclusion, key=lambda p: p.vertex_count)
        assert "IoDevice" in star.vertex_labels
        assert star.vertex_labels.count("Sensor") == 4
        assert star.support == 2
        with_exclusion = mine_frequent(project_for_mining(g), 2, 2, 9)
        for p in with_exclusion:
            assert not {"Plc", "IoDevice", "Channel"} & set(p.vertex_labels)


def test_criterion_6_aml_round_trip():
    with _criterion(6, "AML round trip"):
        rng = random.Random(60601)
        deterministic_checked = False
        for case in range(50):
            spec = synth.PlantSpec(
                levels=rng.randint(1, 2),
                rows_per_level=rng.randint(1, 3),
                places_per_row=rng.randint(1, 3),
                extra_components=(
                    (synth.ExtraUnit("aux", rng.randint(1, 3), rng.randint(1, 2),
                                     "system", "infeed"),)
                    if rng.random() < 0.4
                    else ()
                ),
                sim_duration_s=240.0,
                seed=rng.randint(0, 9999),
            )
            plant = synth.generate(spec)
            project = plc.parse_project(plant.plc_xml)
            graph = functional_grouping(project, plc.build_call_tree(project))
            if case % 10 == 0:
                # Exercise the template mapping path as well, with the
                # templates of the search the pipeline runs.
                from plantrecon.mining import mark_templates

                view = project_for_mining(
                    graph,
                    frozenset(
                        {NodeKind.PLC, NodeKind.IO_DEVICE, NodeKind.CHANNEL,
                         NodeKind.DATA_BLOCK, NodeKind.FUNCTION_BLOCK_TYPE}
                    ),
                )
                mark_templates(graph, mine(view, 2, 3, 10))
                assert graph.query(kinds={NodeKind.TEMPLATE_PATTERN}), case
            xml_bytes = export_aml(graph)
            back = import_aml(xml_bytes)
            assert back.node_count == graph.node_count
            assert {e.triple for e in back.edges()} == {e.triple for e in graph.edges()}
            for node in graph.nodes():
                other = back.node(node.id)
                assert (other.kind, other.name, other.labels) == (
                    node.kind,
                    node.name,
                    node.labels,
                )
            if not deterministic_checked:
                assert export_aml(graph) == xml_bytes
                deterministic_checked = True


def test_criterion_7_end_to_end_runtime(reference_run):
    with _criterion(7, "end-to-end runtime"):
        elapsed = reference_run["runs"][0]["elapsed"]
        assert elapsed < 60.0, f"run-all took {elapsed:.1f}s"
        report = reference_run["runs"][0]["result"].report
        assert report.ari == 1.0
        assert report.classification_accuracy >= 0.90


def test_criterion_8_determinism(reference_run):
    with _criterion(8, "pipeline determinism"):
        watched = (
            "functional.dtgraph",
            "dynamics.dtgraph",
            "plant.dtgraph",
            "plant.aml",
            "templates.txt",
            "summary.txt",
            "metrics.report",
        )
        first, second = reference_run["runs"]
        for name in watched:
            a = (first["out"] / name).read_bytes()
            b = (second["out"] / name).read_bytes()
            assert a == b, f"{name} differs between identical runs"
