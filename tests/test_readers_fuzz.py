"""Mutation fuzzing of every file reader: a damaged input file must end in
an error the CLI maps to exit 1 (unusable input) or 2 (bad data), never
in an internal error.

The inputs are the mini plant's own files, mutated by byte replacement,
truncation and line duplication; a stored graph also by replacing one
label value with another scalar, which keeps every record valid JSON.
The reference plant's stored graph and AML document get the same
mutations, with fewer examples. Hypothesis runs derandomized, so every
run draws the same examples.
"""

import json
import math
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plantrecon import aml, dynamics, grouping, metrics, mining, pipeline, plc, synth, traces
from plantrecon.cli import _fail
from plantrecon.clustering import KMeansParams, cluster_positions
from plantrecon.config import PipelineConfig, write_kv_file
from plantrecon.graph import NodeKind, load_graph
from plantrecon.traces import load_io_trace, load_rtls_trace

FUZZ = settings(derandomize=True, max_examples=150, deadline=None, database=None)
REFERENCE_FUZZ = settings(FUZZ, max_examples=60)


def _run_all_dir(tmp_path_factory, spec):
    """A plant's inputs and the outputs of one run-all over them."""
    out = tmp_path_factory.mktemp("fuzz_plant")
    synth.generate(spec).write_outputs(out)
    write_kv_file(out / "pipeline.conf", synth.recommended_config(spec, out))
    pipeline.run_all(PipelineConfig.load(out / "pipeline.conf"))
    return out


@pytest.fixture(scope="module")
def plant_dir(tmp_path_factory):
    return _run_all_dir(tmp_path_factory, synth.mini_spec())


@pytest.fixture(scope="module")
def reference_dir(tmp_path_factory):
    return _run_all_dir(tmp_path_factory, synth.reference_spec())


@st.composite
def mutations(draw, data: bytes) -> bytes:
    # Positions come from a seeded Random: hypothesis' own integers favour
    # the ends of a range, and most of a file lies between them.
    rnd = draw(st.randoms(use_true_random=False))
    for _ in range(draw(st.integers(1, 3))):
        op = draw(st.sampled_from(["replace", "truncate", "duplicate"]))
        if op == "replace" and data:
            at = rnd.randrange(len(data))
            data = data[:at] + bytes([rnd.randrange(256)]) + data[at + 1:]
        elif op == "truncate":
            data = data[: rnd.randrange(len(data) + 1)]
        else:
            lines = data.split(b"\n")
            at = rnd.randrange(len(lines))
            lines.insert(at, lines[at])
            data = b"\n".join(lines)
    return data


@st.composite
def label_edits(draw, data: bytes) -> bytes:
    """One label value of one ``.dtgraph`` record replaced by a drawn
    scalar: a string, an int, a float, NaN or an infinity."""
    rnd = draw(st.randoms(use_true_random=False))
    lines = data.split(b"\n")
    records = {k: json.loads(line) for k, line in enumerate(lines) if line}
    at, key = rnd.choice([(k, key) for k, r in records.items() for key in sorted(r["labels"])])
    non_finite = st.sampled_from([math.nan, math.inf, -math.inf])
    records[at]["labels"][key] = draw(st.one_of(st.text(), st.integers(), st.floats(), non_finite))
    lines[at] = json.dumps(records[at], sort_keys=True).encode()
    return b"\n".join(lines)


def _assert_exit_1_or_2(exc: Exception) -> None:
    code = _fail(exc).exit_code
    assert code in (1, 2), f"exit {code}: {type(exc).__name__}: {exc}"


def _exits_1_or_2(read, *args) -> None:
    """Run ``read``; an exception it raises must map to exit 1 or 2."""
    try:
        read(*args)
    except Exception as exc:
        _assert_exit_1_or_2(exc)


def _mutated_file(plant_dir, name: str, data: bytes):
    path = plant_dir / f"mutated-{name}"
    path.write_bytes(data)
    return path


def _plc_inputs(plant_dir):
    project = plc.parse_project((plant_dir / "plant.plcproject.xml").read_bytes())
    kinds = {t.name: (NodeKind.SENSOR if t.is_input else NodeKind.ACTUATOR) for t in project.tags}
    return project, kinds, {t.name: t.data_type.value for t in project.tags}


def _analyze_plc(xml_bytes: bytes) -> None:
    project = plc.prepare(plc.parse_project(xml_bytes))
    grouping.functional_grouping(project, plc.build_call_tree(project))


def _analyze_mutated_trace(plant_dir, name: str, data) -> None:
    """Load the three trace CSVs, one of them mutated, and analyze them."""
    project, kinds, types = _plc_inputs(plant_dir)
    path = _mutated_file(plant_dir, name, data.draw(mutations((plant_dir / name).read_bytes())))
    files = {n: plant_dir / n for n in ("io.csv", "rtls.csv", "rtls_labeled.csv")}
    files[name] = path

    def analyze():
        dynamics.analyze_dynamics(
            load_io_trace(files["io.csv"]),
            load_rtls_trace(files["rtls.csv"]),
            load_rtls_trace(files["rtls_labeled.csv"]),
            kinds,
            types,
            project.name,
        )

    _exits_1_or_2(analyze)


def _read_mutated_graph(plant_dir, name: str, data) -> None:
    """Read a stored graph, mutated, as evaluate does."""
    original = (plant_dir / name).read_bytes()
    mutated = data.draw(st.one_of(mutations(original), label_edits(original)))
    path = _mutated_file(plant_dir, name, mutated)
    cfg = PipelineConfig.load(plant_dir / "pipeline.conf")

    def read():
        # load_graph, then the readers of stored labels that evaluate
        # runs, and the clustering of the stored positions.
        graph = load_graph(path)
        pipeline.templates_from_graph(graph)
        mining.summarize(graph)
        estimates = dynamics.stored_estimates(graph)
        if estimates:
            cluster_positions(estimates, KMeansParams(cfg.kmeans_k, cfg.seed))

    _exits_1_or_2(read)


def _aml_validates_exactly_when_it_imports(plant_dir, data) -> None:
    doc = data.draw(mutations((plant_dir / "plant.aml").read_bytes()))
    try:
        aml.import_aml(doc)
    except Exception as exc:
        _assert_exit_1_or_2(exc)
        assert [f.message for f in aml.validate_aml(doc)] == [str(exc)]
    else:
        assert aml.validate_aml(doc) == []


class TestReaderFuzz:
    @FUZZ
    @given(data=st.data())
    def test_plc_xml(self, plant_dir, data):
        original = (plant_dir / "plant.plcproject.xml").read_bytes()
        _exits_1_or_2(_analyze_plc, data.draw(mutations(original)))

    @pytest.mark.parametrize("name", ["io.csv", "rtls.csv", "rtls_labeled.csv"])
    @FUZZ
    @given(data=st.data())
    def test_trace_csv(self, plant_dir, name, data):
        _analyze_mutated_trace(plant_dir, name, data)

    # The mini CSVs fit in one block of the default size; 256-char blocks
    # put mutations at block boundaries and in the resumed row loop.
    @pytest.mark.parametrize("name", ["io.csv", "rtls.csv", "rtls_labeled.csv"])
    @FUZZ
    @given(data=st.data())
    def test_trace_csv_small_blocks(self, plant_dir, name, data):
        with mock.patch.object(traces, "_BLOCK_CHARS", 256):
            _analyze_mutated_trace(plant_dir, name, data)

    @pytest.mark.parametrize("name", ["functional.dtgraph", "plant.dtgraph"])
    @FUZZ
    @given(data=st.data())
    def test_dtgraph(self, plant_dir, name, data):
        _read_mutated_graph(plant_dir, name, data)

    @REFERENCE_FUZZ
    @given(data=st.data())
    def test_reference_dtgraph(self, reference_dir, data):
        _read_mutated_graph(reference_dir, "plant.dtgraph", data)

    @FUZZ
    @given(data=st.data())
    def test_aml_validates_exactly_when_it_imports(self, plant_dir, data):
        _aml_validates_exactly_when_it_imports(plant_dir, data)

    @REFERENCE_FUZZ
    @given(data=st.data())
    def test_reference_aml_validates_exactly_when_it_imports(self, reference_dir, data):
        _aml_validates_exactly_when_it_imports(reference_dir, data)

    @FUZZ
    @given(data=st.data())
    def test_ground_truth_json(self, plant_dir, data):
        original = (plant_dir / "groundtruth.json").read_bytes()
        path = _mutated_file(plant_dir, "groundtruth.json", data.draw(mutations(original)))
        graph = load_graph(plant_dir / "plant.dtgraph")

        def evaluate():
            truth = synth.load_ground_truth(path)
            metrics.evaluate(graph, pipeline.templates_from_graph(graph), truth)

        _exits_1_or_2(evaluate)
