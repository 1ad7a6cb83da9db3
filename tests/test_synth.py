import json
import math
from pathlib import Path

import pytest

from plantrecon import plc, synth
from plantrecon.config import plant_spec_from_dict, plant_spec_to_dict, read_kv_file
from plantrecon.errors import ConfigError
from plantrecon.synth import (
    ExtraUnit,
    Granularity,
    GroundTruthError,
    InvalidSpecError,
    PlantSpec,
    generate,
    load_ground_truth,
    mini_spec,
    reference_spec,
)


class TestSpecValidation:
    def test_counts_must_be_positive(self):
        with pytest.raises(InvalidSpecError):
            generate(PlantSpec(levels=0))

    def test_negative_noise_rejected(self):
        with pytest.raises(InvalidSpecError):
            generate(PlantSpec(rtls_noise_sigma_m=-0.1))

    def test_duplicate_unit_names_rejected(self):
        with pytest.raises(InvalidSpecError):
            generate(
                PlantSpec(
                    extra_components=(
                        ExtraUnit("u", 1, 1),
                        ExtraUnit("u", 2, 2),
                    )
                )
            )

    def test_too_short_duration(self):
        with pytest.raises(InvalidSpecError):
            generate(PlantSpec(sim_duration_s=1.0))

    def test_negative_seed_rejected(self):
        # random.Random(-3) is random.Random(3): a negative seed would
        # write the plant of its absolute value.
        with pytest.raises(InvalidSpecError, match="seed must be non-negative"):
            generate(PlantSpec(seed=-3))

    @pytest.mark.parametrize(
        "rate_hz, duration_s, message",
        [
            (10.0, 1e12, "sim_duration_s must be at most 86400 s"),
            # Under the sample bound, but the missions grow with the duration.
            (1e-6, 86_400.5, "sim_duration_s must be at most 86400 s"),
            (24.0, 84_000.0, "must be at most 2000000 samples"),
        ],
        ids=["duration-1e12", "tiny-rate-over-a-day", "samples-over-2M"],
    )
    def test_recording_size_bounded(self, rate_hz, duration_s, message):
        # Checked before generating: an unbounded spec never finishes.
        with pytest.raises(InvalidSpecError, match=message):
            PlantSpec(rtls_rate_hz=rate_hz, sim_duration_s=duration_s).validate()

    def test_recording_size_at_the_bounds_accepted(self):
        PlantSpec(rtls_rate_hz=2_000_000 / 86_400, sim_duration_s=86_400.0).validate()


class TestMiniGeneration:
    def test_mini_structure_counts(self, mini_plant):
        counts = mini_plant.ground_truth.counts
        assert counts["sensors"] == 2
        assert counts["actuators"] == 2
        assert counts["fbInstances"] == 3

    def test_deterministic_outputs(self):
        a = generate(mini_spec())
        b = generate(mini_spec())
        assert a.plc_xml == b.plc_xml
        assert a.io_csv() == b.io_csv()
        assert a.rtls_csv(True) == b.rtls_csv(True)
        assert a.ground_truth_json() == b.ground_truth_json()

    def test_different_seed_changes_noise_only(self):
        a = generate(reference_spec(seed=1))
        b = generate(reference_spec(seed=2))
        assert a.plc_xml == b.plc_xml  # structure is seed-independent
        assert a.rtls_csv(False) != b.rtls_csv(False)

    def test_ground_truth_covers_every_tag(self, mini_plant):
        project = plc.parse_project(mini_plant.plc_xml)
        tags = {t.name for t in project.tags}
        gt = mini_plant.ground_truth
        assert set(gt.functional_partition) == tags
        assert set(gt.physical_partition) == tags
        assert set(gt.true_positions) == tags

    def test_write_outputs(self, tmp_path, mini_plant):
        paths = mini_plant.write_outputs(tmp_path)
        for path in paths.values():
            assert path.exists()
        gt = load_ground_truth(paths["ground_truth"])
        assert gt == mini_plant.ground_truth


class TestLoadGroundTruth:
    @pytest.mark.parametrize(
        "key, value",
        [
            ("functionalPartition", {"S": 1}),
            ("physicalPartition", ["S"]),
            ("truePositions", {"S": [1.0, 2.0]}),
            ("truePositions", {"S": 3.0}),
            ("templates", [{"vertices": ["Sensor"], "edges": [[0, 1, "Contains"]]}]),
            ("templates", [{"vertices": ["Sensor"], "edges": [[0, 0, "Contains", 1]]}]),
            ("templates", [{"vertices": ["Sensor"], "edges": [], "support": "3"}]),
            ("templates", {"vertices": []}),
            ("zoneLabels", "L1"),
            ("counts", {"sensors": 2.5}),
        ],
    )
    def test_wrong_shape_names_the_key(self, tmp_path, mini_plant, key, value):
        payload = json.loads(mini_plant.ground_truth_json())
        payload[key] = value
        path = tmp_path / "groundtruth.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(GroundTruthError, match=f"'{key}' must be"):
            load_ground_truth(path)


class TestPaperScaleGeneration:
    def test_exact_field_device_totals(self, reference_plant):
        assert reference_plant.ground_truth.counts["sensors"] == 35
        assert reference_plant.ground_truth.counts["actuators"] == 25

    def test_two_levels_four_rows(self, reference_plant):
        project = plc.parse_project(reference_plant.plc_xml)
        names = {b.name for b in project.instance_blocks()}
        assert {"DB_Level_1", "DB_Level_2"} <= names
        rows = {n for n in names if n.startswith("DB_Row_")}
        assert len(rows) == 8

    def test_expected_templates(self, reference_plant):
        templates = {t["name"]: t for t in reference_plant.ground_truth.templates}
        assert templates["row"]["support"] == 8
        # 16 places, two lifts and the station share the local shape; the
        # dock (actuator-only) and panel (sensor-only) do not.
        assert templates["place"]["support"] == 19

    def test_offline_unit_never_fires(self, reference_plant):
        changed = {tag for (t, tag, v) in reference_plant.io_rows if v != 0.0}
        panel_tags = {
            tag
            for tag in reference_plant.ground_truth.physical_partition
            if "panel" in tag
        }
        assert panel_tags
        assert changed.isdisjoint(panel_tags)

    def test_single_active_tray_at_a_time(self, reference_plant):
        # Motion-triggered RTLS: at any timestamp only one tracker emits.
        by_ts = {}
        for (t, tracker, *_rest) in reference_plant.rtls_rows:
            by_ts.setdefault(t, set()).add(tracker)
        assert all(len(v) == 1 for v in by_ts.values())
        trackers = {tracker for (_, tracker, *_rest) in reference_plant.rtls_rows}
        assert trackers == {"tray01", "tray02", "tray03", "tray04"}

    def test_labeled_zones_match_truth_vocabulary(self, reference_plant):
        zones = {z for (*_x, z) in reference_plant.rtls_rows if z}
        assert zones == set(reference_plant.ground_truth.zone_labels)


class TestRecommendedConfig:
    @pytest.mark.parametrize(
        "granularity, units",
        [
            (Granularity.PLACE, ()),
            (Granularity.ROW, ()),
            (Granularity.LEVEL, ()),
            (Granularity.ROW, (ExtraUnit("feed", 1, 1, "level", "infeed"),)),
            (Granularity.PLACE, (ExtraUnit("lift", 1, 1, "level", "lift"),
                                 ExtraUnit("panel", 1, 0, "system", "none"))),
        ],
        ids=["place", "row", "level", "row-level-infeed", "place-lift-panel"],
    )
    def test_kmeans_k_is_the_zone_label_count(self, tmp_path, granularity, units):
        spec = PlantSpec(
            levels=2,
            rows_per_level=2,
            places_per_row=2,
            location_granularity=granularity,
            extra_components=units,
            sim_duration_s=200.0,
        )
        plant = generate(spec)
        conf = synth.recommended_config(spec, tmp_path)
        assert int(conf["kmeans_k"]) == len(plant.ground_truth.zone_labels)

    def test_file_keys_name_the_written_files(self, tmp_path, mini_plant):
        paths = mini_plant.write_outputs(tmp_path)
        conf = synth.recommended_config(mini_plant.spec, tmp_path)
        assert {key: conf[key] for key in paths} == {k: str(p) for k, p in paths.items()}


def _bench_spec(name):
    path = Path(__file__).parents[1] / "perfbench" / "specs" / f"{name}.plantspec"
    return plant_spec_from_dict(read_kv_file(path))


class TestSpecConfigRoundTrip:
    def test_plant_spec_round_trip(self):
        spec = reference_spec(seed=9, noise_sigma_m=0.02)
        again = plant_spec_from_dict(plant_spec_to_dict(spec))
        assert again == spec

    @pytest.mark.parametrize(
        "make_spec",
        [
            mini_spec,
            lambda: _bench_spec("levels3"),
            lambda: _bench_spec("recording"),
            lambda: PlantSpec(location_granularity=Granularity.LEVEL, rtls_rate_hz=7.5,
                              extra_components=(ExtraUnit("lift", 2, 1, "level", "lift"),)),
        ],
        ids=["mini", "levels3", "recording", "level-lift"],
    )
    def test_other_specs_round_trip(self, make_spec):
        spec = make_spec()
        assert plant_spec_from_dict(plant_spec_to_dict(spec)) == spec

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("rows", "1", "unknown plantspec key 'rows'"),
            ("levels", "2.0", "levels: expected int, got '2.0'"),
            ("sim_duration_s", "long", "sim_duration_s: expected float, got 'long'"),
            ("location_granularity", "Zone",
             "location_granularity must be Place|Row|Level, got 'Zone'"),
            ("extra_components", "lift:1:2:level",
             "extra component 'lift:1:2:level' must be name:sensors:actuators:attach:waypoint"),
            ("extra_components", "a:1:2:system:none;lift:x:2:level:lift",
             "extra component 'lift:x:2:level:lift': sensors and actuators must be integers"),
        ],
    )
    def test_bad_value_message(self, key, value, message):
        with pytest.raises(ConfigError) as info:
            plant_spec_from_dict({key: value})
        assert str(info.value) == message

    def test_granularity_parsing(self):
        spec = plant_spec_from_dict({"location_granularity": "Level"})
        assert spec.location_granularity is Granularity.LEVEL


class TestKinematicsAssumption:
    def test_io_events_happen_at_material_position(self, mini_plant):
        # Noise-free MINI: at each occupancy rising edge, the active tray's
        # nearest sample sits at the place coordinate, within one sample
        # step of travel.
        place_pos = mini_plant.ground_truth.true_positions["S_occ_1_1"]
        rises = [
            t for (t, tag, v) in mini_plant.io_rows if tag == "S_occ_1_1" and v == 1.0
        ]
        assert len(rises) >= 3
        samples = [(t, (x, y, z)) for (t, _tr, x, y, z, _z) in mini_plant.rtls_rows]
        interval = 1000.0 / mini_plant.spec.rtls_rate_hz
        bound = synth.TRAY_SPEED_M_PER_S * (interval / 1000.0) + 1e-9
        for rise in rises:
            nearest = min(samples, key=lambda s: abs(s[0] - rise))
            assert math.dist(nearest[1], place_pos) <= bound
