import re

import pytest

from plantrecon.plc import (
    AccessMode,
    BlockType,
    RecursiveCallError,
    SchemaViolationError,
    UnresolvedReferenceError,
    XmlSyntaxError,
    build_call_tree,
    parse_project,
    serialize_project,
)

MINI_LIKE_XML = """<?xml version="1.0" encoding="utf-8"?>
<PlcProject name="Mini">
  <HardwareConfig>
    <Device id="PLC1" type="Plc" name="cpu" channels="0"/>
    <Device id="DI1" type="DigitalIn" name="in card" channels="8"/>
    <Device id="DO1" type="DigitalOut" name="out card" channels="8"/>
  </HardwareConfig>
  <TagTable>
    <Tag name="S_occ_1_1" dataType="Bool" address="%I0.0" device="DI1" channel="0"/>
    <Tag name="S_occ_1_2" dataType="Bool" address="%I0.1" device="DI1" channel="1"/>
    <Tag name="A_eject_1_1" dataType="Bool" address="%Q0.0" device="DO1" channel="0"/>
    <Tag name="A_eject_1_2" dataType="Bool" address="%Q0.1" device="DO1" channel="1"/>
  </TagTable>
  <Blocks>
    <OrganizationBlock name="OB1">
      <Call callee="FB_Row" instanceDb="DB_Row_1"/>
    </OrganizationBlock>
    <FunctionBlock name="FB_Row"/>
    <FunctionBlock name="FB_Place"/>
    <DataBlock name="DB_Row_1" ofType="FB_Row">
      <Call callee="FB_Place" instanceDb="DB_Place_1_1"/>
      <Call callee="FB_Place" instanceDb="DB_Place_1_2"/>
    </DataBlock>
    <DataBlock name="DB_Place_1_1" ofType="FB_Place">
      <TagAccess tag="S_occ_1_1" mode="Read"/>
      <TagAccess tag="A_eject_1_1" mode="Write"/>
    </DataBlock>
    <DataBlock name="DB_Place_1_2" ofType="FB_Place">
      <TagAccess tag="S_occ_1_2" mode="Read"/>
      <TagAccess tag="A_eject_1_2" mode="Write"/>
    </DataBlock>
  </Blocks>
</PlcProject>
"""


class TestParse:
    def test_mini_fixture_counts(self, mini_plant):
        project = parse_project(mini_plant.plc_xml)
        fb_types = [b for b in project.blocks if b.block_type is BlockType.FUNCTION_BLOCK_TYPE]
        idbs = project.instance_blocks()
        obs = project.organization_blocks()
        assert len(fb_types) == 2
        assert len(idbs) == 3
        assert len(obs) == 1
        assert len(project.tags) == 4
        assert len(project.devices) == 3

    @pytest.mark.parametrize(
        "order", [("TagTable", "HardwareConfig", "Blocks"), ("Blocks", "TagTable", "HardwareConfig")]
    )
    def test_section_order_free(self, order):
        # Tags name their device, whichever section comes first.
        sections = {
            tag: re.search(rf"  <{tag}>.*?</{tag}>\n", MINI_LIKE_XML, re.S).group()
            for tag in ("HardwareConfig", "TagTable", "Blocks")
        }
        head, tail = MINI_LIKE_XML.split("  <HardwareConfig>")[0], "</PlcProject>\n"
        swapped = head + "".join(sections[tag] for tag in order) + tail
        assert swapped != MINI_LIKE_XML
        assert parse_project(swapped) == parse_project(MINI_LIKE_XML)

    def test_duplicate_section(self):
        hardware = re.search(r"  <HardwareConfig>.*?</HardwareConfig>\n", MINI_LIKE_XML, re.S).group()
        xml = MINI_LIKE_XML.replace(hardware, hardware * 2)
        with pytest.raises(SchemaViolationError, match="duplicate section <HardwareConfig>"):
            parse_project(xml)

    def test_unclosed_element(self):
        with pytest.raises(XmlSyntaxError) as info:
            parse_project("<PlcProject name='x'><Blocks>")
        assert info.value.line >= 1

    @pytest.mark.parametrize("encoding", ["Atf-8", "utf-7", "rot13"])
    def test_unusable_declared_encoding(self, encoding):
        xml = MINI_LIKE_XML.replace('encoding="utf-8"', f'encoding="{encoding}"')
        with pytest.raises(XmlSyntaxError, match="line 1, column 0"):
            parse_project(xml)

    def test_bit_address_out_of_range(self):
        xml = MINI_LIKE_XML.replace('address="%I0.0"', 'address="%I0.9"').replace(
            'channel="0"/>', 'channel="9"/>', 1
        )
        with pytest.raises(SchemaViolationError):
            parse_project(xml)

    def test_channel_beyond_device(self):
        xml = MINI_LIKE_XML.replace(
            '<Device id="DI1" type="DigitalIn" name="in card" channels="8"/>',
            '<Device id="DI1" type="DigitalIn" name="in card" channels="1"/>',
        )
        with pytest.raises(SchemaViolationError):
            parse_project(xml)

    @pytest.mark.parametrize(("channels", "ok"), [(256, True), (257, False), (200000, False)])
    def test_channel_count_bound(self, channels, ok):
        xml = MINI_LIKE_XML.replace('name="in card" channels="8"', f'name="in card" channels="{channels}"')
        if ok:
            counts = {d.id: d.channel_count for d in parse_project(xml).devices}
            assert counts["DI1"] == channels
        else:
            with pytest.raises(SchemaViolationError, match="at most 256"):
                parse_project(xml)

    def test_unknown_element_rejected(self):
        xml = MINI_LIKE_XML.replace("<TagTable>", "<TagTable><Surprise/>")
        with pytest.raises(SchemaViolationError) as info:
            parse_project(xml)
        assert "Surprise" in str(info.value)

    def test_unknown_attribute_rejected(self):
        xml = MINI_LIKE_XML.replace('name="Mini"', 'name="Mini" vendor="acme"')
        with pytest.raises(SchemaViolationError):
            parse_project(xml)

    def test_address_device_direction_mismatch(self):
        xml = MINI_LIKE_XML.replace(
            '<Tag name="A_eject_1_1" dataType="Bool" address="%Q0.0" device="DO1" channel="0"/>',
            '<Tag name="A_eject_1_1" dataType="Bool" address="%Q0.0" device="DI1" channel="0"/>',
        )
        with pytest.raises(SchemaViolationError):
            parse_project(xml)

    def test_two_plcs_rejected(self):
        xml = MINI_LIKE_XML.replace(
            '<Device id="PLC1" type="Plc" name="cpu" channels="0"/>',
            '<Device id="PLC1" type="Plc" name="cpu" channels="0"/>'
            '<Device id="PLC2" type="Plc" name="cpu2" channels="0"/>',
        )
        with pytest.raises(SchemaViolationError):
            parse_project(xml)

    def test_analog_tags_parse(self):
        xml = MINI_LIKE_XML.replace(
            '<Device id="DO1" type="DigitalOut" name="out card" channels="8"/>',
            '<Device id="DO1" type="DigitalOut" name="out card" channels="8"/>'
            '<Device id="AI1" type="AnalogIn" name="analog" channels="4"/>',
        ).replace(
            '<Tag name="S_occ_1_2" dataType="Bool" address="%I0.1" device="DI1" channel="1"/>',
            '<Tag name="S_occ_1_2" dataType="Bool" address="%I0.1" device="DI1" channel="1"/>'
            '<Tag name="S_temp" dataType="Real" address="%IW64" device="AI1" channel="0"/>',
        )
        project = parse_project(xml)
        tag = project.tag_map()["S_temp"]
        assert tag.data_type.value == "Real"
        assert tag.is_input

    def test_serialize_round_trip(self, mini_plant):
        project = parse_project(mini_plant.plc_xml)
        again = parse_project(serialize_project(project))
        assert again == project


class TestPrepare:
    """Reference resolution, the first step of ``build_call_tree``."""

    def test_mini_resolves(self):
        tree = build_call_tree(parse_project(MINI_LIKE_XML))
        assert ("OB1", "DB_Row_1") in tree.call_edges
        assert ("DB_Row_1", "DB_Place_1_1") in tree.call_edges
        assert tree.shared == set()

    def test_dangling_callee_listed(self):
        xml = MINI_LIKE_XML.replace(
            '<Call callee="FB_Row" instanceDb="DB_Row_1"/>',
            '<Call callee="FB_Row" instanceDb="DB_Row_1"/><Call callee="FB_Ghost" instanceDb="DB_Ghost"/>',
        )
        with pytest.raises(UnresolvedReferenceError) as info:
            build_call_tree(parse_project(xml))
        assert "FB_Ghost" in info.value.names
        assert "DB_Ghost" in info.value.names

    def test_all_dangling_reported_at_once(self):
        xml = MINI_LIKE_XML.replace(
            '<TagAccess tag="S_occ_1_1" mode="Read"/>',
            '<TagAccess tag="S_missing_a" mode="Read"/><TagAccess tag="S_missing_b" mode="Read"/>',
        )
        with pytest.raises(UnresolvedReferenceError) as info:
            build_call_tree(parse_project(xml))
        assert {"S_missing_a", "S_missing_b"} <= set(info.value.names)

    def test_instance_type_mismatch(self):
        xml = MINI_LIKE_XML.replace(
            '<Call callee="FB_Place" instanceDb="DB_Place_1_1"/>',
            '<Call callee="FB_Row" instanceDb="DB_Place_1_1"/>',
        )
        with pytest.raises(UnresolvedReferenceError):
            build_call_tree(parse_project(xml))

    def test_shared_instance_flagged(self):
        # Two OBs calling the same FB instance.
        xml = MINI_LIKE_XML.replace(
            "<OrganizationBlock name=\"OB1\">\n      <Call callee=\"FB_Row\" instanceDb=\"DB_Row_1\"/>\n    </OrganizationBlock>",
            "<OrganizationBlock name=\"OB1\">\n      <Call callee=\"FB_Row\" instanceDb=\"DB_Row_1\"/>\n    </OrganizationBlock>"
            "<OrganizationBlock name=\"OB2\">\n      <Call callee=\"FB_Row\" instanceDb=\"DB_Row_1\"/>\n    </OrganizationBlock>",
        )
        project = parse_project(xml)
        tree = build_call_tree(project)
        assert tree.parents["DB_Row_1"] == ["OB1", "OB2"]
        assert tree.shared == {"DB_Row_1"}

    def test_type_scoped_access_expands_to_instances(self):
        xml = MINI_LIKE_XML.replace(
            '<FunctionBlock name="FB_Place"/>',
            '<FunctionBlock name="FB_Place"><TagAccess tag="S_occ_1_1" mode="Read"/></FunctionBlock>',
        )
        tree = build_call_tree(parse_project(xml))
        readers = {
            owner
            for owner, accesses in tree.accesses.items()
            if any(a.tag == "S_occ_1_1" and a.mode is AccessMode.READ for a in accesses)
        }
        assert {"DB_Place_1_1", "DB_Place_1_2"} <= readers


class TestCallTree:
    def test_mini_tree_shape(self):
        project = parse_project(MINI_LIKE_XML)
        tree = build_call_tree(project)
        assert tree.roots == ["OB1"]
        assert tree.children["OB1"] == ["DB_Row_1"]
        assert tree.children["DB_Row_1"] == ["DB_Place_1_1", "DB_Place_1_2"]
        assert tree.depth() == 3

    def test_self_recursion_rejected(self):
        xml = MINI_LIKE_XML.replace(
            '<DataBlock name="DB_Row_1" ofType="FB_Row">',
            '<DataBlock name="DB_Row_1" ofType="FB_Row">'
            '<Call callee="FB_Row" instanceDb="DB_Row_1"/>',
        )
        with pytest.raises(RecursiveCallError, match="chain: DB_Row_1 -> DB_Row_1$"):
            build_call_tree(parse_project(xml))

    def test_mutual_recursion_rejected(self):
        xml = MINI_LIKE_XML.replace(
            '<DataBlock name="DB_Place_1_2" ofType="FB_Place">',
            '<DataBlock name="DB_Place_1_2" ofType="FB_Place">'
            '<Call callee="FB_Row" instanceDb="DB_Row_1"/>',
        )
        with pytest.raises(
            RecursiveCallError, match="chain: DB_Row_1 -> DB_Place_1_2 -> DB_Row_1$"
        ):
            build_call_tree(parse_project(xml))

    def test_three_cycle_reported_in_call_order(self):
        xml = MINI_LIKE_XML.replace(
            '<DataBlock name="DB_Place_1_1" ofType="FB_Place">',
            '<DataBlock name="DB_Place_1_1" ofType="FB_Place">'
            '<Call callee="FB_Z" instanceDb="DB_Z"/>',
        ).replace(
            "</Blocks>",
            '<FunctionBlock name="FB_Z"/><DataBlock name="DB_Z" ofType="FB_Z">'
            '<Call callee="FB_Row" instanceDb="DB_Row_1"/></DataBlock></Blocks>',
        )
        project = parse_project(xml)
        with pytest.raises(RecursiveCallError) as info:
            build_call_tree(project)
        cycle = info.value.cycle
        assert len(cycle) == 4 and cycle[0] == cycle[-1]
        assert set(cycle) == {"DB_Row_1", "DB_Place_1_1", "DB_Z"}
        blocks = project.block_map()

        def callees(name):  # the instance's own calls and its type's
            scopes = (blocks[name], blocks[blocks[name].of_type])
            return {call.instance_db for block in scopes for call in block.calls}

        assert all(callee in callees(caller) for caller, callee in zip(cycle, cycle[1:]))

    def test_order_lists_callers_first(self, reference_plant):
        tree = build_call_tree(parse_project(reference_plant.plc_xml))
        assert sorted(tree.order) == sorted(tree.nodes)
        position = {name: k for k, name in enumerate(tree.order)}
        for name in tree.nodes:
            assert all(position[p] < position[name] for p in tree.parents[name])

    def test_reference_depth_three_controller_levels(self, reference_plant):
        project = parse_project(reference_plant.plc_xml)
        tree = build_call_tree(project)
        assert tree.roots == ["OB1"]
        level_dbs = [n for n in tree.children["OB1"] if n.startswith("DB_Level")]
        assert len(level_dbs) == 2
        for level_db in level_dbs:
            row_dbs = [n for n in tree.children[level_db] if n.startswith("DB_Row")]
            assert len(row_dbs) == 4
            for row_db in row_dbs:
                places = tree.children[row_db]
                assert len(places) == 2
                assert all(p.startswith("DB_Place") for p in places)
