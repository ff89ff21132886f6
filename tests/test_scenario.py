from __future__ import annotations

import pytest

from anchorsim.errors import ScenarioInvalid
from anchorsim.scenario import (
    MIN_TIMESTEP,
    Scenario,
    load_scenario,
    parse_scenario,
    render_scenario,
    scenario_hash,
)


def test_empty_text_gives_defaults():
    sc = parse_scenario("")
    assert sc == Scenario()
    assert sc.tools.variant == "constant_load_spring"
    assert sc.procedure.drill_depth_target == 0.080


def test_variant_override():
    sc = parse_scenario("[tools]\nvariant = regular_spring\n")
    assert sc.tools.variant == "regular_spring"


def test_bad_variant_rejected():
    with pytest.raises(ScenarioInvalid) as err:
        parse_scenario("[tools]\nvariant = banana\n")
    assert "variant" in str(err.value)


def test_unknown_key_rejected():
    with pytest.raises(ScenarioInvalid) as err:
        parse_scenario("[wall]\nwobble = 3\n")
    assert err.value.field == "wall.wobble"


def test_unknown_section_rejected():
    with pytest.raises(ScenarioInvalid):
        parse_scenario("[weather]\nrain = yes\n")


def test_bad_number_rejected():
    with pytest.raises(ScenarioInvalid) as err:
        parse_scenario("[wall]\nwidth = wide\n")
    assert err.value.field == "wall.width"


def test_bad_station_rejected():
    with pytest.raises(ScenarioInvalid):
        parse_scenario("[robot]\nbase1 = 1,2\n")


def test_holes_must_be_positive():
    with pytest.raises(ScenarioInvalid):
        parse_scenario("[part]\nholes = 0\n")


def test_depth_source_checked():
    with pytest.raises(ScenarioInvalid):
        parse_scenario("[procedure]\ndepth_source = gps\n")
    sc = parse_scenario("[procedure]\ndepth_source = commanded\n")
    assert sc.procedure.depth_source == "commanded"


def test_render_parse_round_trip():
    sc = Scenario()
    sc.tools.variant = "offset_uncompensated"
    sc.part.holes = 4
    sc.part.hole_spacing = 0.05
    sc.wall.yaw_deg = 5.0
    sc.procedure.timestep = 0.005
    text = render_scenario(sc)
    back = parse_scenario(text)
    assert back == sc


def test_hash_stable_and_sensitive():
    a = Scenario()
    b = Scenario()
    assert scenario_hash(a) == scenario_hash(b)
    b.part.holes = 2
    assert scenario_hash(a) != scenario_hash(b)


def test_threshold_sanity_enforced():
    with pytest.raises(ScenarioInvalid):
        parse_scenario("[procedure]\nhammering_end_moment = 31\n")
    with pytest.raises(ScenarioInvalid):
        parse_scenario("[procedure]\nhammer_success_depth = 0.09\n")
    # A relaxed guard admits a higher hammering threshold, if the bottom
    # contact can reach it.
    relaxed = "[procedure]\nhammering_end_moment = 45\n\n[sensors]\nmoment_limit = 100\n"
    parse_scenario(relaxed + "\n[tools]\nhammer_contact_cap = 50\n")
    with pytest.raises(ScenarioInvalid, match="tools.hammer_contact_cap"):
        parse_scenario(relaxed)


def test_timestep_floor_is_the_stamp_resolution():
    # A finer tick would repeat exported stamps, and 1e-300 would overflow
    # the guard filter's window size in World.__init__.
    for timestep in (0.0, -0.01, 1e-300, MIN_TIMESTEP * 0.999):
        with pytest.raises(ScenarioInvalid) as err:
            parse_scenario(f"[procedure]\ntimestep = {timestep!r}\n")
        assert err.value.field == "procedure.timestep"
    assert parse_scenario(f"[procedure]\ntimestep = {MIN_TIMESTEP!r}\n").procedure.timestep == 0.0001


def test_load_scenario_missing_file():
    with pytest.raises(ScenarioInvalid):
        load_scenario("/nonexistent/path/to/scenario.ini")


def test_load_scenario_none_is_default():
    assert load_scenario(None) == Scenario()


def test_byte_order_mark_is_read_past(tmp_path):
    text = "[part]\nholes = 2\nhole_spacing = 0.05\n"
    plain, marked = tmp_path / "plain.ini", tmp_path / "marked.ini"
    plain.write_text(text, encoding="utf-8")
    marked.write_text(text, encoding="utf-8-sig")
    assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
    assert load_scenario(str(marked)) == load_scenario(str(plain)) != Scenario()


def test_station_parsing():
    sc = Scenario()
    p = sc.station("base1")
    assert (p.x, p.y, p.z) == (0.0, -0.30, 0.75)
