from __future__ import annotations

import numpy as np
import pytest

from anchorsim.errors import ScenarioInvalid
from anchorsim.geometry import Point3
from anchorsim.scenario import Scenario, ToolsSection
from anchorsim.tools import (
    DrillVariant,
    drill_reaction_moment,
    drill_thrust,
    hammer_blow,
    nutrunner_pulse,
)
from anchorsim.worksite import DrilledHole

DEPTHS = np.linspace(0.0, 0.08, 801)


def cfg(variant):
    return ToolsSection(variant=variant.value)


def invalid_field(**tools):
    """Field named by the validation error of a scenario with these tools."""
    sc = Scenario(tools=ToolsSection(**tools))
    with pytest.raises(ScenarioInvalid) as err:
        sc.validate()
    return err.value.field


# --- thrust -----------------------------------------------------------------


def test_thrust_line():
    # F(d) = 280 + 2000 d: chosen so the uncompensated moment hits the
    # -30 Nm guard at exactly 10 mm (see test below).
    assert drill_thrust(0.0, ToolsSection()) == pytest.approx(280.0)
    assert drill_thrust(0.01, ToolsSection()) == pytest.approx(300.0)


def test_thrust_rejects_negative_depth():
    with pytest.raises(ValueError):
        drill_thrust(-0.001, ToolsSection())
    with pytest.raises(ValueError):
        drill_thrust(0.2, ToolsSection())
    with pytest.raises(ValueError, match="depth 0.2 m outside"):
        drill_thrust(np.array([0.0, 0.03, 0.2, 0.08]), ToolsSection())


def test_thrust_monotone():
    vals = [drill_thrust(float(d), ToolsSection()) for d in DEPTHS]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


# --- reaction moments --------------------------------------------------------


def test_uncompensated_hits_guard_at_10mm():
    c = cfg(DrillVariant.OFFSET_UNCOMPENSATED)
    assert drill_reaction_moment(c, 0.010) == pytest.approx(-30.0)


def test_uncompensated_strictly_decreasing():
    c = cfg(DrillVariant.OFFSET_UNCOMPENSATED)
    vals = [drill_reaction_moment(c, float(d)) for d in DEPTHS]
    assert all(b < a for a, b in zip(vals, vals[1:]))


def test_regular_spring_curve():
    c = cfg(DrillVariant.REGULAR_SPRING)
    assert drill_reaction_moment(c, 0.0) == pytest.approx(15.0)
    slope = (drill_reaction_moment(c, 0.02) - drill_reaction_moment(c, 0.0)) / 0.02
    assert slope == pytest.approx(230.0)
    # Crosses +30 Nm near 65 mm, before the 80 mm target depth.
    crossing = (30.0 - 15.0) / slope
    assert crossing == pytest.approx(0.0652, abs=1e-3)
    assert drill_reaction_moment(c, 0.064) < 30.0 < drill_reaction_moment(c, 0.066)


def test_regular_spring_compensation_grows():
    c = cfg(DrillVariant.REGULAR_SPRING)
    spring = [
        drill_reaction_moment(c, float(d)) + drill_thrust(float(d), c) * c.drill_offset
        for d in DEPTHS
    ]
    assert all(b > a for a, b in zip(spring, spring[1:]))


def test_constant_load_curve():
    c = cfg(DrillVariant.CONSTANT_LOAD_SPRING)
    assert drill_reaction_moment(c, 0.0) == pytest.approx(1.4)
    assert drill_reaction_moment(c, 0.08) == pytest.approx(-14.6)
    assert all(abs(drill_reaction_moment(c, float(d))) < 30.0 for d in DEPTHS)


def test_constant_load_flatness_exact():
    # The spring term is depth independent, so moment differences reduce to
    # the thrust slope times the drill offset, to machine precision.
    c = cfg(DrillVariant.CONSTANT_LOAD_SPRING)
    rng = np.random.default_rng(3)
    for _ in range(200):
        d1, d2 = rng.uniform(0.0, 0.08, 2)
        lhs = drill_reaction_moment(c, d1) - drill_reaction_moment(c, d2)
        rhs = -c.thrust_per_meter * c.drill_offset * (d1 - d2)
        assert lhs == pytest.approx(rhs, abs=1e-12)


def test_aligned_axis_overloads_early():
    c = cfg(DrillVariant.ALIGNED_AXIS)
    # Long-lever tool: crosses -30 Nm within the first few millimetres,
    # earlier than the offset uncompensated tool.
    depths = np.linspace(0, 0.08, 8001)
    aligned = next(d for d in depths if drill_reaction_moment(c, float(d)) <= -30.0)
    unc = next(
        d
        for d in depths
        if drill_reaction_moment(cfg(DrillVariant.OFFSET_UNCOMPENSATED), float(d)) <= -30.0
    )
    assert aligned < unc


def test_config_validation():
    assert invalid_field(variant="regular_spring", spring_rate=0.0) == "tools.spring_rate"
    assert invalid_field(constant_load_force=-1.0) == "tools.constant_load_force"
    assert invalid_field(drill_offset=0.0) == "tools.drill_offset"
    assert invalid_field(variant="banana") == "tools.variant"
    # Each spring is checked only under the variant that uses it.
    Scenario(tools=ToolsSection(variant="offset_uncompensated", spring_rate=0.0)).validate()


# --- hammer -------------------------------------------------------------------


def make_hole(depth=0.08):
    return DrilledHole(position=Point3(0.9, 0, 1.0), axis=Point3(-1, 0, 0), depth=depth)


def test_blow_at_bottom_signals_contact():
    hole = make_hole()
    depth, peak, _ = hammer_blow(ToolsSection(), hole.depth, hole, 0)
    assert depth == hole.depth
    assert peak >= 27.0


def test_blow_advance_midway():
    hole = make_hole()
    depth, peak, _ = hammer_blow(ToolsSection(), 0.007, hole, 0)
    assert depth == pytest.approx(0.0079125, abs=1e-7)
    assert peak == pytest.approx(8.0)


def test_blow_sequence_monotone_never_overshoots():
    tools = ToolsSection()
    hole = make_hole()
    bottom_blows = 0
    d = 0.007
    seen_bottom = False
    for _ in range(5000):
        nd, peak, bottom_blows = hammer_blow(tools, d, hole, bottom_blows)
        assert nd >= d
        assert nd <= hole.depth
        assert peak <= 30.0
        if peak >= 27.0:
            seen_bottom = True
            break
        d = nd
    assert seen_bottom


def test_bottom_ramp_within_three_blows():
    tools = ToolsSection()
    hole = make_hole()
    bottom_blows = 0
    d = hole.depth - 0.0009  # just inside the contact band
    peaks = []
    for _ in range(3):
        d, peak, bottom_blows = hammer_blow(tools, d, hole, bottom_blows)
        peaks.append(peak)
    assert peaks[-1] >= 27.0
    assert peaks == sorted(peaks)


# --- nut runner ----------------------------------------------------------------


def test_pulse_final_step():
    torque, flange = nutrunner_pulse(ToolsSection(), 49.0)
    assert torque == pytest.approx(50.0)
    assert flange == pytest.approx(20.0)


def test_pulse_ramp_bounded():
    tools = ToolsSection()
    torque = 0.0
    for _ in range(200):
        torque, flange = nutrunner_pulse(tools, torque)
        assert flange <= tools.pulse_attenuation * tools.target_torque + 1e-12
    assert torque == pytest.approx(50.0)


def test_nutrunner_validation():
    assert invalid_field(target_torque=0.0) == "tools.target_torque"
    assert invalid_field(pulse_attenuation=1.5) == "tools.pulse_attenuation"
    assert invalid_field(socket_spring_travel=0.0) == "tools.socket_spring_travel"

