"""Deterministic SVG rendering."""
from __future__ import annotations

import xml.etree.ElementTree as ET

import numpy as np

from legiplan import Goal, ObserverState, Point2, Trajectory, render_svg, run_closed_loop
from tests.conftest import make_scenario


def test_scene_only_render():
    scenario = make_scenario()
    data = render_svg(scenario)
    text = data.decode("utf-8")
    assert text.startswith("<?xml")
    assert "<svg" in text and text.rstrip().endswith("</svg>")
    assert "#9e9e9e" in text  # obstacle fill
    assert "#00bcd4" in text  # FOV wedge


def test_byte_identical_for_identical_inputs():
    scenario = make_scenario()
    traj = Trajectory([[0, 0], [1, 0.5], [2, 0.4]], dt=0.4)
    a = render_svg(scenario, [("legible", traj)])
    b = render_svg(scenario, [("legible", traj)])
    assert a == b


def test_two_modes_distinguishable_by_color():
    scenario = make_scenario()
    base = Trajectory([[0, 0], [1, 0], [2, 0]], dt=0.4)
    legible = Trajectory([[0, 0], [1, 1], [2, 1]], dt=0.4)
    text = render_svg(
        scenario, [("baseline", base), ("legible", legible)]
    ).decode("utf-8")
    assert "#1b7a1b" in text  # dark green executed legible path
    assert "#8fd48f" in text  # light green executed baseline path


def test_predictions_rendered_with_arrows():
    scenario = make_scenario()
    result_sim = run_closed_loop(scenario)
    predictions = result_sim.plan_results[0].predictions
    text = render_svg(scenario, [], predictions).decode("utf-8")
    assert "marker-end" in text
    assert "#2e8b57" in text  # target prediction
    assert "#d64541" in text  # unintended prediction


def test_trajectories_extend_view_box():
    scenario = make_scenario()
    far = Trajectory([[0, 0], [30, 0]], dt=0.4)
    with_far = render_svg(scenario, [("legible", far)]).decode("utf-8")
    without = render_svg(scenario).decode("utf-8")
    assert with_far != without
    assert "32.000" in with_far  # x span 30 m plus 1 m margins in the viewBox


def test_ids_are_escaped_as_xml_text():
    # Ids are free strings; & and < must not end up raw in a <text> element.
    goals = (Goal("A&B<1>", Point2(4.0, 0.8), is_target=True), Goal("<G2>", Point2(4.0, -0.8)))
    scenario = make_scenario(
        goals=goals, observers=(ObserverState("O&<>", Point2(4.8, 0.8), 3.14),)
    )
    root = ET.fromstring(render_svg(scenario))
    labels = {el.text for el in root.iter("{http://www.w3.org/2000/svg}text")}
    assert labels == {"A&B<1>*", "<G2>", "O&<>"}
