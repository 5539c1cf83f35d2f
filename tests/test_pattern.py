import math
import re
import xml.etree.ElementTree as ET

import pytest

from vinefab.fabrication import GapModel, compile_plan
from vinefab.geometry import DHChain
from vinefab.pattern import flat_pattern

TAPE = GapModel.for_method("tape")


def _circles(svg):
    root = ET.fromstring(svg)
    ns = "{http://www.w3.org/2000/svg}"
    return [(float(c.get("cx")), float(c.get("cy")))
            for c in root.iter(f"{ns}circle")]


def test_straight_chain_has_no_marks():
    chain = DHChain([100, 100], [0, 0], [0, 0], 16.5)
    svg = flat_pattern(compile_plan(chain, TAPE))
    assert _circles(svg) == []
    m = re.search(r'width="([0-9.]+)mm" height="([0-9.]+)mm"', svg)
    assert float(m.group(1)) == pytest.approx(2 * math.pi * 16.5, abs=1e-6)
    assert float(m.group(2)) == pytest.approx(200.0, abs=1e-9)


def test_three_bend_mark_layout(three_bend_chain):
    plan = compile_plan(three_bend_chain, TAPE)
    svg = flat_pattern(plan)
    circles = _circles(svg)
    assert len(circles) == 4  # two folding joints, two points each
    xs = sorted({x for x, _ in circles})
    assert xs[1] - xs[0] == pytest.approx(12.959, abs=1e-3)
    assert "J2" in svg and "J3" in svg and "J1" not in svg


def test_wraparound_marks_stay_in_rectangle():
    # large twists push the accumulated meridian past a full circumference
    chain = DHChain(
        [200, 200, 200, 200],
        [3.0, 3.0, 3.0, 0.0],
        [math.pi / 4, math.pi / 4, math.pi / 4, math.pi / 4], 16.5)
    plan = compile_plan(chain, TAPE)
    width = plan.circumference
    assert sum(plan.arc_offsets) > width  # the case actually wraps
    for x, y in _circles(flat_pattern(plan)):
        assert 0.0 <= x < width
        assert 0.0 <= y <= plan.total_tube_length


def test_pattern_is_deterministic(three_bend_chain):
    plan = compile_plan(three_bend_chain, TAPE)
    assert flat_pattern(plan) == flat_pattern(plan)
