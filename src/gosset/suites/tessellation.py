"""The tessellation suite: the quotient tilings mod 3 and their tile counts."""

from __future__ import annotations

import re

from ..geometry import build_tessellation, reflection_image_mod3
from ..isometry import congruence_intersection_check
from . import DIMS, STABILIZER_ORDERS, WALL_COUNTS, check

TILE_COUNTS = {2: 12, 3: 60, 4: 432}


@check("tessellation", "tile_count_n{n}", DIMS)
def _tile_count(c):
    return TILE_COUNTS[c.n], build_tessellation(c.n).tile_count, "cells in the quotient mod 3"


@check("tessellation", "boundary_slots_n{n}", DIMS)
def _boundary_slots(c):
    # Counted from the DOT export: an edge line gives a slot to each end, a
    # self-loop line one slot to its tile.
    graph = build_tessellation(c.n)
    slots = [0] * graph.tile_count
    for a, b in re.findall(r"^  (\d+) -- (\d+) ", graph.to_dot(), re.MULTILINE):
        slots[int(a)] += 1
        if a != b:
            slots[int(b)] += 1
    ok = slots == [WALL_COUNTS[c.n]] * graph.tile_count
    return True, ok, "every tile exposes one neighbor slot per wall"


@check("tessellation", "connected_n{n}", DIMS)
def _connected(c):
    return True, build_tessellation(c.n).is_connected(), "tile adjacency graph is connected"


@check("tessellation", "self_loop_count_n{n}", DIMS)
def _self_loop_count(c):
    return 0, build_tessellation(c.n).self_loop_count(), "no wall glues a tile to itself"


@check("tessellation", "lagrange_n{n}", DIMS)
def _lagrange(c):
    tiles = build_tessellation(c.n).tile_count
    stabilizer = congruence_intersection_check(c.n).order
    product = TILE_COUNTS[c.n] * STABILIZER_ORDERS[c.n]
    expected = {
        "tiles": TILE_COUNTS[c.n],
        "stabilizer_order": STABILIZER_ORDERS[c.n],
        "product": product,
        "group_order": product,
    }
    actual = {
        "tiles": tiles,
        "stabilizer_order": stabilizer,
        "product": tiles * stabilizer,
        "group_order": reflection_image_mod3(c.n).order,
    }
    return expected, actual, "tiles times stabilizer equals the projective group order"


@check("tessellation", "sign_quotient_n{n}", DIMS)
def _sign_quotient(c):
    linear, projective = reflection_image_mod3(c.n, projective=False), reflection_image_mod3(c.n)
    actual = {
        "ratio": linear.order // projective.order,
        "contains_minus_identity": linear.contains_minus_identity,
    }
    details = f"linear order {linear.order}, projective order {projective.order}"
    return {"ratio": 2, "contains_minus_identity": True}, actual, details
