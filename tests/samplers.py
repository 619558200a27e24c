"""Scalar rejection samplers: the one-at-a-time reference for plurikp._batch.

Each sampler draws from one np.random.Generator, a candidate at a time, and
stops at the first accepted one.  The package draws every random field
through _batch._sample over _streams.Streams; the tests compare those draws
with these loops bit for bit, and use them to make random fields of their own.
"""

from __future__ import annotations

import math
from typing import Iterable

import numpy as np

from plurikp import config
from plurikp.cells import CellKind, OrientedCell, Point
from plurikp.dkp import (
    Field,
    golden_field,
    ivp_points,
    monomial_sign_pattern,
    nonsingularity_margin,
    solve_ambo_ivp,
    solve_cube_ivp,
    system_on_4cell,
)
from plurikp.errors import SingularFieldError
from plurikp.verify import _SOLUTION_MARGIN


def _draw_value(rng: np.random.Generator) -> float:
    magnitude = float(rng.uniform(0.5, 2.0))
    return magnitude if rng.random() < 0.5 else -magnitude


def _draw_field(rng: np.random.Generator, points: Iterable[Point]) -> Field:
    return {tuple(p): _draw_value(rng) for p in points}


def _random_solution(
    rng: np.random.Generator,
    cell4: OrientedCell,
    margin: float = _SOLUTION_MARGIN,
    component: str = "any",
) -> Field:
    """Seven- or nine-point completion redrawn until comfortably nonsingular.

    component="golden" restricts the draw to the connected component of the
    constant solution (identified by its monomial sign pattern), where the
    closure constants take their reference values.  component="any" leaves
    the sign pattern of the initial data free.
    """
    required, _ = ivp_points(cell4)
    solve = solve_cube_ivp if cell4.kind is CellKind.CUBE4 else solve_ambo_ivp
    supports = system_on_4cell(cell4)
    target = None
    if component == "golden":
        reference = golden_field(cell4)
        target = monomial_sign_pattern(reference, cell4)
        signs = [math.copysign(1.0, reference[p]) for p in required]
    for _ in range(config.MAX_REDRAWS):
        if target is None:
            data = _draw_field(rng, required)
        else:
            data = {
                p: s * float(rng.uniform(0.5, 2.0))
                for p, s in zip(required, signs)
            }
        try:
            solution = solve(cell4, data)
        except SingularFieldError:
            continue
        if min(abs(v) for v in solution.values()) < config.DRAW_FLOOR:
            continue
        if target is not None and monomial_sign_pattern(solution, cell4) != target:
            continue
        if nonsingularity_margin(solution, supports) < margin:
            continue
        return solution
    raise SingularFieldError("could not draw a nonsingular solution")


def _random_plain_field(
    rng: np.random.Generator,
    points: Iterable[Point],
    supports: Iterable[OrientedCell],
    margin: float,
) -> Field:
    points = tuple(points)
    supports = tuple(supports)
    for _ in range(config.MAX_REDRAWS):
        candidate = _draw_field(rng, points)
        if not supports or nonsingularity_margin(candidate, supports) >= margin:
            return candidate
    raise SingularFieldError("could not draw a field with the requested margin")


def _extended_field(
    rng: np.random.Generator,
    field: Field,
    missing: Iterable[Point],
    supports: Iterable[OrientedCell],
    margin: float,
) -> Field:
    """The field with values drawn at the missing points, redrawn until its
    margin over the supports is at least `margin`."""
    missing = tuple(missing)
    supports = tuple(supports)
    for _ in range(config.MAX_REDRAWS):
        trial_field = dict(field)
        trial_field.update(_draw_field(rng, missing))
        if nonsingularity_margin(trial_field, supports) >= margin:
            return trial_field
    raise SingularFieldError("no nonsingular extension found for the corner sum")
