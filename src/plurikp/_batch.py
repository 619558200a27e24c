"""Batched array kernels behind the randomized trial loops of the suite.

A 4-cell is compiled once into integer gather tables over the columns of a
(trials x columns) float64 array.  Columns follow tuple(vertices(cell)), and
every table is read off a structure the scalar code already builds:
system_on_4cell, the facet chain, the corner table and the completion steps.
Each operation repeats its scalar counterpart operation for operation and in
the same order, so completions, margins, sign patterns and corner factors
agree with the scalar functions bit for bit; only the logarithms (numpy's
rather than the math module's) can move the last bits of the 3-form, of the
corner residuals and of the finite differences.  The scalar functions stay
the reference, and the errors keep their types: a singular value in any
trial raises SingularFieldError, as the scalar loop would on that trial.

_sample, the package's one rejection loop, draws from _streams.Streams, one
stream per trial, and rejects in rounds: each round reads the next k
candidates of every pending trial (k doubles from 1 each round), tests them
all at once and keeps each trial's first accepted one.  The trial's stream
then moves to just after that candidate, so its value and the draws that
follow it are those of a one-at-a-time loop.  Its samplers, plain_fields and
solutions, draw every random field on a cell or flower that the suite checks.
"""

from __future__ import annotations

import functools
import math
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from . import config
from ._streams import Streams
from .cells import CellKind, OrientedCell, Point, facets, vertices
from .dilog import skew_dilog_array
from .dkp import (
    _completion_steps,
    golden_sign_pattern,
    golden_solution,
    ivp_points,
    six_points,
    system_on_4cell,
)
from .errors import InconclusiveBranchError, SingularFieldError
from .lagrangian import _FRACTION_GUARD, _corner_table

# Branch codes of a batched classification, in the order of Branch plus gray.
DKP, DKP_MINUS, NEITHER, GRAY = range(4)


class Tables(NamedTuple):
    """Integer gather tables of one 4-cell over the columns of its arrays."""

    cell: OrientedCell
    points: tuple[Point, ...]  # the columns
    supports: np.ndarray  # (S, 6) six points of each relation support
    forms: np.ndarray  # (F, 6) six points of each 3-cell carrying the 3-form
    form_half: np.ndarray  # (F,) 0.5 * orientation of each of those 3-cells
    form_coeffs: np.ndarray  # (F,) its coefficient in the facet chain
    triples: np.ndarray  # (R, 6) the corner table's triples
    corners: np.ndarray  # (C,) column of each corner vertex, sorted by vertex
    terms: np.ndarray  # (C, L) ratio index of each term, padded with 1.0
    black: np.ndarray  # (B, L) terms of the black halves (double cube corners)
    factor_order: np.ndarray  # flat factor order over [primary, black/value]
    inverse: np.ndarray  # (C,) corners reporting 1/value
    has_black: np.ndarray  # (C,) corners with a black half
    local: tuple[np.ndarray, ...]  # per corner: form rows of the facets through it
    required: np.ndarray  # columns of the IVP data, in required order
    steps: tuple[tuple[np.ndarray, int], ...]  # completion (six columns, slot)
    completed: np.ndarray  # required and solved columns
    golden_signs: np.ndarray  # signs of the golden solution at the required points
    golden_pattern: np.ndarray  # (S, 3) its monomial sign pattern


def _padded(rows: Sequence[Sequence[int]], fill: int) -> np.ndarray:
    width = max((len(r) for r in rows), default=1)
    padded = [list(r) + [fill] * (width - len(r)) for r in rows]
    return np.array(padded, dtype=np.intp).reshape(len(rows), width)


def six_columns(points: Sequence[Point], cells: Iterable[OrientedCell]) -> np.ndarray:
    """(n, 6) columns in `points` of each cell's six_points."""
    column = {p: c for c, p in enumerate(points)}
    rows = [[column[p] for p in six_points(c)] for c in cells]
    return np.array(rows, dtype=np.intp).reshape(len(rows), 6)


@functools.lru_cache(maxsize=64)
def tables(cell: OrientedCell) -> Tables:
    """Gather tables of a 4-ambo cell or 4D cube (both carry relations)."""
    points = tuple(vertices(cell))
    column = {p: c for c, p in enumerate(points)}

    def cols(six: Sequence[Point]) -> list[int]:
        return [column[p] for p in six]

    chain = facets(cell)
    forms = [
        (c, coeff) for c, coeff in chain.items()
        if c.kind in (CellKind.OCTAHEDRON, CellKind.CUBE3)
    ]
    row = {c: r for r, (c, _) in enumerate(forms)}
    table = _corner_table(cell)
    corners = sorted(p for p, corner in table.corners.items() if corner is not None)
    # Ratio index of a term (triple t, slot k, sign): 6t + 2k, plus one for
    # the reciprocal that a negative support takes; index `one` holds 1.0.
    one = 6 * len(table.triples)

    def ratios(terms) -> list[int]:
        return [6 * t + 2 * k + (sign < 0) for t, k, sign in terms]

    entries = [table.corners[v] for v in corners]
    flat, n_black = [], 0
    for c, corner in enumerate(entries):
        flat.append(c)
        if corner.black is not None:
            flat.append(len(entries) + n_black)
            n_black += 1
    local = tuple(
        np.array(
            [row[f] for f, _ in chain.restricted_to_vertex(v).items() if f in row],
            dtype=np.intp,
        )
        for v in corners
    )
    required, _ = ivp_points(cell)
    steps = _completion_steps(cell, required)
    reference = golden_solution(cell)
    return Tables(
        cell=cell,
        points=points,
        supports=six_columns(points, system_on_4cell(cell)),
        forms=six_columns(points, (c for c, _ in forms)),
        form_half=np.array([0.5 * c.sign for c, _ in forms]),
        form_coeffs=np.array([coeff for _, coeff in forms]),
        triples=np.array([cols(t) for t in table.triples], dtype=np.intp),
        corners=np.array(cols(corners), dtype=np.intp),
        terms=_padded([ratios(e.terms) for e in entries], one),
        black=_padded([ratios(e.black) for e in entries if e.black], one),
        factor_order=np.array(flat, dtype=np.intp),
        inverse=np.array([e.inverse for e in entries]),
        has_black=np.array([e.black is not None for e in entries]),
        local=local,
        required=np.array(cols(required), dtype=np.intp),
        steps=tuple((np.array(cols(six), dtype=np.intp), slot) for six, slot in steps),
        completed=np.array(cols(required + tuple(six[s] for six, s in steps))),
        golden_signs=np.array([math.copysign(1.0, reference[p]) for p in required]),
        golden_pattern=np.array(golden_sign_pattern(cell)),
    )


# --- elementwise pieces -------------------------------------------------------


def _monomials(six: np.ndarray) -> np.ndarray:
    # (..., 6) values in six_points order -> (..., 3) signed monomials.
    a, b, c, d, e, f = (six[..., slot] for slot in range(6))
    return np.stack([a * f, -(b * e), c * d], axis=-1)


def _regular(m: np.ndarray) -> np.ndarray:
    if not np.all(np.isfinite(m) & (m != 0.0)):
        raise SingularFieldError("singular monomial in a batched field")
    return m


def _relative(t: np.ndarray) -> np.ndarray:
    scale = np.abs(t[..., 0]) + np.abs(t[..., 1]) + np.abs(t[..., 2])
    if np.any(scale == 0.0):
        raise SingularFieldError("all monomials vanish on a support")
    return np.abs(t[..., 0] + t[..., 1] + t[..., 2]) / scale


def _inverse_terms(m: np.ndarray) -> np.ndarray:
    return np.stack(
        [m[..., 0] * m[..., 1], m[..., 1] * m[..., 2], m[..., 2] * m[..., 0]], axis=-1
    )


def _three_forms(six: np.ndarray, half: np.ndarray) -> np.ndarray:
    m = _regular(_monomials(six))
    m1, m2, m3 = m[..., 0], m[..., 1], m[..., 2]
    lam = skew_dilog_array(np.stack([-m1 / m2, -m2 / m3, -m3 / m1], axis=-1))
    return half * (lam[..., 0] + lam[..., 1] + lam[..., 2])


def _chain_sum(terms: np.ndarray) -> np.ndarray:
    # Left-to-right sum over the last axis, as the scalar accumulation runs.
    total = 0.0
    for r in range(terms.shape[-1]):
        total = total + terms[..., r]
    return total


# --- batched operations -------------------------------------------------------


def margins(supports: np.ndarray, x: np.ndarray) -> np.ndarray:
    """nonsingularity_margin over (S, 6) support columns per trial (inf if S = 0)."""
    m = _monomials(x[:, supports])
    a, b = m[..., [0, 0, 1]], m[..., [1, 2, 2]]
    scale = np.abs(a) + np.abs(b)
    pair = np.minimum(np.abs(a - b) / scale, np.abs(a + b) / scale)
    return pair.reshape(len(x), -1).min(axis=1, initial=np.inf)


def sign_patterns(tab: Tables, x: np.ndarray) -> np.ndarray:
    """monomial_sign_pattern per trial, as a (trials, S, 3) boolean array."""
    m = _monomials(x[:, tab.supports])
    return np.stack([m[..., 0] > 0.0, m[..., 1] < 0.0, m[..., 2] > 0.0], axis=-1)


def complete(tab: Tables, x: np.ndarray) -> np.ndarray:
    """Fill the solved columns in place as the DKP completion does; returns
    the trials whose completion succeeds (the scalar solver raises on the
    others)."""
    data = x[:, tab.required]
    ok = np.all((data != 0.0) & np.isfinite(data), axis=1)
    with np.errstate(all="ignore"):
        for six, slot in tab.steps:
            values = x[:, six]
            values[:, slot] = 0.0
            m = _monomials(values)
            rest = m[:, 0] + m[:, 1] + m[:, 2]
            slope = -values[:, 5 - slot] if slot in (1, 4) else values[:, 5 - slot]
            value = -rest / slope
            ok &= (slope != 0.0) & (value != 0.0) & np.isfinite(value)
            x[:, six[slot]] = value
        t = _monomials(x[:, tab.supports])
        scale = np.abs(t[..., 0]) + np.abs(t[..., 1]) + np.abs(t[..., 2])
        worst = (np.abs(t[..., 0] + t[..., 1] + t[..., 2]) / scale).max(axis=1)
    return ok & (worst <= config.TOLERANCES["solver_rel"])


def exterior_derivative(tab: Tables, x: np.ndarray) -> np.ndarray:
    """Action of the 3-form over the facet chain, per trial."""
    return _chain_sum(tab.form_coeffs * _three_forms(x[:, tab.forms], tab.form_half))


def corner_products(tab: Tables, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(values (trials, C), flat factors) at the corner vertices in sorted
    order; the factors run as classify_branch flattens them."""
    m = _regular(_monomials(x[:, tab.triples]))
    # Binomials m_k + m_{k-1} and m_k + m_{k+1}: the three pair sums, each
    # checked as _binomial checks it.
    a, b = m, m[..., [1, 2, 0]]
    pair = a + b
    if np.any(np.abs(pair) < _FRACTION_GUARD * (np.abs(a) + np.abs(b))):
        raise SingularFieldError("near-singular corner fraction")
    num, den = pair[..., [2, 0, 1]], pair
    ratio = np.stack([num / den, den / num], axis=-1).reshape(len(x), -1)
    ratio = np.concatenate([ratio, np.ones((len(x), 1))], axis=1)

    def product(terms: np.ndarray) -> np.ndarray:
        out = ratio[:, terms[:, 0]]
        for j in range(1, terms.shape[1]):
            out = out * ratio[:, terms[:, j]]
        return out

    value = product(tab.terms)
    primary = np.where(tab.inverse, 1.0 / value, value)
    black = product(tab.black)
    primary[:, tab.has_black] = black
    factors = np.concatenate([primary, black / value[:, tab.has_black]], axis=1)
    return value, factors[:, tab.factor_order]


class Report(NamedTuple):
    branch: np.ndarray  # DKP, DKP_MINUS, NEITHER or GRAY per trial
    max_dev_minus: np.ndarray
    max_dev_plus: np.ndarray
    max_dkp_relative: np.ndarray
    max_dkp_minus_relative: np.ndarray


def classify(tab: Tables, x: np.ndarray, allow_gray: bool = False) -> Report:
    """classify_branch at its default tolerances, per trial; a trial in the
    gray zone raises InconclusiveBranchError unless allow_gray, which reports
    it as GRAY."""
    tolerance = config.TOLERANCES["classify"]
    neither_floor = config.TOLERANCES["neither_floor"]
    system_tolerance = config.TOLERANCES["system_rel"]
    _, factors = corner_products(tab, x)
    dev_minus = np.abs(factors + 1.0).max(axis=1)
    dev_plus = np.abs(factors - 1.0).max(axis=1)
    m = _monomials(x[:, tab.supports])
    max_dkp = _relative(m).max(axis=1)
    max_minus = _relative(_inverse_terms(m)).max(axis=1)
    dkp = (dev_minus <= tolerance) & (max_dkp <= system_tolerance)
    minus = ~dkp & (dev_plus <= tolerance) & (max_minus <= system_tolerance)
    neither = ~dkp & ~minus & (np.minimum(dev_minus, dev_plus) > neither_floor)
    branch = np.select([dkp, minus, neither], [DKP, DKP_MINUS, NEITHER], GRAY)
    gray = np.flatnonzero(branch == GRAY)
    if gray.size and not allow_gray:
        t = gray[0]
        raise InconclusiveBranchError(
            f"corner factors in the gray zone: dev-={dev_minus[t]:.3e},"
            f" dev+={dev_plus[t]:.3e}"
        )
    return Report(branch, dev_minus, dev_plus, max_dkp, max_minus)


def corner_residuals(tab: Tables, x: np.ndarray) -> np.ndarray:
    """corner_residual at every corner vertex, per trial: (trials, C)."""
    value, _ = corner_products(tab, x)
    magnitude = np.abs(value)
    if not np.all(np.isfinite(magnitude) & (magnitude != 0.0)):
        raise SingularFieldError("singular corner product in a batched field")
    return tab.cell.sign * np.log(magnitude) / x[:, tab.corners]


def fd_actions(tab: Tables, x: np.ndarray) -> np.ndarray:
    """Central difference at FD_STEP of the local facet action at every corner
    vertex, in the value there: (trials, C)."""
    step = config.FD_STEP
    out = np.empty((len(x), len(tab.corners)))
    # One corner at a time keeps the temporaries small.
    for c, (column, rows) in enumerate(zip(tab.corners, tab.local)):
        hit = tab.forms[rows] == column
        six = x[:, tab.forms[rows]]
        at = x[:, column, None, None]
        moved = np.concatenate(
            [np.where(hit, at + step, six), np.where(hit, at - step, six)], axis=1
        )
        weighted = np.tile(tab.form_coeffs[rows], 2) * _three_forms(
            moved, np.tile(tab.form_half[rows], 2)
        )
        up, down = weighted[:, : len(rows)], weighted[:, len(rows) :]
        out[:, c] = (_chain_sum(up) - _chain_sum(down)) / (2 * step)
    return out


# --- sampling -----------------------------------------------------------------


def _sample(
    streams: Streams,
    draws: int,
    make: Callable[[np.ndarray, np.ndarray], np.ndarray],
    accept: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]],
    width: int,
    failure: str,
) -> np.ndarray:
    """Rejection sampling over every trial's stream, drawing ahead.

    A candidate takes `draws` random() values of its trial's stream, which
    `make` turns into a row; `make` also gets the index in `streams` of each
    row's trial.  Each round offers every pending trial its next k
    candidates (k = 1, 2, 4, ...), evaluates `accept` on all of them at
    once, keeps each trial's first accepted candidate and commits its stream
    to just after that candidate, so the trial keeps the value and the stream
    position of a one-at-a-time loop.  A round holds at most TRIAL_CHUNK
    candidate rows (one per pending trial at least), and no trial is offered
    more than MAX_REDRAWS candidates.
    """
    out = np.full((len(streams), width), np.nan)
    pending = np.arange(len(streams))
    offered, ahead = 0, 1
    while pending.size:
        if offered >= config.MAX_REDRAWS:
            raise SingularFieldError(
                f"{failure}: check {streams.check_id!r}, trial"
                f" {int(streams.trials[pending].min())}, after {offered} draws"
            )
        k = max(1, min(ahead, config.TRIAL_CHUNK // pending.size))
        k = min(k, config.MAX_REDRAWS - offered)
        u = streams.peek(pending, k * draws).reshape(pending.size * k, draws)
        candidates, ok = accept(make(u, np.repeat(pending, k)))
        ok = ok.reshape(pending.size, k)
        hit = ok.any(axis=1)
        first = ok.argmax(axis=1)
        kept = np.flatnonzero(hit)
        rows = candidates.reshape(pending.size, k, width)
        out[pending[kept]] = rows[kept, first[kept]]
        streams.skip(pending, np.where(hit, first + 1, k) * draws)
        pending = pending[~hit]
        offered += k
        ahead *= 2
    return out


def _signed_values(u: np.ndarray) -> np.ndarray:
    # Values from consecutive pairs of draws: a magnitude uniform in
    # [0.5, 2] and then a fair sign.
    magnitude = 0.5 + 1.5 * u[:, 0::2]
    return np.where(u[:, 1::2] < 0.5, magnitude, -magnitude)


def plain_fields(
    supports: np.ndarray, width: int, streams: Streams, margin: float,
    fixed: np.ndarray | None = None,
) -> np.ndarray:
    """Fields on `width` columns whose margin over the (S, 6) support columns
    is at least `margin` (any field without supports).  The leading columns
    hold each trial's row of `fixed`; the others are drawn in column order."""
    if fixed is None:
        fixed = np.empty((len(streams), 0))

    def make(u: np.ndarray, trials: np.ndarray) -> np.ndarray:
        return np.concatenate([fixed[trials], _signed_values(u)], axis=1)

    def accept(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return x, margins(supports, x) >= margin

    return _sample(
        streams, 2 * (width - fixed.shape[1]), make, accept, width,
        "could not draw a field with the requested margin",
    )


def solutions(
    tab: Tables,
    streams: Streams,
    margin: float,
    component: str,
) -> np.ndarray:
    """Completed IVP data, on the golden solution's sign-pattern component or
    any; columns off the completion (the base and far corners of a 4D cube)
    hold NaN."""
    n = len(tab.required)
    golden = component == "golden"

    def make(u: np.ndarray, _trials: np.ndarray) -> np.ndarray:
        if golden:
            return tab.golden_signs * (0.5 + 1.5 * u)
        return _signed_values(u)

    def accept(data: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        x = np.full((len(data), len(tab.points)), np.nan)
        x[:, tab.required] = data
        ok = complete(tab, x)
        # Failed completions hold inf or NaN; only accepted trials are kept.
        with np.errstate(all="ignore"):
            ok &= np.abs(x[:, tab.completed]).min(axis=1) >= config.DRAW_FLOOR
            if golden:
                ok &= np.all(sign_patterns(tab, x) == tab.golden_pattern, axis=(1, 2))
            ok &= margins(tab.supports, x) >= margin
        return x, ok

    return _sample(
        streams, n if golden else 2 * n, make, accept, len(tab.points),
        "could not draw a nonsingular solution",
    )
