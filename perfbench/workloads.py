"""Seeded inputs, timed rounds and correctness gates of the benchmark workloads.

A run is a closed loop of rounds.  Each round is a fixed amount of work: one
``plurikp verify`` call at ``VERIFY_TRIALS`` trials, ``CHAINS_PER_ROUND``
flowers, or ``SOLVES_PER_ROUND`` solve calls.  Round inputs depend only on the
workload name, the seed and the round index; they are plain data (and, for
``solve-stream``, field files) made by this module without calling the package,
so the package receives only generated inputs.  Gates run after the round,
outside its timing and outside any tracing.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import time
from collections import Counter
from dataclasses import dataclass, field

import plurikp
from plurikp import cli
from plurikp.config import TOLERANCES
from plurikp.dkp import dkp_minus_residual_relative, dkp_residual_relative

VERIFY_TRIALS = 100
VERIFY_DIM = 4
DIMS = (4, 5, 6, 7, 8)
CHAIN_SHAPES = [(lat, dim, n) for lat in ("qan", "cubic") for dim in DIMS for n in (2, 3)]
SOLVE_SHAPES = [
    (kind, branch, dim)
    for kind in ("ambo-black", "ambo-white", "cube4")
    for branch in ("dkp", "dkp-minus")
    for dim in DIMS
]
# Each round holds every shape equally often, in seeded order, so that the
# work per round does not depend on the seed's luck with large cases.
CHAINS_PER_ROUND = 10 * len(CHAIN_SHAPES)
SOLVES_PER_ROUND = 10 * len(SOLVE_SHAPES)

GOLDEN_A = 0.5 - 5.0**0.5 / 2.0
# Initial values of a solve input are the constant golden solution scaled by
# independent factors in [1 - SOLVE_SPREAD, 1 + SOLVE_SPREAD]: far enough from
# it that every call completes a different field, near enough that every
# completion stays clearly on the requested branch.
SOLVE_SPREAD = 0.2

EXPECTED_CHECKS = {
    "qan": (
        "dilog-value-a2", "dilog-value-neg-a", "dilog-value-a", "dilog-value-inv-a",
        "skew-antisymmetry",
        "golden-octahedron-black", "golden-closure-black", "golden-closure-black-inverse",
        "golden-octahedron-white", "golden-closure-white", "golden-closure-white-inverse",
        "corner-ambo-black", "closure-ambo-black", "corner-ambo-black-inverse",
        "closure-ambo-black-inverse", "corner-ambo-black-anycomponent",
        "closure-ambo-black-valueset", "branch-ambo-black-mislabels",
        "corner-ambo-white", "closure-ambo-white", "corner-ambo-white-inverse",
        "closure-ambo-white-inverse", "corner-ambo-white-anycomponent",
        "closure-ambo-white-valueset", "branch-ambo-white-mislabels",
        "gradient-bambo4", "gradient-wambo4", "gradient-bsimp4", "gradient-wsimp4",
        "boundary-squared", "facet-counts", "flower-decomposition",
        "el-sum-corner-bsimp4", "el-sum-corner-bambo4", "el-sum-corner-wambo4",
        "el-sum-corner-wsimp4", "el-sum-star-qan",
        "negative-control", "info-ambo-corner-rank",
    ),
    "cubic": (
        "dilog-value-a2", "dilog-value-neg-a", "dilog-value-a", "dilog-value-inv-a",
        "skew-antisymmetry",
        "corner-cube", "closure-cube", "corner-cube-inverse", "closure-cube-inverse",
        "corner-cube-anycomponent", "closure-cube-valueset", "branch-cube-mislabels",
        "gradient-cube4", "boundary-squared", "facet-counts", "flower-decomposition",
        "el-sum-corner-cube4", "el-sum-star-cubic",
        "negative-control", "cube-ivp-freedom", "cube-ivp-solved-rank",
    ),
}

# Randomized trial loops of one verify call, each running --trials trials:
# closure on each ambo cell (or the cube), the gradient on each 4-cell kind,
# and the negative control.
TRIAL_LOOPS = {"qan": 2 + 4 + 1, "cubic": 1 + 1 + 1}

# Bindings that each workload must call through when traced.  A wrapper on a
# binding that nobody calls would report zero work and hide the real cost.
_VERIFY_BINDINGS = (
    "cli.main", "cli.run_suite",
    "verify.classify_branch", "verify.check_euler_lagrange_sum",
    "verify.corner_product", "verify.corner_residual", "verify.exterior_derivative",
    "verify.facets", "verify.boundary", "verify.flower", "verify.decompose_flower",
    "verify.nonsingularity_margin", "verify.monomial_sign_pattern", "verify.skew_dilog",
    "lagrangian.skew_dilog", "lagrangian.three_form", "lagrangian.action",
    "lagrangian.corner_product", "lagrangian.facets",
    "dilog.re_dilog", "cells.facets", "cells.flower", "cells.Chain.restricted_to_vertex",
)
EXPECTED_BINDINGS = {
    "verify-qan": _VERIFY_BINDINGS + ("verify.three_form", "verify.solve_ambo_ivp"),
    "verify-cubic": _VERIFY_BINDINGS + ("verify.solve_cube_ivp",),
    "chains": (
        "plurikp.facets", "plurikp.boundary", "plurikp.flower",
        "plurikp.decompose_flower", "plurikp.format_chain", "plurikp.parse_chain",
        "cells.facets", "cells.flower", "cells.Chain.restricted_to_vertex",
    ),
    "solve-stream": (
        "cli.main", "cli.read_field_file", "cli.write_field_file",
        "cli.solve_ambo_ivp", "cli.solve_cube_ivp",
        "dkp.solve_ambo_ivp", "dkp.solve_cube_ivp",
        "cli.classify_branch", "cli.exterior_derivative", "verify.corner_product",
        "lagrangian.action", "lagrangian.three_form", "lagrangian.skew_dilog",
        "lagrangian.facets", "dilog.re_dilog",
    ),
}
# Layers a workload must not reach at all: flowers are pure integer work.
EXPECTED_SILENT = {"chains": ("dilog", "lagrangian", "dkp")}


@dataclass
class RoundResult:
    seconds: float
    item_spans: list[tuple[float, float]]  # (start, end) of each timed item
    items: int
    outputs: list = field(default_factory=list)


def round_rng(workload: str, seed: int, round_index: int) -> random.Random:
    # String seeds go through SHA-512, so the stream is fixed across platforms.
    return random.Random(f"perfbench/{workload}/{seed}/{round_index}")


def _quiet_main(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


# --- verify-qan, verify-cubic ---------------------------------------------------


class VerifyWorkload:
    def __init__(self, name: str, lattice: str, workdir: str) -> None:
        self.name = name
        self.lattice = lattice
        self.report = os.path.join(workdir, "report.json")

    def inputs(self, seed: int, round_index: int) -> dict:
        return {"seed": round_rng(self.name, seed, round_index).randrange(2**31)}

    def run(self, inputs: dict, tracer=None, clock=time.perf_counter) -> RoundResult:
        if os.path.exists(self.report):
            os.remove(self.report)
        argv = [
            "verify", "--lattice", self.lattice, "--dim", str(VERIFY_DIM),
            "--trials", str(VERIFY_TRIALS), "--seed", str(inputs["seed"]),
            "--out", self.report,
        ]
        items = TRIAL_LOOPS[self.lattice] * VERIFY_TRIALS
        if tracer is not None:
            tracer.item_id = inputs["seed"]
        start = clock()
        try:
            outcome = _quiet_main(argv)
        except Exception as exc:  # a raising run counts as fully failed
            outcome = exc
        end = clock()
        # Trials are not timed one by one from outside: the call is the one
        # timed item, and run.py divides it by the trial count.
        return RoundResult(end - start, [(start, end)], items, [outcome])

    def gate(self, inputs: dict, outputs: list) -> tuple[int, list[str]]:
        expected = EXPECTED_CHECKS[self.lattice]
        tag = f"seed {inputs['seed']}"
        outcome = outputs[0]
        if isinstance(outcome, Exception):
            return len(expected), [f"{tag}: raised {outcome!r}"] * len(expected)
        code, _ = outcome
        try:
            with open(self.report, encoding="utf-8") as handle:
                records = json.load(handle)["records"]
        except (OSError, ValueError, KeyError) as exc:
            return len(expected), [f"{tag}: exit {code}, no report: {exc}"] * len(expected)
        ids = [r["check_id"] for r in records]
        if Counter(ids) != Counter(expected):
            return len(expected), [f"{tag}: check ids differ from the expected set"] * len(
                expected
            )
        failures = [f"{tag}: {r['check_id']} failed" for r in records if not r["passed"]]
        if code != 0 and not failures:
            failures = [f"{tag}: exit {code} with every record passing"]
        return len(records), failures


# --- chains -------------------------------------------------------------------

# Root-lattice 4-cell kinds by vertex weight; a cell of weight w shares its
# weight-w octahedron/tetrahedron facet opposite direction d with the cell of
# weight w+1 based at base - e_d, and its weight-(w-1) facet with the cell of
# weight w-1 based at base + e_d (same direction set).
_QAN_KIND_BY_WEIGHT = {1: "bsimp4", 2: "bambo4", 3: "wambo4", 4: "wsimp4"}


def _shuffled_shapes(rng: random.Random, shapes: list, count: int) -> list:
    order = shapes * (count // len(shapes))
    rng.shuffle(order)
    return order


def chain_spec(rng: random.Random, lattice: str, dim: int, target: int) -> dict:
    """A glued flower: `target` adjacent 4-cells of one 4D sub-lattice, and a vertex pick."""
    ambient = dim + 1 if lattice == "qan" else dim
    dirs = sorted(rng.sample(range(ambient), 5 if lattice == "qan" else 4))
    base = tuple(rng.randint(-3, 3) for _ in range(ambient))
    weight = rng.randint(1, 4) if lattice == "qan" else 0
    cells = [(weight, base)]
    while len(cells) < target:
        # The second cell is glued to the first, so they share the flower vertex.
        w, b = cells[0] if len(cells) == 1 else rng.choice(cells)
        d = rng.choice(dirs)
        if lattice == "qan":
            moves = [(w + step, -step) for step in (1, -1) if 1 <= w + step <= 4]
        else:
            moves = [(0, 1), (0, -1)]
        new_w, shift = rng.choice(moves)
        new_b = tuple(c + shift if i == d else c for i, c in enumerate(b))
        if (new_w, new_b) not in cells:
            cells.append((new_w, new_b))
    return {
        "lattice": lattice,
        "dirs": dirs,
        "sign": rng.choice((1, -1)),
        "cells": [
            [_QAN_KIND_BY_WEIGHT[w] if lattice == "qan" else "cube4", list(b)]
            for w, b in cells
        ],
        "pick": rng.randrange(2**30),
    }


def chain_item(spec: dict) -> dict:
    """Glue the cells, then flower, decompose, check boundary, round-trip text."""
    cells4 = [
        plurikp.OrientedCell(plurikp.CellKind(kind), tuple(base), tuple(spec["dirs"]))
        for kind, base in spec["cells"]
    ]
    manifold = plurikp.facets(cells4[0]) * spec["sign"]
    for cell in cells4[1:]:
        faces = plurikp.facets(cell)
        # Orient the new cell so that a facet it shares with the union cancels.
        sign = next(
            -manifold.coefficient(f) * c for f, c in faces.items() if manifold.coefficient(f)
        )
        manifold = manifold + faces * sign
    shared = sorted(plurikp.vertices(cells4[0]) & plurikp.vertices(cells4[1]))
    vertex = shared[spec["pick"] % len(shared)]
    boundary = plurikp.boundary(manifold)
    star = plurikp.flower(manifold, vertex)
    pairs = plurikp.decompose_flower(star, vertex)
    text = plurikp.format_chain(star)
    return {
        "star": star,
        "pairs": pairs,
        "boundary": boundary,
        "text": text,
        "parsed": plurikp.parse_chain(text),
    }


def chain_failures(spec: dict, out) -> list[str]:
    if isinstance(out, Exception):
        return [f"raised {out!r}"]
    failures = []
    if out["boundary"]:
        failures.append("boundary of the glued boundary is not empty")
    if out["parsed"] != out["star"] or plurikp.format_chain(out["parsed"]) != out["text"]:
        failures.append("format_chain/parse_chain round trip differs")
    extra = 2 if spec["lattice"] == "qan" else 1
    total = plurikp.Chain()
    for cell4, center in out["pairs"]:
        total = total + plurikp.corner(cell4, center)
    if not out["pairs"] or total != out["star"].padded(extra):
        failures.append("corners do not sum to the padded flower")
    return failures


class ChainsWorkload:
    name = "chains"

    def __init__(self, workdir: str) -> None:
        del workdir  # flowers live in memory only

    def inputs(self, seed: int, round_index: int) -> list[dict]:
        rng = round_rng(self.name, seed, round_index)
        shapes = _shuffled_shapes(rng, CHAIN_SHAPES, CHAINS_PER_ROUND)
        return [chain_spec(rng, *shape) for shape in shapes]

    def run(self, inputs: list[dict], tracer=None, clock=time.perf_counter) -> RoundResult:
        outputs, spans = [], []
        begin = clock()
        for index, spec in enumerate(inputs):
            if tracer is not None:
                tracer.item_id = index
            start = clock()
            try:
                outputs.append(chain_item(spec))
            except Exception as exc:  # recorded as a failed item by the gate
                outputs.append(exc)
            spans.append((start, clock()))
        return RoundResult(clock() - begin, spans, len(inputs), outputs)

    def gate(self, inputs: list[dict], outputs: list) -> tuple[int, list[str]]:
        failures = []
        for index, (spec, out) in enumerate(zip(inputs, outputs)):
            failures.extend(f"flower {index}: {msg}" for msg in chain_failures(spec, out))
        return len(inputs), failures


# --- solve-stream ---------------------------------------------------------------

_CYCLE = 5


def _adjacent(pair: tuple[int, int]) -> bool:
    return (pair[1] - pair[0]) % _CYCLE in (1, _CYCLE - 1)


# Initial-value vertices of `plurikp solve` on the standard cell (directions
# 0..4, or 0..3 for the cube), as direction groups, with the value the
# constant golden solution of the dkp branch takes there.
def _initial_groups(kind: str) -> list[tuple[tuple[int, ...], float]]:
    a = GOLDEN_A
    if kind == "ambo-black":
        pairs = ((0, 3), (0, 4), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4))
        return [(p, a if _adjacent(p) else -1.0) for p in pairs]
    if kind == "ambo-white":
        triples = ((1, 2, 4), (1, 2, 3), (0, 2, 4), (0, 2, 3), (0, 1, 4), (0, 1, 3), (0, 1, 2))
        out = []
        for t in triples:
            complement = tuple(d for d in range(_CYCLE) if d not in t)
            out.append((t, a if _adjacent(complement) else -1.0))
        return out
    return [
        ((2,), -1.0), ((3,), a), ((0, 2), -1.0), ((0, 3), -1.0), ((1, 2), a),
        ((1, 3), -1.0), ((2, 3), a), ((0, 1, 2), -1.0), ((0, 1, 3), a),
    ]


def solve_spec(rng: random.Random, kind: str, branch: str, dim: int) -> dict:
    lattice = "cubic" if kind == "cube4" else "qan"
    ambient = dim if lattice == "cubic" else dim + 1
    values = {}
    for group, golden in _initial_groups(kind):
        value = golden * rng.uniform(1.0 - SOLVE_SPREAD, 1.0 + SOLVE_SPREAD)
        point = ",".join("1" if i in group else "0" for i in range(ambient))
        # The dkp-minus completion inverts its data, solves, and inverts back.
        values[point] = 1.0 / value if branch == "dkp-minus" else value
    return {"kind": kind, "branch": branch, "lattice": lattice, "dim": dim, "values": values}


def field_file_bytes(spec: dict) -> bytes:
    payload = {
        "format": "plurikp-field/1",
        "lattice": spec["lattice"],
        "dim": spec["dim"],
        "values": spec["values"],
    }
    return (json.dumps(payload, indent=1, sort_keys=True) + "\n").encode()


def _standard_cell(kind: str, lattice: str, dim: int):
    if kind == "cube4":
        return plurikp.OrientedCell(plurikp.CellKind.CUBE4, (0,) * dim, tuple(range(4)))
    kinds = plurikp.CellKind
    cell_kind = kinds.BLACK_AMBO4 if kind == "ambo-black" else kinds.WHITE_AMBO4
    return plurikp.OrientedCell(cell_kind, (0,) * (dim + 1), tuple(range(5)))


class SolveStreamWorkload:
    name = "solve-stream"

    def __init__(self, workdir: str) -> None:
        self.workdir = workdir

    def inputs(self, seed: int, round_index: int) -> list[dict]:
        rng = round_rng(self.name, seed, round_index)
        specs = []
        for index, shape in enumerate(_shuffled_shapes(rng, SOLVE_SHAPES, SOLVES_PER_ROUND)):
            spec = solve_spec(rng, *shape)
            spec["input"] = os.path.join(self.workdir, f"in-{index}.json")
            spec["output"] = os.path.join(self.workdir, f"out-{index}.json")
            with open(spec["input"], "wb") as handle:
                handle.write(field_file_bytes(spec))
            specs.append(spec)
        # Start the round with no pending writeback, so that flushing earlier
        # rounds' files does not land inside this round's timing.
        os.sync()
        return specs

    def run(self, inputs: list[dict], tracer=None, clock=time.perf_counter) -> RoundResult:
        outputs, spans = [], []
        begin = clock()
        for index, spec in enumerate(inputs):
            argv = [
                "solve", spec["kind"], spec["input"], spec["output"],
                "--branch", spec["branch"],
            ]
            if tracer is not None:
                tracer.item_id = index
            start = clock()
            try:
                outputs.append(_quiet_main(argv))
            except Exception as exc:  # recorded as a failed item by the gate
                outputs.append(exc)
            spans.append((start, clock()))
        return RoundResult(clock() - begin, spans, len(inputs), outputs)

    def gate(self, inputs: list[dict], outputs: list) -> tuple[int, list[str]]:
        failures = []
        for index, (spec, out) in enumerate(zip(inputs, outputs)):
            failures.extend(f"solve {index}: {msg}" for msg in solve_failures(spec, out))
        return len(inputs), failures


def solve_failures(spec: dict, out) -> list[str]:
    if isinstance(out, Exception):
        return [f"raised {out!r}"]
    code, stdout = out
    if code != 0:
        return [f"exit code {code}"]
    if not stdout.startswith(f"branch: {spec['branch']}\n"):
        return [f"printed {stdout.splitlines()[:1]}, requested {spec['branch']}"]
    field_values, lattice, dim = plurikp.read_field_file(spec["output"])
    if (lattice, dim) != (spec["lattice"], spec["dim"]):
        return [f"output is {lattice}/{dim}, input was {spec['lattice']}/{spec['dim']}"]
    failures = []
    for key, value in spec["values"].items():
        # dkp-minus inverts twice, which may move the last bit.
        kept = field_values.get(tuple(int(t) for t in key.split(",")))
        if kept is None or not math.isclose(kept, value, rel_tol=1e-14):
            failures.append(f"initial value at {key} not kept")
    minus = spec["branch"] == "dkp-minus"
    residual = dkp_minus_residual_relative if minus else dkp_residual_relative
    limit = TOLERANCES["solver_rel"]
    cell = _standard_cell(spec["kind"], lattice, dim)
    for support in plurikp.system_on_4cell(cell):
        worst = residual(field_values, support)
        if not worst <= limit:
            failures.append(f"relative residual {worst:.3e} > {limit:.0e} on {support}")
    return failures


WORKLOADS = ("verify-qan", "verify-cubic", "chains", "solve-stream")


def make(name: str, workdir: str):
    if name == "verify-qan":
        return VerifyWorkload(name, "qan", workdir)
    if name == "verify-cubic":
        return VerifyWorkload(name, "cubic", workdir)
    if name == "chains":
        return ChainsWorkload(workdir)
    if name == "solve-stream":
        return SolveStreamWorkload(workdir)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
