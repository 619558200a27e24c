"""Span tracing of plurikp's public functions, installed from outside the package.

The package's modules import each other's functions with ``from .x import y``,
so one function can be bound in several module namespaces (``verify.corner_residual``
and ``lagrangian.corner_residual`` are separate names for the same object).  The
tracer replaces every binding of every traced function with its own wrapper and
restores the originals on ``uninstall``.  Each call through a wrapper records a
span (start, end, parent span, binding, item id) in flat arrays; nothing is
aggregated until the run ends, and the spans can be written out in one piece.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from array import array
from collections import Counter

import numpy as np

MODULES = (
    "plurikp",
    "plurikp.cells",
    "plurikp.dilog",
    "plurikp.dkp",
    "plurikp.lagrangian",
    "plurikp.verify",
    "plurikp.cli",
)

# Defining module -> public functions that get a span on every call.
SPANNED = {
    "dilog": ("re_dilog", "skew_dilog"),
    "lagrangian": (
        "three_form", "action", "corner_product", "corner_residual",
        "exterior_derivative",
    ),
    "cells": (
        "facets", "boundary", "flower", "decompose_flower", "parse_chain",
        "format_chain", "Chain.restricted_to_vertex",
    ),
    "dkp": (
        "solve_ambo_ivp", "solve_cube_ivp", "nonsingularity_margin",
        "monomial_sign_pattern", "read_field_file", "write_field_file",
    ),
    "verify": ("run_suite", "classify_branch", "check_euler_lagrange_sum"),
    "cli": ("main",),
}

# Calls that are only counted, without a span: every OrientedCell built, and
# every random solution the suite's rejection sampler accepts (a private helper,
# observed here only to form the accept ratio).
COUNTED = {
    "cells.OrientedCell.__post_init__": "cells.OrientedCell.created",
    "verify._random_solution": "verify.random_solution.accepted",
}

# Exceptions that a traced function raises and that are counted by name.
COUNTED_ERRORS = {
    "dkp.solve_ambo_ivp": ("SingularFieldError", "dkp.solve.singular"),
    "dkp.solve_cube_ivp": ("SingularFieldError", "dkp.solve.singular"),
    "verify.classify_branch": (
        "InconclusiveBranchError", "verify.classify_branch.inconclusive",
    ),
}

FIELD_IO = ("dkp.read_field_file", "dkp.write_field_file")


def _resolve(module, dotted: str):
    owner = module
    *path, attr = dotted.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    """Wraps every binding of the traced functions while installed."""

    def __init__(self) -> None:
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.binding = array("q")
        self.item = array("q")
        self.binding_keys: list[str] = []  # binding id -> "module.name"
        self.function_keys: list[str] = []  # binding id -> defining "module.name"
        self.counts: Counter[str] = Counter()
        self.paused: dict[int, float] = {}  # span index -> seconds spent outside
        self.item_id = -1
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    # --- installation -----------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        modules = {name: importlib.import_module(name) for name in MODULES}
        errors = importlib.import_module("plurikp.errors")
        originals: dict[int, str] = {}
        for short, names in SPANNED.items():
            for name in names:
                owner, attr = _resolve(modules[f"plurikp.{short}"], name)
                originals[id(getattr(owner, attr))] = f"{short}.{name}"
        for key in COUNTED:
            short, name = key.split(".", 1)
            owner, attr = _resolve(modules[f"plurikp.{short}"], name)
            self._patch(owner, attr, self._counter(getattr(owner, attr), COUNTED[key]))
        for mod_name, module in modules.items():
            short = mod_name.rsplit(".", 1)[-1]
            for attr, obj in list(vars(module).items()):
                key = originals.get(id(obj))
                if key is not None:
                    self._patch(module, attr, self._span(obj, f"{short}.{attr}", key, errors))
        # Methods have one binding, on their class.
        for short, names in SPANNED.items():
            for name in names:
                if "." not in name:
                    continue
                owner, attr = _resolve(modules[f"plurikp.{short}"], name)
                key = f"{short}.{name}"
                self._patch(owner, attr, self._span(getattr(owner, attr), key, key, errors))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _binding_id(self, binding_key: str, function_key: str) -> int:
        if binding_key in self.binding_keys:
            return self.binding_keys.index(binding_key)
        self.binding_keys.append(binding_key)
        self.function_keys.append(function_key)
        return len(self.binding_keys) - 1

    def _counter(self, fn, name: str):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            counts[name] += 1
            return result

        return counted

    def _span(self, fn, binding_key: str, function_key: str, errors):
        bid = self._binding_id(binding_key, function_key)
        start, end, parent = self.start, self.end, self.parent
        binding, item, stack = self.binding, self.item, self._stack
        counts, clock, tracer = self.counts, time.perf_counter, self
        error_type, error_name = COUNTED_ERRORS.get(function_key, (None, None))
        error_cls = getattr(errors, error_type) if error_type else ()
        field_io = function_key in FIELD_IO

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(start)
            parent.append(stack[-1])
            binding.append(bid)
            item.append(tracer.item_id)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            except error_cls:
                counts[error_name] += 1
                raise
            finally:
                end[idx] = clock()
                stack.pop()
                if field_io:
                    path = args[0] if args else kwargs["path"]
                    if os.path.exists(path):
                        counts["dkp.field_io.bytes"] += os.path.getsize(path)

        return wrapper

    def pause(self, seconds: float) -> None:
        """Charge time spent in benchmark code (the reference kernel) during the
        innermost open span, so that it comes out of that span's self time."""
        index = self._stack[-1]
        if index >= 0:
            self.paused[index] = self.paused.get(index, 0.0) + seconds

    # --- results ------------------------------------------------------------

    def binding_calls(self) -> dict[str, int]:
        per_binding = np.bincount(
            _copy(self.binding, np.int64), minlength=len(self.binding_keys)
        )
        return {key: int(n) for key, n in zip(self.binding_keys, per_binding)}

    def function_totals(self) -> dict[str, tuple[int, float]]:
        """Defining function -> (calls, self seconds) over all recorded spans."""
        own = self_times(
            _copy(self.start, np.float64),
            _copy(self.end, np.float64),
            _copy(self.parent, np.int64),
        )
        for index, seconds in self.paused.items():
            own[index] -= seconds
        bindings = _copy(self.binding, np.int64)
        n = len(self.binding_keys)
        calls = np.bincount(bindings, minlength=n)
        seconds = np.bincount(bindings, weights=own, minlength=n)
        totals: dict[str, tuple[int, float]] = {}
        for short, names in SPANNED.items():
            for name in names:
                totals[f"{short}.{name}"] = (0, 0.0)
        for bid, key in enumerate(self.function_keys):
            c, s = totals[key]
            totals[key] = (c + int(calls[bid]), s + float(seconds[bid]))
        return totals

    def write(self, path: str) -> None:
        np.savez(
            path,
            start=_copy(self.start, np.float64),
            end=_copy(self.end, np.float64),
            parent=_copy(self.parent, np.int64),
            binding=_copy(self.binding, np.int64),
            item=_copy(self.item, np.int64),
            binding_keys=np.array(self.binding_keys),
        )


def _copy(values: array, dtype) -> np.ndarray:
    # A copy, so that the array can still grow afterwards (an exported buffer
    # would pin its size).
    return np.frombuffer(values, dtype=dtype).copy()


def self_times(start, end, parent) -> np.ndarray:
    """Each span's duration minus the time its direct children cover.

    Spans come from one thread, so children of one parent never overlap and
    the covered time is the sum of their durations.
    """
    start = np.asarray(start, dtype=np.float64)
    duration = np.asarray(end, dtype=np.float64) - start
    parent = np.asarray(parent, dtype=np.int64)
    covered = np.zeros_like(duration)
    nested = parent >= 0
    np.add.at(covered, parent[nested], duration[nested])
    return duration - covered


def sanity_failures(
    binding_calls: dict[str, int],
    function_totals: dict[str, tuple[int, float]],
    expected: tuple[str, ...],
    silent_modules: tuple[str, ...],
) -> list[str]:
    """Expected bindings that saw no call, and calls into modules that should
    see none.  Either means the wrappers do not measure what they claim to."""
    failures = []
    for key in expected:
        if key not in binding_calls:
            failures.append(f"{key}: no such traced binding")
        elif binding_calls[key] == 0:
            failures.append(f"{key}: never called")
    for key, (calls, _) in function_totals.items():
        if key.split(".", 1)[0] in silent_modules and calls:
            failures.append(f"{key}: {calls} calls where none are expected")
    return failures
