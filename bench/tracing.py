"""Spans around calls into the chm modules, for the traced run only.

`install` replaces each traced public function wherever a chm module (or
the package itself) binds it, so calls between modules are seen too. It
is called only in a traced worker process; untraced processes import
chm untouched. Spans stay in memory until the worker writes them out.

A span is a list [name, start_ns, end_ns, parent, request, found, value]:
`parent` indexes the enclosing span (-1 for none), `request` is the id
the worker set before the call, and `found`/`value` are derived from the
returned object for the functions annotated below.
"""

from __future__ import annotations

import functools
import itertools
import os
import sys
import time

# Scalar per-entry predicates such as census.is_sub_chm_2x2 are left
# out on purpose: their per-call cost is close to the wrapper's.
TRACED = {
    "core": ("is_chm", "gram_residual", "matrix_from_obj"),
    "families": ("family_h",),
    "census": ("census_2x2", "h2_block_structure", "find_3x3_sub_chms"),
    "equivalence": (
        "are_equivalent",
        "dephase",
        "count_real_entries",
        "apply_witness",
        "real_submatrices_3x2",
    ),
    "mub": ("exclusion_report", "mu_pair"),
    "scan": ("run_scan", "scan_point", "write_records"),
    "cli": ("main",),
}

SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns)


def _pairings(elems):
    # Perfect pairings of elems in lexicographic order (the order in which
    # h2_block_structure tries them).
    if not elems:
        return [()]
    first, rest = elems[0], elems[1:]
    out = []
    for i, partner in enumerate(rest):
        for sub in _pairings(rest[:i] + rest[i + 1 :]):
            out.append(((first, partner),) + sub)
    return out


PAIRINGS = [tuple((a + 1, b + 1) for a, b in p) for p in _pairings((0, 1, 2, 3, 4, 5))]
_PAIRING_INDEX = {p: i for i, p in enumerate(PAIRINGS)}
_PERM_RANK = {p: i for i, p in enumerate(itertools.permutations(range(1, 7)))}


def pairings_tried(structure) -> int:
    """Row/column pairing combinations examined before the search returned
    (computed from the returned structure; 225 on a miss)."""
    if structure is None:
        return len(PAIRINGS) ** 2
    rows = _PAIRING_INDEX[tuple(structure.row_pairing)]
    cols = _PAIRING_INDEX[tuple(structure.col_pairing)]
    return rows * len(PAIRINGS) + cols + 1


def perm_rank(witness) -> int:
    """Lexicographic rank (0-based) of a witness row permutation of 1..6."""
    return _PERM_RANK[tuple(witness.row_perm)]


def _annotate_h2(args, kwargs, result):
    return result is not None, pairings_tried(result)


def _annotate_equiv(args, kwargs, result):
    return result is not None, None if result is None else perm_rank(result)


def _annotate_3x3(args, kwargs, result):
    return len(result) > 0, None


def _annotate_write(args, kwargs, result):
    config = args[2] if len(args) > 2 else kwargs["config"]
    return None, os.path.getsize(config.out_path)


ANNOTATE = {
    "census.h2_block_structure": _annotate_h2,
    "equivalence.are_equivalent": _annotate_equiv,
    "census.find_3x3_sub_chms": _annotate_3x3,
    "scan.write_records": _annotate_write,
}


class Recorder:
    """In-memory span list with a call stack for parent links."""

    def __init__(self):
        self.spans = []
        self.request = None
        self._stack = []

    def wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        annotate = ANNOTATE.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0, stack[-1] if stack else -1, self.request, None, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if annotate is not None:
                span[5], span[6] = annotate(args, kwargs, result)
            return result

        return traced


def install(recorder: Recorder) -> list:
    """Wrap every traced function of the imported chm modules at each of
    its bindings in chm.* (and the chm package).

    Returns the bindings as (module, attribute, original, wrapper), for
    `switch`.
    """
    wrappers = {}
    for mod, fns in TRACED.items():
        module = sys.modules.get(f"chm.{mod}")
        if module is None:
            continue
        for fn in fns:
            original = getattr(module, fn)
            wrappers[id(original)] = (original, recorder.wrap(f"{mod}.{fn}", original))
    bindings = []
    for modname, module in list(sys.modules.items()):
        if modname != "chm" and not modname.startswith("chm."):
            continue
        for attr, value in list(vars(module).items()):
            hit = wrappers.get(id(value))
            if hit is not None and hit[0] is value:
                bindings.append((module, attr, hit[0], hit[1]))
    switch(bindings, True)
    return bindings


def switch(bindings, traced: bool) -> None:
    """Point every binding at its wrapper (traced) or its original."""
    for module, attr, original, wrapper in bindings:
        setattr(module, attr, wrapper if traced else original)


_FIELDS = ("calls", "total_ns", "self_ns", "found", "value_sum", "value_n")


def aggregate(spans, key=lambda span: 0) -> dict:
    """Per group (key(span)) and span name: calls, inclusive and self time
    in ns, found count, and the sum and count of derived values.

    `spans` is a worker's full span list, whose parent links index it.
    """
    child_ns = [0] * len(spans)
    for s in spans:
        if s[3] >= 0:
            child_ns[s[3]] += s[2] - s[1]
    groups = {}
    for i, s in enumerate(spans):
        group = groups.setdefault(key(s), {})
        agg = group.get(s[0])
        if agg is None:
            agg = group[s[0]] = dict.fromkeys(_FIELDS, 0)
        dur = s[2] - s[1]
        agg["calls"] += 1
        agg["total_ns"] += dur
        agg["self_ns"] += dur - child_ns[i]
        agg["found"] += bool(s[5])
        if s[6] is not None:
            agg["value_sum"] += s[6]
            agg["value_n"] += 1
    return groups


def merge(groups) -> dict:
    """Sum aggregated groups (for example one per process of a pass)."""
    out = {}
    for group in groups:
        for name, agg in group.items():
            acc = out.setdefault(name, dict.fromkeys(_FIELDS, 0))
            for field in _FIELDS:
                acc[field] += agg[field]
    return out


# Derived metrics reported per span name, beyond calls, total_ms and self_ms.
_FOUND_RATIO = ("census.h2_block_structure", "equivalence.are_equivalent", "census.find_3x3_sub_chms")


def layer_metrics(group: dict) -> dict:
    """Flat per-layer metrics for one aggregated group (one pass)."""
    out = {}
    empty = dict.fromkeys(_FIELDS, 0)
    for name in SPAN_NAMES:
        agg = group.get(name, empty)
        out[f"{name}.calls"] = agg["calls"]
        out[f"{name}.total_ms"] = agg["total_ns"] / 1e6
        out[f"{name}.self_ms"] = agg["self_ns"] / 1e6
        if name in _FOUND_RATIO:
            out[f"{name}.found_ratio"] = agg["found"] / agg["calls"] if agg["calls"] else 0.0
    out["census.h2_block_structure.pairings_tried"] = group.get(
        "census.h2_block_structure", empty
    )["value_sum"]
    eq = group.get("equivalence.are_equivalent", empty)
    out["equivalence.are_equivalent.perm_rank_mean"] = (
        eq["value_sum"] / eq["value_n"] if eq["value_n"] else 0.0
    )
    out["scan.write_records.bytes"] = group.get("scan.write_records", empty)["value_sum"]
    return out
