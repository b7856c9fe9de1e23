"""Spans and counters for a traced benchmark pass.

The wrappers live here, not in the program: `install` replaces each traced
name where its caller looks it up (module globals such as the names `radius`
imports from `gf` and `_bulk`, class attributes such as the cached property
`Field.generator`).  A worker process installs them once and exits after its
pass, so nothing is restored.

A span is [id, parent id, cell index, name, start, end], kept in memory and
written out by the caller at the end.  The work runs in one thread, so spans
nest strictly and no layer waits on another; no wait times are recorded.
"""

from __future__ import annotations

import collections
import functools
import time

# span name -> per-layer metric holding the span's self time
SELF_METRICS = {
    "gf.generator": "gf.generator_s",
    "gf.irreducible": "gf.irreducible_s",
    "gf.factorize": "gf.factorize_s",
    "gf.context": "gf.context_s",
    "bulk.exp": "bulk.exp_s",
    "bulk.chi": "bulk.chi_s",
    "bulk.log": "bulk.log_s",
    "bulk.trace": "bulk.trace_s",
    "bulk.bfs": "bulk.bfs_s",
    "radius.criterion": "radius.scan_self_s",
    "radius.oracle": "radius.oracle_self_s",
    "radius.shortcut": "radius.shortcut_s",
    "code.build_code": "code.build_code_s",
    "code.witness": "code.witness_s",
    "code.syndrome": "code.syndrome_s",
    "charsum.quartic_pair": "charsum.quartic_pair_s",
    "tower.subfield": "tower.subfield_s",
}

# span name -> per-layer metric holding the span's inclusive time
INCLUSIVE_METRICS = {"radius.criterion": "radius.criterion_s"}

COUNT_METRICS = (
    "gf.pow_calls", "gf.context_builds", "gf.context_requests",
    "bulk.exp_elements", "bulk.table_bytes", "bulk.bfs_space", "bulk.bfs_levels",
    "bulk.step_calls", "radius.cap_skips", "code.positions",
)

ROOT_SPAN = "cell"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: collections.Counter = collections.Counter()
        self.cell: int | None = None
        self.last_exp = None      # the exp table built by the current cell
        self._stack: list[int] = []
        self._bfs_depth = 0

    def wrap(self, name: str, fn, after=None):
        """`fn` inside a span; `after(result, args)` runs once it returns."""
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [len(spans), stack[-1] if stack else None, self.cell, name,
                   time.perf_counter(), None]
            spans.append(rec)
            stack.append(rec[0])
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[5] = time.perf_counter()
                stack.pop()
            if after is not None:
                after(result, args)
            return result
        return traced

    def counting(self, key: str, fn, when=None):
        """`fn` with a call counter; `when()` gates the count."""
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if when is None or when():
                counts[key] += 1
            return fn(*args, **kwargs)
        return counted


def self_times(spans) -> dict[int, float]:
    """Seconds of each span not covered by its direct children."""
    children = collections.defaultdict(list)
    for sid, parent, _cell, _name, t0, t1 in spans:
        if parent is not None:
            children[parent].append((t0, t1))
    out = {}
    for sid, _parent, _cell, _name, t0, t1 in spans:
        covered = 0.0
        end = t0
        for c0, c1 in sorted(children.get(sid, ())):
            c0, c1 = max(c0, end), min(c1, t1)
            if c1 > c0:
                covered += c1 - c0
                end = c1
        out[sid] = (t1 - t0) - covered
    return out


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer totals of one pass: self times, inclusive times, counts."""
    out = {m: 0.0 for m in SELF_METRICS.values()}
    out.update({m: 0.0 for m in INCLUSIVE_METRICS.values()})
    out.update({m: 0 for m in COUNT_METRICS})
    unattributed = 0.0
    selfs = self_times(tracer.spans)
    for sid, _parent, _cell, name, t0, t1 in tracer.spans:
        if name in SELF_METRICS:
            out[SELF_METRICS[name]] += selfs[sid]
        elif name == ROOT_SPAN:
            unattributed += selfs[sid]
        if name in INCLUSIVE_METRICS:
            out[INCLUSIVE_METRICS[name]] += t1 - t0
    for key in COUNT_METRICS:
        out[key] = tracer.counts[key]
    out["unattributed_s"] = unattributed
    out["exp_needed"] = tracer.counts["exp_needed"]
    out["exp_needed_base"] = tracer.counts["exp_needed_base"]
    return out


def install(tracer: Tracer, zb) -> None:
    """Wrap the traced names of the program modules in `zb`."""
    gf, bulk, radius, code = zb.gf, zb.bulk, zb.radius, zb.code
    charsum, tower, thresholds, errors = zb.charsum, zb.tower, zb.thresholds, zb.errors
    counts = tracer.counts

    def span_everywhere(owners, attr, name, after=None):
        wrapped = tracer.wrap(name, getattr(owners[0], attr), after)
        for owner in owners:
            setattr(owner, attr, wrapped)

    def cap_skips(fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            except errors.SizeCapExceeded:
                counts["radius.cap_skips"] += 1
                raise
        return counted

    # -- gf
    gen = gf.Field.__dict__["generator"]
    new_gen = functools.cached_property(tracer.wrap("gf.generator", gen.func))
    new_gen.__set_name__(gf.Field, "generator")
    gf.Field.generator = new_gen
    gf.Field.pow = tracer.counting("gf.pow_calls", gf.Field.pow)
    span_everywhere((gf, radius), "find_irreducible", "gf.irreducible")
    span_everywhere((gf, thresholds), "factorize", "gf.factorize")
    gf.FieldContext.__init__ = tracer.counting(
        "gf.context_builds", tracer.wrap("gf.context", gf.FieldContext.__init__))
    requested = tracer.counting("gf.context_requests", gf.make_field_for_q0)
    gf.make_field_for_q0 = requested
    radius.make_field_for_q0 = requested
    gf.make_field = tracer.counting("gf.context_requests", gf.make_field)

    # -- _bulk
    def tables(result, _args):
        counts["bulk.table_bytes"] += int(result.nbytes)

    def exp_built(result, args):
        tables(result, args)
        counts["bulk.exp_elements"] += int(result.size)
        tracer.last_exp = result

    BF = bulk.BulkField
    BF.build_exp = tracer.wrap("bulk.exp", BF.build_exp, exp_built)
    BF.build_chi_table = tracer.wrap("bulk.chi", BF.build_chi_table, tables)
    BF.build_log_table = tracer.wrap("bulk.log", BF.build_log_table, tables)
    BF.build_trace_table_char2 = tracer.wrap("bulk.trace", BF.build_trace_table_char2, tables)

    def in_bfs():
        return tracer._bfs_depth > 0

    BF.add_const = tracer.counting("bulk.step_calls", BF.add_const, in_bfs)
    BF.sub_const = tracer.counting("bulk.step_calls", BF.sub_const, in_bfs)

    layers = bulk.covering_layers

    @functools.wraps(layers)
    def bfs(bf, steps):
        tracer._bfs_depth += 1
        try:
            layer = layers(bf, steps)
        finally:
            tracer._bfs_depth -= 1
        counts["bulk.bfs_space"] += bf.order
        counts["bulk.bfs_levels"] += int(layer.max()) + 1
        return layer

    traced_bfs = tracer.wrap("bulk.bfs", bfs)
    bulk.covering_layers = traced_bfs
    radius.covering_layers = traced_bfs

    # -- radius
    radius.rho_criterion = tracer.wrap("radius.criterion", cap_skips(radius.rho_criterion))
    radius.witness_count_odd = tracer.wrap("radius.criterion", radius.witness_count_odd)
    radius.covering_radius_oracle = tracer.wrap(
        "radius.oracle", cap_skips(radius.covering_radius_oracle))
    radius.half_full_radius_equality_check = tracer.wrap(
        "radius.oracle", radius.half_full_radius_equality_check)
    radius.rho_shortcuts = tracer.wrap("radius.shortcut", radius.rho_shortcuts)

    # -- code, charsum, tower
    def positions(result, _args):
        counts["code.positions"] += len(result.h_powers)

    code.build_code = tracer.wrap("code.build_code", code.build_code, positions)
    for attr in ("weight3_witness_even", "weight3_witness_half_odd"):
        setattr(code, attr, tracer.wrap("code.witness", getattr(code, attr)))
    code.syndrome = tracer.wrap("code.syndrome", code.syndrome)
    charsum.find_nonsquare_quartic_pair_in_context = tracer.wrap(
        "charsum.quartic_pair", charsum.find_nonsquare_quartic_pair_in_context)
    # subfield enumeration: the tower helper and the Field method it delegates to
    tower.subfield_elements = tracer.wrap("tower.subfield", tower.subfield_elements)
    gf.Field.subfield_elements = tracer.wrap("tower.subfield", gf.Field.subfield_elements)


def record_exp_needed(tracer: Tracer, outcome: dict) -> None:
    """Count how much of the exp table a rho=3 criterion scan needed: the
    witness's index in the exp table + 1, against q - 1 built."""
    exp, tracer.last_exp = tracer.last_exp, None
    if exp is None or not outcome.get("witness"):
        return
    p = outcome["witness_field"]["p"]
    code = sum(d * p ** i for i, d in enumerate(outcome["witness"]))
    hits = (exp == code).nonzero()[0]
    if hits.size:
        tracer.counts["exp_needed"] += int(hits[0]) + 1
        tracer.counts["exp_needed_base"] += int(exp.size)
