"""In-memory spans and counters around rotaperm's public functions.

The tracer measures the package from outside: it replaces each traced
function with a wrapper at every place the name is looked up (the
defining module and every rotaperm module that imported it), records a
span per call, and puts the originals back on `uninstall`.  Hot scalar
methods get a call counter instead of a span.

A span is (name, start, end, parent, thread, m): `parent` indexes the
enclosing span of the same thread (-1 for none) and `m` is the field
degree of the call's context argument (-1 when there is none).  Each
thread appends to its own buffer, so the pool threads of `search` never
share a list or a counter and counts repeat exactly.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time
from array import array
from collections import Counter, defaultdict
from importlib import import_module
from typing import NamedTuple

# (span name, defining module, attribute): wrapped wherever the object is bound.
FUNCTIONS = (
    ("mpoly.parse", "rotaperm.mpoly", "parse"),
    ("mpoly.substitute", "rotaperm.mpoly", "substitute"),
    ("mpoly.resultant", "rotaperm.mpoly", "resultant"),
    ("family.build", "rotaperm.family", "family_from_coeffs"),
    ("family.named_family", "rotaperm.family", "named_family"),
    ("family.eval_F", "rotaperm.family", "eval_F"),
    ("resolvent.coeffs", "rotaperm.resolvent", "resolvent_coeffs"),
    ("permcheck.is_permutation", "rotaperm.permcheck", "is_permutation"),
    ("permcheck.family_images", "rotaperm.permcheck", "family_images"),
    ("kernels.scan_bijection", "rotaperm._kernels", "scan_bijection"),
    ("kernels.interp_coeffs", "rotaperm._kernels", "interp_coeffs"),
    ("kernels.eval_terms", "rotaperm._kernels", "eval_terms"),
    ("search.search_all", "rotaperm.search", "search_all"),
    ("search.search_diff", "rotaperm.search", "search_diff"),
    ("invert.invert_point", "rotaperm.invert", "invert_point"),
    ("invert.invert_T1_resolvent", "rotaperm.invert", "invert_T1_resolvent"),
    ("invert.invert_T3", "rotaperm.invert", "invert_T3"),
    ("invert.invert_T4", "rotaperm.invert", "invert_T4"),
    ("invert.invert_T5", "rotaperm.invert", "invert_T5"),
    ("invert.invert_table", "rotaperm.invert", "invert_table"),
    ("lift.lift_permutation", "rotaperm.lift", "lift_permutation"),
    ("lift.is_pp", "rotaperm.lift", "is_pp"),
    ("lift.qm_equivalent", "rotaperm.lift", "qm_equivalent"),
    ("lift.qm_transform", "rotaperm.lift", "qm_transform"),
    ("lift.lifted_from_json", "rotaperm.lift", "lifted_from_json"),
    ("certify.run_all", "rotaperm.certify", "run_all"),
    ("certify.resultant_g", "rotaperm.certify", "cert_resultant_g"),
    ("certify.resultant_h", "rotaperm.certify", "cert_resultant_h"),
    ("certify.factorizations", "rotaperm.certify", "cert_factorizations"),
    ("certify.beta_identity", "rotaperm.certify", "cert_beta_identity"),
    ("certify.printed_expansions", "rotaperm.certify", "beta_printed_expansions"),
    ("certify.resultant_Q", "rotaperm.certify", "cert_resultant_Q"),
    ("certify.charsum_support", "rotaperm.certify", "cert_charsum_support"),
    ("certify.A_zero_classification", "rotaperm.certify", "cert_A_zero_classification"),
    ("cli.main", "rotaperm.cli", "main"),
)

# (span name, class, attribute): methods and properties patched on the class.
METHODS = (
    ("field.ctx_init", "rotaperm.field", "FieldCtx", "__init__"),
    ("field.cubic_roots", "rotaperm.field", "FieldCtx", "cubic_roots"),
    ("field.mul_table", "rotaperm.field", "FieldCtx", "mul_table"),
    ("field.sqr_table", "rotaperm.field", "FieldCtx", "sqr_table"),
    ("field.cube_table", "rotaperm.field", "FieldCtx", "cube_table"),
    ("lift.ext_tables", "rotaperm.lift", "ExtCtx", "_ensure_tables"),
)

# (counter name, module, class, method): too hot for a span each, so only
# their calls are counted.
COUNTED = (
    ("field.mul_calls", "rotaperm.field", "FieldCtx", "mul"),
    ("field.cube_root_calls", "rotaperm.field", "FieldCtx", "cube_root"),
)

# Certificates in run_all order; the per-degree ones are split by m, and
# printed_expansions is the one call that yields printed_K1 and printed_K2.
CERTIFICATES = (
    "resultant_g", "resultant_h", "factorizations", "beta_identity",
    "printed_expansions", "resultant_Q", "charsum_support_m3", "charsum_support_m5",
    "A_zero_classification_m3", "A_zero_classification_m5",
)

# Every per-layer metric: (name, unit, the end-to-end metric it should move
# and on which workload).  "wall_s" of classify/verify-m9 is the decision time.
LAYER_METRICS = (
    ("field.tables_s", "s",
     "wall_s on classify and verify-m9 (search and verify build their own FieldCtx"
     " tables); setup_s once contexts are shared"),
    ("field.mul_calls", "count", "invert_p99_us on invert"),
    ("field.cube_root_calls", "count", "invert_p99_us on invert"),
    ("field.cubic_roots_calls", "count", "invert_p99_us on invert"),
    ("field.cubic_roots_s", "s", "invert_p99_us on invert"),
    ("mpoly.parse_s", "s", "invert_p50_us on invert (inside family builds)"),
    ("mpoly.substitute_s", "s", "invert_p50_us on invert (inside family builds)"),
    ("mpoly.resultant_calls", "count", "certify_s on algebra"),
    ("mpoly.resultant_s", "s", "certify_s on algebra"),
    ("family.build_calls", "count", "invert_p50_us on invert; slightly wall_s on classify"),
    ("family.build_s", "s", "invert_p50_us on invert; slightly wall_s on classify"),
    ("family.eval_F_calls", "count", "invert_p50_us on invert"),
    ("family.eval_F_s", "s", "invert_p50_us on invert"),
    ("resolvent.coeffs_calls", "count", "invert_p50_us and invert_p99_us on invert"),
    ("resolvent.coeffs_s", "s", "invert_p50_us and invert_p99_us on invert"),
    ("permcheck.is_permutation_calls", "count", "wall_s on classify and verify-m9"),
    ("permcheck.images_s", "s", "wall_s and peak_rss_mb on classify and verify-m9"),
    ("permcheck.points_imaged", "count", "wall_s and peak_rss_mb on classify and verify-m9"),
    # Sum of points_checked over the points the decisions imaged: the share
    # of scan work an early exit on negative vectors could not save.
    ("permcheck.decide_useful_ratio", "ratio", "wall_s on classify"),
    ("kernels.scan_s", "s", "wall_s and peak_rss_mb on classify and verify-m9"),
    # Computed from packed.nbytes, not measured traffic.
    ("kernels.scan_bytes", "B", "wall_s and peak_rss_mb on classify and verify-m9"),
    ("kernels.interp_s", "s", "lift_s on algebra"),
    ("kernels.eval_s", "s", "lift_s on algebra"),
    ("search.vectors_decided", "count", "wall_s on classify"),
    ("search.busy_m3_s", "s", "wall_s on classify"),
    ("search.busy_m5_s", "s", "wall_s on classify"),
    ("search.busy_m7_s", "s", "wall_s on classify"),
    # Sum of pool job time over (pool extent x workers), per degree.
    ("search.parallel_efficiency", "ratio", "wall_s on classify"),
    ("invert.closed_form_self_s", "s", "invert_p50_us and invert_p99_us on invert"),
    ("invert.resolvent_self_s", "s", "invert_p50_us and invert_p99_us on invert"),
    ("invert.table_self_s", "s", "invert_p50_us and invert_p99_us on invert"),
    ("invert.inverse_table_build_s", "s", "setup_s on invert"),
    ("invert.table_cache_misses", "count", "setup_s on invert"),
    ("lift.ext_tables_s", "s", "lift_s on algebra"),
    ("lift.lift_permutation_self_s", "s", "lift_s on algebra"),
    ("lift.is_pp_s", "s", "lift_s on algebra"),
    ("lift.qm_calls", "count", "qm_s on algebra"),
    ("lift.qm_equivalent_s", "s", "qm_s on algebra"),
    *((f"certify.{name}_s", "s", "certify_s on algebra") for name in CERTIFICATES),
    ("cli.self_s", "s", "nothing: argparse and JSON should stay near zero everywhere"),
)


def _degree(args) -> int:
    m = getattr(args[0], "m", None) if args else None
    return m if isinstance(m, int) else -1


class _Buffer:
    """Spans and counters of one thread."""

    def __init__(self, thread: int) -> None:
        self.thread = thread
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.m = array("i")
        self.stack: list[int] = []
        self.counts: Counter = Counter()

    def open(self, name_id: int, m: int) -> int:
        idx = len(self.name)
        self.name.append(name_id)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.m.append(m)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self.stack.pop()


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.main_thread = threading.get_ident()
        self.buffers: list[_Buffer] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []
        self._calls: dict[str, object] = {}  # COUNTED name -> counting wrapper
        self._cache_misses_at_install = 0

    # -- recording ---------------------------------------------------------

    def _buffer(self) -> _Buffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = _Buffer(threading.get_ident())
            with self._lock:
                self.buffers.append(buf)
            self._local.buf = buf
        return buf

    def _span(self, name: str, fn, observe=None):
        name_id = len(self.names)
        self.names.append(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            buf = self._buffer()
            idx = buf.open(name_id, _degree(args))
            try:
                result = fn(*args, **kwargs)
            finally:
                buf.close(idx)
            if observe is not None:
                observe(buf.counts, args, result)
            return result
        return wrapper

    # -- patching ----------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = [mod for key, mod in sys.modules.items()
                   if key == "rotaperm" or key.startswith("rotaperm.")]
        for name, module, attr in FUNCTIONS:
            original = getattr(import_module(module), attr)
            wrapper = self._span(name, original, _OBSERVERS.get(name))
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapper)
        for name, module, cls_name, attr in METHODS:
            cls = getattr(import_module(module), cls_name)
            member = cls.__dict__[attr]
            if isinstance(member, property):
                self._set(cls, attr, property(self._span(name, member.fget)))
            else:
                self._set(cls, attr, self._span(name, member))
        for name, module, cls_name, attr in COUNTED:
            cls = getattr(import_module(module), cls_name)
            # lru_cache(maxsize=0) caches nothing and its C wrapper counts every
            # call as a miss, exactly and under the GIL: about 0.1 us a call
            # where a Python-level counter costs 0.8 us.
            counted = functools.lru_cache(maxsize=0)(cls.__dict__[attr])
            self._calls[name] = counted
            self._set(cls, attr, counted)
        self._cache_misses_at_install = _inverse_table_misses()

    def uninstall(self) -> None:
        self.cache_misses = _inverse_table_misses() - self._cache_misses_at_install
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- output ------------------------------------------------------------

    def spans(self) -> list[tuple[str, float, float, int, int, int]]:
        """Every span as (name, start, end, parent, thread, m), thread by thread."""
        out = []
        for buf in self.buffers:
            for i in range(len(buf.name)):
                out.append((self.names[buf.name[i]], buf.start[i], buf.end[i],
                            buf.parent[i], buf.thread, buf.m[i]))
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "thread", "m"],
                       "spans": self.spans()}, fh)

    def counts(self) -> Counter:
        total: Counter = Counter()
        for buf in self.buffers:
            total.update(buf.counts)
        for name, counted in self._calls.items():
            total[name] += counted.cache_info().misses
        return total


def _inverse_table_misses() -> int:
    return import_module("rotaperm.invert")._inverse_table.cache_info().misses


def _observe_is_permutation(counts, args, report) -> None:
    counts["permcheck.points_checked"] += report.points_checked
    counts["permcheck.decide_points"] += 1 << (3 * args[0].m)


def _observe_family_images(counts, args, images) -> None:
    counts["permcheck.points_imaged"] += int(images.size)


def _observe_scan(counts, args, result) -> None:
    counts["kernels.scan_bytes"] += int(args[0].nbytes)


_OBSERVERS = {
    "permcheck.is_permutation": _observe_is_permutation,
    "permcheck.family_images": _observe_family_images,
    "kernels.scan_bijection": _observe_scan,
}


class _Record(NamedTuple):
    name: str
    duration: float
    above: frozenset  # names of the enclosing spans
    thread: int
    m: int
    start: float
    end: float
    parent: int


class _Stats:
    """Per-name aggregates: calls, outermost inclusive time, self time."""

    def __init__(self, tracer: Tracer) -> None:
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.hit_self_s: defaultdict = defaultdict(float)    # spans without children
        self.miss_total_s: defaultdict = defaultdict(float)  # spans with children
        self.records: list[_Record] = []
        for buf in tracer.buffers:
            n = len(buf.name)
            child_s = [0.0] * n
            children = [0] * n
            for i in range(n):
                p = buf.parent[i]
                if p >= 0:
                    child_s[p] += buf.end[i] - buf.start[i]
                    children[p] += 1
            ancestors: list[frozenset] = []
            for i in range(n):
                name = tracer.names[buf.name[i]]
                p = buf.parent[i]
                above = frozenset() if p < 0 else ancestors[p] | {tracer.names[buf.name[p]]}
                ancestors.append(above)
                dur = buf.end[i] - buf.start[i]
                self.calls[name] += 1
                self.self_s[name] += dur - child_s[i]
                if children[i]:
                    self.miss_total_s[name] += dur
                else:
                    self.hit_self_s[name] += dur
                self.records.append(_Record(name, dur, above, buf.thread, buf.m[i],
                                            buf.start[i], buf.end[i], p))

    def total(self, *names: str, m: int | None = None) -> float:
        """Time inside any of `names`, counting nested calls among them once."""
        group = set(names)
        return sum((r.duration for r in self.records
                    if r.name in group and not (r.above & group) and (m is None or r.m == m)),
                   0.0)

    def self_total(self, *names: str) -> float:
        return sum(self.self_s[n] for n in names)


def layer_metrics(tracer: Tracer, workers: int) -> dict[str, float]:
    """Every metric of LAYER_METRICS from the recorded spans and counters."""
    st = _Stats(tracer)
    counts = tracer.counts()
    out: dict[str, float] = {
        "field.tables_s": st.total("field.ctx_init", "field.mul_table",
                                   "field.sqr_table", "field.cube_table"),
        "field.mul_calls": counts["field.mul_calls"],
        "field.cube_root_calls": counts["field.cube_root_calls"],
        "field.cubic_roots_calls": st.calls["field.cubic_roots"],
        "field.cubic_roots_s": st.total("field.cubic_roots"),
        "mpoly.parse_s": st.total("mpoly.parse"),
        "mpoly.substitute_s": st.total("mpoly.substitute"),
        "mpoly.resultant_calls": st.calls["mpoly.resultant"],
        "mpoly.resultant_s": st.total("mpoly.resultant"),
        "family.build_calls": st.calls["family.build"],
        "family.build_s": st.total("family.build", "family.named_family"),
        "family.eval_F_calls": st.calls["family.eval_F"],
        "family.eval_F_s": st.total("family.eval_F"),
        "resolvent.coeffs_calls": st.calls["resolvent.coeffs"],
        "resolvent.coeffs_s": st.total("resolvent.coeffs"),
        "permcheck.is_permutation_calls": st.calls["permcheck.is_permutation"],
        "permcheck.images_s": st.total("permcheck.family_images"),
        "permcheck.points_imaged": counts["permcheck.points_imaged"],
        "permcheck.decide_useful_ratio": (
            counts["permcheck.points_checked"] / counts["permcheck.decide_points"]
            if counts["permcheck.decide_points"] else 0.0),
        "kernels.scan_s": st.total("kernels.scan_bijection"),
        "kernels.scan_bytes": counts["kernels.scan_bytes"],
        "kernels.interp_s": st.total("kernels.interp_coeffs"),
        "kernels.eval_s": st.total("kernels.eval_terms"),
    }
    # Search jobs are the is_permutation spans that start a pool thread's stack.
    jobs = [r for r in st.records if r.name == "permcheck.is_permutation"
            and r.parent < 0 and r.thread != tracer.main_thread]
    busy = {m: sum(r.duration for r in jobs if r.m == m) for m in (3, 5, 7)}
    extent = 0.0
    for m in {r.m for r in jobs}:
        starts = [r.start for r in jobs if r.m == m]
        ends = [r.end for r in jobs if r.m == m]
        extent += max(ends) - min(starts)
    out.update({
        "search.vectors_decided": len(jobs),
        "search.busy_m3_s": busy[3],
        "search.busy_m5_s": busy[5],
        "search.busy_m7_s": busy[7],
        "search.parallel_efficiency": (sum(r.duration for r in jobs) / (extent * workers)
                                       if extent else 0.0),
        "invert.closed_form_self_s": st.self_total("invert.invert_T3", "invert.invert_T4",
                                                   "invert.invert_T5"),
        "invert.resolvent_self_s": st.self_total("invert.invert_T1_resolvent"),
        # A table call with child spans built the table; one without only looked up.
        "invert.table_self_s": st.hit_self_s["invert.invert_table"],
        "invert.inverse_table_build_s": st.miss_total_s["invert.invert_table"],
        "invert.table_cache_misses": tracer.cache_misses,
        "lift.ext_tables_s": st.total("lift.ext_tables"),
        "lift.lift_permutation_self_s": st.self_total("lift.lift_permutation"),
        "lift.is_pp_s": st.total("lift.is_pp"),
        "lift.qm_calls": st.calls["lift.qm_equivalent"],
        "lift.qm_equivalent_s": st.total("lift.qm_equivalent"),
        "cli.self_s": st.self_total("cli.main"),
    })
    for cert in CERTIFICATES:
        base, _, deg = cert.rpartition("_m")
        if base and deg.isdigit():
            out[f"certify.{cert}_s"] = st.total(f"certify.{base}", m=int(deg))
        else:
            out[f"certify.{cert}_s"] = st.total(f"certify.{cert}")
    return {name: out[name] for name, _, _ in LAYER_METRICS}
