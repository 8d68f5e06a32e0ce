"""Spans around the public functions of each fuzzymono layer, and the
per-layer metrics computed from them.

Child side: install() wraps the functions listed in _FUNCTIONS and
_METHODS and rebinds every name that refers to them in the loaded fuzzymono
modules. verify.registry binds graded_residual, build_sector and get_space
with `from ... import`, sector binds get_space the same way, and the
identity records (REGISTRY and BY_ID) hold their builders by reference, so
patching only the defining module would record nothing.

A span is [name, start, end, parent, extra]: perf_counter times (one
system-wide monotonic clock, so spans of different processes line up), the
index of the enclosing span in the same chunk or -1, and a dict of counts
or None. Spans stay in memory. A forked pool worker exits without running
atexit handlers, so it hands back the spans of each job as soon as the job
ends; the main process writes its spans when the run ends. Each process
appends one JSON line per chunk to OUTDIR/spans-<pid>.jsonl.

Parent side: layer_metrics() reads those files. A span's self time is its
duration minus the durations of its direct child spans; the time metric of
a layer (`fock.s`, `liouville.matmul.s`, `algebra.self_s`, ...) sums the
self time of every span whose name starts with that layer's prefix.
"""

from __future__ import annotations

import dataclasses
import functools
import glob
import json
import math
import os
import sys
from time import perf_counter

# (module, function, span name)
_FUNCTIONS = [
    *(("fuzzymono.fock", f, f"fock.{f}") for f in (
        "build_basis", "ladder", "annihilator", "creator", "number_operator",
        "interior_projector")),
    *(("fuzzymono.ncspace", f, f"ncspace.{f}") for f in (
        "build_coordinates", "verify_coordinate_algebra")),
    *(("fuzzymono.su22", f, f"su22.{f}") for f in (
        "generator_matrix", "bracket_rhs", "build_su22_matrices",
        "matrix_gamma_residual", "matrix_closure_residual", "hermitian_split")),
    ("fuzzymono.liouville", "get_space", "liouville.cache.spaces"),
    ("fuzzymono.sector", "build_sector", "sector.build"),
    ("fuzzymono.sector", "graded_residual", "sector.residual"),
    *(("fuzzymono.sector", f, f"sector.{f}") for f in (
        "inner_product", "apply_superop", "sector_matrix")),
    *(("fuzzymono.algebra", f, f"algebra.{f}") for f in (
        "left_action", "right_action", "su22_bracket_rhs")),
    *(("fuzzymono.monopole", f, f"monopole.{f}") for f in (
        "charge_fit", "monopole_profile_op", "rotation_flow_residual",
        "build_field_strength")),
    ("fuzzymono.verify.registry", "get_context", "registry.contexts"),
    ("fuzzymono.verify.runner", "run_suite", "runner.run_suite"),
    ("fuzzymono.verify.runner", "_eval_job", "runner.job"),
    ("fuzzymono.verify.cli", "main", "cli.main"),
]

# (module, class, method, span name)
_METHODS = [
    ("fuzzymono.liouville", "SuperOp", "__matmul__", "liouville.matmul"),
    ("fuzzymono.liouville", "SuperOp", "__add__", "liouville.add"),
    ("fuzzymono.liouville", "SuperOp", "__mul__", "liouville.scale"),
    ("fuzzymono.liouville", "SuperOp", "__rmul__", "liouville.scale"),
    ("fuzzymono.liouville", "SuperOp", "plain_adjoint", "liouville.adjoint"),
    ("fuzzymono.liouville", "SuperOp", "weighted_adjoint", "liouville.adjoint"),
    ("fuzzymono.liouville", "Space", "__init__", "liouville.space"),
    *(("fuzzymono.liouville", "Space", m, f"liouville.prim.{m}") for m in (
        "identity", "left_mul", "right_mul", "radial_values", "radial")),
    ("fuzzymono.liouville", "Space", "_cached", "liouville.cache.prim"),
    ("fuzzymono.algebra", "RadialFunction", "to_superop", "algebra.to_superop"),
    ("fuzzymono.algebra", "OperatorAlgebra", "canonical_pairing_residual",
     "algebra.canonical_pairing_residual"),
    ("fuzzymono.algebra", "OperatorAlgebra", "_get", "algebra.cache"),
    ("fuzzymono.monopole", "VelocityFamily", "_get", "monopole.cache"),
    ("fuzzymono.verify.registry", "EngineContext", "cached", "registry.ctx_cache"),
    ("fuzzymono.verify.report", "VerificationReport", "emit", "report.emit"),
]

# Spans of each layer, for the check that a workload reaches every layer.
LAYERS = ("fock", "ncspace", "su22", "liouville", "sector", "algebra",
          "monopole", "registry", "runner", "report", "cli")


class Tracer:
    def __init__(self, out: str):
        self.out = out
        self.main_pid = os.getpid()
        self.reset()
        os.register_at_fork(after_in_child=self.reset)

    def reset(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self._cols: dict[tuple, int] = {}

    def wrap(self, name: str, fn, extra=None, pre=None):
        """fn with a span per call.

        pre(args, kwargs) runs before the call; extra(args, kwargs, result,
        pre_value) gives the span's counts once it has closed.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans, stack = tracer.spans, tracer.stack
            before = pre(args, kwargs) if pre is not None else None
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if extra is not None:
                rec[4] = extra(args, kwargs, result, before)
            return result

        return traced

    def wrap_cache(self, name: str, fn, table, scope):
        """A cache lookup: records a hit, or the scoped key it had to build.

        scope(*args) gives (owner, key); table(*args) the dict holding key.
        """
        def pre(args, kwargs):
            owner, key = scope(*args, **kwargs)
            return None if key in table(*args, **kwargs) else repr((owner, key))

        def extra(args, kwargs, result, missed):
            return {"hit": 1} if missed is None else {"hit": 0, "key": missed}

        return self.wrap(name, fn, extra, pre)

    def residual_extra(self, args, kwargs, result, _):
        if result is None:
            return {"skip": 1, "cols": 0}
        sector, guard = args[2], args[3]
        exclude = tuple(args[4] if len(args) > 4 else kwargs.get("exclude_ws", ()))
        key = (id(sector), guard, exclude)
        if key not in self._cols:
            mask, _ = sector.guard_window(guard, exclude)
            self._cols[key] = int(mask.sum())
        return {"skip": 0, "cols": self._cols[key]}

    def flush(self) -> None:
        """Append this process's spans as one chunk and start a new one."""
        from fuzzymono import liouville, sector
        chunk = {"pid": os.getpid(), "spaces": len(liouville._SPACES),
                 "sectors": len(sector._SECTORS), "spans": self.spans}
        path = os.path.join(self.out, f"spans-{os.getpid()}.jsonl")
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(chunk) + "\n")
        self.spans.clear()


def _csr_extra(args, kwargs, result, _):
    mat = getattr(result, "mat", None)
    if mat is None:
        return None
    nnz = int(mat.nnz)
    return {"nnz": nnz,
            "bytes": nnz * (mat.data.itemsize + mat.indices.itemsize) + mat.indptr.nbytes}


def _rebind(original, replacement) -> None:
    """Point every fuzzymono module global that names original at replacement."""
    for modname, mod in list(sys.modules.items()):
        if modname == "fuzzymono" or modname.startswith("fuzzymono."):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)


def install(out: str) -> Tracer:
    import fuzzymono.verify.cli  # noqa: F401  (load every module before rebinding)
    from fuzzymono import liouville
    from fuzzymono.verify import registry

    tracer = Tracer(out)
    lookups = {
        "get_space": (lambda n_max, lam=1.0: ("space", (n_max, float(lam))),
                      lambda *a, **k: liouville._SPACES),
        "get_context": (lambda n_max, lam: ("context", (n_max, float(lam))),
                        lambda *a, **k: registry._CONTEXTS),
        # per-space caches: Space._cached, OperatorAlgebra._get,
        # VelocityFamily._get, EngineContext.cached
        "_cached": (_method_scope, _method_table),
        "_get": (_method_scope, _method_table),
        "cached": (_method_scope, _method_table),
    }

    def wrapped(name: str, fn, span: str):
        if name in lookups:
            scope, table = lookups[name]
            return tracer.wrap_cache(span, fn, table, scope)
        if name == "graded_residual":
            return tracer.wrap(span, fn, tracer.residual_extra)
        if name == "_eval_job":
            return _job_wrapper(tracer, tracer.wrap(span, fn))
        if name == "emit":
            return tracer.wrap(span, fn, lambda a, k, result, _: {"bytes": len(result)})
        if span.startswith("liouville."):
            return tracer.wrap(span, fn, _csr_extra)
        return tracer.wrap(span, fn)

    for modname, fname, span in _FUNCTIONS:
        fn = getattr(sys.modules[modname], fname)
        _rebind(fn, wrapped(fname, fn, span))
    for modname, cname, mname, span in _METHODS:
        cls = getattr(sys.modules[modname], cname)
        setattr(cls, mname, wrapped(mname, cls.__dict__[mname], span))

    for i, rec in enumerate(registry.REGISTRY):
        traced = dataclasses.replace(
            rec, builder=tracer.wrap("registry.builder", rec.builder))
        registry.REGISTRY[i] = traced
        registry.BY_ID[rec.id] = traced
    return tracer


def _method_scope(self, key, *args):
    """(truncation, key) of a lookup in a per-space cache."""
    space = getattr(self, "space", self)
    return (space.n_max, space.lam), key


def _method_table(self, *args) -> dict:
    return self._extra if hasattr(self, "_extra") else self._cache


def _job_wrapper(tracer: Tracer, traced_job):
    @functools.wraps(traced_job)
    def job(*args, **kwargs):
        try:
            return traced_job(*args, **kwargs)
        finally:
            if os.getpid() != tracer.main_pid:
                tracer.flush()

    return job


# ---------------------------------------------------------------------------
# parent side
# ---------------------------------------------------------------------------

def read_chunks(out: str) -> list[dict]:
    chunks = []
    for path in sorted(glob.glob(os.path.join(out, "spans-*.jsonl"))):
        with open(path, encoding="utf-8") as fh:
            chunks.extend(json.loads(line) for line in fh if line.strip())
    return chunks


def _percentile(sorted_vals: list[float], p: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    k = max(1, math.ceil(p / 100.0 * len(sorted_vals)))
    return sorted_vals[k - 1]


def p_hi(n: int) -> float:
    """Highest of the usual percentiles with at least ten samples beyond it."""
    for p in (99.9, 99.0, 95.0, 90.0, 75.0):
        if n * (1.0 - p / 100.0) >= 10:
            return p
    return 50.0


def layer_metrics(chunks: list[dict]) -> tuple[dict[str, float], dict]:
    """Per-layer metrics, plus details (layer entry counts, percentile used)."""
    self_s: dict[str, float] = {}
    entries: dict[str, int] = {}
    counts: dict[str, float] = {}
    hits: dict[str, list[int]] = {}
    builds: dict[str, set[int]] = {}
    job_ms: list[float] = []
    busy: dict[int, float] = {}
    first_job: dict[int, tuple[float, float]] = {}
    suite_s = 0.0
    build_s = 0.0
    sizes: dict[int, tuple[int, int]] = {}

    def add(key: str, value: float) -> None:
        counts[key] = counts.get(key, 0.0) + value

    for chunk in chunks:
        pid, spans = chunk["pid"], chunk["spans"]
        sizes[pid] = (chunk["spaces"], chunk["sectors"])
        child_s = [0.0] * len(spans)
        residual_in = [0.0] * len(spans)
        for i, (name, start, end, parent, extra) in enumerate(spans):
            if parent >= 0:
                child_s[parent] += end - start
        # children close before their parents, so walk backwards once
        for i in range(len(spans) - 1, -1, -1):
            name, start, end, parent, extra = spans[i]
            if name == "sector.residual":
                residual_in[i] = end - start
            if parent >= 0:
                residual_in[parent] += residual_in[i]
        for i, (name, start, end, parent, extra) in enumerate(spans):
            dur = end - start
            self_s[name] = self_s.get(name, 0.0) + dur - child_s[i]
            outer = spans[parent][0].split(".")[0] if parent >= 0 else None
            layer = name.split(".")[0]
            if outer != layer:
                entries[layer] = entries.get(layer, 0) + 1
            entries[name] = entries.get(name, 0) + 1
            if extra:
                for k in ("nnz", "bytes", "cols", "skip"):
                    if k in extra:
                        add(f"{name}.{k}", extra[k])
                if "hit" in extra:
                    cache = name if not name.startswith("liouville.cache") else "liouville.cache"
                    hits.setdefault(cache, []).append(extra["hit"])
                    if not extra["hit"]:
                        builds.setdefault(f"{name}:{extra['key']}", set()).add(pid)
            if name == "registry.builder" and not (
                    parent >= 0 and spans[parent][0] == "registry.builder"):
                build_s += dur - residual_in[i]
            if name == "runner.job":
                job_ms.append(dur * 1e3)
                busy[pid] = busy.get(pid, 0.0) + dur
                if pid not in first_job or start < first_job[pid][0]:
                    first_job[pid] = (start, dur)
            if name == "runner.run_suite":
                suite_s += dur

    def prefix_s(prefix: str) -> float:
        return sum(v for k, v in self_s.items() if k == prefix or k.startswith(prefix + "."))

    def ratio(cache: str) -> float:
        h = hits.get(cache, [])
        return sum(h) / len(h) if h else 0.0

    job_ms.sort()
    workers = len(busy)
    busy_vals = list(busy.values()) or [0.0]
    mean_busy = sum(busy_vals) / len(busy_vals)
    lio_bytes = sum(v for k, v in counts.items()
                    if k.startswith("liouville.") and k.endswith(".bytes"))
    metrics = {
        "fock.s": prefix_s("fock"),
        "fock.calls": entries.get("fock", 0),
        "ncspace.s": prefix_s("ncspace"),
        "su22.s": prefix_s("su22"),
        "liouville.matmul.calls": entries.get("liouville.matmul", 0),
        "liouville.matmul.s": prefix_s("liouville.matmul"),
        "liouville.matmul.nnz_out": counts.get("liouville.matmul.nnz", 0),
        "liouville.add.calls": entries.get("liouville.add", 0),
        "liouville.add.s": prefix_s("liouville.add"),
        "liouville.scale.calls": entries.get("liouville.scale", 0),
        "liouville.scale.s": prefix_s("liouville.scale"),
        "liouville.adjoint.s": prefix_s("liouville.adjoint"),
        "liouville.bytes_computed": lio_bytes,
        "liouville.prim.s": prefix_s("liouville.prim"),
        "liouville.space.s": prefix_s("liouville.space"),
        "liouville.spaces": max((s[0] for s in sizes.values()), default=0),
        "liouville.cache.hit_ratio": ratio("liouville.cache"),
        "sector.residual.calls": entries.get("sector.residual", 0),
        "sector.residual.s": prefix_s("sector.residual"),
        "sector.residual.cols": counts.get("sector.residual.cols", 0),
        "sector.residual.skips": counts.get("sector.residual.skip", 0),
        "sector.build.s": prefix_s("sector.build"),
        "sector.sectors": max((s[1] for s in sizes.values()), default=0),
        "algebra.self_s": prefix_s("algebra"),
        "algebra.cache.hit_ratio": ratio("algebra.cache"),
        "monopole.self_s": prefix_s("monopole"),
        "monopole.cache.hit_ratio": ratio("monopole.cache"),
        "registry.build_s": build_s,
        "registry.self_s": prefix_s("registry"),
        "registry.ctx_cache.hit_ratio": ratio("registry.ctx_cache"),
        "registry.job_ms.p50": _percentile(job_ms, 50.0) if job_ms else 0.0,
        "registry.job_ms.p_hi": _percentile(job_ms, p_hi(len(job_ms))) if job_ms else 0.0,
        "runner.workers": workers,
        "runner.busy_s.max": max(busy_vals),
        "runner.idle_share": (1.0 - sum(busy_vals) / (workers * suite_s)
                              if workers and suite_s else 0.0),
        "runner.imbalance": max(busy_vals) / mean_busy if mean_busy else 0.0,
        "runner.cold_job_s": max((d for _, d in first_job.values()), default=0.0),
        "runner.dup_builds": sum(1 for pids in builds.values() if len(pids) > 1),
        "report.emit.s": prefix_s("report.emit"),
        "report.bytes": counts.get("report.emit.bytes", 0),
        "cli.self_s": prefix_s("cli"),
    }
    details = {"layer_calls": {k: entries.get(k, 0) for k in LAYERS},
               "jobs": len(job_ms), "job_ms_p_hi_percentile": p_hi(len(job_ms))}
    return metrics, details
