"""Tracing shim for the swipt_mac benchmark.

The package has no tracing of its own, so the benchmark wraps it from the
outside: every public function of every swipt_mac module is replaced, at
each module name that binds it, by a wrapper that records a span (name,
parent span, op id, start, end).  The model families' ``eval`` and
``inverse`` methods are wrapped on their classes.  Callbacks handed to the
numerics routines (``bisect_root``, ``maximize_scan``, ``critical_points``)
are wrapped too, so their evaluations are counted, and the time spent inside
a callback is charged to the layer that supplied it, not to the numerics
routine that called it.

Self time of a function is its span's duration minus the time covered by
its traced children (and by the callbacks it ran).  Spans are kept in
memory and written out when the run ends.  The model kernels and the
per-sample rate-bound helpers are called up to hundreds of thousands of
times per solve, so they are counted and timed but get no span record of
their own.

Known blind spot: ``coop_mac`` evaluates fees through the ``_phi_scalar``
closures it builds once per solve, which never go through ``cost.eval``.
Cooperative fee evaluations are therefore invisible here; the
``models.cost_eval`` counts on ``coop-frontier`` only cover the calls made
outside those closures.  Likewise, calls that stay inside one module and go
through a private helper are not seen.
"""

from __future__ import annotations

import gzip
import json
import math
import statistics
import time
from array import array

_perf = time.perf_counter

# numerics routines whose first argument is a callback to count
_CALLBACK_TAKERS = ("bisect_root", "maximize_scan", "critical_points")
# module-level dispatchers that only forward to the wrapped methods
_FORWARDERS = ("eh_eval", "eh_inverse", "cost_eval", "cost_inverse")
# per-sample helpers: counted and timed, but no span record per call
_SPANLESS = {
    "classical_simul.rate_bound_user1", "classical_simul.rate_bound_user2",
    "classical_simul.rate_bound_sum", "classical_simul.gamma_c",
    "classical_simul.gamma_1", "classical_simul.gamma_2",
    "classical_simul.simul_feasible", "classical_sic.sic_rate_bounds",
    "classical_sic.sic_gamma_c", "classical_sic.sic_feasible",
    "classical_sic.sic_max_sum_at_rho", "coop_mac.coop_constraints_eval",
    "models.cost_rate_cap",
}


class Stat:
    """Aggregates for one traced name."""

    __slots__ = (
        "calls", "evals", "self_s", "total_s", "scalar_calls",
        "max_iter_hits", "samples", "finite_samples", "edge_hits",
        "mirrored", "exp_users_s", "fixed_point_users_s",
    )

    def __init__(self):
        for k in self.__slots__:
            setattr(self, k, 0.0 if k.endswith("_s") else 0)

    def as_dict(self):
        return {k: getattr(self, k) for k in self.__slots__}


class Tracer:
    """In-memory span store plus per-name aggregates.

    A frame on the stack is ``[stat, child_seconds, span_id]``; a callback
    frame reuses the stat of the layer that supplied the callback, so its
    own time lands in that layer's self time.
    """

    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self.names: list[str] = []
        self._name_idx: dict[str, int] = {}
        self.stack: list = []
        self.op_id = -1
        self._next_id = 0
        # span columns: id, parent id, op id, name index, start, end
        self.sid = array("q")
        self.parent = array("q")
        self.op = array("q")
        self.name = array("l")
        self.t0 = array("d")
        self.t1 = array("d")
        self._saved = []

    def stat(self, name: str) -> Stat:
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = Stat()
            self._name_idx[name] = len(self.names)
            self.names.append(name)
        return st

    # -- wrappers ---------------------------------------------------------

    def _wrap(self, name: str, fn, spans: bool, hook=None, scalar_arg=None):
        st = self.stat(name)
        nidx = self._name_idx[name]
        stack = self.stack
        kind = name.rsplit(".", 1)[-1]
        takes_callback = kind in _CALLBACK_TAKERS
        tracer = self

        def wrapper(*args, **kwargs):
            parent_sid = stack[-1][2] if stack else -1
            if spans:
                sid = tracer._next_id
                tracer._next_id += 1
            else:
                sid = parent_sid
            frame = [st, 0.0, sid]
            probe = None
            if takes_callback and args:
                probe = _CallbackProbe(tracer, args[0], frame, kind, args, kwargs)
                args = (probe,) + args[1:]
            if scalar_arg is not None and len(args) > scalar_arg and isinstance(
                args[scalar_arg], (float, int)
            ):
                st.scalar_calls += 1
            stack.append(frame)
            ok = False
            t0 = _perf()
            try:
                out = fn(*args, **kwargs)
                ok = True
                return out
            finally:
                t1 = _perf()
                dt = t1 - t0
                stack.pop()
                st.calls += 1
                st.total_s += dt
                st.self_s += dt - frame[1]
                if stack:
                    stack[-1][1] += dt
                if spans:
                    tracer.sid.append(sid)
                    tracer.parent.append(parent_sid)
                    tracer.op.append(tracer.op_id)
                    tracer.name.append(nidx)
                    tracer.t0.append(t0)
                    tracer.t1.append(t1)
                if probe is not None:
                    probe.finish(st, ok, out if ok else None)
                if hook is not None and ok:
                    hook(st, args, kwargs, out, dt)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    # -- install / remove -------------------------------------------------

    def install(self, pkg):
        """Patch every swipt_mac module; undo with ``uninstall``."""
        import importlib

        mods = {pkg.__name__: pkg}
        for short in ("models", "numerics", "region", "classical_simul",
                      "classical_sic", "coop_mac", "oracle", "cli"):
            mods[short] = importlib.import_module(f"{pkg.__name__}.{short}")
        models = mods["models"]

        wrappers = {}  # id(original) -> wrapper
        for short, mod in mods.items():
            if short == pkg.__name__:
                continue
            for attr, obj in list(vars(mod).items()):
                if (
                    attr.startswith("_")
                    or not callable(obj)
                    or isinstance(obj, type)
                    or getattr(obj, "__module__", None) != mod.__name__
                    or (short == "models" and attr in _FORWARDERS)
                ):
                    continue
                name = f"{short}.{attr}"
                hook = _coop_hook if name == "coop_mac.coop_solve_general" else None
                wrappers[id(obj)] = (
                    obj, self._wrap(name, obj, spans=name not in _SPANLESS, hook=hook)
                )

        for mod in mods.values():
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._saved.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])

        families = (
            ("models.eh_eval", "eval", (models.LogisticEh, models.LinearEh)),
            ("models.cost_eval", "eval", (models.ExpCost, models.LogCost,
                                          models.LinCost, models.ConstCost)),
            ("models.inverse", "inverse", (models.LogisticEh, models.LinearEh,
                                           models.ExpCost, models.LogCost,
                                           models.LinCost, models.ConstCost)),
        )
        for name, meth, classes in families:
            for cls in classes:
                orig = cls.__dict__[meth]
                self._saved.append((cls, meth, orig))
                setattr(cls, meth, self._wrap(name, orig, spans=False, scalar_arg=1))
        return self

    def uninstall(self):
        for owner, attr, orig in reversed(self._saved):
            setattr(owner, attr, orig)
        self._saved.clear()

    # -- results ----------------------------------------------------------

    def summary(self) -> dict:
        return {name: st.as_dict() for name, st in self.stats.items()}

    def durations(self) -> dict:
        """Span durations per traced name that has span records."""
        by_name: dict[str, list] = {}
        for n, a, b in zip(self.name, self.t0, self.t1):
            by_name.setdefault(self.names[n], []).append(b - a)
        return by_name

    def write_spans(self, path: str):
        """Gzipped JSON lines, one span per line."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for row in zip(self.sid, self.parent, self.op, self.name, self.t0, self.t1):
                sid, parent, op, n, t0, t1 = row
                fh.write(json.dumps({
                    "id": sid, "parent": parent, "op": op,
                    "name": self.names[n], "start": t0, "end": t1,
                }) + "\n")


def merge_stats(into: dict, stats: dict):
    """Add one summary's counters into another (both name -> dict)."""
    for name, d in stats.items():
        acc = into.setdefault(name, Stat().as_dict())
        for k, v in d.items():
            acc[k] += v
    return into


def per_call_medians(durations: dict) -> dict:
    return {
        name: {"calls": len(d), "median_s": statistics.median(d)}
        for name, d in sorted(durations.items())
        if d
    }


def layer_metrics(stats: dict) -> dict:
    """The per-layer metrics recorded in BENCHMARK.json, from merged stats."""

    def g(name, key):
        return stats.get(name, {}).get(key, 0)

    def share(num, den):
        return num / den if den else 0.0

    m = {}
    for name, keys in (
        ("numerics.bisect_root", ("calls", "evals", "self_s", "max_iter_hits")),
        ("numerics.maximize_scan", ("calls", "evals", "self_s", "edge_hits")),
        ("numerics.critical_points", ("calls", "evals", "self_s")),
        ("coop_mac.coop_solve_general",
         ("calls", "self_s", "exp_users_s", "fixed_point_users_s")),
        ("classical_sic.sic_sumrate_numeric", ("calls", "self_s")),
        ("classical_sic.mdrb_sic", ("calls", "self_s")),
        ("classical_simul.sumrate_simultaneous", ("calls", "self_s")),
        ("classical_simul.mdrb_simultaneous", ("calls", "self_s")),
        ("region.upper_hull", ("calls", "self_s")),
        ("region.assemble_frontier", ("calls", "self_s")),
        ("models.eh_eval", ("calls", "self_s")),
        ("models.cost_eval", ("calls", "self_s")),
        ("models.inverse", ("calls", "self_s")),
        ("models.cost_rate_cap", ("calls", "self_s")),
        ("oracle.oracle_simul_sumrate", ("self_s",)),
        ("oracle.oracle_sic_sumrate", ("self_s",)),
        ("oracle.oracle_coop_weighted", ("self_s",)),
    ):
        for k in keys:
            m[f"{name}.{k}"] = g(name, k)
    m["numerics.maximize_scan.feasible_share"] = share(
        g("numerics.maximize_scan", "finite_samples"),
        g("numerics.maximize_scan", "samples"),
    )
    m["coop_mac.mirrored_share"] = share(
        g("coop_mac.coop_solve_general", "mirrored"),
        g("coop_mac.coop_solve_general", "calls"),
    )
    for name in ("models.eh_eval", "models.cost_eval"):
        m[f"{name}.scalar_share"] = share(g(name, "scalar_calls"), g(name, "calls"))
    return m


class _CallbackProbe:
    """Counts callback evaluations and charges their time to the caller."""

    __slots__ = ("f", "frame", "tracer", "owner", "evals", "last", "values", "n")

    def __init__(self, tracer, f, frame, kind, args, kwargs):
        self.f = f
        self.frame = frame
        self.tracer = tracer
        stack = tracer.stack
        # the layer that handed the callback in: the frame under the routine
        self.owner = stack[-1][0] if stack else tracer.stat("<root>")
        self.evals = 0
        self.last = None
        self.values = None
        self.n = 0
        if kind == "maximize_scan":
            cfg = args[3] if len(args) > 3 else kwargs.get("cfg")
            self.n = cfg.grid_points if cfg is not None else _default_scan_points()
            self.values = []
        elif kind == "bisect_root":
            cfg = args[3] if len(args) > 3 else kwargs.get("cfg")
            self.n = cfg.max_iter if cfg is not None else _default_max_iter()

    def __call__(self, x):
        self.evals += 1
        stack = self.tracer.stack
        cb = [self.owner, 0.0, self.frame[2]]
        stack.append(cb)
        t0 = _perf()
        try:
            v = self.f(x)
        finally:
            dt = _perf() - t0
            stack.pop()
            self.owner.self_s += dt - cb[1]
            # the caller's frame: the routine itself, or the frame of another
            # callback when a nested routine drives this one (critical_points
            # hands bisect_root a difference quotient of its own callback)
            stack[-1][1] += dt
        self.last = v
        if self.values is not None and len(self.values) < self.n:
            self.values.append(v)
        return v

    def finish(self, st: Stat, ok: bool, out):
        st.evals += self.evals
        if self.values is not None:
            vals = self.values
            st.samples += len(vals)
            st.finite_samples += sum(1 for v in vals if math.isfinite(v))
            if ok:
                # the grid argmax exactly as maximize_scan picks it
                best_i, best_v = -1, -math.inf
                for i, v in enumerate(vals):
                    if not math.isnan(v) and v > best_v:
                        best_i, best_v = i, v
                if best_i in (0, self.n - 1):
                    st.edge_hits += 1
        elif self.n and ok:
            # bisect_root fell through its loop: max_iter evaluations after
            # the two endpoint evaluations, the last one not an exact zero
            if self.evals - 2 >= self.n and self.last != 0.0:
                st.max_iter_hits += 1


def _default_scan_points():
    from swipt_mac.numerics import _DEFAULT_SCAN

    return _DEFAULT_SCAN.grid_points


def _default_max_iter():
    from swipt_mac.numerics import _DEFAULT_ROOT

    return _DEFAULT_ROOT.max_iter


def _coop_hook(st: Stat, args, kwargs, out, dt):
    params = args[0] if args else kwargs["params"]
    from swipt_mac.models import ExpCost

    if isinstance(params.cost_user1, ExpCost) and isinstance(params.cost_user2, ExpCost):
        st.exp_users_s += dt
    else:
        st.fixed_point_users_s += dt
    if out.notes.get("mirrored"):
        st.mirrored += 1
