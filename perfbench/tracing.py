"""In-memory tracer for the harness benchmark.

The tracer wraps public functions of the `lgha` package from outside: it
rebinds the function at every module or class attribute through which a
caller looks it up (for example `monte_carlo` is bound in `lgha.cli`,
`lgha.nilfourier` and `lgha.quadrature`), and restores every binding when
the traced block ends.  Nothing under `src/` knows about it.

Every wrapped call is aggregated (calls, total time, self time, item
count).  Orchestration-level functions, which run a handful of times per
pass, additionally record one span each; functions called up to ~1.5M
times per pass (`so4_rep`, `wigner_D`, the SU(2) helpers) keep aggregates
only, so the trace stays bounded.  Self time is a call's duration minus
the time covered by the wrapped calls nested directly inside it.
"""

from __future__ import annotations

import functools
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

MAX_SPANS = 10_000  # spans kept per tracer; later ones are only counted


@dataclass
class Stat:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    items: int = 0


class Tracer:
    """Call-stack accounting with an injectable clock (tests use a fake one)."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.stats: dict[str, Stat] = {}
        self.spans: list[dict] = []
        self.dropped_spans = 0
        self._stack: list[list] = []  # [name, start, child_s, span_id | None]
        self._next_id = 0

    def enter(self, name: str, span: bool = False):
        span_id = None
        if span:
            span_id = self._next_id
            self._next_id += 1
        self._stack.append([name, self.clock(), 0.0, span_id])

    def exit(self, items: int = 0):
        name, start, child_s, span_id = self._stack.pop()
        end = self.clock()
        duration = end - start
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = Stat()
        st.calls += 1
        st.total_s += duration
        st.self_s += duration - child_s
        st.items += items
        if self._stack:
            self._stack[-1][2] += duration
        if span_id is not None:
            if len(self.spans) < MAX_SPANS:
                parent = next((f[3] for f in reversed(self._stack)
                               if f[3] is not None), None)
                self.spans.append({"id": span_id, "parent": parent,
                                   "name": name, "start": start, "end": end,
                                   "self_s": duration - child_s})
            else:
                self.dropped_spans += 1

    def stat(self, name: str) -> Stat:
        return self.stats.get(name, Stat())


# ---------------------------------------------------------------------------
# item counters: how much work one call hands to the kernel
# ---------------------------------------------------------------------------


def _batch_rows(args, kwargs):
    shapes = [np.shape(a)[:-1] for a in args[:2]]
    return int(np.prod(np.broadcast_shapes(*shapes)))


def _field_points(args, kwargs):
    return int(np.size(args[0].values))


def _grid_points(args, kwargs):
    return int(args[1].size)  # (cls, grid, fn, ...)


def _mc_samples(args, kwargs):
    return int(kwargs["n"] if "n" in kwargs else args[3])


def _array_points(args, kwargs):
    return int(np.size(args[1]))  # (self, x)


def _mesh_points(args, kwargs):
    return int(np.broadcast(*args[1:4]).size)  # (self, z, y, x)


@dataclass(frozen=True)
class Layer:
    """One wrapped function and the metrics reported for it.

    `fields` name the reported statistics: calls, self_s, total_s, and
    the item count that `count` takes from a call's arguments, under the
    name points, samples or items.
    """

    module: str
    qualname: str
    fields: tuple
    count: Optional[Callable] = None
    span: bool = False

    @property
    def key(self) -> str:
        return f"{self.module}.{self.qualname}"


def _L(module, qualname, fields, count=None, span=False):
    return Layer(module, qualname, tuple(fields.split()), count, span)


LAYERS = (
    _L("peterweyl", "so4_rep", "calls self_s"),
    _L("peterweyl", "wigner_D", "calls self_s"),
    _L("peterweyl", "wigner_D_stack", "calls self_s"),
    _L("peterweyl", "compact_transform", "calls self_s"),
    _L("peterweyl", "synthesize", "calls self_s"),
    _L("peterweyl", "euler_from_su2", "calls"),
    _L("peterweyl", "su2_from_euler", "calls"),
    _L("iwasawa_plancherel", "nested_transform_oracle", "calls self_s", span=True),
    _L("iwasawa_plancherel", "upsilon_invariance_error", "calls self_s"),
    _L("iwasawa_plancherel", "plancherel_sl4_check", "total_s", span=True),
    _L("groups", "iwasawa_decompose", "calls self_s"),
    _L("groups", "random_sl4", "calls"),
    _L("groups", "nil_mul", "calls items self_s", _batch_rows),
    _L("groups", "L_mul", "calls items self_s", _batch_rows),
    _L("quadrature", "dft_forward", "calls points self_s", _field_points),
    _L("quadrature", "dft_inverse", "calls points self_s", _field_points),
    _L("quadrature", "norm2", "calls points self_s", _field_points),
    _L("quadrature", "SampledField.from_callable", "points self_s", _grid_points),
    _L("quadrature", "monte_carlo", "calls samples self_s", _mc_samples),
    _L("corpus", "GaussPoly1D.values", "calls points self_s", _array_points),
    _L("nilfourier", "plancherel_N_check", "total_s", span=True),
    _L("nilfourier", "parseval_N_check", "total_s", span=True),
    _L("nilfourier", "lifted_convolution_check", "total_s", span=True),
    _L("nilfourier", "convolve_N", "self_s", span=True),
    _L("solvers", "lewy_solve", "total_s", span=True),
    _L("solvers", "four_stage_solve", "total_s", span=True),
    _L("solvers", "cr_solve", "calls self_s", span=True),
    _L("solvers", "spectral_apply", "calls self_s"),
    _L("diffops", "Poly3.eval", "calls points self_s", _mesh_points),
    _L("diffops", "PolyDiffOp.apply", "calls self_s"),
    _L("diffops", "PolyDiffOp.compose", "calls self_s"),
    _L("diffops", "PolyGauss.values", "calls self_s"),
    _L("diffops", "verify_identity", "total_s", span=True),
    _L("jets", "Jet.__mul__", "calls self_s"),
    _L("jets", "Jet.exp", "calls self_s"),
    _L("jets", "substitute", "calls self_s"),
)

# computed, not measured: points x 16 B (complex128) x 2 (read + write)
FFT_BYTES_PER_POINT = 16 * 2


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metric name -> (value, unit) from the tracer's aggregates."""
    out = {}
    for layer in LAYERS:
        st = tracer.stat(layer.key)
        for f in layer.fields:
            if f == "calls":
                out[f"{layer.key}.calls"] = (st.calls, "count")
            elif f in ("self_s", "total_s"):
                out[f"{layer.key}.{f}"] = (getattr(st, f), "s")
            else:
                out[f"{layer.key}.{f}"] = (st.items, "count")
    points = (tracer.stat("quadrature.dft_forward").items
              + tracer.stat("quadrature.dft_inverse").items)
    out["quadrature.fft.bytes_computed"] = (points * FFT_BYTES_PER_POINT, "B")
    return out


# ---------------------------------------------------------------------------
# attribute rebinding
# ---------------------------------------------------------------------------


def _wrap(tracer: Tracer, layer: Layer, fn):
    name, count, span = layer.key, layer.count, layer.span

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        items = count(args, kwargs) if count is not None else 0
        tracer.enter(name, span)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.exit(items)

    return traced


@contextmanager
def instrumented(tracer: Tracer):
    """Rebind every wrapped function for the duration of the block.

    A module-level function is replaced at every module attribute of the
    package that holds it; a method is replaced at every attribute of its
    class that holds it (so `Jet.__rmul__ = __mul__` is covered), keeping a
    classmethod a classmethod.  All bindings are restored on exit, also
    when the block raises.
    """
    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == "lgha" or n.startswith("lgha."))]
    patches = []  # (owner, attribute, original)
    try:
        for layer in LAYERS:
            owner = sys.modules[f"lgha.{layer.module}"]
            parts = layer.qualname.split(".")
            if len(parts) == 1:
                original = getattr(owner, parts[0])
                traced = _wrap(tracer, layer, original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            patches.append((mod, attr, value))
                            setattr(mod, attr, traced)
            else:
                cls = getattr(owner, parts[0])
                original = vars(cls)[parts[1]]
                if isinstance(original, classmethod):
                    traced = classmethod(_wrap(tracer, layer, original.__func__))
                else:
                    traced = _wrap(tracer, layer, original)
                for attr, value in list(vars(cls).items()):
                    if value is original:
                        patches.append((cls, attr, value))
                        setattr(cls, attr, traced)
        yield
    finally:
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)
