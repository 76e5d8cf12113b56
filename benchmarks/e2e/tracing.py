"""Outside-in tracing: temporary wrappers around public callables.

Nothing under ``src/`` knows about this module.  A :class:`Tracer`
replaces a public attribute (``XS_LOOKUP.banked``, ``ctx.calculator.scalar``,
``gateway.submit`` ...) with a timing wrapper for the duration of the traced
run — the way ``experiments/fig4_profile.py`` wraps ``ctx.calculator.scalar``
— and puts the original back on exit, exception or not.

Spans are never written while the run is in flight: each wrapper folds its
span into an in-memory aggregate keyed by layer (per thread, with a parent
stack so a layer's **self time** is its span minus the child spans inside
it).  :meth:`Tracer.cut` closes the aggregate under a key — the batch id on
core workloads — and the caller writes everything out at exit.
"""

from __future__ import annotations

import threading
from time import perf_counter

__all__ = ["Tracer", "trace_transport", "trace_calculator", "trace_gateway"]

_MISSING = object()
_FIELDS = ("total_s", "self_s", "calls", "items")


def _add(rows: dict, layer: str, row: dict) -> None:
    into = rows.setdefault(layer, dict.fromkeys(_FIELDS, 0))
    for field in _FIELDS:
        into[field] += row[field]


class Tracer:
    """Installs, aggregates and removes timing wrappers."""

    def __init__(self) -> None:
        self._tls = threading.local()
        self._lock = threading.Lock()
        #: One ``(stack, aggregate)`` pair per thread that ran a wrapper.
        self._threads: list[tuple[list, dict]] = []
        #: ``(obj, attr, previous instance attribute or _MISSING)``.
        self._patches: list[tuple[object, str, object]] = []
        #: Closed aggregates, in :meth:`cut` order: ``(key, {layer: row})``.
        self.cuts: list[tuple[object, dict]] = []

    # -- Wrapping ------------------------------------------------------------

    def _state(self):
        try:
            return self._tls.state
        except AttributeError:
            state = self._tls.state = ([], {})
            with self._lock:
                self._threads.append(state)
            return state

    def wrap(self, obj, attr: str, layer: str, *, items=None, keep=None):
        """Replace ``obj.attr`` with a wrapper charging its spans to
        ``layer``.

        ``items(args)`` counts the work items of one call (default 1);
        ``keep(result)`` decides whether the span is recorded at all (an
        idle poll is not work).  Either way the span's duration is still
        subtracted from the enclosing span's self time.
        """
        original = getattr(obj, attr)
        self._patches.append((obj, attr, vars(obj).get(attr, _MISSING)))
        state = self._state

        def traced(*args, **kwargs):
            stack, agg = state()
            stack.append(0.0)
            recorded = keep is None
            t0 = perf_counter()
            try:
                result = original(*args, **kwargs)
                if keep is not None:
                    recorded = bool(keep(result))
                return result
            finally:
                span = perf_counter() - t0
                inside = stack.pop()
                if stack:
                    stack[-1] += span
                if recorded:
                    row = agg.get(layer)
                    if row is None:
                        row = agg[layer] = [0.0, 0.0, 0, 0]
                    row[0] += span
                    row[1] += span - inside
                    row[2] += 1
                    row[3] += 1 if items is None else items(args)

        traced.__wrapped__ = original
        setattr(obj, attr, traced)
        return traced

    def restore(self) -> None:
        """Put every original back (last installed first)."""
        while self._patches:
            obj, attr, previous = self._patches.pop()
            if previous is _MISSING:
                delattr(obj, attr)
            else:
                setattr(obj, attr, previous)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    # -- Aggregates ----------------------------------------------------------

    def cut(self, key) -> dict:
        """Close the running aggregate under ``key`` and start a new one;
        returns it as ``{layer: {"total_s", "self_s", "calls", "items"}}``."""
        with self._lock:
            threads = list(self._threads)
        rows: dict[str, dict] = {}
        for _, agg in threads:
            for layer in list(agg):
                _add(rows, layer, dict(zip(_FIELDS, agg.pop(layer))))
        self.cuts.append((key, rows))
        return rows

    def totals(self) -> dict:
        """One row per layer over every cut so far plus whatever is still
        open (which this closes under the key ``"tail"``)."""
        self.cut("tail")
        out: dict[str, dict] = {}
        for _, rows in self.cuts:
            for layer, row in rows.items():
                _add(out, layer, row)
        return out

    def cuts_document(self) -> list:
        """The per-key aggregates in JSON-ready form."""
        return [{"key": key, "layers": rows} for key, rows in self.cuts if rows]

    def overhead_frac(self, traced_wall: float) -> float:
        """Computed share of ``traced_wall`` spent inside the wrappers:
        wrapped calls so far times the calibrated cost of one."""
        calls = sum(row["calls"] for row in self.totals().values())
        return calls * self.per_call_cost() / traced_wall

    @staticmethod
    def per_call_cost(n: int = 20000) -> float:
        """Calibrated cost of one wrapper, seconds per call: a wrapped
        no-op against the bare no-op, best of three."""

        class _Target:
            def noop(self, a, b):
                return a

        best = float("inf")
        for _ in range(3):
            bare, wrapped = _Target(), _Target()
            with Tracer() as tracer:
                tracer.wrap(wrapped, "noop", "calibration")
                t0 = perf_counter()
                for _ in range(n):
                    wrapped.noop(1, 2)
                t_wrapped = perf_counter() - t0
            t0 = perf_counter()
            for _ in range(n):
                bare.noop(1, 2)
            t_bare = perf_counter() - t0
            best = min(best, max(t_wrapped - t_bare, 0.0) / n)
        return best


# -- What gets wrapped, per tier --------------------------------------------------


def _bank_items(args) -> int:
    # Banked applies take (ctx, bank, index_array, ...).
    return int(args[2].size)


def trace_transport(tracer: Tracer) -> None:
    """Wrap both applies of the six stage-kernel singletons."""
    from repro.transport import stages

    kernels = {
        "xs_lookup": stages.XS_LOOKUP,
        "flight": stages.FLIGHT,
        "crossing": stages.CROSSING,
        "collision": stages.COLLISION,
        "fission": stages.FISSION,
        "scatter": stages.SCATTER,
    }
    for name, kernel in kernels.items():
        tracer.wrap(kernel, "banked", f"stages.{name}", items=_bank_items)
        tracer.wrap(kernel, "scalar", f"stages.{name}")


def trace_calculator(tracer: Tracer, calculator) -> None:
    """Wrap one context's XS engine (a child layer of ``stages.xs_lookup``)."""
    tracer.wrap(
        calculator, "banked", "physics.xs_banked",
        items=lambda args: int(args[1].size),
    )
    tracer.wrap(calculator, "scalar", "physics.xs_scalar")


def trace_gateway(tracer: Tracer, gateway) -> None:
    """Wrap the gateway's stations (the pump threads look ``step`` up on
    every iteration, so a running gateway picks the wrapper up too)."""
    tracer.wrap(gateway, "submit", "gateway.submit")
    tracer.wrap(gateway, "poll", "gateway.poll")
    tracer.wrap(gateway.admission, "admit", "gateway.admission")
    tracer.wrap(gateway.ring, "shard_for", "gateway.routing")
    tracer.wrap(gateway.result_cache, "get", "gateway.cache_get")
    tracer.wrap(gateway.result_cache, "put", "gateway.cache_put")
    if gateway.journal is not None:
        tracer.wrap(gateway.journal, "append", "gateway.journal_append")
        tracer.wrap(gateway.journal, "replay", "gateway.recover_scan")
    for shard in gateway.shards.values():
        tracer.wrap(shard, "submit", "gateway.shard_submit")
        # The pump calls step() in a loop; a step that forwards nothing
        # was an idle 1 ms sleep, not work.
        tracer.wrap(shard.service, "step", "gateway.service_step", keep=bool)
