"""Per-layer spans for the benchmark's traced runs.

A span is timed around a public diffkern function at the point where each
module looks that function up: the wrapper replaces the module attribute
in every diffkern module that holds the same function object, so calls
made inside the package are caught as well as the benchmark's own.

Spans are kept per thread, because ``run_suite`` evaluates points in a
thread pool.  Each thread keeps a stack of open spans.  A span records its
wall-clock duration and the CPU time its thread spent inside it; its self
time is that CPU time minus the CPU time of the spans it opened directly.
CPU time is used for self time because the pool's threads take turns on
the interpreter lock: a wall-clock self time would also count the time a
thread waited for the other.  Totals per span name are summed over all
threads when the run ends.
"""

from __future__ import annotations

import threading
from time import perf_counter, thread_time


class _ThreadState:
    __slots__ = ("stack", "totals", "counters")

    def __init__(self) -> None:
        self.stack: list[list[float]] = []
        self.totals: dict[str, list[float]] = {}
        self.counters: dict[str, int] = {}


class Tracer:
    """Aggregated span timings and counters for one benchmark process."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states: list[_ThreadState] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- per-thread state -------------------------------------------------

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "state", None)
        if st is None:
            st = _ThreadState()
            self._local.state = st
            with self._lock:
                self._states.append(st)
        return st

    def count(self, name: str, n: int = 1) -> None:
        counters = self._state().counters
        counters[name] = counters.get(name, 0) + n

    # -- spans ------------------------------------------------------------

    def wrap(self, name: str, fn, after=None):
        """Return ``fn`` wrapped in a span called ``name``.

        ``after(args, result, error)`` runs once the span has closed, in the
        calling thread, so counters it records cost no span time.
        """
        state = self._state

        def spanned(*args, **kwargs):
            st = state()
            stack = st.stack
            frame = [0.0]
            stack.append(frame)
            result = error = None
            t0 = perf_counter()
            c0 = thread_time()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                dc = thread_time() - c0
                dt = perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dc
                tot = st.totals.get(name)
                if tot is None:
                    tot = st.totals[name] = [0, 0.0, 0.0]
                tot[0] += 1
                tot[1] += dt
                tot[2] += dc - frame[0]
                if after is not None:
                    after(args, result, error)

        spanned.__wrapped__ = fn
        return spanned

    def patch_method(self, cls, attr: str, name: str, after=None) -> None:
        """Replace the method ``cls.attr`` by a span."""
        self._replace(cls, attr, self.wrap(name, cls.__dict__[attr], after))

    def patch(self, modules, attr: str, name: str, after=None) -> None:
        """Replace ``attr`` by a span wherever a module holds the same object."""
        fn = None
        for mod in modules:
            if hasattr(mod, attr):
                fn = getattr(mod, attr)
                break
        if fn is None:
            raise AttributeError(f"no module defines {attr!r}")
        wrapped = self.wrap(name, fn, after)
        for mod in modules:
            if getattr(mod, attr, None) is fn:
                self._replace(mod, attr, wrapped)

    def _replace(self, holder, attr: str, value) -> None:
        self._patched.append((holder, attr, getattr(holder, attr)))
        setattr(holder, attr, value)

    def unpatch(self) -> None:
        while self._patched:
            holder, attr, original = self._patched.pop()
            setattr(holder, attr, original)

    # -- results ----------------------------------------------------------

    def totals(self) -> dict[str, tuple[int, float, float]]:
        """name -> (calls, wall seconds, self CPU seconds), summed over threads."""
        out: dict[str, list[float]] = {}
        with self._lock:
            states = list(self._states)
        for st in states:
            for name, (calls, total, self_s) in st.totals.items():
                acc = out.setdefault(name, [0, 0.0, 0.0])
                acc[0] += calls
                acc[1] += total
                acc[2] += self_s
        return {k: (int(v[0]), v[1], v[2]) for k, v in out.items()}

    def reset(self) -> None:
        """Drop every total and counter; call only while no span is open."""
        with self._lock:
            for st in self._states:
                st.totals.clear()
                st.counters.clear()

    def counters(self) -> dict[str, int]:
        out: dict[str, int] = {}
        with self._lock:
            states = list(self._states)
        for st in states:
            for name, n in st.counters.items():
                out[name] = out.get(name, 0) + n
        return out
