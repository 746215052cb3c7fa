"""Per-layer spans taken from outside the program.

The entry points look up their layers as module attributes at call time
(``realiso.refined_radii``, ``_kernels.graeffe_step_me``, ...).  ``traced``
replaces those attributes with timing wrappers for the duration of a
``with`` block and puts the originals back on exit, also on error.  A span's
self time is its duration minus the durations of the wrapped calls made
inside it.
"""

import time
from collections import defaultdict
from contextlib import contextmanager

from rootradii import _dd, _kernels, complexiso, realiso
from rootradii.radii import choose_iteration_count

# (module, attribute) pairs wrapped during a traced run; the span name is
# "<module short name>.<attribute>"
LAYERS = (
    (realiso, "refined_radii"),
    (_kernels, "graeffe_step_me"),
    (_kernels, "horner_points"),
    (_kernels, "horner_pair"),
    (complexiso, "shifted_families"),
    (complexiso, "distances_from_point"),
    (complexiso, "grid_from_two_families"),
    (complexiso, "disambiguate_with_third"),
    (_dd, "taylor_shift_dd"),
    (_dd, "graeffe_step_me_dd"),
)


def span_name(module, attr):
    return f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"


class Tracer:
    """Span durations, self times and call counts, kept in memory."""

    def __init__(self):
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self._child = []  # per open span: time spent in its wrapped children

    def wrap(self, name, fn, on_result=None):
        def wrapper(*args, **kwargs):
            self._child.append(0.0)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                child = self._child.pop()
                if self._child:
                    self._child[-1] += dt
                self.total[name] += dt
                self.self_time[name] += dt - child
                self.calls[name] += 1
            if on_result is not None:
                on_result(args, kwargs, out)
            return out

        return wrapper

    def _squarings(self, args, kwargs, est):
        # refined_radii(p, target) and distances_from_point(p, z, target)
        p = args[0]
        target = kwargs["target_rel_error"] if "target_rel_error" in kwargs else args[-1]
        self.counts["squarings_planned"] += choose_iteration_count(p.degree, target)
        self.counts["squarings_done"] += est.squarings_used

    def _nodes(self, args, kwargs, nodes):
        self.counts["nodes"] += len(nodes)

    def _confirmed(self, args, kwargs, out):
        self.counts["confirmed"] += len(out[0])

    def hooks(self):
        return {
            "realiso.refined_radii": self._squarings,
            "complexiso.distances_from_point": self._squarings,
            "complexiso.grid_from_two_families": self._nodes,
            "complexiso.disambiguate_with_third": self._confirmed,
        }


@contextmanager
def traced(tracer):
    """Install ``tracer``'s wrappers on every layer in ``LAYERS``; restore on exit."""
    hooks = tracer.hooks()
    saved = []
    try:
        for module, attr in LAYERS:
            fn = getattr(module, attr)
            saved.append((module, attr, fn))
            name = span_name(module, attr)
            setattr(module, attr, tracer.wrap(name, fn, hooks.get(name)))
        yield tracer
    finally:
        for module, attr, fn in reversed(saved):
            setattr(module, attr, fn)
