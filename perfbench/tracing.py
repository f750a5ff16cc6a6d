"""In-memory spans around the public functions of the neutromap modules.

`Tracer.install(modules)` replaces every public function of each module
(and every alias of it that another listed module imported by name) with a
wrapper that records one span: op id, name, start, end and parent span.
Per-element scalar helpers are left alone; their cost shows as self time of
the operation that calls them.  `uninstall` restores the originals.
"""

import functools
import inspect
import json
import time

# called once per matrix entry or grade; a span each would swamp the trace
SCALAR = {
    "core": {"parse_number", "nn_add", "nn_mul", "split", "unsplit"},
    "engines": {"threshold", "parse_state", "render_state", "basis_state"},
    "relations": {"lattice_min", "lattice_max", "tri_all"},
}


class Tracer:
    def __init__(self):
        self.spans = []  # [op id, name, start, end, parent index]
        self.stack = []
        self.op_id = None
        self._patched = []

    def span(self, name, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([self.op_id, name, clock(), None, stack[-1] if stack else None])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][3] = clock()

        return traced

    def install(self, modules):
        """modules: {layer name: module}."""
        wrapped = {}
        for layer, mod in modules.items():
            for attr, fn in vars(mod).items():
                if (
                    inspect.isfunction(fn)
                    and fn.__module__ == mod.__name__
                    and not attr.startswith("_")
                    and attr not in SCALAR.get(layer, ())
                ):
                    wrapped[fn] = self.span("%s.%s" % (layer, attr), fn)
        for mod in modules.values():
            for attr, val in list(vars(mod).items()):
                if inspect.isfunction(val) and val in wrapped:
                    self._patched.append((mod, attr, val))
                    setattr(mod, attr, wrapped[val])

    def uninstall(self):
        for mod, attr, val in reversed(self._patched):
            setattr(mod, attr, val)
        self._patched = []

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for op_id, name, start, end, parent in self.spans:
                fh.write(json.dumps({
                    "op": op_id, "name": name, "start": start, "end": end, "parent": parent,
                }) + "\n")


def self_times(spans):
    """Span duration minus the time its direct children cover."""
    covered = [0.0] * len(spans)
    for _op, _name, start, end, parent in spans:
        if parent is not None:
            covered[parent] += end - start
    return [s[3] - s[2] - c for s, c in zip(spans, covered)]


def aggregate(spans, indexes, selfs):
    """{name: (calls, busy s, self s)} over spans[indexes]; busy counts outermost spans."""
    out = {}
    for i in indexes:
        s = spans[i]
        calls, busy, own = out.get(s[1], (0, 0.0, 0.0))
        p = s[4]
        while p is not None and spans[p][1] != s[1]:
            p = spans[p][4]
        out[s[1]] = (calls + 1, busy + (s[3] - s[2] if p is None else 0.0), own + selfs[i])
    return out
