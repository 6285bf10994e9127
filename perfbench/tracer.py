"""Per-layer spans recorded from outside the program.

The tracer replaces public functions of ``qblock`` by wrappers, under the
name each caller looks them up: the engine imports ``stable_coloring`` by
name, so ``qblock.engine.stable_coloring`` is wrapped; it calls
``canon.rooted_code`` as a module attribute, so ``qblock.canon.rooted_code``
is wrapped. A span records (id, layer, start, end, parent span, op id); spans
stay in memory and are written out when the run ends. A layer's self time is
its spans' durations minus the time covered by their direct child spans.
"""

from __future__ import annotations

import gzip
import importlib
from time import perf_counter

# (layer, module whose global the callers look up, attribute). Wrapping is
# done in the modules that call across layers (engine, canon, classrec) and,
# for the three calls each op makes, in the package namespace itself.
WRAPPED: tuple[tuple[str, str, str], ...] = (
    ("graph.parse", "qblock", "parse_graph"),
    ("engine.qut", "qblock", "qut"),
    ("qexpr.render", "qblock", "render"),
    ("graph.induced_subgraph", "qblock.engine", "induced_subgraph"),
    ("graph.induced_subgraph", "qblock.canon", "induced_subgraph"),
    ("graph.induced_subgraph", "qblock.classrec", "induced_subgraph"),
    ("graph.components", "qblock.engine", "connected_components"),
    ("graph.components", "qblock.engine", "is_connected"),
    ("graph.components", "qblock.canon", "is_connected"),
    ("graph.components", "qblock.classrec", "connected_components"),
    ("classrec.classify", "qblock.engine", "classify"),
    ("classrec.hamiltonian_cycle", "qblock.engine", "hamiltonian_cycle"),
    ("classrec.hamiltonian_cycle", "qblock.canon", "hamiltonian_cycle"),
    ("classrec.hamiltonian_cycle", "qblock.classrec", "hamiltonian_cycle"),
    ("blocks.decompose", "qblock.engine", "block_tree"),
    ("blocks.decompose", "qblock.engine", "cut_vertices"),
    ("blocks.decompose", "qblock.engine", "biconnected_components"),
    ("blocks.decompose", "qblock.canon", "block_tree"),
    ("blocks.decompose", "qblock.canon", "cut_vertices"),
    ("blocks.decompose", "qblock.canon", "biconnected_components"),
    ("blocks.decompose", "qblock.classrec", "biconnected_components"),
    ("canon.rooted_code", "qblock.canon", "rooted_code"),
    ("canon.dihedral", "qblock.canon", "dihedral_symmetries"),
    ("canon.group", "qblock.canon", "group_from_elements"),
    ("canon.group", "qblock.canon", "orbits"),
    ("wl.stable_coloring", "qblock.engine", "stable_coloring"),
    ("wl.stable_coloring", "qblock.engine", "vertex_classes"),
    ("wl.refine", "qblock.wl", "refine"),
    ("qexpr.construct", "qblock.engine", "free_product"),
    ("qexpr.construct", "qblock.engine", "free_wreath"),
    ("qexpr.construct", "qblock.engine", "inhom_free_wreath"),
    ("qexpr.quantum_orbits", "qblock.engine", "quantum_orbits"),
)

LAYERS: tuple[str, ...] = tuple(dict.fromkeys(layer for layer, _, _ in WRAPPED))

OP = "op"


class Tracer:
    """Records spans for wrapped calls; `install`/`uninstall` patch qblock."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, str, float, float, int, int]] = []
        self.calls = dict.fromkeys(LAYERS + (OP,), 0)
        self.self_s = dict.fromkeys(LAYERS + (OP,), 0.0)
        # calls per wrapped name, e.g. "qblock.engine.stable_coloring"
        self.fn_calls = {f"{m}.{a}": 0 for _, m, a in WRAPPED}
        self.op_id = -1
        # open spans: [span id, layer, start, time covered by children]
        self._open: list[list] = []
        self._next_id = 0
        self._saved: list[tuple[object, str, object]] = []

    def span(self, layer: str, fn, *args, **kwargs):
        sid = self._next_id
        self._next_id += 1
        frame = [sid, layer, 0.0, 0.0]
        self._open.append(frame)
        frame[2] = start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._open.pop()
            dur = end - start
            parent = -1
            if self._open:
                up = self._open[-1]
                up[3] += dur
                parent = up[0]
            self.calls[layer] += 1
            self.self_s[layer] += dur - frame[3]
            self.spans.append((sid, layer, start, end, parent, self.op_id))

    def op(self, op_id: int, fn, *args):
        """Root span of one op; spans opened inside it carry `op_id`."""
        self.op_id = op_id
        return self.span(OP, fn, *args)

    def _wrap(self, layer: str, name: str, fn):
        span, fn_calls = self.span, self.fn_calls

        def wrapper(*args, **kwargs):
            fn_calls[name] += 1
            return span(layer, fn, *args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        for layer, modname, attr in WRAPPED:
            mod = importlib.import_module(modname)
            fn = getattr(mod, attr)
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self._wrap(layer, f"{modname}.{attr}", fn))

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()

    def write(self, path: str) -> None:
        """Spans as gzipped JSON lines: [id, layer, start, end, parent, op]."""
        with gzip.open(path, "wt", compresslevel=1) as f:
            for sid, layer, start, end, parent, op in self.spans:
                f.write(f'[{sid},"{layer}",{start!r},{end!r},{parent},{op}]\n')
