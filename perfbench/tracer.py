"""Outside-in span tracer for the bracealg package.

The tracer wraps the public functions and methods of the bracealg
modules from outside: it rebinds module attributes (including the copies
that ``from .linalg import ...`` leaves in other modules) and replaces
methods on the classes.  No file of the package changes.  ``uninstall``
puts every original object back by identity.

Every call of a wrapped function is one span.  Each thread keeps its own
span stack, so calls made on a worker thread nest under that thread's
own spans.  A span's self time is its duration minus the time covered by
its direct child spans.  Spans are kept in memory, folded into a call
tree keyed by the path of span names from the thread's root (so memory
stays bounded however many calls are made), plus per-name totals; both
go to a side file when the traced process ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import threading
import time

LAYERS = ("linalg", "algebra", "hochschild", "ainfty", "models", "cli")

# Dunder methods that do real work and are wrapped like public methods.
_WORK_DUNDERS = ("__init__", "__add__", "__sub__", "__neg__", "__mul__")


# ---------------------------------------------------------------------------
# Metric groups: which wrapped name feeds which per-layer metric


def _shape(m):
    return m.rows * m.cols


def _nnz(m):
    return sum(1 for row in m.entries for x in row if x)


def _algebra_key(lam):
    return (
        lam.dim,
        tuple(str(x) for x in lam.unit),
        tuple(tuple(tuple(str(x) for x in v) for v in row) for row in lam.mult),
    )


def _resolution_key(res):
    # bar and periodic resolutions are determined by the algebra, the kind
    # of module and the length
    return (_algebra_key(res.algebra), type(res.modules[0]).__name__, tuple(m.dim for m in res.modules))


def _class_key(cls):
    ctx = cls.context
    return (_algebra_key(ctx.algebra), ctx.p, ctx.j, tuple(str(x) for x in cls.coords))


class Group:
    """One per-layer metric group: counters computed from call arguments
    and results, and optionally a key that identifies repeated inputs."""

    def __init__(self, name, before=None, after=None, key=None):
        self.name = name
        self.before = before  # (args) -> {counter: int}
        self.after = after  # (result) -> {counter: int}
        self.key = key  # (args) -> hashable, for repeat_calls


def _matmul_madds(args):
    a, b = args
    # Matrix.__mul__ returns NotImplemented for a non-Matrix operand
    return {"madds": a.rows * a.cols * b.cols} if hasattr(b, "entries") else {}


GROUPS = {
    g.name: g
    for g in (
        Group("linalg.rref", before=lambda a: {"cells": _shape(a[0]), "nnz": _nnz(a[0])}),
        Group("linalg.matmul", before=_matmul_madds),
        Group("linalg.apply", before=lambda a: {"cells": _shape(a[0])}),
        Group("linalg.elementwise", before=lambda a: {"cells": _shape(a[0])}),
        Group("linalg.solve"),
        Group("linalg.subspace"),
        Group("algebra.verify"),
        Group("algebra.bar_resolution"),
        Group(
            "algebra.syzygy",
            after=lambda r: {"dim": getattr(r, "dim", 0)},
            key=lambda a: (_resolution_key(a[0]), a[1]),
        ),
        Group("algebra.strip"),
        Group("algebra.stable_iso"),
        Group("algebra.env_action"),
        Group("algebra.comparison"),
        Group("hochschild.brace"),
        Group("hochschild.diff_matrix", after=lambda r: {"cells": _shape(r)}),
        Group("hochschild.cohomology"),
        Group("hochschild.products"),
        Group("hochschild.tate_unit", key=lambda a: _class_key(a[0])),
        Group("hochschild.cocycle_to_extension"),
        Group("ainfty.verify"),
        Group("ainfty.contraction"),
        Group("ainfty.transfer"),
        Group("ainfty.mc_check"),
        Group("ainfty.build_iso"),
        Group("ainfty.map_check"),
        Group("ainfty.gauge"),
        Group("ainfty.formality"),
        Group("models.dg_end"),
        Group("models.seeded_minimal_model"),
        Group("models.oracles"),
    )
}

# qualified name ("module.Class.method" or "module.function") -> group name
GROUP_OF = {
    "linalg.rref": "linalg.rref",
    "linalg.Matrix.__mul__": "linalg.matmul",
    "linalg.Matrix.apply": "linalg.apply",
    "linalg.Matrix.scale": "linalg.elementwise",
    "linalg.Matrix.__add__": "linalg.elementwise",
    "linalg.Matrix.__sub__": "linalg.elementwise",
    "linalg.Matrix.__neg__": "linalg.elementwise",
    "linalg.solve": "linalg.solve",
    "linalg.solve_matrix": "linalg.solve",
    "linalg.kernel_basis": "linalg.subspace",
    "linalg.image_basis": "linalg.subspace",
    "linalg.row_space": "linalg.subspace",
    "linalg.quotient_basis": "linalg.subspace",
    "linalg.intersect": "linalg.subspace",
    "algebra.FiniteAlgebra.__init__": "algebra.verify",
    "algebra.Bimodule.__init__": "algebra.verify",
    "algebra.SyzygyBimodule.__init__": "algebra.verify",
    "algebra.BimoduleMap.__init__": "algebra.verify",
    "algebra.Resolution.__init__": "algebra.verify",
    "algebra.bar_resolution": "algebra.bar_resolution",
    "algebra.syzygy": "algebra.syzygy",
    "algebra.strip_projective_summands": "algebra.strip",
    "algebra.is_stable_iso": "algebra.stable_iso",
    "algebra.Bimodule.env_action": "algebra.env_action",
    "algebra.Bimodule.apply_env_element": "algebra.env_action",
    "algebra.comparison_map_to_periodic": "algebra.comparison",
    "hochschild.brace": "hochschild.brace",
    "hochschild.normalized_differential_matrix": "hochschild.diff_matrix",
    "hochschild.cohomology": "hochschild.cohomology",
    "hochschild.hh_context": "hochschild.cohomology",
    "hochschild.HHContext.__init__": "hochschild.cohomology",
    "hochschild.HHContext.classify": "hochschild.cohomology",
    "hochschild.HHContext.basis_classes": "hochschild.cohomology",
    "hochschild.class_of": "hochschild.cohomology",
    "hochschild.solve_coboundary": "hochschild.cohomology",
    "hochschild.cup": "hochschild.products",
    "hochschild.bracket": "hochschild.products",
    "hochschild.differential": "hochschild.products",
    "hochschild.HHClass.cup_cls": "hochschild.products",
    "hochschild.HHClass.bracket_cls": "hochschild.products",
    "hochschild.tate_unit_check": "hochschild.tate_unit",
    "hochschild.cocycle_to_extension": "hochschild.cocycle_to_extension",
    "ainfty.DGAlgebra.__init__": "ainfty.verify",
    "ainfty.MinimalAInfty.__init__": "ainfty.verify",
    "ainfty.make_contraction": "ainfty.contraction",
    "ainfty.ContractionData.__init__": "ainfty.contraction",
    "ainfty.ContractionData.verify": "ainfty.contraction",
    "ainfty.transfer": "ainfty.transfer",
    "ainfty.mc_check": "ainfty.mc_check",
    "ainfty.build_iso": "ainfty.build_iso",
    "ainfty.ainfty_map_check": "ainfty.map_check",
    "ainfty.gauge": "ainfty.gauge",
    "ainfty.gauge_by_central_unit": "ainfty.gauge",
    "ainfty.formality_verdict_of_model": "ainfty.formality",
    "ainfty.is_formal": "ainfty.formality",
    "models.dg_end": "models.dg_end",
    "models.DGEnd.__init__": "models.dg_end",
    "models.seeded_minimal_model": "models.seeded_minimal_model",
    "models.stable_hom_dim": "models.oracles",
    "models.stable_endomorphism_algebra": "models.oracles",
    "models.rigidity_check": "models.oracles",
    "models.periodicity_witness": "models.oracles",
}


# ---------------------------------------------------------------------------
# Span bookkeeping


class Stat:
    """Totals over the spans of one name, or of one call-tree node."""

    __slots__ = ("calls", "total", "self", "raised", "repeats", "counters")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self = 0.0
        self.raised = 0
        self.repeats = 0
        self.counters = {}

    def add_counters(self, counters):
        for k, v in counters.items():
            self.counters[k] = self.counters.get(k, 0) + v

    def merge(self, other):
        self.calls += other.calls
        self.total += other.total
        self.self += other.self
        self.raised += other.raised
        self.repeats += other.repeats
        self.add_counters(other.counters)

    def to_json(self):
        return {
            "calls": self.calls,
            "total_s": self.total,
            "self_s": self.self,
            "raised": self.raised,
            "repeat_calls": self.repeats,
            "counters": dict(self.counters),
        }

    @classmethod
    def from_json(cls, data):
        stat = cls()
        stat.calls = data["calls"]
        stat.total = data["total_s"]
        stat.self = data["self_s"]
        stat.raised = data["raised"]
        stat.repeats = data["repeat_calls"]
        stat.counters = dict(data["counters"])
        return stat


class _ThreadState:
    """Span stack and totals of one thread; only that thread writes them."""

    def __init__(self, index):
        self.index = index
        self.stack = []  # open spans: [child_seconds, call-tree children]
        self.by_name = {}  # name -> Stat
        self.tree = {}  # call tree: name -> (Stat, children)
        self.seen = {}  # group name -> input keys already seen


class Tracer:
    """Wraps bracealg callables and folds their spans into totals."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads = []
        self._patches = []  # (owner, key, original), undone in reverse

    # -- spans ---------------------------------------------------------

    def _state(self):
        st = getattr(self._local, "state", None)
        if st is None:
            with self._lock:
                st = _ThreadState(len(self._threads))
                self._threads.append(st)
            self._local.state = st
        return st

    def call(self, name, group, fn, args, kwargs):
        """Run ``fn(*args, **kwargs)`` as one span called ``name``."""
        st = self._state()
        counters = group.before(args) if group and group.before else None
        repeat = False
        if group and group.key:
            key = group.key(args)
            seen = st.seen.setdefault(group.name, set())
            repeat = key in seen
            seen.add(key)
        stack = st.stack
        siblings = stack[-1][1] if stack else st.tree
        node = siblings.get(name)
        if node is None:
            node = siblings[name] = (Stat(), {})
        frame = [0.0, node[1]]
        stack.append(frame)
        raised = True
        start = self.clock()
        try:
            result = fn(*args, **kwargs)
            raised = False
        finally:
            dur = self.clock() - start
            stack.pop()
            if stack:
                stack[-1][0] += dur
            stats = (st.by_name.get(name) or st.by_name.setdefault(name, Stat()), node[0])
            for stat in stats:
                stat.calls += 1
                stat.total += dur
                stat.self += dur - frame[0]
                stat.raised += raised
                stat.repeats += repeat
                if counters:
                    stat.add_counters(counters)
        if group and group.after:
            extra = group.after(result)
            for stat in stats:
                stat.add_counters(extra)
        return result

    def wrap(self, name, fn):
        group = GROUPS.get(GROUP_OF.get(name))

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, group, fn, args, kwargs)

        return traced

    # -- install / uninstall ------------------------------------------

    def _patch(self, owner, key, value):
        if isinstance(owner, dict):
            self._patches.append((owner, key, owner[key]))
            owner[key] = value
        else:
            self._patches.append((owner, key, vars(owner)[key]))
            setattr(owner, key, value)

    def install(self, package):
        """Wrap the public callables of the package's LAYERS modules.

        A function gets one wrapper, and every attribute that holds it is
        rebound to that wrapper: in its own module, in modules that did
        ``from .linalg import ...``, in the package namespace and in
        module-level dict tables such as the CLI's command table.
        Methods are replaced on their classes.
        """
        modules = {layer: importlib.import_module("%s.%s" % (package.__name__, layer)) for layer in LAYERS}
        wrappers = {}  # id(original) -> (original, wrapper)
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj) and not attr.startswith("_"):
                    wrappers[id(obj)] = (obj, self.wrap("%s.%s" % (layer, attr), obj))
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    self._wrap_methods(layer, obj)

        def wrapper_of(obj):
            hit = wrappers.get(id(obj))
            return hit[1] if hit is not None and hit[0] is obj else None

        for mod in [package, *modules.values()]:
            for attr, obj in list(vars(mod).items()):
                if wrapper_of(obj) is not None:
                    self._patch(mod, attr, wrapper_of(obj))
                elif isinstance(obj, dict) and not attr.startswith("__"):
                    for key, value in list(obj.items()):
                        if wrapper_of(value) is not None:
                            self._patch(obj, key, wrapper_of(value))

    def _wrap_methods(self, layer, cls):
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_") and attr not in _WORK_DUNDERS:
                continue
            name = "%s.%s.%s" % (layer, cls.__name__, attr)
            if isinstance(obj, (staticmethod, classmethod)):
                self._patch(cls, attr, type(obj)(self.wrap(name, obj.__func__)))
            elif inspect.isfunction(obj):
                self._patch(cls, attr, self.wrap(name, obj))

    def uninstall(self):
        """Put back every original object that install replaced."""
        while self._patches:
            owner, key, original = self._patches.pop()
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)

    # -- results -------------------------------------------------------

    def by_name(self):
        """Totals per span name, over all threads."""
        out = {}
        for st in self._threads:
            for name, stat in st.by_name.items():
                out.setdefault(name, Stat()).merge(stat)
        return out

    def call_tree(self):
        """The call tree of every thread, as nested JSON nodes."""

        def dump(children):
            return [
                dict(name=name, **stat.to_json(), children=dump(sub))
                for name, (stat, sub) in sorted(children.items())
            ]

        return [{"thread": st.index, "roots": dump(st.tree)} for st in self._threads]


# ---------------------------------------------------------------------------
# Per-layer metrics


def layer_metrics(by_name):
    """Fold per-name totals into per-layer metrics.

    ``<layer>.{calls,self_s,raised}`` sum every wrapped name of the layer;
    ``<group>.{calls,self_s}`` and the group's counters sum the names that
    GROUP_OF maps to the group; keyed groups add ``repeat_calls``.
    """
    out = {}
    for layer in LAYERS:
        out.update({layer + ".calls": 0, layer + ".self_s": 0.0, layer + ".raised": 0})
    for g in GROUPS.values():
        out.update({g.name + ".calls": 0, g.name + ".self_s": 0.0})
        if g.key:
            out[g.name + ".repeat_calls"] = 0
    for name, stat in by_name.items():
        layer = name.split(".", 1)[0]
        out[layer + ".calls"] += stat.calls
        out[layer + ".self_s"] += stat.self
        out[layer + ".raised"] += stat.raised
        g = GROUP_OF.get(name)
        if g is None:
            continue
        out[g + ".calls"] += stat.calls
        out[g + ".self_s"] += stat.self
        if GROUPS[g].key:
            out[g + ".repeat_calls"] += stat.repeats
        for k, v in stat.counters.items():
            out["%s.%s" % (g, k)] = out.get("%s.%s" % (g, k), 0) + v
    return out
