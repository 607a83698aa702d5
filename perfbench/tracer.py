"""In-memory span tracer wrapped around ospart's layer boundaries.

`Tracer.install()` replaces, in memory only, every public function of the
eight layer modules wherever a layer module binds it (the `K.*`
attributes of `ospart._kernels`, names imported by value such as
`freelie.stats` or `systems.goldberg3`, and each module's own bindings),
and the public and arithmetic methods of every class the layers define
(`Poly`, `NCPoly`, `OrderedSetPartition`, the engines, ...).  The kernel
module `_kernels._pure` keeps its own bindings, so loops inside the kernel
layer are not split into spans.

Each call records one span: name, start, end, parent span and request id.
Each resumption of a generator is a span of its own, so time spent inside
a generator is charged to its layer, not to the consumer.  Spans stay in
memory, at most `span_cap` of them, and `write_spans` writes them out at
the end.  Per-layer totals are kept for every span, capped or not:

  calls   entries into the layer from another layer or from the benchmark
  self_s  span time minus the time of child spans
  errors  exceptions that left the layer
"""

import functools
import inspect
import json
import sys
import types
from array import array
from time import perf_counter_ns

LAYERS = ("_kernels", "partitions", "incidence", "coefficients", "symbolic",
          "systems", "freelie", "cli")
_LAYER_INDEX = {name: i for i, name in enumerate(LAYERS)}
_ARITHMETIC = frozenset(("__add__", "__radd__", "__sub__", "__rsub__",
                         "__mul__", "__rmul__", "__neg__", "__pow__",
                         "__call__"))
CACHES = ("osp_words", "ideal_words", "mu_tilde_words", "zeta_tilde_words")
COUNTERS = ("kernels.words_out", "freelie.projector.terms_summed",
            "freelie.projector.terms_out", "freelie.ncpoly_add.terms_copied",
            "symbolic.poly_add.terms_copied", "symbolic.poly_mul.calls",
            "partitions.items_enumerated")


def metric_layer(layer):
    """Layer name as used in metric names (which cannot start with '_')."""
    return layer.lstrip("_")


def _layer_of(module_name):
    parts = (module_name or "").split(".")
    if len(parts) >= 2 and parts[0] == "ospart" and parts[1] in _LAYER_INDEX:
        return parts[1]
    return None


# counters fed from the arguments and result of a call --------------------

def _count_len(key):
    def hook(counters, args, out):
        counters[key] += len(out)
    return hook


def _count_one(key):
    def hook(counters, args, out):
        counters[key] += 1
    return hook


def _count_self_terms(key):
    def hook(counters, args, out):
        counters[key] += len(args[0].terms)
    return hook


def _count_out_terms(counters, args, out):
    counters["freelie.projector.terms_out"] += len(getattr(out, "terms", ()))


_HOOKS = {
    "_kernels.osp_words": _count_len("kernels.words_out"),
    "_kernels.ideal_words": _count_len("kernels.words_out"),
    "_kernels.interval_words": _count_len("kernels.words_out"),
    "_kernels.kernel_word": _count_one("kernels.words_out"),
    "_kernels.rgs_word": _count_one("kernels.words_out"),
    "_kernels.quasi_meet": _count_one("kernels.words_out"),
    "freelie.pi_projector": _count_out_terms,
    "freelie.nct_cumulant": _count_out_terms,
    # the projector's term table: its length is the number of terms summed
    "freelie._projector_terms": _count_len("freelie.projector.terms_summed"),
    "freelie.NCPoly.__add__": _count_self_terms(
        "freelie.ncpoly_add.terms_copied"),
    "symbolic.Poly.__add__": _count_self_terms(
        "symbolic.poly_add.terms_copied"),
    "symbolic.Poly.__radd__": _count_self_terms(
        "symbolic.poly_add.terms_copied"),
    "symbolic.Poly.__mul__": _count_one("symbolic.poly_mul.calls"),
    "symbolic.Poly.__rmul__": _count_one("symbolic.poly_mul.calls"),
}
_ITEM_COUNTERS = {
    "_kernels": "kernels.words_out",
    "partitions": "partitions.items_enumerated",
}
# private helpers that feed a counter
_PRIVATE = {"freelie": ("_projector_terms",)}


class Tracer:
    def __init__(self, span_cap=100_000):
        self.on = False
        self.request = -1
        self.span_cap = span_cap
        self.names = []
        self.spans = array("q")
        self.next_id = 0
        self.stack = []
        self.calls = [0] * len(LAYERS)
        self.self_ns = [0] * len(LAYERS)
        self.errors = [0] * len(LAYERS)
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.caches = {}
        self._restore = []
        self._t0 = perf_counter_ns()

    # -- spans --------------------------------------------------------------

    def _count_call(self, li):
        stack = self.stack
        if not stack or stack[-1][1] != li:
            self.calls[li] += 1

    def _enter(self, li, count):
        stack = self.stack
        parent = stack[-1] if stack else None
        if count and (parent is None or parent[1] != li):
            self.calls[li] += 1
        frame = [self.next_id, li, 0, parent, perf_counter_ns()]
        self.next_id += 1
        stack.append(frame)
        return frame

    def _exit(self, frame, nid, error):
        end = perf_counter_ns()
        self.stack.pop()
        sid, li, child_ns, parent, start = frame
        took = end - start
        self.self_ns[li] += took - child_ns
        if parent is not None:
            parent[2] += took
        if error and (parent is None or parent[1] != li):
            self.errors[li] += 1
        if sid < self.span_cap:
            self.spans.extend((nid, start - self._t0, end - self._t0,
                               parent[0] if parent is not None else -1,
                               self.request))

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, fn, layer, name):
        nid = len(self.names)
        self.names.append(metric_layer(layer) + name[len(layer):])
        li = _LAYER_INDEX[layer]
        hook = _HOOKS.get(name)
        tracer = self
        if inspect.isgeneratorfunction(inspect.unwrap(fn)):
            item_counter = _ITEM_COUNTERS.get(layer)

            def gen_wrapper(*args, **kwargs):
                gen = fn(*args, **kwargs)
                if not tracer.on:
                    return gen
                tracer._count_call(li)
                return tracer._drive(gen, nid, li, item_counter)
            return functools.update_wrapper(gen_wrapper, fn)

        def wrapper(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            frame = tracer._enter(li, True)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                tracer._exit(frame, nid, True)
                raise
            tracer._exit(frame, nid, False)
            if hook is not None:
                hook(tracer.counters, args, out)
            return out
        return functools.update_wrapper(wrapper, fn)

    def _drive(self, gen, nid, li, item_counter):
        try:
            while True:
                frame = self._enter(li, False)
                try:
                    item = next(gen)
                except StopIteration:
                    self._exit(frame, nid, False)
                    return
                except BaseException:
                    self._exit(frame, nid, True)
                    raise
                self._exit(frame, nid, False)
                if item_counter:
                    self.counters[item_counter] += 1
                yield item
        finally:
            gen.close()

    def _wrap_class(self, cls, layer):
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_") and attr not in _ARITHMETIC:
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(member, (staticmethod, classmethod)):
                new = type(member)(self._wrap(member.__func__, layer, name))
            elif isinstance(member, property) and member.fget is not None:
                new = property(self._wrap(member.fget, layer, name),
                               member.fset, member.fdel, member.__doc__)
            elif isinstance(member, types.FunctionType):
                new = self._wrap(member, layer, name)
            else:
                continue
            self._restore.append((cls, attr, member))
            setattr(cls, attr, new)

    def install(self):
        """Wrap every layer binding; returns self."""
        import ospart.cli  # noqa: F401  (imports every layer)
        modules = [sys.modules["ospart." + layer] for layer in LAYERS]
        kernels = sys.modules["ospart._kernels"]
        self._cache_fns = {name: getattr(kernels, name) for name in CACHES}
        wrapped = {}
        for mod in modules:
            own = _layer_of(mod.__name__)
            private = _PRIVATE.get(own, ())
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") and attr not in private:
                    continue
                if isinstance(obj, type):
                    if (obj.__module__ == mod.__name__
                            and not issubclass(obj, BaseException)):
                        self._wrap_class(obj, own)
                    continue
                if not callable(obj) or isinstance(obj, types.ModuleType):
                    continue
                layer = _layer_of(getattr(obj, "__module__", None))
                if layer is None:
                    continue
                if id(obj) not in wrapped:
                    name = f"{layer}.{getattr(obj, '__name__', attr)}"
                    wrapped[id(obj)] = (obj, self._wrap(obj, layer, name))
                self._restore.append((mod, attr, obj))
                setattr(mod, attr, wrapped[id(obj)][1])
        self.on = True
        return self

    def uninstall(self):
        self.on = False
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def stop(self):
        """Stop recording and read the kernel caches."""
        self.on = False
        for name, fn in self._cache_fns.items():
            info = fn.cache_info() if hasattr(fn, "cache_info") else None
            self.caches[name] = ([info.hits, info.misses, info.currsize]
                                 if info else [0, 0, 0])

    # -- output -------------------------------------------------------------

    def summary(self):
        return {
            "layers": {layer: [self.calls[i], self.self_ns[i], self.errors[i]]
                       for i, layer in enumerate(LAYERS)},
            "counters": dict(self.counters),
            "caches": self.caches,
            "spans_total": self.next_id,
            "spans_kept": len(self.spans) // 5,
        }

    def span_rows(self):
        s = self.spans
        names = self.names
        for i in range(0, len(s), 5):
            yield [names[s[i]], s[i + 1], s[i + 2], s[i + 3], s[i + 4]]

    def write_spans(self, path):
        """Append the kept spans as JSON lines [name, start_ns, end_ns,
        parent, request]."""
        with open(path, "a") as fh:
            for row in self.span_rows():
                fh.write(json.dumps(row) + "\n")
