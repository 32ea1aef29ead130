"""Run one ``klmov`` command with layer-boundary spans recorded.

Usage::

    python perfbench/traced_klmov.py SPANS_JSON JOB_ID -- <klmov arguments>

The command behaves like ``python -m klmov <klmov arguments>``: same
standard output, same exit code.  Before it runs, every call that crosses
from one layer (module of ``src/klmov``) into another is wrapped in a span:

* functions a module imported from another layer are replaced, in the
  importing module only, so calls inside a layer stay unwrapped;
* a module object imported from another layer (``from . import verify``) is
  replaced, in the importing module only, by a proxy whose functions are
  wrapped the same way;
* methods of the layers' classes are wrapped on the class; the wrapper checks
  the innermost open span and records nothing when the caller is already in
  the method's own layer.

Three stages are also spanned inside their layer, because the benchmark
reports their inclusive time and each runs at most a few thousand times:
the cabling constants (``torus._ctilde_entries``), the free energy
(``lmov.free_energy``) and each ``verify`` check.

At exit the spans (name, start, end, parent, job id, calls, busy time; see
``Tracer``), a few counters and the ``cache_info()`` of the memoised public
functions are written to SPANS_JSON.
"""

import functools
import importlib
import json
import sys
import time
import types

LAYERS = (
    "cli", "verify", "lmov", "torus", "schur",
    "characters", "partitions", "laurent", "bmw", "rmatrix",
)
# Class methods wrapped besides the public ones: arithmetic, construction,
# comparison and rendering, which is where values cross layers.
DUNDERS = {
    "__init__", "__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
    "__rmul__", "__truediv__", "__pow__", "__neg__", "__matmul__", "__eq__",
    "__str__",
}
# Memoised functions whose cache_info() is reported, by metric prefix.
MEMOS = {
    "schur.sb_closed_form": ("schur", "sb_closed_form"),
    "schur.pb_in_sb": ("schur", "pb_in_sb"),
    "torus.invariant": ("torus", "_torus_invariant_active"),
    "lmov.z_coefficient": ("lmov", "z_coefficient"),
    "lmov.free_energy": ("lmov", "free_energy"),
}


def layer_of(module_name):
    """Layer of a klmov module, or None for modules outside every layer.

    The kernel modules count as ``laurent`` and the golden tables as
    ``verify``, their only users.
    """
    if not module_name or not module_name.startswith("klmov."):
        return None
    short = module_name.split(".", 1)[1]
    if short in LAYERS:
        return short
    if "kernel" in short:
        return "laurent"
    if short == "golden":
        return "verify"
    return None


class Tracer:
    """Spans kept in memory as [name, start, end, parent, job, calls, busy_s].

    Calls to one function from one parent span that make no spanned call of
    their own (a hot helper called in a loop) are kept as a single span:
    start of the first call, end of the last, the number of calls and the
    summed time inside them.  Every other span has calls = 1.
    """

    def __init__(self, job_id):
        self.job_id = job_id
        self.spans = []
        self.leaves = {}  # (parent, name) -> the merged span of leaf calls
        self.stack = [["", -1, False]]  # [layer, span index, has children]
        self.counters = {
            "rationalqt_built": 0,
            "tables_computed": 0,
            "disk_reads": 0,
            "splitting_terms": 0,
            "max_num_terms": 0,
            "max_den_degree": 0,
        }
        self.observers = {}

    def call(self, fn, layer, name, args, kwargs):
        spans, stack = self.spans, self.stack
        parent = stack[-1]
        parent[2] = True
        frame = [layer, len(spans), False]
        spans.append(None)
        stack.append(frame)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            if frame[2]:
                spans[frame[1]] = [name, start, end, parent[1], self.job_id, 1, end - start]
            else:
                merged = self.leaves.get((parent[1], name))
                if merged is None:
                    merged = [name, start, end, parent[1], self.job_id, 0, 0.0]
                    spans[frame[1]] = self.leaves[(parent[1], name)] = merged
                else:
                    spans.pop()  # a leaf is the last span appended
                merged[2] = end
                merged[5] += 1
                merged[6] += end - start
        observe = self.observers.get(name)
        if observe is not None:
            observe(result)
        return result

    def boundary(self, fn, layer, name):
        """Span calls to fn made from any layer other than its own."""
        stack = self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack[-1][0] == layer:
                return fn(*args, **kwargs)
            return self.call(fn, layer, name, args, kwargs)

        return wrapper

    def stage(self, fn, layer, name):
        """Span every call to fn, also from inside its own layer."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(fn, layer, name, args, kwargs)

        return wrapper


def _is_function(obj):
    return callable(obj) and not isinstance(obj, (type, types.ModuleType))


class _LayerProxy:
    """Stands in for a module imported from another layer."""

    def __init__(self, module, wrapped):
        self.__dict__.update(wrapped)
        self._module = module

    def __getattr__(self, name):
        return getattr(self._module, name)


def _wrap_module_functions(tracer, module, layer):
    wrapped = {}
    for name, obj in vars(module).items():
        if name.startswith("_") or not _is_function(obj):
            continue
        if layer_of(getattr(obj, "__module__", None)) != layer:
            continue
        wrapped[name] = tracer.boundary(obj, layer, f"{layer}.{name}")
    return _LayerProxy(module, wrapped)


def _install_observers(tracer, modules):
    counters = tracer.counters
    rational = modules["laurent"].RationalQT

    def value_size(result):
        if isinstance(result, rational):
            counters["max_num_terms"] = max(counters["max_num_terms"], len(result.num))
            if result.den:
                degree = max(result.den) - min(result.den)
                counters["max_den_degree"] = max(counters["max_den_degree"], degree)

    def splitting_terms(result):
        counters["splitting_terms"] += len(result)

    for layer in ("torus", "lmov"):
        for name, obj in vars(modules[layer]).items():
            if _is_function(obj) and layer_of(getattr(obj, "__module__", None)) == layer:
                tracer.observers[f"{layer}.{name}"] = value_size
    tracer.observers["partitions.splittings"] = splitting_terms


def _install_counters(tracer, modules):
    counters = tracer.counters
    characters = modules["characters"]
    rational = modules["laurent"].RationalQT

    init = rational.__init__

    @functools.wraps(init)
    def counted_init(self, *args, **kwargs):
        counters["rationalqt_built"] += 1
        return init(self, *args, **kwargs)

    rational.__init__ = counted_init

    compute = characters._compute_brauer_table

    def counted_compute(n):
        counters["tables_computed"] += 1
        return compute(n)

    characters._compute_brauer_table = counted_compute

    load = characters._load_brauer_table

    def counted_load(n):
        table = load(n)
        if table is not None:
            counters["disk_reads"] += 1
        return table

    characters._load_brauer_table = counted_load


def install(tracer):
    """Wrap the layer boundaries of every loaded klmov module."""
    importlib.import_module("klmov.cli")
    loaded = [
        (layer_of(name), module)
        for name, module in list(sys.modules.items())
        if layer_of(name) is not None
    ]
    modules = {
        layer: module for layer, module in loaded if module.__name__ == f"klmov.{layer}"
    }
    # Counters first: the class-level __init__ span then wraps the counting
    # __init__, so every construction is counted, spanned or not.
    _install_counters(tracer, modules)
    _install_observers(tracer, modules)

    for layer, module in loaded:
        for cls in list(vars(module).values()):
            if not isinstance(cls, type) or cls.__module__ != module.__name__:
                continue
            for attr, fn in list(vars(cls).items()):
                if not isinstance(fn, types.FunctionType):
                    continue
                if attr.startswith("_") and attr not in DUNDERS:
                    continue
                name = f"{layer}.{cls.__name__}.{attr}"
                setattr(cls, attr, tracer.boundary(fn, layer, name))

    proxies = {}
    for layer, module in loaded:
        for name, obj in list(vars(module).items()):
            if isinstance(obj, types.ModuleType):
                target = layer_of(obj.__name__)
                if target is None or target == layer:
                    continue
                if obj.__name__ not in proxies:
                    proxies[obj.__name__] = _wrap_module_functions(tracer, obj, target)
                setattr(module, name, proxies[obj.__name__])
            elif _is_function(obj):
                target = layer_of(getattr(obj, "__module__", None))
                if target is None or target == layer:
                    continue
                span = f"{target}.{getattr(obj, '__name__', name)}"
                setattr(module, name, tracer.boundary(obj, target, span))

    torus, lmov, verify = modules["torus"], modules["lmov"], modules["verify"]
    torus._ctilde_entries = tracer.stage(
        torus._ctilde_entries, "torus", "torus._ctilde_entries"
    )
    lmov.free_energy = tracer.stage(lmov.free_energy, "lmov", "lmov.free_energy")
    for checks in (verify.PAPER_CHECKS, verify.PROPERTY_CHECKS):
        checks[:] = [
            (name, tracer.stage(fn, "verify", f"verify.check:{name}"))
            for name, fn in checks
        ]
    return modules


def cache_report(modules):
    """Hits and calls of the memoised public functions."""
    out = {}
    for key, (layer, attr) in MEMOS.items():
        fn = getattr(modules[layer], attr)
        if not hasattr(fn, "cache_info"):
            fn = fn.__wrapped__
        info = fn.cache_info()
        out[key] = {"hits": info.hits, "calls": info.hits + info.misses}
    return out


def main(argv):
    if len(argv) < 3 or argv[2] != "--":
        print("usage: traced_klmov.py SPANS_JSON JOB_ID -- <klmov arguments>",
              file=sys.stderr)
        return 2
    spans_path, job_id, klmov_args = argv[0], int(argv[1]), argv[3:]
    tracer = Tracer(job_id)
    modules = install(tracer)
    cli = modules["cli"]
    try:
        return tracer.call(cli.main, "cli", "cli.main", (klmov_args,), {})
    finally:
        sys.stdout.flush()
        data = {
            "job": job_id,
            "fields": ["name", "start", "end", "parent", "job", "calls", "busy_s"],
            "spans": tracer.spans,
            "counters": tracer.counters,
            "caches": cache_report(modules),
        }
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(data, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
