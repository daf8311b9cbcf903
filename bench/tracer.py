"""Per-layer spans recorded around the public functions of each regpart module.

A layer is one module of ``src/regpart``. The tracer replaces every public
function a module defines, plus the listed public methods of its classes,
with a wrapper that opens a span, calls the original and closes the span.
Spans nest on one stack; a layer's self time is the duration of its spans
minus the part covered by their child spans. Calls of a generator function
are timed per ``next()``, because the generator body only runs then.

Modules import each other's functions by name (``stats`` holds its own
binding of ``enumerate_class``), so every binding of an original in any
``regpart.*`` module is replaced, and ``install`` reports any reference to
an original it could not replace.

Spans are folded into counters as they close, so memory stays flat however
many calls a workload makes.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter

LAYERS = ("partition", "classes", "glaisher", "stats", "qseries", "cli")

# Public methods traced besides module-level functions. Properties such as
# Partition.runs are plain attribute reads and stay untraced.
METHODS = {
    "partition": {
        "Partition": (
            "__init__", "from_multiplicities", "union", "difference",
            "multiplicity", "multiplicities", "distinct_parts",
        ),
    },
    "qseries": {
        "TruncatedSeries": (
            "zero", "one", "__add__", "__sub__", "__neg__", "__mul__", "invert",
        ),
    },
}

FAMILY_KEYS = {
    "all": "all",
    "class-regular": "cp",
    "regular": "rp",
    "inferior-regular": "irp",
}


def unit_of(metric):
    """The unit of a per-layer metric, from its name."""
    for suffix, unit in (
        ("_s", "s"), ("_per_partition", "us"), ("_ratio", "ratio"), ("bytes_out", "bytes"),
    ):
        if metric.endswith(suffix):
            return unit
    return "count"


def _argument(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _family_key(args, kwargs):
    return "partitions." + FAMILY_KEYS[_argument(args, kwargs, 0, "family").kind]


# Counters derived from each traced call's arguments and result, keyed by
# the traced name. None of them reads library internals.
def _count_partitions(tracer, args, kwargs, result):
    tracer.counts[_family_key(args, kwargs)] += result


def _count_merge_steps(tracer, args, kwargs, result):
    tracer.counts["merge_steps"] += result.count


def _count_census_key(tracer, args, kwargs, result):
    moduli = _argument(args, kwargs, 0, "moduli")
    residue = _argument(args, kwargs, 1, "residue")
    n = _argument(args, kwargs, 2, "n")
    tracer.census_keys.add((tuple(moduli), residue, n))


def _count_product(tracer, args, kwargs, result):
    # schoolbook product truncated at n: (n + 1)(n + 2) / 2 coefficient
    # products, an upper bound because the library skips zero coefficients
    if result is NotImplemented:
        return
    n = result.truncation
    tracer.counts["coeff_mults"] += (n + 1) * (n + 2) // 2


def _count_inverse(tracer, args, kwargs, result):
    n = result.truncation
    tracer.counts["coeff_mults"] += n * (n + 1) // 2


AFTER = {
    "classes.count_class": _count_partitions,
    "glaisher.glaisher_forward": _count_merge_steps,
    "glaisher.insertion_preimages": _count_census_key,
    "qseries.TruncatedSeries.__mul__": _count_product,
    "qseries.TruncatedSeries.invert": _count_inverse,
}

# Generator functions whose yielded items are counted, under a key taken
# from the call's arguments.
ITEM_KEYS = {"classes.enumerate_class": _family_key}


class Tracer:
    """Spans and counters for one traced repetition of a workload."""

    def __init__(self):
        self.self_s = Counter()  # by traced name
        self.errors = Counter()
        self.calls = Counter()
        self.counts = Counter()
        self.census_keys = set()
        self._stack = []
        self._undo = []

    def _enter(self, layer, name):
        frame = [layer, 0.0, 0.0, name]  # layer, child time, start, name
        self._stack.append(frame)
        frame[2] = time.perf_counter()
        return frame

    def _exit(self, frame, exc=None):
        elapsed = time.perf_counter() - frame[2]
        stack = self._stack
        stack.pop()
        layer = frame[0]
        self.self_s[frame[3]] += elapsed - frame[1]
        parent = stack[-1] if stack else None
        if parent is not None:
            parent[1] += elapsed
        # an exception counts once per layer it leaves
        if isinstance(exc, Exception) and (parent is None or parent[0] != layer):
            self.errors[layer] += 1

    def _wrap(self, layer, name, fn):
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(layer, name, fn)
        after = AFTER.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.calls[name] += 1
            frame = self._enter(layer, name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._exit(frame, exc)
                raise
            self._exit(frame)
            if after is not None:
                after(self, args, kwargs, result)
            return result

        return traced

    def _wrap_generator(self, layer, name, fn):
        item_key = ITEM_KEYS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.calls[name] += 1
            key = item_key(args, kwargs) if item_key else None
            inner = fn(*args, **kwargs)
            try:
                while True:
                    frame = self._enter(layer, name)
                    try:
                        item = next(inner)
                    except StopIteration:
                        self._exit(frame)
                        return
                    except BaseException as exc:
                        self._exit(frame, exc)
                        raise
                    self._exit(frame)
                    if key is not None:
                        self.counts[key] += 1
                    yield item
            finally:
                inner.close()

        return traced

    def install(self):
        """Wrap every layer and rebind each module's references to the
        originals. Returns the references left unreplaced; the caller
        treats a non-empty list as a failed run."""
        replacements = {}
        for layer in LAYERS:
            module = sys.modules[f"regpart.{layer}"]
            for name, obj in list(vars(module).items()):
                if (
                    not name.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                ):
                    replacements[obj] = self._wrap(layer, f"{layer}.{name}", obj)
            for class_name, methods in METHODS.get(layer, {}).items():
                cls = getattr(module, class_name)
                for method in methods:
                    raw = cls.__dict__.get(method)
                    if raw is None:
                        continue
                    traced_name = f"{layer}.{class_name}.{method}"
                    if isinstance(raw, classmethod):
                        replacements[raw.__func__] = self._wrap(layer, traced_name, raw.__func__)
                        new = classmethod(replacements[raw.__func__])
                    else:
                        replacements[raw] = new = self._wrap(layer, traced_name, raw)
                    self._undo.append((cls, method, raw))
                    setattr(cls, method, new)
        for module in _package_modules():
            for name, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in replacements:
                    self._undo.append((module, name, obj))
                    setattr(module, name, replacements[obj])
        wrappers = {id(w) for w in replacements.values()}
        return _unreplaced(set(replacements), wrappers)

    def uninstall(self):
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    def metrics(self, bytes_out, rows_out):
        """The per-layer metrics of this repetition, by name."""
        calls = self.calls

        def layer_sum(table, layer):
            return sum(v for k, v in table.items() if k.startswith(layer + "."))

        partitions = {
            key: self.counts["partitions." + key] for key in FAMILY_KEYS.values()
        }
        enumerated = sum(partitions.values())
        queries = calls["glaisher.insertion_preimages"]
        builds = len(self.census_keys)
        out = {}
        enumeration_s = self.self_s["classes.enumerate_class"] + self.self_s["classes.count_class"]
        for layer in LAYERS:
            out[f"{layer}.self_s"] = layer_sum(self.self_s, layer)
            out[f"{layer}.errors"] = self.errors[layer]
        out.update({
            "classes.us_per_partition": enumeration_s / enumerated * 1e6 if enumerated else 0.0,
            "classes.enumerate_calls": calls["classes.enumerate_class"],
            "classes.count_calls": calls["classes.count_class"],
            **{f"classes.partitions.{k}": v for k, v in partitions.items()},
            "glaisher.forward_calls": calls["glaisher.glaisher_forward"],
            "glaisher.merge_steps": self.counts["merge_steps"],
            "glaisher.insertion_calls": calls["glaisher.insertion_map"],
            "glaisher.preimage_queries": queries,
            "glaisher.census_builds": builds,
            "glaisher.census_hit_ratio": 1 - builds / queries if queries else 0.0,
            "stats.calls": layer_sum(calls, "stats"),
            "qseries.gf_calls": calls["qseries.gf_class"],
            "qseries.mul_calls": calls["qseries.TruncatedSeries.__mul__"],
            "qseries.invert_calls": calls["qseries.TruncatedSeries.invert"],
            "qseries.add_calls": (
                calls["qseries.TruncatedSeries.__add__"]
                + calls["qseries.TruncatedSeries.__sub__"]
            ),
            "qseries.coeff_mults": self.counts["coeff_mults"],
            "partition.calls": layer_sum(calls, "partition"),
            "cli.bytes_out": bytes_out,
            "cli.rows_out": rows_out,
        })
        return out


def _package_modules():
    return [
        module for name, module in list(sys.modules.items())
        if module is not None and (name == "regpart" or name.startswith("regpart."))
    ]


def _references(value, wrappers):
    # Where a module can keep a function besides its own namespace: class
    # attributes, containers, default arguments and closure cells. A
    # wrapper's own closure holds its original and is skipped.
    if id(value) in wrappers:
        return
    if isinstance(value, (classmethod, staticmethod)):
        yield value.__func__
    elif isinstance(value, dict):
        yield from value.values()
    elif isinstance(value, (list, tuple, set, frozenset)):
        yield from value
    elif inspect.isfunction(value):
        yield from value.__defaults__ or ()
        yield from (value.__kwdefaults__ or {}).values()
        for cell in value.__closure__ or ():
            try:
                yield cell.cell_contents
            except ValueError:  # empty cell
                pass
    else:
        wrapped = getattr(value, "__wrapped__", None)  # lru_cache and friends
        if wrapped is not None:
            yield wrapped


def _unreplaced(originals, wrappers):
    missed = []
    for module in _package_modules():
        for name, value in vars(module).items():
            inner = list(_references(value, wrappers))
            if inspect.isclass(value) and value.__module__ == module.__name__:
                inner = [
                    ref for attr in vars(value).values()
                    for ref in (attr, *_references(attr, wrappers))
                ]
            for candidate in (value, *inner):
                if inspect.isfunction(candidate) and candidate in originals:
                    missed.append(f"{module.__name__}.{name} -> {candidate.__qualname__}")
    return missed
