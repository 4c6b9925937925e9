"""Per-layer tracing of aslab from outside the package.

The tracer replaces names in the aslab module namespaces and class
dictionaries while it is installed and puts the originals back when it is
removed; no file under src/ knows about it.  A function is replaced in every
aslab module that holds the same object, so `from .linalg import
invariant_factors` inside ad_analyzer is covered as well as the definition.

Two kinds of wrapper:

* span wrappers around the algorithmic entry points record one span per
  call (name, start, end, parent, outcome), from which busy and self time
  are computed;
* leaf wrappers around field and _ringops arithmetic only count calls and
  add up the busy time of their layer (outermost entry only), because one
  span per multiplication would cost far more than the multiplication.
"""

import sys
from time import perf_counter

# module -> functions or Class.method names recorded as spans
SPAN_TARGETS = {
    "fields": ("make_field",),
    "_exprparse": ("parse_expression",),
    "poly": ("factor_finite", "min_poly_in_quotient", "is_irreducible_finite"),
    "linalg": ("invariant_factors", "eigenspace", "Matrix.rank", "ad_matrix"),
    "ad_analyzer": ("analyze", "check_eigenvector_invertibility"),
    "tensor": ("tensor_jordan_type_oracle",),
    "dickson": ("primitive_element", "enumerate_subspaces", "dickson_phi"),
    "irred": ("gas_irreducible", "bivariate_irreducible_oracle"),
}

# layer -> (module, class or None, names); counted and timed as one layer
LEAF_TARGETS = {
    "fields.ExtensionField": (
        "fields",
        "ExtensionField",
        ("add", "neg", "sub", "mul", "inv", "div", "pow_int", "frobenius", "pth_root"),
    ),
    "fields.RationalFunctionField": (
        "fields",
        "RationalFunctionField",
        ("add", "neg", "sub", "mul", "inv", "div", "pow_int"),
    ),
    "ringops": (
        "_ringops",
        None,
        ("add", "neg", "sub", "scale", "mul", "mul_xpow", "divmod_", "rem",
         "monic", "gcd", "xgcd", "evaluate", "pow_mod", "derivative", "compose"),
    ),
}

# (module, class, method) whose calls are counted without timing
COUNT_TARGETS = (("fields", "PrimeField", "mul"),)

# span name -> function of (args, result) stored with a successful span
SPAN_EXTRA = {
    "linalg.invariant_factors": lambda args, result: args[0].nrows,
    "ad_analyzer.analyze": lambda args, result: result.passed(),
}


def metric_prefix(module):
    """Metric names start with a letter, so _ringops becomes ringops."""
    return module.lstrip("_")


def _aslab_modules():
    return [
        mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == "aslab" or name.startswith("aslab."))
    ]


class Tracer:
    """Installs wrappers, records spans and counts, and summarises them."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, error name, extra]
        self._stack = []
        self.counts = {}
        self.layers = {}  # layer -> [depth, busy seconds]
        self._undo = []

    # -- installation -------------------------------------------------------

    def install(self):
        import aslab  # noqa: F401  (loads every module the package imports)
        from aslab import cli, dickson  # noqa: F401

        pkg = sys.modules
        for module, names in SPAN_TARGETS.items():
            mod = pkg["aslab." + module]
            for name in names:
                label = f"{metric_prefix(module)}.{name}"
                self._wrap(mod, name, lambda fn, label=label: self._span_wrapper(label, fn))
        for layer, (module, owner, names) in LEAF_TARGETS.items():
            mod = pkg["aslab." + module]
            state = self.layers.setdefault(layer, [0, 0.0])
            for name in names:
                target = name if owner is None else f"{owner}.{name}"
                key = f"{layer}.{name}"
                self.counts[key] = 0
                self._wrap(
                    mod, target,
                    lambda fn, key=key, state=state: self._leaf_wrapper(key, state, fn),
                )
        for module, owner, name in COUNT_TARGETS:
            key = f"{metric_prefix(module)}.{owner}.{name}"
            self.counts[key] = 0
            self._wrap(pkg["aslab." + module], f"{owner}.{name}",
                       lambda fn, key=key: self._count_wrapper(key, fn))

    def uninstall(self):
        for obj, attr, original, had in reversed(self._undo):
            if had:
                setattr(obj, attr, original)
            else:
                delattr(obj, attr)
        self._undo.clear()

    def _wrap(self, mod, target, make):
        if "." in target:
            owner_name, attr = target.split(".")
            owner = getattr(mod, owner_name)
            original = getattr(owner, attr)
            self._undo.append((owner, attr, owner.__dict__.get(attr), attr in owner.__dict__))
            setattr(owner, attr, make(original))
            return
        original = getattr(mod, target)
        wrapper = make(original)
        for other in _aslab_modules():
            for attr, value in list(vars(other).items()):
                if value is original:
                    self._undo.append((other, attr, original, True))
                    setattr(other, attr, wrapper)

    # -- wrappers -----------------------------------------------------------

    def _span_wrapper(self, label, fn):
        spans, stack = self.spans, self._stack
        extra = SPAN_EXTRA.get(label)

        def wrapper(*args, **kwargs):
            rec = [label, 0.0, 0.0, stack[-1] if stack else -1, None, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                rec[4] = type(exc).__name__
                raise
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if extra is not None:
                rec[5] = extra(args, result)
            return result

        return wrapper

    def _leaf_wrapper(self, key, state, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            if state[0]:
                return fn(*args, **kwargs)
            state[0] = 1
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                state[1] += perf_counter() - t0
                state[0] = 0

        return wrapper

    def _count_wrapper(self, key, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- spans opened by the benchmark itself --------------------------------

    def begin(self, label):
        rec = [label, 0.0, 0.0, self._stack[-1] if self._stack else -1, None, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = perf_counter()
        return rec

    def end(self, rec, error=None):
        rec[2] = perf_counter()
        rec[4] = error
        self._stack.pop()

    # -- summary ------------------------------------------------------------

    def summary(self):
        """Per span name: calls, busy_s (recursion counted once), self_s, errors."""
        spans = self.spans
        child = [0.0] * len(spans)
        for rec in spans:
            if rec[3] >= 0:
                child[rec[3]] += rec[2] - rec[1]
        out = {}
        for i, rec in enumerate(spans):
            name, start, end, parent = rec[0], rec[1], rec[2], rec[3]
            agg = out.setdefault(
                name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "errors": {}, "extra": []}
            )
            agg["calls"] += 1
            agg["self_s"] += (end - start) - child[i]
            outermost = True
            while parent >= 0:
                if spans[parent][0] == name:
                    outermost = False
                    break
                parent = spans[parent][3]
            if outermost:
                agg["busy_s"] += end - start
            if rec[4] is not None:
                agg["errors"][rec[4]] = agg["errors"].get(rec[4], 0) + 1
            if rec[5] is not None:
                agg["extra"].append(rec[5])
        return out

    def durations(self, prefix):
        """Durations of spans whose name starts with prefix, grouped by name."""
        out = {}
        for rec in self.spans:
            if rec[0].startswith(prefix):
                out.setdefault(rec[0], []).append(rec[2] - rec[1])
        return out
