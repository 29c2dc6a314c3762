"""Run one gxcat CLI job in this process, optionally with layer spans.

    python bench/child.py --out SUMMARY.json [--trace] -- ARGS...

runs ``gxcat.cli`` on ARGS exactly as ``python -m gxcat.cli ARGS`` would,
leaving stdout, stderr and the exit code untouched, and writes a JSON
summary to SUMMARY.json: the import time of ``gxcat.cli``, the in-process
wall time of the command and, with ``--trace``, per-layer span counts and
self times.  A layer is a module of the ``gxcat`` package.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import json
import pkgutil
import sys
import time

class Tracer:
    """Span accounting over layers.

    A span opens when control enters a wrapped function of one layer from
    another layer (or from no layer).  Calls that stay inside the layer on
    top of the stack pass straight through.  A layer's self time is the
    inclusive time of its spans minus that of the spans nested inside them,
    so the self times of all layers add up to the inclusive time of the
    outermost spans.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stack = []  # [layer, time of nested spans] per open span
        self.stats = {}  # layer -> [spans, self seconds]
        self.snf_cells = 0
        self.snf_keys = set()
        self.snf_repeats = 0

    def wrap(self, fn, layer, on_enter=None):
        stack, clock = self.stack, self.clock
        stats = self.stats.setdefault(layer, [0, 0.0])

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            if stack and stack[-1][0] == layer:
                return fn(*args, **kwargs)
            if on_enter is not None:
                on_enter(args, kwargs)
            frame = [layer, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                stats[0] += 1
                stats[1] += dt - frame[1]
                if stack:
                    stack[-1][1] += dt

        return spanned

    def snf_enter(self, args, kwargs):
        """Count the cells of a matrix passed into the snf layer, and whether
        the same matrix and modulus were already seen in this job."""
        import numpy as np  # imported here so that import_s includes numpy

        arr = np.asarray(args[0] if args else kwargs.get("a"))
        if arr.ndim != 2:
            return
        self.snf_cells += arr.shape[0] * arr.shape[1]
        modulus = args[1] if len(args) > 1 else kwargs.get("n", kwargs.get("p"))
        body = repr(arr.tolist()).encode() if arr.dtype == object else arr.tobytes()
        key = (arr.shape, str(arr.dtype), modulus, hashlib.sha1(body).hexdigest())
        if key in self.snf_keys:
            self.snf_repeats += 1
        self.snf_keys.add(key)

    def summary(self):
        return {
            "layers": {k: {"calls": v[0], "self_s": v[1]} for k, v in sorted(self.stats.items())},
            "snf_cells_in": self.snf_cells,
            "snf_repeats": self.snf_repeats,
        }


def _callables_of(module):
    """(owner, attribute, function, rewrap) for every function and method
    defined in ``module``; ``rewrap`` restores the descriptor kind."""
    out = []
    for name, obj in vars(module).items():
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj) or isinstance(obj, functools._lru_cache_wrapper):
            out.append((module, name, obj, None))
        elif inspect.isclass(obj):
            for attr, v in vars(obj).items():
                if inspect.isfunction(v):
                    out.append((obj, attr, v, None))
                elif isinstance(v, (staticmethod, classmethod)):
                    out.append((obj, attr, v.__func__, type(v)))
                elif isinstance(v, property):
                    out.append((obj, attr, v, property))
    return out


def install_spans(tracer, package):
    """Wrap every function and method of every module of ``package`` and
    rebind every module-level name that holds an original, so that copies
    made by ``from .x import y`` go through the wrapper too."""
    modules = [package] + [importlib.import_module(m.name)
                           for m in pkgutil.walk_packages(package.__path__, package.__name__ + ".")]
    wrapped = {}
    for module in modules:
        layer = module.__name__.partition(".")[2] or module.__name__
        hook = tracer.snf_enter if layer == "snf" else None
        for owner, attr, fn, rewrap in _callables_of(module):
            if rewrap is property:
                parts = [f and tracer.wrap(f, layer) for f in (fn.fget, fn.fset, fn.fdel)]
                setattr(owner, attr, property(*parts, fn.__doc__))
                continue
            if inspect.isgeneratorfunction(fn):
                continue  # a span would close before the body runs
            w = tracer.wrap(fn, layer, hook)
            wrapped[id(fn)] = w
            setattr(owner, attr, rewrap(w) if rewrap else w)
    for module in modules:
        for name, obj in list(vars(module).items()):
            if id(obj) in wrapped:
                setattr(module, name, wrapped[id(obj)])


def main(argv):
    sep = argv.index("--")
    opts, args = argv[:sep], argv[sep + 1:]
    out_path = opts[opts.index("--out") + 1]
    t0 = time.perf_counter()
    import gxcat.cli as cli

    import_s = time.perf_counter() - t0
    tracer = None
    if "--trace" in opts:
        import gxcat

        tracer = Tracer()
        install_spans(tracer, gxcat)
    run = cli.main.main if tracer is None else tracer.wrap(cli.main.main, "cli")
    code = 0
    t1 = time.perf_counter()
    try:
        run(args=args, prog_name="gxcat")
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    inproc_s = time.perf_counter() - t1
    sys.stdout.flush()
    summary = {"import_s": import_s, "inproc_s": inproc_s, "exit": code}
    if tracer is not None:
        summary.update(tracer.summary())
    with open(out_path, "w") as fh:
        json.dump(summary, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
