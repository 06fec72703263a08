"""Per-module call tracer for the qndsim benchmark.

The tracer wraps, from outside the package, every public module-level
function of the qndsim modules and the validating constructor of each class
a module defines (``__post_init__`` of a dataclass, ``__init__`` of a plain
class). Each wrapped call is a span. A span's self time is its duration minus
the duration of the wrapped calls made inside it, so a module's self time is
the sum over its wrapped functions. Time spent in private helpers and in
methods that are not wrapped counts towards the public function that called
them.

Calls made inside the package resolve through module globals
(``hs.apply_unitary``, ``build_qnd_circuit``) or class attributes
(``self.__post_init__``), so replacing those attributes is seen by every
caller.

Run as a script, this file executes the qndsim command line under the
tracer, for example::

    PYTHONPATH=src python3 perfbench/tracer.py fidelity --p-in 90,10 --p-m 88,12

The CLI report goes to stdout as usual. The last line on stderr is a JSON
object ``{"stats": {...}}`` with the per-function statistics.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import json
import sys
import time

LAYERS = ("hilbert", "metrics", "cnot_qnd", "photonics", "weakval", "cli")


class Tracer:
    """Span recorder over the public functions of a set of modules.

    ``stats`` maps ``"<layer>.<name>"`` to ``[calls, total_s, self_s]``.
    ``observe`` maps such a key to a callback that receives each result.
    """

    def __init__(self, observe=None):
        self.stats: dict[str, list] = {}
        self._observe = dict(observe or {})
        self._stack: list[float] = []
        self._patches: list[tuple[object, str, object]] = []

    def install(self, modules) -> None:
        for mod in modules:
            layer = mod.__name__.rsplit(".", 1)[-1]
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    self._patch(mod, name, f"{layer}.{name}", obj)
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    hook = "__post_init__" if dataclasses.is_dataclass(obj) else "__init__"
                    fn = vars(obj).get(hook)
                    if inspect.isfunction(fn):
                        self._patch(obj, hook, f"{layer}.{name}.{hook}", fn)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr: str, key: str, fn) -> None:
        self._patches.append((owner, attr, fn))
        setattr(owner, attr, self._wrap(key, fn))

    def _wrap(self, key: str, fn):
        stat = self.stats.setdefault(key, [0, 0.0, 0.0])
        stack = self._stack
        observe = self._observe.get(key)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                stat[0] += 1
                stat[1] += dt
                stat[2] += dt - child
                if stack:
                    stack[-1] += dt
            if observe is not None:
                observe(result)
            return result

        return traced


def qndsim_modules() -> list:
    """The traced modules, in the order of ``LAYERS``."""
    import importlib

    return [importlib.import_module(f"qndsim.{layer}") for layer in LAYERS]


def _main(argv: list[str]) -> int:
    modules = qndsim_modules()
    tracer = Tracer()
    tracer.install(modules)
    code = modules[LAYERS.index("cli")].main(argv)
    sys.stdout.flush()
    print(json.dumps({"stats": tracer.stats}), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(_main(sys.argv[1:]))
