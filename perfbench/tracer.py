"""Outside-in tracing of nvdetect's public functions.

The tracer wraps every public function of each layer (module) of the
package, plus ``DensityMatrix2.__post_init__``, from outside ``src/``. Modules
bind imported names (``from .dynamics import evolve_pair``) and keep
functions in tables (``cli._COMMANDS``), so each wrapper is patched into every
``nvdetect.*`` namespace and module-level dict that holds the original.
:func:`bypassed_calls` then counts, with cProfile, any call that still
reached an original without passing its wrapper.

Per function the tracer keeps the call count and the self time: the span
minus the spans of the wrapped functions it called. For a few functions it
also hashes each argument tuple, so that distinct tuples over calls shows
how much of the work repeats an earlier call.
"""
from __future__ import annotations

import cProfile
import dataclasses
import enum
import functools
import hashlib
import importlib
import inspect
import pstats
import struct
import sys
import time

import numpy as np

#: The layers of src/nvdetect, in dependency order.
LAYERS = ("linalg", "hamiltonian", "dynamics", "discrimination", "protocol", "config", "cli")

#: Functions whose distinct argument tuples are counted.
HASHED = frozenset({
    "hamiltonian.hamiltonian_two_level",
    "dynamics.liouvillian",
    "dynamics.propagate_superoperator",
})

#: Span name of DensityMatrix2 validation.
DENSITY_MATRIX = "linalg.DensityMatrix2"


def _encode(obj, out: list) -> None:
    """Append a canonical byte encoding of an argument to ``out``."""
    if isinstance(obj, np.ndarray):
        out.append(b"A%s%s" % (repr(obj.shape).encode(), obj.dtype.str.encode()))
        out.append(np.ascontiguousarray(obj).tobytes())
    elif isinstance(obj, bool) or obj is None:
        out.append(repr(obj).encode())
    elif isinstance(obj, (float, np.floating)):
        out.append(b"f" + struct.pack("<d", float(obj)))
    elif isinstance(obj, (int, str, complex)):
        out.append(b"v" + repr(obj).encode())
    elif isinstance(obj, enum.Enum):
        out.append(b"e" + repr(obj.value).encode())
    elif isinstance(obj, (tuple, list)):
        out.append(b"(%d" % len(obj))
        for item in obj:
            _encode(item, out)
    elif dataclasses.is_dataclass(obj):
        out.append(b"D" + type(obj).__qualname__.encode())
        for f in dataclasses.fields(obj):
            _encode(getattr(obj, f.name), out)
    else:
        raise TypeError(f"cannot hash argument of type {type(obj).__name__}")


def _digest(args: tuple, kwargs: dict) -> bytes:
    out: list = []
    _encode(args, out)
    _encode(sorted(kwargs.items()), out)
    return hashlib.blake2b(b"|".join(out), digest_size=16).digest()


class Tracer:
    """Call counts, self times and argument digests per wrapped function."""

    def __init__(self):
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.digests: dict[str, set] = {name: set() for name in HASHED}
        self._stack: list[list[float]] = []

    def wrap(self, name: str, fn):
        calls, self_s, stack = self.calls, self.self_s, self._stack
        calls[name], self_s[name] = 0, 0.0
        digests = self.digests.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if digests is not None:
                t_hash = clock()
                digests.add(_digest(args, kwargs))
                if stack:  # hashing is tracer work, not the caller's
                    stack[-1][0] += clock() - t_hash
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span = clock() - start
                stack.pop()
                calls[name] += 1
                self_s[name] += span - frame[0]
                if stack:
                    stack[-1][0] += span

        return wrapper

    def unique_share(self, name: str) -> float:
        calls = self.calls.get(name, 0)
        return len(self.digests[name]) / calls if calls else 0.0


def public_functions() -> dict[str, object]:
    """Every public function defined in a layer module, by span name."""
    found = {}
    for layer in LAYERS:
        module = importlib.import_module(f"nvdetect.{layer}")
        for attr, obj in vars(module).items():
            if inspect.isfunction(obj) and obj.__module__ == module.__name__ and not attr.startswith("_"):
                found[f"{layer}.{attr}"] = obj
    return found


class Installed:
    """Wrappers patched into the package; :meth:`remove` restores it."""

    def __init__(self, tracer: Tracer):
        from nvdetect.linalg import DensityMatrix2

        self.originals = public_functions()
        wrappers = {id(fn): tracer.wrap(name, fn) for name, fn in self.originals.items()}
        self._undo = []
        for module in [m for n, m in list(sys.modules.items()) if n == "nvdetect" or n.startswith("nvdetect.")]:
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers:
                    self._undo.append((setattr, module, attr, value))
                    setattr(module, attr, wrappers[id(value)])
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if id(item) in wrappers:
                            self._undo.append((dict.__setitem__, value, key, item))
                            value[key] = wrappers[id(item)]
        post_init = DensityMatrix2.__post_init__
        self.originals[DENSITY_MATRIX] = post_init
        self._undo.append((setattr, DensityMatrix2, "__post_init__", post_init))
        DensityMatrix2.__post_init__ = tracer.wrap(DENSITY_MATRIX, post_init)

    def remove(self) -> None:
        for restore, target, key, value in reversed(self._undo):
            restore(target, key, value)
        self._undo.clear()


def bypassed_calls(profile: cProfile.Profile, originals: dict, tracer: Tracer) -> dict[str, int]:
    """Calls cProfile saw reach an original function beyond those its wrapper
    counted: a caller that kept a reference the patching did not replace."""
    stats = pstats.Stats(profile).stats
    missed = {}
    for name, fn in originals.items():
        code = fn.__code__
        seen = stats.get((code.co_filename, code.co_firstlineno, code.co_name), (0, 0))[1]
        if seen != tracer.calls[name]:
            missed[name] = seen - tracer.calls[name]
    return missed
