"""Per-layer host self time, attributed from outside the program.

A traced round runs under :mod:`cProfile`.  Each profiled Python
function's self time goes to the layer of the module that defines it;
the self time of a builtin (``struct.pack``, ``list.append``, ...) goes
to the layer of the function that called it.  Layers are named after
the repository's modules, matching the ROADMAP's layer table.
"""

from __future__ import annotations

import cProfile
import os

#: Module path prefix under ``src/repro/`` -> layer.  Longest prefix wins;
#: anything outside the package (the benchmark, the standard library)
#: is ``other``.
LAYER_PREFIXES = {
    "rng/": "rng",
    "storage/records.py": "storage.records",
    "storage/files.py": "storage.files",
    "storage/superblock.py": "storage.files",
    "storage/bufferpool.py": "storage.bufferpool",
    "storage/": "storage.device",
    "core/kinds.py": "core.kinds",
    "core/refresh/": "core.refresh",
    "core/": "core.maintenance",
    "serve/session.py": "serve.session",
    "serve/catalog.py": "serve.catalog",
    "serve/workload.py": "serve.workload",
    "serve/": "serve.scheduler",
    "analysis/": "analysis",
    "obs/": "obs",
}

LAYERS = tuple(dict.fromkeys(LAYER_PREFIXES.values())) + ("other",)

#: The generator's draw entry points; rng.draw_calls counts calls into
#: them from outside the generator module.
GENERATOR_FILE = "rng/mt19937.py"
DRAW_FUNCTIONS = ("random", "randrange", "next_uint32")


class LayerMap:
    """Maps a code object's file name to its layer (memoised)."""

    def __init__(self, package_dir: str) -> None:
        self._root = os.path.normpath(package_dir) + os.sep
        self._prefixes = sorted(LAYER_PREFIXES.items(), key=lambda kv: -len(kv[0]))
        self._cache: dict[str, str] = {}

    def relative(self, filename: str) -> str | None:
        """Path under the package with ``/`` separators, or None."""
        path = os.path.normpath(filename)
        if not path.startswith(self._root):
            return None
        return path[len(self._root):].replace(os.sep, "/")

    def layer(self, filename: str) -> str:
        layer = self._cache.get(filename)
        if layer is None:
            layer = "other"
            relative = self.relative(filename)
            if relative is not None:
                for prefix, name in self._prefixes:
                    if relative.startswith(prefix):
                        layer = name
                        break
            self._cache[filename] = layer
        return layer


def profile_passes(run, package_dir: str) -> tuple[list, dict[str, float], int]:
    """Call ``run(profiler)``, which profiles the program's work with it.

    Returns ``run``'s result, self seconds per layer and the number of
    draw calls into the generator.
    """
    profiler = cProfile.Profile()
    result = run(profiler)
    layers = LayerMap(package_dir)
    self_s = dict.fromkeys(LAYERS, 0.0)
    draw_calls = 0
    entries = profiler.getstats()
    builtin_charged: dict[str, float] = {}
    for entry in entries:
        code = entry.code
        if isinstance(code, str):  # a builtin: charged through its callers
            continue
        caller_layer = layers.layer(code.co_filename)
        self_s[caller_layer] += entry.inlinetime
        caller_is_generator = layers.relative(code.co_filename) == GENERATOR_FILE
        for sub in entry.calls or ():
            callee = sub.code
            if isinstance(callee, str):
                self_s[caller_layer] += sub.inlinetime
                builtin_charged[callee] = (
                    builtin_charged.get(callee, 0.0) + sub.inlinetime
                )
            elif (
                not caller_is_generator
                and callee.co_name in DRAW_FUNCTIONS
                and layers.relative(callee.co_filename) == GENERATOR_FILE
            ):
                draw_calls += sub.callcount
    # Builtin time with no profiled caller (called from the frame that
    # enabled the profiler) stays with the benchmark.
    for entry in entries:
        if isinstance(entry.code, str):
            rest = entry.inlinetime - builtin_charged.get(entry.code, 0.0)
            if rest > 0:
                self_s["other"] += rest
    return result, self_s, draw_calls
