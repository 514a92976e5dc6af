"""Per-layer CPU split of one simulation, measured with ``cProfile``.

Layers are named after the repository's modules (see ``LAYERS.md``).
The profiler times every Python call; this module folds its table into
per-layer self time and per-layer entry counts:

* **Self time.**  A function under ``src/repro`` charges its own time
  to its module's layer.  Stdlib and builtin functions (``heapq``,
  ``random``, ``dict.get``, ...) have no layer of their own: their time
  is split over their callers in proportion to the time each caller
  caused, recursively, so ``heapq.heappush`` called from the scheduler
  lands in ``sim.kernel`` and ``Random.random`` drawn by a channel lands
  in ``net``.  Time in files outside ``src/repro`` that no layer called
  (the benchmark's own run loop) is charged to ``other``.
* **Calls.**  A call into a layer is a call to one of its functions
  whose caller sits in another layer, or an event callback the
  scheduler dispatches into it: the layer's public entry points, such
  as ``Channel.send``, ``PMNetDevice.handle_frame`` or
  ``Counter.increment``.  Calls inside a layer are not counted.
"""

from __future__ import annotations

import os
import sysconfig
from typing import Dict, Tuple

#: The layers every traced run reports, in report order.
LAYERS = ("sim.kernel", "sim.rand", "sim.monitor", "net", "protocol",
          "core", "pm", "host", "workloads", "control")

#: Everything else: ``failure/``, ``experiments/``, ``config``, and the
#: benchmark's own code.
OTHER = "other"

_SIM_LAYERS = {
    "kernel.py": "sim.kernel", "event.py": "sim.kernel",
    "compiled.py": "sim.kernel", "process.py": "sim.kernel",
    "clock.py": "sim.kernel", "rand.py": "sim.rand",
    "monitor.py": "sim.monitor", "trace.py": "sim.monitor",
}

_PACKAGE_LAYERS = {"obs": "sim.monitor", "net": "net",
                   "protocol": "protocol", "core": "core", "pm": "pm",
                   "host": "host", "workloads": "workloads",
                   "control": "control"}

#: The scheduler's event loops: every callback they run is an entry.
_DISPATCH_LOOPS = ("_run_heap", "_run_tiered", "run_loop")

#: pstats' function key: (filename, first line, function name).
FuncKey = Tuple[str, int, str]

#: Install locations of the interpreter's own and third-party modules.
_LIBRARY_ROOTS = tuple(sorted({
    os.path.abspath(sysconfig.get_paths()[key]) + os.sep
    for key in ("stdlib", "platstdlib", "purelib", "platlib")}))


def layer_of_file(filename: str, package_root: str) -> str:
    """The layer a source file belongs to; ``""`` for stdlib/builtins
    and ``OTHER`` for repository code outside the named layers."""
    if filename.startswith(("~", "<")):
        return ""  # builtins and frozen modules
    path = os.path.abspath(filename)
    if not path.startswith(package_root + os.sep):
        return "" if path.startswith(_LIBRARY_ROOTS) else OTHER
    parts = os.path.relpath(path, package_root).split(os.sep)
    if parts[0] == "sim":
        return _SIM_LAYERS.get(parts[-1], "sim.kernel")
    return _PACKAGE_LAYERS.get(parts[0], OTHER)


def split_by_layer(stats: Dict[FuncKey, tuple], package_root: str
                   ) -> Tuple[Dict[str, float], Dict[str, int], float]:
    """Fold a ``pstats.Stats(...).stats`` table into layers.

    Returns ``(self_seconds, entry_calls, total_seconds)`` keyed by
    layer name (``LAYERS`` plus ``OTHER``).
    """
    own: Dict[FuncKey, str] = {}
    for func in stats:
        own[func] = layer_of_file(func[0], package_root)

    shares: Dict[FuncKey, Dict[str, float]] = {}

    def share(func: FuncKey, visiting: set) -> Dict[str, float]:
        """Fraction of ``func``'s time owed to each layer."""
        cached = shares.get(func)
        if cached is not None:
            return cached
        layer = own.get(func, "")
        if layer:
            result = {layer: 1.0}
        elif func in visiting:
            return {OTHER: 1.0}
        else:
            visiting.add(func)
            callers = stats[func][4] if func in stats else {}
            weights = {caller: value[2] for caller, value in callers.items()}
            total = sum(weights.values())
            if total <= 0:
                weights = {caller: value[0]
                           for caller, value in callers.items()}
                total = sum(weights.values())
            result = {}
            if total <= 0:
                result[OTHER] = 1.0
            else:
                for caller, weight in weights.items():
                    for name, part in share(caller, visiting).items():
                        result[name] = result.get(name, 0.0) \
                            + part * weight / total
            visiting.discard(func)
        shares[func] = result
        return result

    def dominant(func: FuncKey) -> str:
        parts = share(func, set())
        return max(parts, key=parts.get)

    seconds = {name: 0.0 for name in LAYERS + (OTHER,)}
    calls = {name: 0 for name in LAYERS + (OTHER,)}
    total_seconds = 0.0
    # pstats rows are (cc, nc, tt, ct, callers); caller entries are
    # (nc, cc, tt, ct) for the calls made from that caller.
    for func, (_cc, _nc, self_time, _ct, callers) in stats.items():
        total_seconds += self_time
        for name, part in share(func, set()).items():
            seconds[name] += self_time * part
        layer = own[func]
        if not layer:
            continue
        for caller, value in callers.items():
            if dominant(caller) != layer or caller[2] in _DISPATCH_LOOPS:
                calls[layer] += value[0]
    return seconds, calls, total_seconds
