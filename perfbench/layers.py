"""Split a cProfile of one workload call across the repo's layers.

A layer is a subpackage of ``repro`` (``hw``, ``ghost``, ``core``, ...),
with the simulation kernel ``repro.sim`` split by file. Builtins and the
standard library have no layer of their own: their self time is charged
to the layer that called them, through cProfile's per-caller split,
following callers up the profile until a frame with a layer is found.
Everything else -- third-party packages such as numpy, this benchmark's
own code, ``repro`` files outside the named layers -- is ``ext``. For
call counts, builtins and the standard library count as ``ext`` too.
"""

from __future__ import annotations

import os
import sysconfig
from typing import Dict, Optional

LAYERS = ("sim.partition", "sim.process", "sim.core", "sim.queue",
          "sim.other", "hw", "ghost", "core", "queues", "rpc", "mem",
          "sched", "workloads", "obs", "ext")

_SIM_FILES = {"partition.py": "sim.partition", "process.py": "sim.process",
              "core.py": "sim.core", "events.py": "sim.queue",
              "wheel.py": "sim.queue"}
_PACKAGES = {"hw", "ghost", "core", "queues", "rpc", "mem", "sched",
             "workloads", "obs"}
_PATHS = sysconfig.get_paths()
_STDLIB = tuple({_PATHS["stdlib"], _PATHS["platstdlib"]})
_SITE = tuple({_PATHS["purelib"], _PATHS["platlib"]})


def layer_of(filename: str, package_dir: str) -> Optional[str]:
    """The layer of a source file; None for builtins and the standard
    library, whose time belongs to their caller."""
    prefix = package_dir.rstrip(os.sep) + os.sep
    if filename.startswith(prefix):
        parts = filename[len(prefix):].split(os.sep)
        if parts[0] == "sim":
            return _SIM_FILES.get(parts[-1], "sim.other")
        return parts[0] if len(parts) > 1 and parts[0] in _PACKAGES \
            else "ext"
    if filename == "~" or filename.startswith("<"):
        return None
    if filename.startswith(_STDLIB) and not filename.startswith(_SITE):
        return None
    return "ext"


def attribute(stats: dict, package_dir: str, top: int = 20) -> dict:
    """Per-layer ``self_s``/``calls``/``calls_in``, the layer call matrix
    and the ``top`` functions by self time.

    ``stats`` is ``pstats.Stats(profile).stats``: for each function key
    ``(filename, line, name)`` a tuple ``(cc, nc, tt, ct, callers)``,
    where ``callers`` maps each caller key to its own ``(cc, nc, tt, ct)``
    share.
    """
    home = {func: layer_of(func[0], package_dir) for func in stats}
    mixes: Dict[tuple, Dict[str, float]] = {}

    def mix(func, visiting) -> Dict[str, float]:
        """How ``func``'s time divides over layers, as shares."""
        if home.get(func) is not None:
            return {home[func]: 1.0}
        if func in mixes:
            return mixes[func]
        visiting.add(func)
        callers = {caller: share
                   for caller, share in stats.get(func, (0,) * 5)[4].items()
                   if caller not in visiting}
        weights = {caller: share[3] for caller, share in callers.items()}
        if not any(weights.values()):
            weights = {caller: share[1] for caller, share in callers.items()}
        total = sum(weights.values())
        out: Dict[str, float] = {}
        for caller, weight in weights.items():
            for layer, part in mix(caller, visiting).items():
                out[layer] = out.get(layer, 0.0) + part * weight / total
        visiting.discard(func)
        mixes[func] = out or {"ext": 1.0}
        return mixes[func]

    layers = {name: {"self_s": 0.0, "calls": 0, "calls_in": 0}
              for name in LAYERS}
    matrix: Dict[str, Dict[str, int]] = {}
    for func, (_, nc, tt, _, callers) in stats.items():
        dst = home[func] or "ext"
        layers[dst]["calls"] += nc
        if home[func] is not None or not callers:
            layers[dst]["self_s"] += tt
        else:
            for caller, share in callers.items():
                for layer, part in mix(caller, {func}).items():
                    layers[layer]["self_s"] += share[2] * part
        for caller, share in callers.items():
            src = home.get(caller) or "ext"
            row = matrix.setdefault(src, {})
            row[dst] = row.get(dst, 0) + share[1]
            if src != dst:
                layers[dst]["calls_in"] += share[1]

    def label(func) -> str:
        filename, line, name = func
        if filename == "~":
            return name
        if filename.startswith(package_dir):
            filename = os.path.relpath(filename, os.path.dirname(package_dir))
        return f"{filename}:{line}({name})"

    ranked = sorted(stats.items(), key=lambda item: -item[1][2])[:top]
    top_functions = [
        {"function": label(func),
         "layer": max(mix(func, set()).items(), key=lambda kv: kv[1])[0],
         "self_s": entry[2], "calls": entry[1]}
        for func, entry in ranked]
    return {"layers": layers, "call_matrix": matrix,
            "top_functions": top_functions}
