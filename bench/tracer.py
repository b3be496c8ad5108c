"""Spans and counters around furstlab's public functions, installed from
outside the program.

`Tracer.install()` wraps every function in TARGETS wherever its name is
looked up: in the defining module and in every furstlab module (and the
package namespace) that imported the same object by name.  Classes are
traced through their `__init__`, so every construction path is counted.

A span records its name, parent span, job id, start and end.  A function's
self time is its span's duration minus the time of its child spans.  Spans
are recorded only while a job id is set, so oracles that call the library
after a job add nothing.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

# module -> traced names ("Class" for constructions, "Class.method").
TARGETS = {
    "cli": ["main"],
    "bounds": ["bound_survey", "ff_bound_exponents"],
    "grassmann": ["Subspace", "haar_sample", "haar_projector_batch", "grass_distance",
                  "affine_distance", "min_rotation", "sample_subflat"],
    "checks": ["check_translation_inequality", "check_rotation_pointwise",
               "check_min_rotation_norm", "check_subflat_transport", "check_ball_scaling"],
    "dimension": ["GridSet", "GridSet.from_rle", "GridSet.to_rle", "GridSet.to_csv",
                  "box_count", "estimate_dimension", "cantor_grid", "grid_from_points",
                  "flat_slice", "family_dimension"],
    "duality": ["spreadify", "apply_projective", "marstrand_project"],
    "finitefield": ["FFSet", "ff_directions", "ff_coset_profile", "ff_min_kakeya",
                    "ff_min_spread", "ff_is_kakeya", "ff_pigeonhole_verify",
                    "ff_is_spread_furstenberg"],
    "maximal": ["random_tube_union_field", "kakeya_maximal", "maximal_lp_norm",
                "tube_average"],
}


def _out_bytes(args) -> int:
    argv = list(args["argv"] or [])
    if "--out" not in argv:
        return 0
    out = Path(argv[argv.index("--out") + 1])
    return sum(p.stat().st_size for p in out.rglob("*") if p.is_file()) if out.is_dir() else 0


# Work counters: traced name -> (counter name, value from the bound arguments).
COUNTERS = {
    "cli.main": ("cli.artifact_bytes", _out_bytes),
    "dimension.box_count": ("dimension.box_count.cells", lambda a: len(a["g"])),
    "grassmann.haar_projector_batch": ("grassmann.haar_projector_batch.rows",
                                       lambda a: int(a["count"])),
    **{f"checks.{fn}": ("checks.samples", lambda a: int(a["samples"]))
       for fn in TARGETS["checks"]},
}

# Per-layer metric names, in a fixed order.
COUNTER_NAMES = sorted({name for name, _ in COUNTERS.values()})
SPAN_NAMES = [f"{mod}.{name}" for mod, names in TARGETS.items() for name in names]


class Tracer:
    def __init__(self):
        self.job = None
        self.spans = []  # (span id, parent id, job id, name, start, end)
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.counts = Counter()
        self._stack = []  # [span id, child seconds] of the open spans
        self._next_id = 0

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        sig = inspect.signature(fn) if counter else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.job is None:
                return fn(*args, **kwargs)
            sid = self._next_id
            self._next_id += 1
            parent = self._stack[-1][0] if self._stack else None
            frame = [sid, 0.0]
            self._stack.append(frame)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                duration = end - start
                if self._stack:
                    self._stack[-1][1] += duration
                self.calls[name] += 1
                self.self_s[name] += duration - frame[1]
                self.spans.append((sid, parent, self.job, name, start, end))
                if counter:
                    bound = sig.bind(*args, **kwargs)
                    bound.apply_defaults()
                    self.counts[counter[0]] += counter[1](bound.arguments)

        return traced

    def install(self):
        """Replace every traced name in all loaded furstlab modules."""
        mods = [importlib.import_module(f"furstlab.{m}") for m in TARGETS]
        namespaces = [m for k, m in sys.modules.items() if k == "furstlab" or k.startswith("furstlab.")]
        for mod in mods:
            short = mod.__name__.split(".")[-1]
            for target in TARGETS[short]:
                name = f"{short}.{target}"
                if "." in target:
                    cls_name, meth = target.split(".")
                    cls = getattr(mod, cls_name)
                    raw = cls.__dict__[meth]
                    if isinstance(raw, classmethod):
                        setattr(cls, meth, classmethod(self.wrap(name, raw.__func__)))
                    else:
                        setattr(cls, meth, self.wrap(name, raw))
                    continue
                obj = getattr(mod, target)
                if isinstance(obj, type):
                    obj.__init__ = self.wrap(name, obj.__init__)
                    continue
                wrapped = self.wrap(name, obj)
                for ns in namespaces:
                    for attr, val in list(vars(ns).items()):
                        if val is obj:
                            setattr(ns, attr, wrapped)

    def metrics(self) -> dict:
        """calls and self time of every traced name, plus the work counters."""
        out = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = {"value": self.calls[name], "unit": "count"}
            out[f"{name}.self_s"] = {"value": self.self_s[name], "unit": "s"}
        for name in COUNTER_NAMES:
            unit = "bytes" if name == "cli.artifact_bytes" else "count"
            out[name] = {"value": self.counts[name], "unit": unit}
        return out
