"""Every name the benchmark's tracer wraps resolves on its furstlab module.

bench/tracer.py looks its TARGETS up by name when `bench/run.py --trace 1`
installs it, so a deleted or renamed traced member would only show there,
as an AttributeError or KeyError.  The tracer imports only the standard
library, so it is loaded here by path.
"""

import importlib
import importlib.util
from pathlib import Path

_TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _tracer_targets() -> dict:
    spec = importlib.util.spec_from_file_location("bench_tracer", _TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.TARGETS


def test_every_traced_name_resolves():
    targets = _tracer_targets()
    missing = []
    for module, names in targets.items():
        mod = importlib.import_module(f"furstlab.{module}")
        for target in names:
            # "Class.method" is looked up in the class's own namespace, as
            # Tracer.install does; a plain name is a function or a class.
            head, _, meth = target.partition(".")
            obj = getattr(mod, head, None)
            found = meth in vars(obj) if meth and obj is not None else callable(obj)
            if not found:
                missing.append(f"{module}.{target}")
    assert sum(map(len, targets.values())) > 0
    assert missing == []
