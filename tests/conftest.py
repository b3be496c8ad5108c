"""Child processes started by the tests import the furstlab this suite
imports, also when it comes from the `pythonpath` setting in pyproject.toml
rather than from PYTHONPATH or an install."""

import os
from pathlib import Path

import furstlab

_SRC = str(Path(furstlab.__file__).resolve().parents[1])
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))
