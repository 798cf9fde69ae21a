"""Shared test configuration.

Property tests run under a derandomized hypothesis profile without a
deadline, so every run draws the same examples and a slow host does not
turn a correct test into a flaky one.

pytest puts src/ on sys.path (pyproject.toml); the subprocess tests start
fresh interpreters, so src/ also goes on the PYTHONPATH they inherit.
"""

import os
from pathlib import Path

from hypothesis import settings

settings.register_profile("heisenmod", derandomize=True, deadline=None)
settings.load_profile("heisenmod")

_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [_SRC, os.environ.get("PYTHONPATH")])
)
