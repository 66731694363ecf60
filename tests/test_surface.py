"""The package exports only what the tool, the demos or the benchmark use.

A public function or class of ``lcwcheck`` must appear on some line of
``src/lcwcheck/*.py`` (other than ``__init__.py``), ``demos/`` or
``bench/`` besides its own ``def`` or ``class`` line.  Helpers that only
the tests call live in ``tests/oracles.py``.
"""

import inspect
import re
from pathlib import Path

import lcwcheck

ROOT = Path(__file__).resolve().parents[1]


def _lines():
    files = [p for p in (ROOT / "src" / "lcwcheck").glob("*.py") if p.name != "__init__.py"]
    files += sorted((ROOT / "demos").glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))
    return [line for p in files for line in p.read_text(encoding="utf-8").splitlines()]


def test_every_public_name_has_a_caller():
    lines = _lines()
    public = sorted(name for name, obj in vars(lcwcheck).items()
                    if not name.startswith("_") and (inspect.isfunction(obj) or inspect.isclass(obj)))
    unused = []
    for name in public:
        use = re.compile(rf"\b{name}\b")
        own = re.compile(rf"^\s*(def|class)\s+{name}\b")
        if not any(use.search(line) and not own.match(line) for line in lines):
            unused.append(name)
    assert public
    assert unused == []
