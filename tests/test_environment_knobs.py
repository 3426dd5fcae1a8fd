"""The environment variables the package reads, pinned.

An environment variable is a setting no signature, CLI help or cache
key shows, so each one has to earn its place.  This test lists every
``REPRO_*`` name in ``src/``: adding one (or reviving a removed one)
fails here until the list below and the docs say what it does.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parent

#: Every ``REPRO_*`` variable the package reads, and what it sets.
KNOWN = {
    "REPRO_PERF",  # stage tracing (repro.sim.perf)
    "REPRO_SCALE",  # figure horizon scale (repro.experiments.configs)
    "REPRO_SWEEP_CACHE",  # sweep cache directory (repro.experiments.cache)
    "REPRO_FAULT_INJECT",  # fault-injection hooks (repro.experiments.faults)
}


def _string_constants():
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                yield path, node.value


def test_repro_environment_names_are_pinned():
    names = {}
    for path, value in _string_constants():
        # Names and messages that start with one (a bare prefix glued to
        # a computed suffix would hide the name, so it fails here too).
        match = re.match(r"REPRO_[A-Z0-9_]*", value)
        if match:
            names.setdefault(match.group(), path.relative_to(SRC).as_posix())
    assert set(names) == KNOWN, names
