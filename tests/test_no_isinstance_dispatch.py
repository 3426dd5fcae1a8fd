"""Lint: policy dispatch must go through the registry.

The policy registry (:mod:`repro.core.registry`) is the single place
allowed to decide behaviour from a policy's type.  Everywhere else —
kernel selection, engine fallbacks, cache fingerprints, CLI construction
— consults the registered :class:`~repro.core.registry.PolicyDescriptor`
and its capability flags.  This test fails if
``isinstance(x, SomePolicy)``-style dispatch reappears outside the
registry, so the refactor cannot silently regress.

``isinstance`` checks on *non-policy* types (channels, arrival
processes, swap-bias components) are fine and not matched.
"""

from __future__ import annotations

import re
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

#: Matches isinstance(...) whose class argument names a policy type:
#: the ``*Policy`` naming convention, the generic ``DPProtocol`` family,
#: or the ``IntervalMac`` base class.
PATTERN = re.compile(
    r"isinstance\([^)]*,\s*\(?[^)]*(Policy|DPProtocol|IntervalMac)"
)

#: The one module allowed to inspect policy types.
ALLOWED = {SRC / "core" / "registry.py"}


def test_no_policy_isinstance_outside_registry():
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        if path in ALLOWED:
            continue
        for lineno, line in enumerate(
            path.read_text(encoding="utf-8").splitlines(), start=1
        ):
            if PATTERN.search(line):
                offenders.append(f"{path.relative_to(SRC)}:{lineno}: {line.strip()}")
    assert not offenders, (
        "policy-type dispatch outside repro/core/registry.py — route it "
        "through the policy registry instead:\n" + "\n".join(offenders)
    )
