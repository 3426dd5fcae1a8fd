"""Whether numba is importable, for environment reports.

The batch kernels run on NumPy alone; nothing in the package imports
numba.  ``HAS_NUMBA`` only records whether the host could (it is looked
up, not imported).
"""

from __future__ import annotations

from importlib.util import find_spec

__all__ = ["HAS_NUMBA"]

HAS_NUMBA = find_spec("numba") is not None
