"""Run the DP kernel on a chosen priority-state path.

``BatchDPKernel`` picks its dense or incremental path from the network
it binds.  The identity tests need both paths on one input, so they
set the kernel's private ``_force_dp_state`` hook for the duration of a
``with`` block.  The hook is one class attribute for the whole
process: bind simulators inside the block on one thread, then run them
anywhere.
"""

from __future__ import annotations

import contextlib
from typing import Iterator, Optional

from repro.sim.batch_kernels import BatchDPKernel


@contextlib.contextmanager
def dp_path(path: Optional[str]) -> Iterator[None]:
    """Bind DP kernels on ``path`` (``"dense"``/``"incremental"``) inside
    the block; ``None`` leaves the choice to the kernel's shape rule."""
    assert path in (None, "dense", "incremental"), path
    saved = BatchDPKernel._force_dp_state
    BatchDPKernel._force_dp_state = path
    try:
        yield
    finally:
        BatchDPKernel._force_dp_state = saved
