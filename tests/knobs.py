"""Pin the ``PMNET_*`` knobs for a block of test code.

Components read ``PMNET_FOLD``, ``PMNET_KERNEL`` and
``PMNET_KERNEL_HORIZON`` when they are built, so the identity suites
build each deployment inside :func:`pinned`.  The helper checks that
:mod:`repro.config` resolves each knob to the requested value before
the block runs: a comparison whose sides silently resolve to the same
mode would pass while proving nothing.
"""

from __future__ import annotations

from contextlib import ExitStack, contextmanager
from typing import Optional

from repro.config import fold_level, kernel_backend, kernel_horizon_ns
from repro.experiments.common import pinned_env

#: The fold level each accepted ``PMNET_FOLD`` name must resolve to.
FOLD_LEVEL_OF = {"none": 0, "whole": 2}


@contextmanager
def pinned(fold: Optional[str] = None, kernel: Optional[str] = None,
           horizon: Optional[int] = None):
    """Set the given knobs for the block and restore them afterwards,
    also when the block fails.  ``None`` leaves a knob as it is."""
    with ExitStack() as stack:
        if fold is not None:
            stack.enter_context(pinned_env("PMNET_FOLD", fold))
            assert fold_level() == FOLD_LEVEL_OF[fold], (
                f"PMNET_FOLD={fold!r} resolved to level {fold_level()}")
        if kernel is not None:
            stack.enter_context(pinned_env("PMNET_KERNEL", kernel))
            assert kernel_backend() == kernel, (
                f"PMNET_KERNEL={kernel!r} resolved to {kernel_backend()!r}")
        if horizon is not None:
            stack.enter_context(
                pinned_env("PMNET_KERNEL_HORIZON", str(horizon)))
            assert kernel_horizon_ns() == horizon
        yield
