"""Shared experiment plumbing: sizes, design points, result helpers."""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Dict, Iterator, Optional

from repro.config import QUICK_SCALE_CLIENTS, SystemConfig
from repro.experiments.deploy import DeploymentSpec, build
from repro.experiments.driver import OpMaker, RunStats, run_closed_loop
from repro.host.handler import RequestHandler


@contextmanager
def pinned_env(name: str, value: str) -> Iterator[None]:
    """Set the environment variable ``name`` for the block, then restore
    it.  Components read their ``PMNET_*`` knobs when they are built, so
    pinning a knob around construction is the only hook."""
    previous = os.environ.get(name)
    os.environ[name] = value
    try:
        yield
    finally:
        if previous is None:
            os.environ.pop(name, None)
        else:
            os.environ[name] = previous


@dataclass(frozen=True)
class Scale:
    """How big to run an experiment.

    ``quick`` keeps unit/benchmark runs fast; ``full`` approaches the
    paper's testbed scale (64 clients).  The REPRO_FULL environment
    variable flips the default.
    """

    clients: int
    requests_per_client: int
    warmup: int

    @staticmethod
    def resolve_quick(quick: bool = True) -> bool:
        """Fold the REPRO_FULL environment override into ``quick``.

        Job specs call this once, at sweep-definition time, so a spec
        is self-contained: executing it later (possibly in a worker
        process) never re-consults the environment.
        """
        if os.environ.get("REPRO_FULL"):
            return False
        return quick

    @staticmethod
    def exact(quick: bool) -> "Scale":
        """The scale for ``quick`` with no environment override."""
        if quick:
            return Scale(clients=QUICK_SCALE_CLIENTS,
                         requests_per_client=80, warmup=8)
        return Scale(clients=64, requests_per_client=250, warmup=25)

    @staticmethod
    def pick(quick: bool = True) -> "Scale":
        return Scale.exact(Scale.resolve_quick(quick))

    def apply(self, config: SystemConfig) -> SystemConfig:
        """Size ``config`` for this scale (client count only)."""
        return config.with_clients(self.clients)


#: The paper's three design points (Sec VI-A4) as deployment specs.
DESIGN_POINTS: Dict[str, DeploymentSpec] = {
    "client-server": DeploymentSpec(placement="none"),
    "pmnet-switch": DeploymentSpec(placement="switch"),
    "pmnet-nic": DeploymentSpec(placement="nic"),
}


def run_design_point(design: str, config: SystemConfig, op_maker: OpMaker,
                     scale: Scale,
                     handler: Optional[RequestHandler] = None,
                     transport: str = "udp",
                     **spec_overrides) -> RunStats:
    """Build one design point, drive it closed-loop, return its stats."""
    spec = replace(DESIGN_POINTS[design], transport=transport,
                   **spec_overrides)
    deployment = build(spec, scale.apply(config), handler=handler)
    return run_closed_loop(deployment, op_maker,
                           requests_per_client=scale.requests_per_client,
                           warmup_requests=scale.warmup)
