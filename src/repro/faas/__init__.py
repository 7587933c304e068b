"""OpenFaaS-like serverless platform substrate.

Reproduces the request pipeline of Section III / Fig 5: clients send
requests to a :class:`~repro.faas.gateway.Gateway`, which proxies them
to a per-function :class:`~repro.faas.watchdog.Watchdog` that executes
the user handler inside a container.  Six moments are timestamped per
request (:mod:`repro.faas.tracing`) so the cold-start breakdown can be
reproduced exactly.

Container acquisition is pluggable through the
:class:`~repro.faas.platform.RuntimeProvider` protocol — the HotC
middleware and all baseline keep-alive policies implement it.
"""

from repro.faas.tracing import RequestOutcome, RequestTrace, TraceCollector
from repro.faas.function import FunctionSpec
from repro.faas.platform import (
    ColdBootProvider,
    FaasPlatform,
    RuntimeProvider,
)
from repro.faas.gateway import Gateway
from repro.faas.watchdog import Watchdog

__all__ = [
    "ColdBootProvider",
    "FaasPlatform",
    "FunctionSpec",
    "Gateway",
    "RequestOutcome",
    "RequestTrace",
    "RuntimeProvider",
    "TraceCollector",
    "Watchdog",
]
