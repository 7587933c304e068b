"""The paper's contribution: HotC.

- :mod:`repro.core.keys` — parameter analysis: user command /
  configuration → canonical runtime key (Section IV-B).
- :mod:`repro.core.pool` — the live container runtime pool with the
  three-state availability machine of Fig 7 and the eviction heuristics.
- :mod:`repro.core.cleanup` — used-container cleanup (Algorithm 2).
- :mod:`repro.core.predictor` — adaptive live container management:
  exponential smoothing (Eq 1) + Markov chain correction (Eq 2).
- :mod:`repro.core.policies` — baseline keep-alive policies HotC is
  compared against (no reuse, AWS-style fixed keep-alive, Azure-style
  periodic warm-up, histogram keep-alive).
- :mod:`repro.core.hotc` — the middleware tying everything together.
"""

from repro.core.breaker import CircuitBreaker
from repro.core.keys import KeyPolicy, RuntimeKey, parse_run_command, runtime_key
from repro.core.pool import ContainerRuntimePool, PoolEntry, PoolLimits, PoolStats
from repro.core.cleanup import CleanupWorker
from repro.core.cluster import (
    ClusterHotC,
    ClusterStats,
    make_cluster_engines,
    make_cluster_platform,
)
from repro.core.hotc import HotC, HotCConfig
from repro.core.policies import (
    FixedKeepAliveProvider,
    HistogramKeepAliveProvider,
    NoReuseProvider,
    PeriodicWarmupProvider,
)
from repro.core.predictor import (
    AdaptivePoolController,
    CombinedPredictor,
    ExponentialSmoothing,
    MarkovChain,
)
from repro.core.similarity import KeySimilarityModel

__all__ = [
    "AdaptivePoolController",
    "CircuitBreaker",
    "CleanupWorker",
    "ClusterHotC",
    "ClusterStats",
    "CombinedPredictor",
    "ContainerRuntimePool",
    "make_cluster_engines",
    "make_cluster_platform",
    "ExponentialSmoothing",
    "FixedKeepAliveProvider",
    "HistogramKeepAliveProvider",
    "HotC",
    "HotCConfig",
    "KeyPolicy",
    "KeySimilarityModel",
    "MarkovChain",
    "NoReuseProvider",
    "PeriodicWarmupProvider",
    "PoolEntry",
    "PoolLimits",
    "PoolStats",
    "RuntimeKey",
    "parse_run_command",
    "runtime_key",
]
