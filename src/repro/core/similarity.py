"""Key-similarity model for inter-key container repurposing.

Pagurus (PAPERS.md) shows an idle container warmed for one function can
be re-specialized ("zygote" sharing) into a runtime for *another*
function far cheaper than a cold boot, because the expensive parts —
the container namespaces and the base-image layers — are already in
place.  The Fig 2 Dockerfile survey quantifies how often that applies:
a handful of base images dominate the corpus, so most key pairs share
a long layer prefix.

This module scores a (donor, target) configuration pair and maps the
score to a deterministic re-spec cost expressed as a fraction of the
target's cold boot.  Everything here is pure arithmetic over frozen
configs — no RNG, no sim events — so the lookup can never perturb a
run that ends up taking the cold-boot path anyway.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.containers.container import ContainerConfig
from repro.containers.image import shared_layer_prefix

__all__ = ["KeySimilarityModel"]

#: Weights of the image, network and memory affinities in the score
#: (they sum to 1).
IMAGE_WEIGHT = 0.6
NETWORK_WEIGHT = 0.25
MEMORY_WEIGHT = 0.15
#: Cold-boot fractions a re-spec costs at score 1 and at score 0.
MIN_FRACTION = 0.08
MAX_FRACTION = 0.85


class KeySimilarityModel:
    """Scores config pairs and prices the re-spec of a donor container.

    The score is a weighted blend of three affinities, each in [0, 1]:

    * **image** — 1.0 for the same reference; otherwise the compressed
      fraction of the target image already present in the donor's
      shared layer prefix (0.0 when either image is unknown to the
      registry, which vetoes cross-image repurposing rather than
      guessing).
    * **network** — 1.0 when the network modes match (the namespace is
      reusable as-is), else 0.0 (tearing down and re-plumbing the
      namespace erases most of the savings).
    * **memory** — ``1 - |Δmem| / max(mem)``: resizing a cgroup is
      cheap, but a large delta signals a very different workload class.

    ``respec_fraction`` maps the score linearly onto
    ``[MIN_FRACTION, MAX_FRACTION]`` of the cold boot: a perfect donor
    still pays ``MIN_FRACTION`` (config delta + code injection + app
    re-init), a barely-acceptable one approaches ``MAX_FRACTION``.
    """

    def __init__(self, registry=None) -> None:
        self.registry = registry
        self._image_affinity: Dict[Tuple[str, str], float] = {}

    # -- component affinities ---------------------------------------------
    def image_affinity(self, donor_image: str, target_image: str) -> float:
        """Fraction of the target image the donor already holds."""
        if donor_image == target_image:
            return 1.0
        cache_key = (donor_image, target_image)
        cached = self._image_affinity.get(cache_key)
        if cached is not None:
            return cached
        affinity = self._compute_image_affinity(donor_image, target_image)
        self._image_affinity[cache_key] = affinity
        return affinity

    def _compute_image_affinity(self, donor_image: str, target_image: str) -> float:
        if self.registry is None:
            return 0.0
        try:
            donor = self.registry.resolve(donor_image)
            target = self.registry.resolve(target_image)
        except Exception:
            return 0.0
        if target.compressed_mb <= 0:
            return 0.0
        shared = shared_layer_prefix(donor, target)
        shared_mb = sum(layer.compressed_mb for layer in shared)
        return min(1.0, shared_mb / target.compressed_mb)

    @staticmethod
    def memory_affinity(donor_mb: float, target_mb: float) -> float:
        """``1 - |Δmem| / max(mem)``, clamped to [0, 1]."""
        biggest = max(donor_mb, target_mb)
        if biggest <= 0:
            return 1.0
        return max(0.0, 1.0 - abs(donor_mb - target_mb) / biggest)

    # -- the model ---------------------------------------------------------
    def score(self, donor: ContainerConfig, target: ContainerConfig) -> float:
        """Similarity of a donor config to the requested one, in [0, 1]."""
        return (
            IMAGE_WEIGHT * self.image_affinity(donor.image, target.image)
            + NETWORK_WEIGHT
            * (1.0 if donor.network.mode == target.network.mode else 0.0)
            + MEMORY_WEIGHT * self.memory_affinity(donor.mem_mb, target.mem_mb)
        )

    def respec_fraction(self, score: float) -> float:
        """Cold-boot fraction charged to re-spec a donor of ``score``."""
        if not 0 <= score <= 1:
            raise ValueError("score must be in [0, 1]")
        return MIN_FRACTION + (MAX_FRACTION - MIN_FRACTION) * (1.0 - score)

    def respec_cost_ms(
        self, score: float, cold_boot_ms: float
    ) -> Optional[float]:
        """Deterministic re-spec cost (ms), or ``None`` if pointless.

        Returns ``None`` when the priced re-spec would not beat the
        cold boot it is meant to avoid.
        """
        cost = self.respec_fraction(score) * cold_boot_ms
        if cost >= cold_boot_ms:
            return None
        return cost
