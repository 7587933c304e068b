"""Volumes: host-backed writable directories mounted into containers.

HotC keeps reused containers clean by giving every container a unique
volume, wiping the old volume's contents after each run and mounting a
fresh one (Algorithm 2 / Section IV-B "Used Container Cleanup").  This
module tracks volume identity, mount state and written bytes so the
cleanup path can be tested for exactly those semantics.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

__all__ = ["Volume", "VolumeError", "VolumeStore"]


class VolumeError(RuntimeError):
    """Raised on invalid volume operations."""


@dataclass
class Volume:
    """One host directory mountable into a single container."""

    volume_id: str
    mounted_by: Optional[str] = None
    deleted: bool = False
    _files: Dict[str, float] = field(default_factory=dict, repr=False)

    @property
    def files(self) -> Tuple[str, ...]:
        """Paths currently present, sorted."""
        return tuple(sorted(self._files))

    @property
    def bytes_mb(self) -> float:
        """Total data stored (MB)."""
        return sum(self._files.values())

    def write(self, path: str, size_mb: float) -> None:
        """Write (or overwrite) a file of ``size_mb`` at ``path``."""
        self._ensure_usable()
        if self.mounted_by is None:
            raise VolumeError(f"volume {self.volume_id} is not mounted")
        if size_mb < 0:
            raise ValueError("file size must be >= 0")
        self._files[path] = size_mb

    def wipe(self) -> int:
        """Delete all files and directories; returns how many were removed."""
        self._ensure_usable()
        count = len(self._files)
        self._files.clear()
        return count

    def _ensure_usable(self) -> None:
        if self.deleted:
            raise VolumeError(f"volume {self.volume_id} was deleted")


class VolumeStore:
    """Host-level volume manager.

    Only live volumes are kept: HotC makes a fresh volume on every
    clean, so a store that remembered deleted ones would grow by one
    entry per request for the life of the host.
    """

    def __init__(self) -> None:
        self._volumes: Dict[str, Volume] = {}
        self._ids = itertools.count()

    def __len__(self) -> int:
        return len(self._volumes)

    def create(self) -> Volume:
        """Create a fresh empty volume."""
        volume = Volume(volume_id=f"vol-{next(self._ids):06d}")
        self._volumes[volume.volume_id] = volume
        return volume

    def get(self, volume_id: str) -> Volume:
        """Look up a live volume by id."""
        try:
            return self._volumes[volume_id]
        except KeyError:
            raise VolumeError(f"no such volume {volume_id!r}") from None

    def mount(self, volume: Volume, container_id: str) -> None:
        """Attach ``volume`` to a container; volumes are single-mount."""
        volume._ensure_usable()
        if volume.mounted_by is not None:
            raise VolumeError(
                f"volume {volume.volume_id} already mounted by "
                f"{volume.mounted_by}"
            )
        volume.mounted_by = container_id

    def unmount(self, volume: Volume) -> None:
        """Detach a mounted volume."""
        volume._ensure_usable()
        if volume.mounted_by is None:
            raise VolumeError(f"volume {volume.volume_id} is not mounted")
        volume.mounted_by = None

    def delete(self, volume: Volume) -> None:
        """Destroy a volume; it must be unmounted first.

        Matches the paper: "the corresponding volumes are deleted once
        the containers stop execution" — no zombie files.
        """
        volume._ensure_usable()
        if volume.mounted_by is not None:
            raise VolumeError(
                f"cannot delete mounted volume {volume.volume_id}"
            )
        volume.deleted = True
        volume._files.clear()
        self._volumes.pop(volume.volume_id, None)

    def live_volumes(self) -> Tuple[Volume, ...]:
        """All not-deleted volumes, in id order."""
        return tuple(v for _, v in sorted(self._volumes.items()))
