"""Function specifications: the deployable unit of the platform.

A :class:`FunctionSpec` bundles what the user would put in an OpenFaaS
stack file: the image, handler cost profile, and the container runtime
parameters that HotC's parameter analysis extracts.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Callable, Optional, Tuple

from repro.containers.container import ContainerConfig, ExecSpec
from repro.containers.network import NetworkConfig

__all__ = ["FunctionSpec"]


@dataclass(frozen=True)
class FunctionSpec:
    """A deployed serverless function.

    Parameters
    ----------
    name:
        Unique function name (routing key at the gateway).
    image:
        Container image reference providing the runtime.
    language:
        Language runtime key; must match the image's language when the
        image declares one.
    exec_ms:
        Warm business-logic time on the reference host.
    app_init_ms:
        One-time business-logic initialisation (e.g. model load).
    write_mb:
        Output written to the container volume per invocation.
    network / uts_mode / ipc_mode / env / exec_options:
        Container runtime parameters — together with the image these
        form the HotC runtime key.
    cpu_millicores / mem_mb:
        Resource limits per executing request.
    payload:
        Optional real computation run at exec time.
    qos:
        Quality-of-service class: ``"standard"`` requests are shed first
        under brownout; ``"critical"`` requests are admitted as long as
        any capacity remains.
    deadline_ms:
        Relative per-request deadline applied at admission (``None``
        falls back to the admission controller's default).  Requests
        that cannot finish by ``t0 + deadline_ms`` are terminated with
        :class:`~repro.faas.tracing.RequestOutcome.DEADLINE`.
    """

    QOS_CLASSES = ("critical", "standard")

    name: str
    image: str
    language: str = "python"
    exec_ms: float = 100.0
    app_init_ms: float = 0.0
    write_mb: float = 0.0
    network: NetworkConfig = field(default_factory=NetworkConfig)
    uts_mode: str = "private"
    ipc_mode: str = "private"
    env: Tuple[Tuple[str, str], ...] = ()
    exec_options: Tuple[str, ...] = ()
    cpu_millicores: float = 250.0
    mem_mb: float = 128.0
    payload: Optional[Callable[[], Any]] = None
    qos: str = "standard"
    deadline_ms: Optional[float] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("function name must be non-empty")
        if self.exec_ms < 0 or self.app_init_ms < 0:
            raise ValueError("cost fields must be >= 0")
        if self.qos not in self.QOS_CLASSES:
            raise ValueError(
                f"qos must be one of {self.QOS_CLASSES}, got {self.qos!r}"
            )
        if self.deadline_ms is not None and self.deadline_ms <= 0:
            raise ValueError("deadline_ms must be > 0 (or None)")

    def container_config(self) -> ContainerConfig:
        """The container runtime environment this function needs.

        Built on first use and kept on the (frozen) spec, so every
        request of the function hands the provider the same config
        object and reuses the runtime key memoized on it
        (:func:`repro.core.keys.runtime_key`).
        """
        config = self.__dict__.get("_container_config")
        if config is None:
            config = ContainerConfig(
                image=self.image,
                network=self.network,
                uts_mode=self.uts_mode,
                ipc_mode=self.ipc_mode,
                env=self.env,
                exec_options=self.exec_options,
                cpu_millicores=self.cpu_millicores,
                mem_mb=self.mem_mb,
            )
            object.__setattr__(self, "_container_config", config)
        return config

    def exec_spec(self) -> ExecSpec:
        """The work one invocation performs inside a container (built
        once per spec, like :meth:`container_config`)."""
        spec = self.__dict__.get("_exec_spec")
        if spec is None:
            spec = ExecSpec(
                app_id=self.name,
                language=self.language,
                exec_ms=self.exec_ms,
                app_init_ms=self.app_init_ms,
                write_mb=self.write_mb,
                payload=self.payload,
            )
            object.__setattr__(self, "_exec_spec", spec)
        return spec

    def with_overrides(self, **changes) -> "FunctionSpec":
        """A copy with some fields replaced (convenience for sweeps)."""
        return replace(self, **changes)
