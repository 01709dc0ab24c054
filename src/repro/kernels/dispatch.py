"""Kernel backend registry: numpy by default, the scalar reference by request.

This is the same path-dispatch discipline the store (JSONL vs SQLite) and
the spatial index (grid vs kdtree) use, applied to the compute kernels:

* ``numpy`` — the zero-dependency default; vectorised implementations of
  every kernel (registered by :mod:`repro.kernels.ops`).
* ``reference`` — the extracted scalar loops the numpy kernels were hoisted
  from.  Slow on purpose: it is the byte-identity certificate baseline the
  property suites compare every other backend against.

Further backends register through :func:`register_backend`; one may
implement only the kernels it accelerates — missing entries fall back to
numpy.

Selection order: an explicit ``backend=`` argument on any kernel call, else
the process override installed by :func:`set_backend` / :func:`use_backend`,
else the ``REPRO_KERNEL_BACKEND`` environment variable, else ``numpy``.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, Mapping, Optional, Tuple, Union

__all__ = [
    "KERNEL_NAMES",
    "KernelBackend",
    "register_backend",
    "registered_backend_names",
    "default_backend_name",
    "get_backend",
    "set_backend",
    "use_backend",
]

#: Environment variable consulted when no explicit backend is requested.
ENV_VAR = "REPRO_KERNEL_BACKEND"

#: The closed kernel vocabulary.  A backend may implement any subset;
#: registering an unknown kernel name is an error (it would silently never
#: be dispatched to).
KERNEL_NAMES: Tuple[str, ...] = (
    "cell_gather",
    "within_ball_mask",
    "count_in_balls",
    "pair_candidates",
    "splice_edges",
    "incident_edge_keys",
    "splice_edge_keys",
    "step_events",
)


@dataclass(frozen=True)
class KernelBackend:
    """A named set of kernel implementations (possibly partial)."""

    name: str
    kernels: Mapping[str, Callable[..., Any]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        unknown = set(self.kernels) - set(KERNEL_NAMES)
        if unknown:
            raise ValueError(
                f"backend {self.name!r} registers unknown kernels: {sorted(unknown)}"
            )


_FACTORIES: Dict[str, Callable[[], KernelBackend]] = {}
_INSTANCES: Dict[str, KernelBackend] = {}
_OVERRIDE: Optional[str] = None


def register_backend(name: str, factory: Callable[[], KernelBackend]) -> None:
    """Register a backend factory under ``name`` (instantiated on first use)."""
    _FACTORIES[name] = factory
    _INSTANCES.pop(name, None)


def registered_backend_names() -> Tuple[str, ...]:
    """Every registered backend name, sorted."""
    _ensure_builtin()
    return tuple(sorted(_FACTORIES))


def default_backend_name() -> str:
    """The backend used when no explicit argument is given."""
    if _OVERRIDE is not None:
        return _OVERRIDE
    return os.environ.get(ENV_VAR, "") or "numpy"


def get_backend(spec: Union[str, KernelBackend, None] = None) -> KernelBackend:
    """Resolve ``spec`` to a backend instance.

    ``None`` resolves through :func:`default_backend_name`; a string looks
    up the registry (importing the backend's dependencies on first use); a
    :class:`KernelBackend` passes through.  Partial backends are completed
    with the numpy implementations at instantiation time, so every returned
    instance answers the full :data:`KERNEL_NAMES` vocabulary.
    """
    if isinstance(spec, KernelBackend):
        return spec
    _ensure_builtin()
    name = default_backend_name() if spec is None else spec
    cached = _INSTANCES.get(name)
    if cached is not None:
        return cached
    factory = _FACTORIES.get(name)
    if factory is None:
        raise ValueError(
            f"unknown kernel backend {name!r}; registered: "
            f"{', '.join(sorted(_FACTORIES))}"
        )
    try:
        backend = factory()
    except ImportError as exc:
        raise ImportError(
            f"kernel backend {name!r} is registered but its dependencies "
            f"failed to import ({exc}); install them or unset {ENV_VAR}"
        ) from exc
    if backend.name != "numpy":
        base = get_backend("numpy").kernels
        merged = {**base, **backend.kernels}
        backend = KernelBackend(name=backend.name, kernels=merged)
    missing = set(KERNEL_NAMES) - set(backend.kernels)
    if missing:
        raise ValueError(
            f"backend {name!r} leaves kernels unimplemented: {sorted(missing)}"
        )
    _INSTANCES[name] = backend
    return backend


def set_backend(name: Optional[str]) -> None:
    """Install (or with ``None`` clear) the process-wide backend override."""
    global _OVERRIDE
    if name is not None:
        get_backend(name)  # fail fast on unknown/uninstallable backends
    _OVERRIDE = name


@contextmanager
def use_backend(name: str) -> Iterator[KernelBackend]:
    """Temporarily route every kernel call through backend ``name``."""
    global _OVERRIDE
    previous = _OVERRIDE
    backend = get_backend(name)
    _OVERRIDE = name
    try:
        yield backend
    finally:
        _OVERRIDE = previous


_BUILTIN_WIRED = False


def _ensure_builtin() -> None:
    """Wire the built-in backends on first registry access.

    The numpy/reference implementations live in :mod:`repro.kernels.ops`
    (imported lazily here to keep the module graph acyclic).
    """
    global _BUILTIN_WIRED
    if _BUILTIN_WIRED:
        return
    _BUILTIN_WIRED = True
    from repro.kernels import ops  # noqa: F401  (registers numpy + reference)
