"""Named registries for pluggable framework components.

The paper's framework is modular: operators swap the AI model or the
policy without touching the pipeline.  A :class:`Registry` provides the
lookup layer for that: components register under short names ("dabr",
"policy-1", ...) and configuration files refer to those names.

A registry stores *factories*, not instances, so each framework gets a
fresh component (important for stateful models and replay caches).
"""

from __future__ import annotations

from typing import Callable, Generic, Iterator, TypeVar

from repro.core.errors import ComponentNotFoundError, DuplicateComponentError

__all__ = ["Registry"]

T = TypeVar("T")


class Registry(Generic[T]):
    """A name → factory mapping for one kind of component.

    Parameters
    ----------
    kind:
        Human-readable component kind ("policy", "reputation model"),
        used in error messages.
    """

    def __init__(self, kind: str) -> None:
        self._kind = kind
        self._factories: dict[str, Callable[..., T]] = {}

    @property
    def kind(self) -> str:
        """The component kind this registry holds."""
        return self._kind

    def register(
        self,
        name: str,
        factory: Callable[..., T],
        *,
        replace: bool = False,
    ) -> None:
        """Register ``factory`` under ``name``.

        Raises :class:`DuplicateComponentError` unless ``replace=True``.
        """
        if not name:
            raise ValueError("component name must be non-empty")
        if name in self._factories and not replace:
            raise DuplicateComponentError(self._kind, name)
        self._factories[name] = factory

    def create(self, name: str, /, *args: object, **kwargs: object) -> T:
        """Instantiate the component registered under ``name``."""
        try:
            factory = self._factories[name]
        except KeyError:
            raise ComponentNotFoundError(
                self._kind, name, tuple(sorted(self._factories))
            ) from None
        return factory(*args, **kwargs)

    def names(self) -> tuple[str, ...]:
        """All registered names, sorted."""
        return tuple(sorted(self._factories))

    def __contains__(self, name: str) -> bool:
        return name in self._factories

    def __iter__(self) -> Iterator[str]:
        return iter(self.names())

    def __len__(self) -> int:
        return len(self._factories)
