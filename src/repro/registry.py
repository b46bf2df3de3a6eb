"""The one registration rule behind the protocol, probe and checker
tables: a key is non-empty and registered once, and an unknown name's
error lists the known ones."""

from __future__ import annotations

from typing import Callable, Generic, TypeVar

T = TypeVar("T")


class Registry(Generic[T]):
    """``kind`` plugins by ``key(plugin)`` in registration order."""

    def __init__(
        self, kind: str, key: Callable[[T], str], error: type[Exception]
    ) -> None:
        self.kind = kind
        self.key = key
        self.error = error
        self.table: dict[str, T] = {}

    def register(self, plugin: T) -> T:
        """Add ``plugin`` under its key; returns it (usable as a decorator)."""
        name = self.key(plugin)
        if not name:
            raise self.error(f"{self.kind} plugin {plugin!r} has no name")
        if name in self.table:
            raise self.error(f"{self.kind} {name!r} is already registered")
        self.table[name] = plugin
        return plugin

    def get(self, name: str) -> T:
        try:
            return self.table[name]
        except KeyError:
            raise self.error(
                f"unknown {self.kind} {name!r}; known: {self.names()}"
            ) from None

    def names(self) -> tuple[str, ...]:
        return tuple(self.table)

    def all(self) -> tuple[T, ...]:
        return tuple(self.table.values())
