"""Unit tests for the component registry."""

from __future__ import annotations

import pytest

from repro.core.errors import ComponentNotFoundError, DuplicateComponentError
from repro.core.registry import Registry


def test_register_and_create():
    registry: Registry[list] = Registry("thing")
    registry.register("empty", list)
    assert registry.create("empty") == []


def test_create_passes_arguments():
    registry: Registry[dict] = Registry("thing")
    registry.register("dict", dict)
    assert registry.create("dict", a=1) == {"a": 1}


def test_duplicate_rejected():
    registry: Registry[list] = Registry("thing")
    registry.register("x", list)
    with pytest.raises(DuplicateComponentError):
        registry.register("x", list)


def test_replace_allows_overwrite():
    registry: Registry[object] = Registry("thing")
    registry.register("x", list)
    registry.register("x", dict, replace=True)
    assert registry.create("x") == {}


def test_missing_component_error_lists_available():
    registry: Registry[list] = Registry("widget")
    registry.register("a", list)
    registry.register("b", list)
    with pytest.raises(ComponentNotFoundError) as excinfo:
        registry.create("c")
    assert excinfo.value.available == ("a", "b")
    assert "widget" in str(excinfo.value)


def test_empty_name_rejected():
    registry: Registry[list] = Registry("thing")
    with pytest.raises(ValueError):
        registry.register("", list)


def test_container_protocol():
    registry: Registry[list] = Registry("thing")
    registry.register("b", list)
    registry.register("a", list)
    assert "a" in registry
    assert "missing" not in registry
    assert list(registry) == ["a", "b"]
    assert len(registry) == 2
    assert registry.names() == ("a", "b")
