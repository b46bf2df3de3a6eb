"""The one registration rule every plugin table shares."""

from dataclasses import dataclass

import pytest

from repro.registry import Registry


class WidgetError(Exception):
    pass


@dataclass(frozen=True)
class Widget:
    name: str


@pytest.fixture
def widgets():
    return Registry("widget", lambda widget: widget.name, WidgetError)


def test_register_returns_its_argument(widgets):
    widget = Widget("a")
    assert widgets.register(widget) is widget
    assert widgets.get("a") is widget


def test_empty_key_is_refused(widgets):
    with pytest.raises(WidgetError, match="has no name"):
        widgets.register(Widget(""))
    assert widgets.table == {}


def test_duplicate_key_is_refused(widgets):
    first = widgets.register(Widget("a"))
    with pytest.raises(WidgetError, match="widget 'a' is already registered"):
        widgets.register(Widget("a"))
    assert widgets.get("a") is first


def test_registration_order_is_kept(widgets):
    for name in ("c", "a", "b"):
        widgets.register(Widget(name))
    assert widgets.names() == ("c", "a", "b")
    assert [w.name for w in widgets.all()] == ["c", "a", "b"]
    assert list(widgets.table) == ["c", "a", "b"]


def test_unknown_name_lists_the_known_ones_in_order(widgets):
    widgets.register(Widget("b"))
    widgets.register(Widget("a"))
    with pytest.raises(WidgetError) as err:
        widgets.get("z")
    assert str(err.value) == "unknown widget 'z'; known: ('b', 'a')"
