"""Canonical byte encoding for signing and digesting.

Signatures and digests must cover a deterministic byte string.
:func:`encode_canonical` maps the message dataclasses (and plain
containers) to a stable, injective-enough encoding, and this docstring
is the one place its format is written down:

* JSON text, ASCII only, with sorted keys and no whitespace
  (``json.dumps(..., sort_keys=True, separators=(",", ":"))``);
* a dataclass is an object of its fields plus ``"__dc__"``: its class
  name;
* a ``bytes`` value is ``{"__bytes__": "<hex>"}``;
* lists and tuples are arrays; dict keys must be ``str`` or ``int``
  (ints become their decimal string);
* floats follow ``json.dumps(allow_nan=True)``: ``repr`` for finite
  values, ``NaN`` / ``Infinity`` / ``-Infinity`` for the specials.

Two structurally different messages therefore never encode equally,
and the encoding of a message never changes across runs or platforms.
The test suite keeps a slow recursive rendering of this format as the
oracle the encoder is compared against, byte for byte.

How the encoder is fast, and why its shortcuts can be trusted:

* **one compiled encoder per class** — the first time a dataclass is
  encoded, :func:`_compile` generates a function for it, the way
  :mod:`dataclasses` generates ``__init__``: the sorted-key skeleton
  becomes string literals, and each field is read and type-tested in
  straight-line code (``int``, ``str`` and ``bytes`` inline, anything
  else through one lookup in a table of per-type encoders);
* **a local memo** — the finished fragment of a *frozen* dataclass is
  cached on the instance, so the hot-path pattern (sign, countersign,
  then verify the same message object, and embed it in acks) encodes
  each object once.  Only this encoder writes the memo, in this
  process: a wire message (:class:`FieldsOnly`) pickles as its fields
  and refuses any other pickled state, so a memo never arrives in a
  frame and a receiver always encodes what it was actually sent.

The memo is only written for frozen dataclasses whose entire subtree is
immutable (scalars, ``bytes``, tuples, and other frozen dataclasses); a
``list``/``dict``/mutable-dataclass anywhere beneath an object keeps
that object uncached, so mutating such a value can never yield stale
bytes.  Structurally equal but distinct objects produce identical
fragments — the cache is an encoding accelerator, never an input to it.
"""

from __future__ import annotations

import dataclasses
import operator
from json.encoder import encode_basestring_ascii as _escape
from typing import Any, Callable

from repro.errors import CryptoError

#: Instance attribute carrying a frozen dataclass's memoised fragment.
_MEMO_ATTR = "_canon_fragment_"

_INF = float("inf")

#: An encoder maps a value to ``(fragment, pure)``; ``pure`` is True
#: when the value's whole subtree is immutable.
Encoder = Callable[[Any], "tuple[str, bool]"]


def _float_str(value: float) -> str:
    # Match json.dumps(allow_nan=True): repr for finite floats, the
    # JavaScript constants for the specials.
    if value != value:
        return "NaN"
    if value == _INF:
        return "Infinity"
    if value == -_INF:
        return "-Infinity"
    return float.__repr__(value)


def _fragment(value: Any) -> tuple[str, bool]:
    """``value``'s canonical text and whether its subtree is immutable."""
    cls = value.__class__
    return (_ENCODERS.get(cls) or _resolve(cls))(value)


def _items(items, pure: bool) -> tuple[str, bool]:
    get = _ENCODERS.get
    parts = []
    for item in items:
        encoder = get(item.__class__) or _resolve(item.__class__)
        text, item_pure = encoder(item)
        parts.append(text)
        if not item_pure:
            pure = False
    return "[" + ",".join(parts) + "]", pure


def _dict(mapping: dict) -> tuple[str, bool]:
    if all(type(key) is str for key in mapping):
        items = sorted(mapping.items())
    else:
        converted: dict[str, Any] = {}
        for key, item in mapping.items():
            if not isinstance(key, (str, int)):
                raise CryptoError(f"unencodable dict key type {type(key).__name__}")
            converted[str(key)] = item
        items = sorted(converted.items())
    get = _ENCODERS.get
    parts = []
    for key, item in items:
        encoder = get(item.__class__) or _resolve(item.__class__)
        parts.append(_escape(key) + ":" + encoder(item)[0])
    return "{" + ",".join(parts) + "}", False


def _bytes(value: bytes) -> tuple[str, bool]:
    return '{"__bytes__":"' + value.hex() + '"}', True


#: Exact type -> encoder.  The builtins are fixed; a dataclass gains its
#: compiled encoder and any other type its fallback on first use.
_ENCODERS: dict[type, Encoder] = {
    int: lambda v: (int.__repr__(v), True),
    str: lambda v: (_escape(v), True),
    bytes: _bytes,
    float: lambda v: (_float_str(v), True),
    bool: lambda v: ("true" if v else "false", True),
    type(None): lambda v: ("null", True),
    tuple: lambda v: _items(v, True),
    list: lambda v: _items(v, False),
    dict: _dict,
}


def _resolve(cls: type) -> Encoder:
    """The encoder for a type not in the table yet (then cached)."""
    if dataclasses.is_dataclass(cls):
        encoder = _compile(cls)
    else:
        encoder = _builtin_subclass
    _ENCODERS[cls] = encoder
    return encoder


def _builtin_subclass(value: Any) -> tuple[str, bool]:
    """Subclasses of the builtin types take the reference's isinstance
    order: bytes, arrays, dicts, bool before int, then float and str."""
    if isinstance(value, bytes):
        return _bytes(value)
    if isinstance(value, tuple):
        return _items(value, True)
    if isinstance(value, list):
        return _items(value, False)
    if isinstance(value, dict):
        return _dict(value)
    if isinstance(value, bool):
        return ("true" if value else "false"), True
    if isinstance(value, int):
        return int.__repr__(value), True
    if isinstance(value, float):
        return _float_str(value), True
    if isinstance(value, str):
        return _escape(value), True
    raise CryptoError(f"unencodable value of type {type(value).__name__}")


def _compile(cls: type) -> Encoder:
    """Generate the straight-line encoder of one dataclass type."""
    names = [f.name for f in dataclasses.fields(cls)]
    frozen = bool(cls.__dataclass_params__.frozen)
    memo = frozen and cls.__dictoffset__ != 0
    lines = ["def encode(v):"]
    if memo:
        lines += [
            "    d = v.__dict__",
            "    m = d.get(_MEMO)",
            "    if m is not None:",
            "        return m, True",
        ]
    lines.append(f"    pure = {frozen}")
    pieces = []
    literal = "{"
    for i, key in enumerate(sorted(["__dc__", *names])):
        if i:
            literal += ","
        literal += _escape(key) + ":"
        if key == "__dc__":
            literal += _escape(cls.__name__)
            continue
        pieces.append(repr(literal))
        literal = ""
        var = f"s{len(pieces)}"
        pieces.append(var)
        lines += [
            f"    x = v.{key}",
            "    t = x.__class__",
            "    if t is int:",
            f"        {var} = int.__repr__(x)",
            "    elif t is str:",
            f"        {var} = _escape(x)",
            "    elif t is bytes:",
            f"        {var} = '{{\"__bytes__\":\"' + x.hex() + '\"}}'",
            "    else:",
            f"        {var}, p = (_get(t) or _resolve(t))(x)",
            "        if not p:",
            "            pure = False",
        ]
    pieces.append(repr(literal + "}"))
    lines.append("    text = " + " + ".join(pieces))
    if memo:
        lines += ["    if pure:", "        d[_MEMO] = text"]
    lines.append("    return text, pure")
    scope = {
        "_get": _ENCODERS.get,
        "_resolve": _resolve,
        "_escape": _escape,
        "_MEMO": _MEMO_ATTR,
    }
    exec("\n".join(lines), scope)  # noqa: S102 - generated from field names
    encode = scope["encode"]
    encode.__qualname__ = f"encode_{cls.__name__}"
    return encode


def encode_canonical(value: Any) -> bytes:
    """Deterministic canonical bytes of ``value`` (format: module docstring).

    >>> encode_canonical({"b": 1, "a": 2})
    b'{"a":2,"b":1}'
    """
    return _fragment(value)[0].encode("ascii")


def memoized_fragment(value: Any) -> str | None:
    """``value``'s cached fragment, or None.

    A non-None return is the encoder's certificate that ``value`` is a
    frozen dataclass over a deeply immutable subtree — callers use it
    to decide whether *their* caches keyed on the object can never go
    stale (see ``repro.crypto.signed``).
    """
    d = getattr(value, "__dict__", None)
    if d is None:
        return None
    fragment = d.get(_MEMO_ATTR)
    return fragment if type(fragment) is str else None


def strip_memo(value: Any) -> None:
    """Recursively delete cached fragments from an object graph.

    Benchmark support: measuring the cold encoder requires an actually
    cold object.
    """
    t = value.__class__
    if t is tuple or t is list:
        for item in value:
            strip_memo(item)
    elif t is dict:
        for item in value.values():
            strip_memo(item)
    elif dataclasses.is_dataclass(t):
        getattr(value, "__dict__", {}).pop(_MEMO_ATTR, None)
        for name in _field_names(t):
            strip_memo(getattr(value, name))
    elif isinstance(value, (tuple, list)):
        for item in value:
            strip_memo(item)
    elif isinstance(value, dict):
        for item in value.values():
            strip_memo(item)


_FIELD_NAMES: dict[type, tuple[str, ...]] = {}


def _field_names(cls: type) -> tuple[str, ...]:
    names = _FIELD_NAMES.get(cls)
    if names is None:
        names = _FIELD_NAMES[cls] = tuple(f.name for f in dataclasses.fields(cls))
    return names


# ----------------------------------------------------------------------
# The wire form: fields only
# ----------------------------------------------------------------------
#: Per class: a function returning an instance's field values, in order.
_FIELD_GETTERS: dict[type, Callable[[Any], tuple]] = {}


class FieldsOnly:
    """Base of every wire message: its fields are its one representation.

    Pickling — a wire frame, a deep copy — ships the constructor
    arguments and nothing else, so what an instance caches about itself
    (the encoder's memo, a digest, a size) stays in the process that
    computed it.  Unpickling refuses any extra state, so a frame cannot
    plant such a cache either: a receiver re-derives everything a
    signature or digest covers from the fields it was sent.
    """

    __slots__ = ()

    def __reduce__(self):
        cls = self.__class__
        fields = _FIELD_GETTERS.get(cls)
        if fields is None:
            names = _field_names(cls)
            # attrgetter of several names returns their tuple, in C.
            fields = _FIELD_GETTERS[cls] = (
                operator.attrgetter(*names) if len(names) > 1
                else lambda obj: tuple([getattr(obj, name) for name in names])
            )
        return cls, fields(self)

    def __setstate__(self, state: Any) -> None:
        raise TypeError(
            f"{type(self).__name__} is rebuilt from its fields alone; "
            f"refusing pickled state"
        )
