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

Three ideas make the encoder fast:

* **single pass** — fragments are emitted straight into an output list
  by an explicit work stack; there is no intermediate tree and no
  recursion;
* **per-class plans** — the sorted-key layout of a dataclass (the
  ``{"__dc__": ...`` skeleton) is computed once per class and replayed
  as precomputed literals;
* **identity memo** — the finished fragment of a *frozen* dataclass is
  cached on the instance itself, so the dominant hot-path pattern
  (sign, countersign, then verify the same message object at several
  receivers) encodes each object exactly once.

The memo is only written for frozen dataclasses whose entire subtree is
immutable (scalars, ``bytes``, tuples, and other frozen dataclasses); a
``list``/``dict``/mutable-dataclass anywhere beneath an object keeps
that object uncached, so mutating such a value can never yield stale
bytes.  Structurally equal but distinct objects produce identical
fragments — the cache is an encoding accelerator, never an input to it.
"""

from __future__ import annotations

import dataclasses
from json.encoder import encode_basestring_ascii as _escape
from typing import Any

from repro.errors import CryptoError

#: Instance attribute carrying a frozen dataclass's memoised fragment.
_MEMO_ATTR = "_canon_fragment_"

_INF = float("inf")

# Work-stack opcodes: emit a literal, encode a value, close a memo frame.
_LIT = 0
_VAL = 1
_END = 2

#: Per-class emission plans: ``cls -> (parts, frozen)`` where ``parts``
#: is a tuple of ``(literal, field_name | None)`` — the literal goes out
#: first, then (when named) the field's encoded value.
_PLANS: dict[type, tuple[tuple[tuple[str, str | None], ...], bool]] = {}


def _build_plan(cls: type) -> tuple[tuple[tuple[str, str | None], ...], bool]:
    """Precompute the sorted-key skeleton of one dataclass type."""
    field_names = [f.name for f in dataclasses.fields(cls)]
    keys = sorted(["__dc__", *field_names])
    parts: list[tuple[str, str | None]] = []
    literal = "{"
    for i, key in enumerate(keys):
        if i:
            literal += ","
        literal += _escape(key) + ":"
        if key == "__dc__":
            literal += _escape(cls.__name__)
        else:
            parts.append((literal, key))
            literal = ""
    parts.append((literal + "}", None))
    plan = (tuple(parts), bool(cls.__dataclass_params__.frozen))
    _PLANS[cls] = plan
    return plan


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


def canonical_fragment(value: Any) -> str:
    """The canonical JSON text of ``value`` (ASCII, sorted keys)."""
    out: list[str] = []
    append = out.append
    stack: list[tuple[int, Any]] = [(_VAL, value)]
    pop = stack.pop
    push = stack.append
    # Open memo frames: [start index in ``out``, still-pure flag, obj].
    frames: list[list] = []

    while stack:
        op, v = pop()
        if op == _LIT:
            append(v)
            continue
        if op == _END:
            start, pure, obj = frames.pop()
            if pure:
                fragment = "".join(out[start:])
                del out[start:]
                append(fragment)
                try:
                    object.__setattr__(obj, _MEMO_ATTR, fragment)
                except (AttributeError, TypeError):
                    pass  # __slots__ etc.: just skip the memo
            elif frames:
                frames[-1][1] = False  # impurity propagates outward
            continue

        t = v.__class__
        if t is int:
            append(int.__repr__(v))
        elif t is str:
            append(_escape(v))
        elif t is bytes:
            append('{"__bytes__":"' + v.hex() + '"}')
        elif t is float:
            append(_float_str(v))
        elif t is bool:
            append("true" if v else "false")
        elif v is None:
            append("null")
        elif t is tuple:
            _push_array(v, push)
        elif t is list:
            if frames:
                frames[-1][1] = False
            _push_array(v, push)
        elif t is dict:
            if frames:
                frames[-1][1] = False
            _push_dict(v, push)
        else:
            fragment = getattr(v, _MEMO_ATTR, None)
            if fragment is not None and type(fragment) is str:
                append(fragment)
            else:
                _encode_other(v, out, push, frames)
    return "".join(out)


def _push_array(items, push) -> None:
    n = len(items)
    if n == 0:
        push((_LIT, "[]"))
        return
    push((_LIT, "]"))
    for i in range(n - 1, -1, -1):
        push((_VAL, items[i]))
        if i:
            push((_LIT, ","))
    push((_LIT, "["))


def _push_dict(mapping: dict, push) -> None:
    converted: dict[str, Any] = {}
    for key, item in mapping.items():
        if not isinstance(key, (str, int)):
            raise CryptoError(f"unencodable dict key type {type(key).__name__}")
        converted[str(key)] = item
    items = sorted(converted.items())
    n = len(items)
    if n == 0:
        push((_LIT, "{}"))
        return
    push((_LIT, "}"))
    for i in range(n - 1, -1, -1):
        key, item = items[i]
        push((_VAL, item))
        literal = _escape(key) + ":"
        if i:
            literal = "," + literal
        push((_LIT, literal))
    push((_LIT, "{"))


def _encode_other(v: Any, out: list, push, frames) -> None:
    """Dataclasses, builtin subclasses, and the unencodable."""
    if dataclasses.is_dataclass(v) and not isinstance(v, type):
        t = v.__class__
        plan = _PLANS.get(t)
        if plan is None:
            plan = _build_plan(t)
        parts, frozen = plan
        if frozen:
            # Flat fast path: a frozen dataclass whose field values are
            # all scalars (the dominant leaf shapes — requests, order
            # entries, acks) is a straight-line join, no work stack or
            # memo frame needed.  Falls through on the first composite
            # field value.
            buf: list[str] = []
            flat = True
            for literal, field_name in parts:
                buf.append(literal)
                if field_name is None:
                    continue
                fv = getattr(v, field_name)
                ft = fv.__class__
                if ft is int:
                    buf.append(int.__repr__(fv))
                elif ft is str:
                    buf.append(_escape(fv))
                elif ft is bytes:
                    buf.append('{"__bytes__":"' + fv.hex() + '"}')
                elif ft is float:
                    buf.append(_float_str(fv))
                elif ft is bool:
                    buf.append("true" if fv else "false")
                elif fv is None:
                    buf.append("null")
                else:
                    flat = False
                    break
            if flat:
                fragment = "".join(buf)
                out.append(fragment)
                try:
                    object.__setattr__(v, _MEMO_ATTR, fragment)
                except (AttributeError, TypeError):
                    pass  # __slots__ etc.: just skip the memo
                return
            push((_END, v))
            frames.append([len(out), True, v])
        elif frames:
            frames[-1][1] = False
        for literal, field_name in reversed(parts):
            if field_name is not None:
                push((_VAL, getattr(v, field_name)))
            push((_LIT, literal))
        return
    # Subclasses of the builtin types take the reference's isinstance
    # order: dataclasses first (above), then bytes, arrays, dicts, bool
    # before int, then float and str.
    if isinstance(v, bytes):
        out.append('{"__bytes__":"' + v.hex() + '"}')
    elif isinstance(v, (list, tuple)):
        if frames and not isinstance(v, tuple):
            frames[-1][1] = False
        _push_array(v, push)
    elif isinstance(v, dict):
        if frames:
            frames[-1][1] = False
        _push_dict(v, push)
    elif isinstance(v, bool):
        out.append("true" if v else "false")
    elif isinstance(v, int):
        out.append(int.__repr__(v))
    elif isinstance(v, float):
        out.append(_float_str(v))
    elif isinstance(v, str):
        out.append(_escape(v))
    else:
        raise CryptoError(f"unencodable value of type {type(v).__name__}")


def encode_canonical(value: Any) -> bytes:
    """Deterministic canonical bytes of ``value`` (format: module docstring).

    >>> encode_canonical({"b": 1, "a": 2})
    b'{"a":2,"b":1}'
    """
    return canonical_fragment(value).encode("ascii")


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
    cold object (``copy.deepcopy`` copies the memo attributes along
    with everything else).
    """
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        try:
            object.__delattr__(value, _MEMO_ATTR)
        except AttributeError:
            pass
        for f in dataclasses.fields(value):
            strip_memo(getattr(value, f.name))
    elif isinstance(value, (tuple, list)):
        for item in value:
            strip_memo(item)
    elif isinstance(value, dict):
        for item in value.values():
            strip_memo(item)
