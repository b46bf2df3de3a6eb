"""Wire codec: byte serialisation for protocol messages.

The simulator mostly passes payload *objects* with estimated sizes (the
``payload_bytes`` methods), which keeps sweeps fast.  This codec is the
ground truth behind those estimates: it encodes any protocol payload to
bytes and back, so tests can (a) verify that every message type
round-trips losslessly and (b) anchor the size estimates against real
encoded lengths.  It is also what a socket-backed transport would use.

Format: JSON with two tag conventions — dataclasses as
``{"__dc__": ClassName, ...fields}`` and bytes as ``{"__bytes__": hex}``
— mirroring :mod:`repro.crypto.canon`'s canonical form, plus a
decode direction.  Decoding only instantiates classes from an explicit
registry (no arbitrary class lookup), and JSON arrays decode to tuples
because every repeated field in the protocol is a tuple.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Any

from repro.errors import ReproError


class CodecError(ReproError):
    """Encoding or decoding failed structurally."""


def _default_registry() -> dict[str, type]:
    from repro.baselines.bft import messages as bft_messages
    from repro.core import messages as core_messages
    from repro.core.checkpoint import Checkpoint
    from repro.core.replies import Reply
    from repro.core.requests import ClientRequest
    from repro.crypto.dealer import FailSignalBody
    from repro.crypto.signed import SignedMessage
    from repro.crypto.signing import Signature

    classes: list[type] = [
        ClientRequest,
        Signature,
        SignedMessage,
        FailSignalBody,
        Checkpoint,
        Reply,
        core_messages.OrderEntry,
        core_messages.OrderBatch,
        core_messages.Ack,
        core_messages.CommitProof,
        core_messages.BackLog,
        core_messages.Start,
        core_messages.StartSupport,
        core_messages.SupportBundle,
        core_messages.CatchUpRequest,
        core_messages.CatchUpReply,
        core_messages.ViewChange,
        core_messages.Unwilling,
        core_messages.NewView,
        core_messages.PairProposal,
        core_messages.PairStartProposal,
        core_messages.PairForward,
        core_messages.Heartbeat,
        core_messages.PairStatusUp,
        bft_messages.PrePrepare,
        bft_messages.Prepare,
        bft_messages.Commit,
        bft_messages.PreparedProof,
        bft_messages.BftViewChange,
        bft_messages.BftNewView,
    ]
    return {cls.__name__: cls for cls in classes}


_REGISTRY: dict[str, type] | None = None


def registry() -> dict[str, type]:
    """The codec's class registry (built lazily, import-cycle safe)."""
    global _REGISTRY
    if _REGISTRY is None:
        _REGISTRY = _default_registry()
    return _REGISTRY


def _to_jsonable(value: Any) -> Any:
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        name = type(value).__name__
        if name not in registry():
            raise CodecError(f"unregistered message class {name!r}")
        fields = {
            field.name: _to_jsonable(getattr(value, field.name))
            for field in dataclasses.fields(value)
        }
        return {"__dc__": name, **fields}
    if isinstance(value, bytes):
        return {"__bytes__": value.hex()}
    if isinstance(value, (list, tuple)):
        return [_to_jsonable(item) for item in value]
    if isinstance(value, dict):
        return {str(k): _to_jsonable(v) for k, v in value.items()}
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    raise CodecError(f"unencodable value of type {type(value).__name__}")


def _from_jsonable(value: Any) -> Any:
    if isinstance(value, dict):
        if "__bytes__" in value and len(value) == 1:
            return bytes.fromhex(value["__bytes__"])
        if "__dc__" in value:
            name = value["__dc__"]
            cls = registry().get(name)
            if cls is None:
                raise CodecError(f"unknown message class {name!r}")
            kwargs = {
                k: _from_jsonable(v) for k, v in value.items() if k != "__dc__"
            }
            return cls(**kwargs)
        return {k: _from_jsonable(v) for k, v in value.items()}
    if isinstance(value, list):
        return tuple(_from_jsonable(item) for item in value)
    return value


def encode(payload: Any) -> bytes:
    """Serialise a protocol payload to bytes."""
    return json.dumps(
        _to_jsonable(payload), sort_keys=True, separators=(",", ":")
    ).encode("utf-8")


def decode(data: bytes) -> Any:
    """Inverse of :func:`encode`."""
    try:
        raw = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CodecError(f"undecodable wire data: {exc}") from None
    return _from_jsonable(raw)


def encoded_size(payload: Any) -> int:
    """Actual wire size of a payload under this codec."""
    return len(encode(payload))
