"""Wire schema v1 for the network ingestion plane.

External collectors talk to :class:`~repro.service.api.server.IngestServer`
in JSON over HTTP.  This module is the single source of truth for that
contract: payload shapes, the schema version handshake, and the typed
error taxonomy.  Parsing is deliberately strict and hand-rolled — every
field is type-checked before any value reaches numpy, because
``np.asarray`` would silently coerce strings and booleans into floats and
the detector would never know the transport was lying to it.

Two payload kinds exist:

* **handshake** (``PUT /v1/stream``) — declares the fleet: unit names and
  database counts, the KPI vocabulary, and the collection interval.  The
  server pins the first handshake; conflicting re-registration is an
  error, identical re-registration is idempotent (collectors re-register
  after reconnecting).
* **tick batch** (``POST /v1/ticks``) — one unit's consecutive KPI
  matrices, each stamped with its per-unit sequence number.

A tick carries its sample in exactly one of two encodings:

* ``"sample"`` — nested JSON arrays of numbers.  Portable and
  eyeball-debuggable; this is what a ``curl`` reproduction or a foreign
  collector sends.
* ``"sample_b64"`` + ``"shape"`` — base64 of the raw little-endian
  float64 matrix, row-major.  Decoding is a single ``b64decode`` +
  ``frombuffer`` instead of one ``strtod`` per cell, which is what keeps
  ingestion CPU inside the <=5% serving-overhead budget at full replay
  speed; :func:`~repro.service.api.client.push_dataset` uses it by
  default.

Bit-exactness holds on both paths: JSON numbers are produced by Python's
float ``repr``, which round-trips IEEE-754 doubles exactly, and the
base64 blob *is* the IEEE-754 bytes (endianness pinned to
little-endian), so a network replay can match an in-process replay to
the last bit (the golden parity test pins this for both encodings).
``NaN``/``Infinity`` literals are rejected at the JSON layer via
``parse_constant``, overflowing decimals (``1e999``) by an ``isfinite``
sweep after parsing, and non-finite bytes smuggled through base64 by the
same sweep.

Every validation failure raises :class:`WireError` carrying a stable
machine-readable ``code``, the dotted path of the offending ``field``,
and the HTTP status the server should answer with.
"""

from __future__ import annotations

import base64
import binascii
import json
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.service.sources import TickEvent

__all__ = [
    "WIRE_VERSION",
    "DEFAULT_MAX_BATCH",
    "DEFAULT_MAX_BODY_BYTES",
    "WireError",
    "FleetSpec",
    "decode_body",
    "parse_handshake",
    "parse_tick_batch",
    "encode_handshake",
    "encode_tick_batch",
]

#: Current wire schema version.  Bump on any incompatible payload change;
#: the server rejects other versions with ``bad_version`` so old and new
#: collectors fail loudly instead of half-parsing.
WIRE_VERSION = 1

#: Default cap on ticks per ``POST /v1/ticks`` batch.
DEFAULT_MAX_BATCH = 256

#: Default cap on request body size (a 413 guard, not a schema property).
DEFAULT_MAX_BODY_BYTES = 8 * 1024 * 1024


class WireError(ValueError):
    """A payload violated the wire schema.

    Parameters
    ----------
    code:
        Stable machine-readable slug (``bad_type``, ``not_finite``, …) —
        see DESIGN.md for the full taxonomy.
    message:
        Human-readable explanation.
    field:
        Dotted path of the offending field (``ticks[3].sample[1][0]``),
        when one specific field is to blame.
    status:
        HTTP status the server should answer with (4xx).
    """

    def __init__(
        self,
        code: str,
        message: str,
        field: Optional[str] = None,
        status: int = 400,
    ):
        super().__init__(message)
        self.code = code
        self.message = message
        self.field = field
        self.status = status

    def to_dict(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {"code": self.code, "message": self.message}
        if self.field is not None:
            payload["field"] = self.field
        return payload


@dataclass(frozen=True)
class FleetSpec:
    """The fleet a collector declared in its handshake."""

    units: Dict[str, int]
    kpi_names: Tuple[str, ...]
    interval_seconds: float


def _reject_constant(literal: str) -> Any:
    raise WireError(
        "not_finite",
        f"JSON constant {literal!r} is not allowed; samples must be finite",
    )


#: One decoder for every body: ``json.loads`` with a hook argument would
#: build a fresh decoder (and scanner) per request.
_DECODER = json.JSONDecoder(parse_constant=_reject_constant)


def decode_body(raw: bytes, max_bytes: int = DEFAULT_MAX_BODY_BYTES) -> Any:
    """Decode a request body into a JSON value, or raise :class:`WireError`."""
    if len(raw) > max_bytes:
        raise WireError(
            "body_too_large",
            f"body is {len(raw)} bytes, limit {max_bytes}",
            status=413,
        )
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise WireError("bad_encoding", f"body is not UTF-8: {exc}") from exc
    try:
        return _DECODER.decode(text)
    except WireError:
        raise
    except json.JSONDecodeError as exc:
        raise WireError("bad_json", f"body is not JSON: {exc}") from exc


def _require_mapping(payload: Any, what: str) -> Dict[str, Any]:
    if not isinstance(payload, dict):
        raise WireError(
            "bad_type",
            f"{what} must be a JSON object, got {type(payload).__name__}",
        )
    return payload


def _check_version(payload: Dict[str, Any]) -> None:
    if "version" not in payload:
        raise WireError("bad_version", "missing schema version", field="version")
    version = payload["version"]
    if isinstance(version, bool) or not isinstance(version, int):
        raise WireError(
            "bad_version",
            f"version must be an integer, got {type(version).__name__}",
            field="version",
        )
    if version != WIRE_VERSION:
        raise WireError(
            "bad_version",
            f"unsupported schema version {version}; this server speaks "
            f"version {WIRE_VERSION}",
            field="version",
        )


def _require_str(value: Any, field: str) -> str:
    if not isinstance(value, str):
        raise WireError(
            "bad_type",
            f"{field} must be a string, got {type(value).__name__}",
            field=field,
        )
    if not value:
        raise WireError("bad_value", f"{field} must be non-empty", field=field)
    return value


def _require_int(value: Any, field: str, minimum: int = 0) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise WireError(
            "bad_type",
            f"{field} must be an integer, got {type(value).__name__}",
            field=field,
        )
    if value < minimum:
        raise WireError(
            "bad_value", f"{field} must be >= {minimum}, got {value}", field=field
        )
    return value


def _require_number(value: Any, field: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise WireError(
            "bad_type",
            f"{field} must be a number, got {type(value).__name__}",
            field=field,
        )
    result = float(value)
    if not np.isfinite(result):
        raise WireError("not_finite", f"{field} must be finite", field=field)
    return result


def parse_handshake(payload: Any) -> FleetSpec:
    """Validate a ``PUT /v1/stream`` payload into a :class:`FleetSpec`."""
    body = _require_mapping(payload, "handshake")
    _check_version(body)
    if "units" not in body:
        raise WireError("missing_field", "handshake needs units", field="units")
    raw_units = body["units"]
    if not isinstance(raw_units, dict):
        raise WireError(
            "bad_type",
            f"units must be an object, got {type(raw_units).__name__}",
            field="units",
        )
    if not raw_units:
        raise WireError("bad_value", "units must be non-empty", field="units")
    units: Dict[str, int] = {}
    for name, n_databases in raw_units.items():
        _require_str(name, "units key")
        units[name] = _require_int(
            n_databases, f"units[{name!r}]", minimum=1
        )
    if "kpi_names" not in body:
        raise WireError(
            "missing_field", "handshake needs kpi_names", field="kpi_names"
        )
    raw_names = body["kpi_names"]
    if not isinstance(raw_names, list):
        raise WireError(
            "bad_type",
            f"kpi_names must be an array, got {type(raw_names).__name__}",
            field="kpi_names",
        )
    if not raw_names:
        raise WireError(
            "bad_value", "kpi_names must be non-empty", field="kpi_names"
        )
    kpi_names = tuple(
        _require_str(name, f"kpi_names[{index}]")
        for index, name in enumerate(raw_names)
    )
    if len(set(kpi_names)) != len(kpi_names):
        raise WireError(
            "bad_value", "kpi_names must be unique", field="kpi_names"
        )
    if "interval_seconds" not in body:
        raise WireError(
            "missing_field",
            "handshake needs interval_seconds",
            field="interval_seconds",
        )
    interval = _require_number(body["interval_seconds"], "interval_seconds")
    if interval <= 0:
        raise WireError(
            "bad_value",
            f"interval_seconds must be positive, got {interval}",
            field="interval_seconds",
        )
    return FleetSpec(
        units=units, kpi_names=kpi_names, interval_seconds=interval
    )


def _check_sample(
    sample: np.ndarray, field: str, shape: Optional[Tuple[int, int]]
) -> np.ndarray:
    if shape is not None and sample.shape != shape:
        raise WireError(
            "bad_shape",
            f"{field} has shape {sample.shape}, the registered fleet "
            f"expects {shape}",
            field=field,
        )
    if not np.isfinite(sample).all():
        bad = np.argwhere(~np.isfinite(sample))[0]
        cell_field = f"{field}[{int(bad[0])}][{int(bad[1])}]"
        raise WireError(
            "not_finite", f"{cell_field} is not finite", field=cell_field
        )
    return sample


def _parse_sample(
    raw: Any, field: str, shape: Optional[Tuple[int, int]]
) -> np.ndarray:
    if not isinstance(raw, list):
        raise WireError(
            "bad_type",
            f"{field} must be an array of rows, got {type(raw).__name__}",
            field=field,
        )
    if not raw:
        raise WireError("bad_shape", f"{field} must be non-empty", field=field)
    # Fast path: a rectangular grid of plain numbers converts in one
    # C-level pass.  Exact ``type`` checks (not isinstance) keep bools,
    # subclasses and anything exotic on the slow path, whose per-cell
    # errors name the offending cell.
    first = raw[0]
    if type(first) is list and first:
        width = len(first)
        if all(
            type(row) is list
            and len(row) == width
            and all(type(v) is float or type(v) is int for v in row)
            for row in raw
        ):
            try:
                return _check_sample(
                    np.array(raw, dtype=np.float64), field, shape
                )
            except OverflowError:
                pass  # an int too large for float64: let the slow path name it
    rows: List[List[float]] = []
    width: Optional[int] = None
    for r, raw_row in enumerate(raw):
        row_field = f"{field}[{r}]"
        if not isinstance(raw_row, list):
            raise WireError(
                "bad_type",
                f"{row_field} must be an array, got {type(raw_row).__name__}",
                field=row_field,
            )
        if not raw_row:
            raise WireError(
                "bad_shape", f"{row_field} must be non-empty", field=row_field
            )
        if width is None:
            width = len(raw_row)
        elif len(raw_row) != width:
            raise WireError(
                "bad_shape",
                f"{row_field} has {len(raw_row)} columns, row 0 has {width}",
                field=row_field,
            )
        row: List[float] = []
        for c, value in enumerate(raw_row):
            cell_field = f"{row_field}[{c}]"
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise WireError(
                    "bad_type",
                    f"{cell_field} must be a number, "
                    f"got {type(value).__name__}",
                    field=cell_field,
                )
            try:
                row.append(float(value))
            except OverflowError:
                raise WireError(
                    "bad_value",
                    f"{cell_field} overflows float64",
                    field=cell_field,
                ) from None
        rows.append(row)
    return _check_sample(np.asarray(rows, dtype=np.float64), field, shape)


def _parse_sample_b64(
    raw_tick: Dict[str, Any], tick_field: str, shape: Optional[Tuple[int, int]]
) -> np.ndarray:
    field = f"{tick_field}.sample_b64"
    raw = raw_tick["sample_b64"]
    if not isinstance(raw, str):
        raise WireError(
            "bad_type",
            f"{field} must be a base64 string, got {type(raw).__name__}",
            field=field,
        )
    shape_field = f"{tick_field}.shape"
    if "shape" not in raw_tick:
        raise WireError(
            "missing_field",
            f"{tick_field} needs shape alongside sample_b64",
            field=shape_field,
        )
    raw_shape = raw_tick["shape"]
    if not (
        isinstance(raw_shape, list)
        and len(raw_shape) == 2
        and type(raw_shape[0]) is int  # JSON integers; bool is not one
        and type(raw_shape[1]) is int
    ):
        raise WireError(
            "bad_type",
            f"{shape_field} must be a [rows, cols] pair of integers",
            field=shape_field,
        )
    rows, cols = raw_shape
    if rows < 1 or cols < 1:
        raise WireError(
            "bad_shape",
            f"{shape_field} must be positive, got [{rows}, {cols}]",
            field=shape_field,
        )
    try:
        blob = base64.b64decode(raw.encode("ascii"), validate=True)
    except (binascii.Error, ValueError, UnicodeEncodeError) as exc:
        raise WireError(
            "bad_encoding", f"{field} is not valid base64: {exc}", field=field
        ) from exc
    expected = rows * cols * 8
    if len(blob) != expected:
        raise WireError(
            "bad_shape",
            f"{field} decodes to {len(blob)} bytes; shape [{rows}, {cols}] "
            f"needs {expected}",
            field=field,
        )
    # ``astype`` both normalises the pinned little-endian dtype on any
    # host and copies out of the read-only bytes buffer.
    sample = (
        np.frombuffer(blob, dtype="<f8")
        .astype(np.float64)
        .reshape(rows, cols)
    )
    return _check_sample(sample, field, shape)


def parse_tick_batch(
    payload: Any,
    fleet: Optional[FleetSpec] = None,
    max_batch: int = DEFAULT_MAX_BATCH,
) -> Tuple[str, List[TickEvent]]:
    """Validate a ``POST /v1/ticks`` payload into ``(unit, events)``.

    With a registered ``fleet``, the unit must be known and each sample's
    shape must match ``(units[unit], len(kpi_names))``; without one, any
    rectangular finite sample passes (codec-level use, e.g. fuzzing).
    Sequence numbers must be strictly increasing *within* the batch —
    duplicates across batches are a transport property the server counts
    as stale, but a self-contradictory batch is a malformed payload.
    """
    body = _require_mapping(payload, "tick batch")
    _check_version(body)
    if "unit" not in body:
        raise WireError("missing_field", "tick batch needs unit", field="unit")
    unit = _require_str(body["unit"], "unit")
    shape: Optional[Tuple[int, int]] = None
    if fleet is not None:
        if unit not in fleet.units:
            raise WireError(
                "unknown_unit",
                f"unit {unit!r} is not in the registered fleet",
                field="unit",
                status=404,
            )
        shape = (fleet.units[unit], len(fleet.kpi_names))
    if "ticks" not in body:
        raise WireError("missing_field", "tick batch needs ticks", field="ticks")
    raw_ticks = body["ticks"]
    if not isinstance(raw_ticks, list):
        raise WireError(
            "bad_type",
            f"ticks must be an array, got {type(raw_ticks).__name__}",
            field="ticks",
        )
    if not raw_ticks:
        raise WireError("bad_value", "ticks must be non-empty", field="ticks")
    if len(raw_ticks) > max_batch:
        raise WireError(
            "batch_too_large",
            f"batch has {len(raw_ticks)} ticks, limit {max_batch}",
            field="ticks",
            status=413,
        )
    events: List[TickEvent] = []
    previous_seq: Optional[int] = None
    for index, raw_tick in enumerate(raw_ticks):
        tick_field = f"ticks[{index}]"
        if not isinstance(raw_tick, dict):
            raise WireError(
                "bad_type",
                f"{tick_field} must be an object, "
                f"got {type(raw_tick).__name__}",
                field=tick_field,
            )
        if "seq" not in raw_tick:
            raise WireError(
                "missing_field",
                f"{tick_field} needs seq",
                field=f"{tick_field}.seq",
            )
        seq = _require_int(raw_tick["seq"], f"{tick_field}.seq")
        if previous_seq is not None and seq <= previous_seq:
            raise WireError(
                "out_of_order",
                f"{tick_field}.seq is {seq} after {previous_seq}; sequence "
                "numbers must be strictly increasing within a batch",
                field=f"{tick_field}.seq",
            )
        previous_seq = seq
        has_json = "sample" in raw_tick
        has_b64 = "sample_b64" in raw_tick
        if has_json and has_b64:
            raise WireError(
                "bad_value",
                f"{tick_field} must carry exactly one of sample / "
                "sample_b64, not both",
                field=f"{tick_field}.sample",
            )
        if has_json:
            sample = _parse_sample(
                raw_tick["sample"], f"{tick_field}.sample", shape
            )
        elif has_b64:
            sample = _parse_sample_b64(raw_tick, tick_field, shape)
        else:
            raise WireError(
                "missing_field",
                f"{tick_field} needs sample or sample_b64",
                field=f"{tick_field}.sample",
            )
        events.append(TickEvent(unit=unit, seq=seq, sample=sample))
    return unit, events


def encode_handshake(
    units: Dict[str, int],
    kpi_names: Sequence[str],
    interval_seconds: float,
) -> Dict[str, Any]:
    """Build a ``PUT /v1/stream`` payload."""
    return {
        "version": WIRE_VERSION,
        "units": {name: int(count) for name, count in units.items()},
        "kpi_names": list(kpi_names),
        "interval_seconds": float(interval_seconds),
    }


def encode_tick_batch(
    unit: str, events: Sequence[TickEvent], encoding: str = "json"
) -> Dict[str, Any]:
    """Build a ``POST /v1/ticks`` payload from tick events.

    Both encodings are bit-exact.  ``"json"`` goes through ``tolist`` —
    Python floats whose ``repr`` round-trips IEEE-754 exactly.  ``"b64"``
    ships the raw little-endian float64 bytes; it is ~30x cheaper for the
    server to decode, which is why the hot push path prefers it.
    """
    if encoding not in ("json", "b64"):
        raise ValueError(f"encoding must be 'json' or 'b64', got {encoding!r}")
    ticks: List[Dict[str, Any]] = []
    for event in events:
        sample = np.asarray(event.sample, dtype=np.float64)
        tick: Dict[str, Any] = {"seq": int(event.seq)}
        if encoding == "b64":
            blob = sample.astype("<f8", copy=False).tobytes()
            tick["sample_b64"] = base64.b64encode(blob).decode("ascii")
            tick["shape"] = [int(sample.shape[0]), int(sample.shape[1])]
        else:
            tick["sample"] = sample.tolist()
        ticks.append(tick)
    return {"version": WIRE_VERSION, "unit": unit, "ticks": ticks}
