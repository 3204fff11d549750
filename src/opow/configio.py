"""Plain-text key=value configuration files and JSON-lines result records.

Configs are one `key = value` per line with `#` comments; unknown keys are
rejected so typos fail loudly.  Results are one JSON object per line with
sorted keys, a format that diffs and plots cleanly; the only wall-clock
value lives in the leading header record.
"""

from __future__ import annotations

import json
import math
import time
from typing import Callable, Iterable, Mapping, TextIO


class ConfigError(ValueError):
    """Malformed configuration input."""


def as_int(text: str) -> int:
    return int(text, 0)


def as_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):  # nan and inf would hang or corrupt a run
        raise ConfigError(f"expected a finite number, got {text!r}")
    return value


def as_bool(text: str) -> bool:
    lowered = text.lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"expected a boolean, got {text!r}")


def as_hex(length: int | None = None) -> Callable[[str], bytes]:
    def convert(text: str) -> bytes:
        try:
            raw = bytes.fromhex(text)
        except ValueError as exc:
            raise ConfigError(f"invalid hex string: {exc}") from exc
        if length is not None and len(raw) != length:
            raise ConfigError(f"expected {length} hex-encoded bytes, got {len(raw)}")
        return raw
    return convert


def as_float_list(text: str) -> list[float]:
    return [as_float(part) for part in text.split(",") if part.strip()]


def as_str_list(text: str) -> list[str]:
    return [part.strip() for part in text.split(",") if part.strip()]


def parse_config_text(text: str, schema: Mapping[str, Callable[[str], object]]) -> dict:
    """Parse `key = value` lines through the per-key converters in `schema`."""
    out: dict = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in schema:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        try:
            out[key] = schema[key](value)
        except ConfigError:
            raise
        except Exception as exc:
            raise ConfigError(f"line {lineno}: bad value for {key!r}: {exc}") from exc
    return out


def load_config(path: str, schema: Mapping[str, Callable[[str], object]]) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fp:
            text = fp.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    return parse_config_text(text, schema)


def given(cfg: Mapping[str, object], *keys: str) -> dict:
    """The subset of `keys` that the config sets, as keyword arguments: a
    key left out falls back to the default of the signature it is passed to."""
    return {k: cfg[k] for k in keys if k in cfg}


def header_record(command: str, seed: int, config: Mapping[str, object]) -> dict:
    """Leading record carrying the run configuration as given: keys left
    out of the config are not echoed with their defaults.

    The timestamp is isolated here so every later record is reproducible.
    """
    printable = {
        k: (v.hex() if isinstance(v, (bytes, bytearray)) else v)
        for k, v in sorted(config.items())
    }
    return {
        "record": "header",
        "command": command,
        "seed": seed,
        "config": printable,
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def _is_finite(value: object) -> bool:
    """False if a float anywhere inside `value` is nan or infinite."""
    if isinstance(value, float):
        return math.isfinite(value)
    if isinstance(value, Mapping):
        return all(map(_is_finite, value.values()))
    if isinstance(value, (list, tuple)):
        return all(map(_is_finite, value))
    return True


def write_records(fp: TextIO, records: Iterable[Mapping[str, object]]) -> int:
    """Write one JSON line per record.  JSON has no nan or infinity, so such
    a value is a ConfigError that names the record and its fields."""
    count = 0
    for record in records:
        try:
            line = json.dumps(record, sort_keys=True, allow_nan=False)
        except ValueError:
            fields = ", ".join(k for k, v in sorted(record.items())
                               if not _is_finite(v))
            raise ConfigError(f"record {count} ({record.get('record')}) has "
                              f"non-finite {fields}") from None
        fp.write(line)
        fp.write("\n")
        count += 1
    return count
