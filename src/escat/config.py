"""Configuration documents, JSON schemas and atomic result output.

Every command validates its JSON config against a schema before any
computation (unknown fields rejected); results are written with
17-significant-digit decimal floats (round-trip exact for doubles) via
write-to-temp-then-rename, and carry the config hash and seed.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import tempfile

import numpy as np

from .errors import ConfigError, EscatError

SCHEMA_VERSION = "1"

_MATERIAL_SCHEMA = {
    "type": "object",
    "properties": {
        "lam": {"type": "number", "exclusiveMinimum": 0},
        "mu": {"type": "number", "exclusiveMinimum": 0},
        "rho": {"type": "number", "exclusiveMinimum": 0},
    },
    "required": ["lam", "mu", "rho"],
    "additionalProperties": False,
}

_CURVE_SCHEMA = {
    "type": "object",
    "properties": {
        "type": {"enum": ["circle", "ellipse", "kite", "fourier"]},
        "radius": {"type": "number", "exclusiveMinimum": 0},
        "a": {"type": "number", "exclusiveMinimum": 0},
        "b": {"type": "number", "exclusiveMinimum": 0},
        "scale": {"type": "number", "exclusiveMinimum": 0},
        "r0": {"type": "number", "exclusiveMinimum": 0},
        "cos_coeffs": {"type": "array", "items": {"type": "number"}},
        "sin_coeffs": {"type": "array", "items": {"type": "number"}},
    },
    "required": ["type"],
    "additionalProperties": False,
}

SCENE_SCHEMA = {
    "type": "object",
    "properties": {
        "schema_version": {"type": "string"},
        "curve": _CURVE_SCHEMA,
        "exterior": _MATERIAL_SCHEMA,
        "interior": _MATERIAL_SCHEMA,
        "omega": {"type": "number", "exclusiveMinimum": 0},
        "K": {"type": "integer", "minimum": 0},
        "n_nodes": {"type": "integer", "minimum": 16},
    },
    "required": ["schema_version", "curve", "exterior", "interior", "omega"],
    "additionalProperties": False,
}

ACQUISITION_SCHEMA = {
    "type": "object",
    "properties": {
        "schema_version": {"type": "string"},
        "curve": _CURVE_SCHEMA,
        "exterior": _MATERIAL_SCHEMA,
        "interior": _MATERIAL_SCHEMA,
        "omega": {"type": "number", "exclusiveMinimum": 0},
        "radius": {"type": "number", "exclusiveMinimum": 0},
        "radius_wavelengths": {"type": "number", "exclusiveMinimum": 0},
        "n_sources": {"type": "integer", "minimum": 1},
        "n_receivers": {"type": "integer", "minimum": 1},
        "noise_sigma": {"type": "number", "minimum": 0},
        "seed": {"type": "integer"},
        "K": {"type": "integer", "minimum": 0},
        "n_nodes": {"type": "integer", "minimum": 16},
        "mode": {"enum": ["bie", "expansion"]},
        "method": {"enum": ["pseudo_inverse", "lsq", "lsq_constrained"]},
        "epsilon": {"type": "number", "exclusiveMinimum": 0},
    },
    "required": [
        "schema_version",
        "curve",
        "exterior",
        "interior",
        "omega",
        "n_sources",
        "n_receivers",
    ],
    "additionalProperties": False,
}

_STRUCTURE_SCHEMA = {
    "type": "object",
    "properties": {
        "radii": {"type": "array", "items": {"type": "number"}, "minItems": 1},
        "layers": {"type": "array", "items": _MATERIAL_SCHEMA},
        "exterior": _MATERIAL_SCHEMA,
        "inner": {
            "oneOf": [{"const": "cavity"}, _MATERIAL_SCHEMA],
        },
    },
    "required": ["radii", "layers", "exterior"],
    "additionalProperties": False,
}

DESIGN_SCHEMA = {
    "type": "object",
    "properties": {
        "schema_version": {"type": "string"},
        "exterior": _MATERIAL_SCHEMA,
        "n_layers": {"type": "integer", "minimum": 1},
        "order": {"type": "integer", "minimum": 0},
        "kappa_s_set": {
            "type": "array",
            "items": {"type": "number", "exclusiveMinimum": 0},
            "minItems": 1,
        },
        "bounds": {
            "type": "object",
            "properties": {
                "lam": {"type": "array", "items": {"type": "number"}, "minItems": 2, "maxItems": 2},
                "mu": {"type": "array", "items": {"type": "number"}, "minItems": 2, "maxItems": 2},
                "rho": {"type": "array", "items": {"type": "number"}, "minItems": 2, "maxItems": 2},
            },
            "required": ["lam", "mu", "rho"],
            "additionalProperties": False,
        },
        "r_outer": {"type": "number", "exclusiveMinimum": 0},
        "r_cavity": {"type": "number", "exclusiveMinimum": 0},
        "n_starts": {"type": "integer", "minimum": 1},
        "seed": {"type": "integer"},
        "mode_mask": {"enum": ["PS", "P", "S"]},
        "target_reduction": {"type": "number", "exclusiveMinimum": 0},
    },
    "required": ["schema_version", "exterior", "n_layers", "order", "kappa_s_set", "bounds"],
    "additionalProperties": False,
}

EVALUATE_SCHEMA = {
    "type": "object",
    "properties": {
        "schema_version": {"type": "string"},
        "structure": _STRUCTURE_SCHEMA,
        "omega": {"type": "number", "exclusiveMinimum": 0},
        "n_max": {"type": "integer", "minimum": 0},
    },
    "required": ["schema_version", "structure", "omega", "n_max"],
    "additionalProperties": False,
}

SCALING_SCHEMA = {
    "type": "object",
    "properties": {
        "schema_version": {"type": "string"},
        "structure": _STRUCTURE_SCHEMA,
        "omega_ref": {"type": "number", "exclusiveMinimum": 0},
        "n_max": {"type": "integer", "minimum": 0},
        "epsilon_grid": {
            "type": "array",
            "items": {"type": "number", "exclusiveMinimum": 0},
            "minItems": 2,
        },
    },
    "required": ["schema_version", "structure", "omega_ref", "n_max", "epsilon_grid"],
    "additionalProperties": False,
}


def load_config(path, schema: dict) -> dict:
    """Read and schema-validate a JSON config document."""
    # imported here: only a config read needs it, and it adds to every start-up
    import jsonschema

    try:
        with open(path) as f:
            doc = json.load(f)
    except json.JSONDecodeError as e:
        raise ConfigError(
            f"malformed JSON in {path}: {e.msg} at line {e.lineno} column {e.colno}"
        ) from e
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}") from e
    try:
        jsonschema.validate(doc, schema)
    except jsonschema.ValidationError as e:
        raise ConfigError(f"config {path} invalid: {e.message}") from e
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise ConfigError(
            f"unsupported schema_version {doc.get('schema_version')!r}; expected {SCHEMA_VERSION!r}"
        )
    return doc


def config_hash(doc: dict) -> str:
    return hashlib.sha256(
        json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()[:16]


class _NonFinite(Exception):
    """A non-finite float met by _format_json; keys is its key path, innermost first."""

    def __init__(self, value: float):
        super().__init__(value)
        self.value = value
        self.keys = []


def _format_json(obj, indent=0) -> str:
    """JSON text with floats at 17 significant digits (round-trip exact).

    numpy arrays and scalars are written as the lists and Python numbers
    they convert to, a complex number as [re, im], and keys as str(key).
    JSON has no inf or NaN: a non-finite float raises _NonFinite, and the
    containers it passes through add their keys to it.
    """
    if type(obj) is float:  # most of a document: tested first, no key path built
        if math.isfinite(obj):
            return f"{obj:.17g}"
        raise _NonFinite(obj)
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    elif isinstance(obj, (np.integer, np.floating, np.complexfloating)):
        obj = obj.item()
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        pad = " " * indent
        items = []
        for k, v in obj.items():
            try:
                items.append(f"{pad} {json.dumps(str(k))}: {_format_json(v, indent + 1)}")
            except _NonFinite as exc:
                exc.keys.append(f".{k}")
                raise
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = []
        for v in obj:
            try:
                items.append(_format_json(v, indent))
            except _NonFinite as exc:
                exc.keys.append(f"[{len(items)}]")
                raise
        return "[" + ", ".join(items) + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, float):  # a numpy float converted above, or a float subclass
        return _format_json(float(obj), indent)
    if isinstance(obj, complex):
        return _format_json([obj.real, obj.imag], indent)
    if isinstance(obj, int):
        return str(obj)
    if obj is None:
        return "null"
    return json.dumps(obj)


def atomic_write_json(path, obj) -> None:
    """Serialize to a temp file and rename (never a partial output).

    A non-finite float raises EscatError naming its key path; nothing is written.
    """
    try:
        text = _format_json(obj)
    except _NonFinite as exc:
        where = "".join(reversed(exc.keys))
        where = where[1:] if where.startswith(".") else where  # a top-level key has no dot
        raise EscatError(
            f"non-finite result {exc.value} at {where or 'top level'}; not written"
        ) from None
    atomic_write_text(path, text + "\n")


def atomic_write_text(path, text: str) -> None:
    d = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
