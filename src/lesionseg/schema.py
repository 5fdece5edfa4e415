"""Configuration schema: each key names one field of a config dataclass.

A schema maps key -> (section, field); the field's annotation and default
are the key's type and default, so no key states them twice. Values travel
as text, read by `parse_value` and written by `format_value`.
"""

from __future__ import annotations

import dataclasses
import functools
import typing

from .backbone import BackboneConfig, ConfigError
from .data import SynthConfig

Schema = dict[str, tuple[str, str]]

_BOOLS = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}


def sections() -> dict[str, type]:
    # imported here because model and training import this module
    from .model import ModelConfig
    from .training import TrainConfig
    return {"backbone": BackboneConfig, "model": ModelConfig,
            "train": TrainConfig, "synth": SynthConfig}


@functools.cache  # get_type_hints evaluates every annotation of the class
def field_type(section: str, name: str):
    return typing.get_type_hints(sections()[section])[name]


def field_default(section: str, name: str):
    return {f.name: f for f in dataclasses.fields(sections()[section])}[name].default


def parse_value(key: str, text: str, kind):
    """`text` read as `kind`: bool, int, float, str or a tuple of one of them."""
    args = typing.get_args(kind)
    try:
        if args:
            items = text.split(",")
            if args[-1] is not Ellipsis and len(items) != len(args):
                raise ValueError(text)
            return tuple(args[0](item) for item in items)
        return _BOOLS[text.lower()] if kind is bool else kind(text)
    except (KeyError, ValueError):
        name = kind.__name__ if isinstance(kind, type) else kind
        raise ConfigError(f"{key}: expected {name}, got {text!r}") from None


def format_value(value, kind) -> str:
    args = typing.get_args(kind)
    if args:
        return ",".join(format_value(item, args[0]) for item in value)
    if kind is bool:
        return str(value).lower()
    return repr(float(value)) if kind is float else str(value)


def build(section: str, schema: Schema, text: dict[str, str], **given):
    """The section's dataclass, each schema key of it read from `text`.

    Other fields keep their defaults unless `given`, and nested config
    dataclasses are built from the same keys. A missing or malformed key is
    a ConfigError naming it.
    """
    cls = sections()[section]
    nested = {sub: name for name, sub in sections().items()}
    kwargs = {f.name: build(nested[field_type(section, f.name)], schema, text)
              for f in dataclasses.fields(cls) if field_type(section, f.name) in nested}
    for key, (owner, name) in schema.items():
        if owner == section:
            if key not in text:
                raise ConfigError(f"{key}: missing")
            kwargs[name] = parse_value(key, text[key], field_type(section, name))
    return cls(**{**kwargs, **given})
