"""The one settings codec: the annotations on the config dataclasses are the
only statement of each setting's type. A setting arrives as ``key=value``
text (a config file or ``--set``) or as a JSON value (a checkpoint header),
which must already have the type: an int takes no float and no boolean."""

from __future__ import annotations

from dataclasses import fields

from .errors import MoodlyricsError


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered not in ("1", "true", "yes", "0", "false", "no"):
        raise MoodlyricsError(f"expected a boolean, got {text!r}")
    return lowered in ("1", "true", "yes")


# each annotation's text parser (ValueError when the text does not parse)
# and the JSON types it takes; JSON has no tuple, and no header holds one
_CODECS = {
    "int": (int, (int,)),
    "float": (float, (int, float)),
    "bool": (_parse_bool, (bool,)),
    "tuple[float, float, float, float] | None": (
        lambda text: tuple(float(part) for part in text.split(",")), ()),
}


def parse_setting(annotation: str, key: str, raw, *, from_json: bool = False):
    """``raw`` text, or with ``from_json`` a JSON value, as the type that
    ``annotation`` names; ``MoodlyricsError`` naming ``key`` when it is not."""
    parse, json_types = _CODECS[annotation]
    if from_json:
        if type(raw) not in json_types:
            raise MoodlyricsError(f"{key} must be a JSON {annotation}, got {raw!r}")
        return raw
    try:
        return parse(raw)
    except ValueError:
        raise MoodlyricsError(f"cannot parse {key}={raw!r}") from None


def config_from_json(cls, values):
    """``cls(**values)`` once each JSON value has its field's type."""
    for field in fields(cls):
        if field.name in values:
            parse_setting(field.type, field.name, values[field.name], from_json=True)
    return cls(**values)
