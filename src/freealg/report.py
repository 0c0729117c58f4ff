"""The JSON form of the reports: a report's dataclass fields are its keys.

Every report is a dataclass that inherits ``Report``.  ``encode`` writes
each field under its own name, a nested report as an object, a tuple or
list as a list, and a dict value by value; anything else is written as it
is.  So a new report field is one dataclass field, and it reaches the JSON
under the name the code uses.
"""

from __future__ import annotations

from dataclasses import fields


def encode(value):
    """The JSON value of a report, or of any value a report field holds."""
    if isinstance(value, Report):
        return {f.name: encode(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, (tuple, list)):
        return [encode(v) for v in value]
    if isinstance(value, dict):
        return {k: encode(v) for k, v in value.items()}
    return value


class Report:
    """Base of the dataclasses that the CLI writes as JSON reports."""

    def to_json_dict(self) -> dict:
        return encode(self)
