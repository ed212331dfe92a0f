"""The generic JSON walk the reports once serialized through, kept as the
oracle their field-by-field ``to_dict`` methods are checked against."""

from dataclasses import fields, is_dataclass
from fractions import Fraction


def jsonable(value):
    """A JSON-ready copy: dataclasses become dicts in field order, tuples
    lists and Fractions their text."""
    if isinstance(value, (str, int)) or value is None:
        return value
    if is_dataclass(value):
        return {f.name: jsonable(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, Fraction):
        return str(value)
    return value
