"""Dataclass fields that carry their own bounds (`n_d: int = bounded(5, ge=1)`),
checked by `check_bounds` from `__post_init__`, and the repeated-id check
that class-id lists share."""

import math
import operator
from dataclasses import MISSING, field, fields

from .errors import ConfigError

# rule -> (test that the value breaks it, the rule as written in messages)
_RULES = {
    "ge": (operator.lt, ">="),
    "gt": (operator.le, ">"),
    "le": (operator.gt, "<="),
    "lt": (operator.ge, "<"),
    "choices": (lambda v, choices: v not in choices, "one of"),
}


def bounded(default=MISSING, **rules):
    """A dataclass field with rules ge, gt, le, lt and choices; they apply to
    each entry of a list value, and a list default is copied per instance."""
    if isinstance(default, list):
        return field(default_factory=default.copy, metadata=rules)
    return field(default=default, metadata=rules)


def check_value(name, value, f):
    """Raise ConfigError naming `name` for a non-finite float or a broken rule of f."""
    for v in value if isinstance(value, list) else [value]:
        if isinstance(v, float) and not math.isfinite(v):
            raise ConfigError(f"{name} must be finite, got {v!r}")
        for rule, bound in f.metadata.items():
            breaks, words = _RULES[rule]
            if breaks(v, bound):
                raise ConfigError(f"{name} must be {words} {bound}, got {v!r}")


def check_bounds(obj):
    """Raise ConfigError naming the first field of obj that breaks its rules."""
    for f in fields(obj):
        check_value(f.name, getattr(obj, f.name), f)


def check_distinct(ids, what, error=ConfigError, **where):
    """Raise error(f"class {id} {what}", **where) for the first id of ids
    equal to an earlier one."""
    seen = set()
    for i in ids:
        if i in seen:
            raise error(f"class {i} {what}", **where)
        seen.add(i)
