"""JSON kinds of run-config values, and `Section`, the one checker of a
config object. The CLI checks its sections with it, and `ExperimentConfig`
its runner's extras, so both give the same errors.

A kind is a pair: the JSON type an error names, and the test.
"""
from __future__ import annotations

import json
import sys

from .errors import InputError
from .game import MAX_EXPLICIT_N


def is_integer(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def is_number(v) -> bool:
    # finite and within float range: JSON has no NaN or infinity (json.load
    # accepts both), and an int/float comparison is exact for any int
    return isinstance(v, (int, float)) and not isinstance(v, bool) and abs(v) <= sys.float_info.max


def one_of(values) -> tuple:
    values = list(values)
    return "one of " + ", ".join(map(json.dumps, values)), lambda v: v in values


def nonempty_list_of(test):
    # a sweep over no values would certify or average nothing
    return lambda v: isinstance(v, list) and len(v) > 0 and all(map(test, v))


NUMBER = ("a number", is_number)
INTEGER = ("an integer", is_integer)
COUNT = ("an integer >= 1", lambda v: is_integer(v) and v >= 1)
NONNEGATIVE = ("an integer >= 0", lambda v: is_integer(v) and v >= 0)
BOOLEAN = ("true or false", lambda v: isinstance(v, bool))
NUMBERS = ("a nonempty list of numbers", nonempty_list_of(is_number))
# vendor counts of a game `build_game` can materialise
GAME_SIZES = (
    f"a nonempty list of integers in [2, {MAX_EXPLICIT_N}]",
    nonempty_list_of(lambda v: is_integer(v) and 2 <= v <= MAX_EXPLICIT_N),
)

REQUIRED = object()


class Section:
    """One object of the run config, named by its path (`manifest.vendors[0]`).

    A key outside `keys` is an input error. `get` checks a value's JSON type
    and returns it as written: no config value is coerced. Errors show a value
    JSON has no form for (a library caller's numpy scalar, say) by its repr.
    """

    def __init__(self, obj, where: str, keys):
        if not isinstance(obj, dict):
            got = json.dumps(obj, default=repr)
            raise InputError(f"config: {where} must be an object, got {got}")
        for key in obj:
            if key not in keys:
                raise InputError(
                    f"config: {where}.{key} is not a known key;"
                    f" {where} takes only {', '.join(keys)}"
                )
        self.obj = obj
        self.where = where

    def get(self, key: str, kind: tuple, default=REQUIRED):
        """`key`'s value if it has the JSON type `kind`; `default` when the key
        is absent, or null where the default is None."""
        if key not in self.obj or (self.obj[key] is None and default is None):
            if default is REQUIRED:
                raise InputError(f"config: {self.where}.{key} is required")
            return default
        value = self.obj[key]
        what, test = kind
        if not test(value):
            got = json.dumps(value, default=repr)
            raise InputError(f"config: {self.where}.{key} must be {what}, got {got}")
        return value
