"""Config validation against config_schema.json without a schema library.

The walker implements the Draft 2020-12 keywords the shipped schema uses,
with jsonschema's semantics where the schema depends on them: a bool is
neither an integer nor a number, an integral float is an integer, const and
enum tell true from 1, each keyword checks only instances of the type it
constrains (so a wrong type hides the others, except that a non-integral
number is still held to the numeric bounds), and oneOf counts exact
matches.  A schema that uses any other keyword is refused when loaded,
and so is a default that fails its own subschema.  Schema.resolve fills a
validated config's defaults and gives each number its schema's type.
"""

from __future__ import annotations

import functools
import json
import os
import re

_ANNOTATIONS = frozenset({"$schema", "$id", "title", "description", "$defs", "default"})
_APPLICATORS = frozenset(
    {"properties", "additionalProperties", "required", "items", "oneOf", "$ref"}
)


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


_TYPES = {
    "object": lambda x: isinstance(x, dict),
    "array": lambda x: isinstance(x, list),
    "string": lambda x: isinstance(x, str),
    "boolean": lambda x: isinstance(x, bool),
    "number": _is_number,
    "integer": lambda x: _is_number(x) and (isinstance(x, int) or x.is_integer()),
}


def _equal(a, b) -> bool:
    """JSON equality of the scalars const and enum name: true is not 1."""
    return isinstance(a, bool) == isinstance(b, bool) and a == b


# keyword -> check(argument, instance), giving a message on a violation
_CHECKS = {
    "type": lambda a, x: not _TYPES[a](x) and f"{x!r} is not of type {a!r}",
    "const": lambda a, x: not _equal(x, a) and f"{a!r} was expected",
    "enum": lambda a, x: not any(_equal(x, v) for v in a)
    and f"{x!r} is not one of {a!r}",
    "minimum": lambda a, x: _is_number(x) and x < a
    and f"{x!r} is less than the minimum of {a!r}",
    "maximum": lambda a, x: _is_number(x) and x > a
    and f"{x!r} is greater than the maximum of {a!r}",
    "exclusiveMinimum": lambda a, x: _is_number(x) and x <= a
    and f"{x!r} is less than or equal to the minimum of {a!r}",
    "minItems": lambda a, x: isinstance(x, list) and len(x) < a
    and f"{x!r} is too short",
    "maxItems": lambda a, x: isinstance(x, list) and len(x) > a
    and f"{x!r} is too long",
    "minLength": lambda a, x: isinstance(x, str) and len(x) < a
    and f"{x!r} is too short",
    "pattern": lambda a, x: isinstance(x, str) and not re.search(a, x)
    and f"{x!r} does not match {a!r}",
}


class Schema:
    """A parsed schema; errors(instance) lists the instance's violations."""

    def __init__(self, schema: dict) -> None:
        self.root = schema
        self.defs = schema.get("$defs", {})
        self._check(schema)

    def _check(self, node: dict) -> None:
        """Refuse, anywhere in the schema, what the walker does not implement."""
        for key, arg in node.items():
            if key not in _CHECKS and key not in _APPLICATORS | _ANNOTATIONS:
                raise ValueError(f"config schema keyword {key!r} is not implemented")
            if key == "type" and arg not in _TYPES:
                raise ValueError(f"config schema type {arg!r} is not implemented")
            if key == "additionalProperties" and arg is not False:
                raise ValueError("config schema additionalProperties must be false")
            if key == "$ref" and not (
                arg.startswith("#/$defs/") and arg[8:] in self.defs
            ):
                raise ValueError(f"config schema $ref {arg!r} is not a local $defs entry")
            if key == "default" and any(self._walk(node, arg, ())):
                raise ValueError(f"config schema default {arg!r} fails its own subschema")
            subs = (
                arg.values() if key in ("properties", "$defs")
                else arg if key == "oneOf"
                else [arg] if key == "items"
                else ()
            )
            for sub in subs:
                self._check(sub)

    def errors(self, instance) -> list[tuple[tuple, str]]:
        """(path, message) of every violation, sorted by path; a path is a
        tuple of keys and indices, () for the root."""
        return sorted(self._walk(self.root, instance, ()), key=lambda e: e[0])

    def resolve(self, instance):
        """The valid instance as a run uses it, as new objects and arrays:
        each absent property whose subschema has a default gets that
        default, resolved in turn; $ref and the one matching oneOf
        branch are followed; an "integer" becomes an int, a "number" a
        float and a const the schema's own value."""
        return self._resolve(self.root, instance)

    def _resolve(self, node: dict, x):
        if "$ref" in node:
            x = self._resolve(self.defs[node["$ref"][8:]], x)
        if "oneOf" in node:
            (sub,) = (s for s in node["oneOf"] if not any(self._walk(s, x, ())))
            x = self._resolve(sub, x)
        if "const" in node:
            return node["const"]
        kind = node.get("type")
        if kind == "integer":
            return int(x)
        if kind == "number":
            return float(x)
        if kind == "array" and "items" in node:
            return [self._resolve(node["items"], item) for item in x]
        if kind == "object":
            out = dict(x)
            for name, sub in node.get("properties", {}).items():
                if name in x:
                    out[name] = self._resolve(sub, x[name])
                elif "default" in sub:
                    out[name] = self._resolve(sub, sub["default"])
            return out
        return x

    def _walk(self, node: dict, x, path: tuple):
        for key, arg in node.items():
            if key in _CHECKS:
                message = _CHECKS[key](arg, x)
                if message:
                    yield path, message
            elif key == "$ref":
                yield from self._walk(self.defs[arg[8:]], x, path)
            elif key == "oneOf":
                matches = sum(not any(self._walk(sub, x, path)) for sub in arg)
                if matches != 1:
                    how = "valid under several" if matches else "not valid under any"
                    yield path, f"{x!r} is {how} of the given schemas"
            elif key == "items" and isinstance(x, list):
                for i, item in enumerate(x):
                    yield from self._walk(arg, item, path + (i,))
            elif key == "properties" and isinstance(x, dict):
                for name, sub in arg.items():
                    if name in x:
                        yield from self._walk(sub, x[name], path + (name,))
            elif key == "required" and isinstance(x, dict):
                for name in arg:
                    if name not in x:
                        yield path, f"{name!r} is a required property"
            elif key == "additionalProperties" and isinstance(x, dict):
                extra = sorted(k for k in x if k not in node.get("properties", {}))
                if extra:
                    names = ", ".join(repr(k) for k in extra)
                    verb = "was" if len(extra) == 1 else "were"
                    yield path, (
                        f"Additional properties are not allowed ({names} {verb} unexpected)"
                    )


@functools.cache
def config_schema() -> Schema:
    """The package's config schema, read once per process."""
    path = os.path.join(os.path.dirname(__file__), "config_schema.json")
    with open(path, encoding="utf-8") as fh:
        return Schema(json.load(fh))
