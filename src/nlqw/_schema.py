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

When an object matches no branch of a oneOf whose branches each fix some
properties by const (a coin's "family", an initial state's "kind"), the
message goes on to name what is wrong: the errors of the one branch those
properties select, or the values they may take when they select none.  The
error's path stays the oneOf's own, as jsonschema reports it.

validated(config) is the one entry point for a config, or a piece of one
such as {"coin": ...}: it refuses non-finite numbers, then schema
violations, each by path, and returns the resolved config.
"""

from __future__ import annotations

import functools
import json
import os
import re
import sys

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
    """JSON equality, as const, enum and uniqueItems use it: true is not 1,
    1 is 1.0, and arrays and objects are equal member by member."""
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(map(_equal, a, b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_equal(a[k], b[k]) for k in a)
    return isinstance(a, bool) == isinstance(b, bool) and a == b


def _where(path: tuple) -> str:
    return "/".join(str(k) for k in path) or "(root)"


def _consts(branch: dict) -> dict:
    """The properties a oneOf branch fixes by const, with their values."""
    props = branch.get("properties", {})
    return {name: sub["const"] for name, sub in props.items() if "const" in sub}


def _repeats(x: list) -> bool:
    return any(_equal(y, z) for i, y in enumerate(x) for z in x[i + 1 :])


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
    "uniqueItems": lambda a, x: a and isinstance(x, list) and _repeats(x)
    and f"{x!r} has non-unique elements",
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

    def _no_match_detail(self, branches: list, x, path: tuple) -> str:
        """What a oneOf failure adds when its branches are told apart by
        const properties and x is an object: the selected branch's own
        errors, or the allowed values when no branch is selected."""
        consts = [_consts(b) for b in branches]
        if not (isinstance(x, dict) and all(consts)):
            return ""
        chosen = [
            b for b, c in zip(branches, consts)
            if all(k in x and _equal(x[k], v) for k, v in c.items())
        ]
        if len(chosen) == 1:
            errors = sorted(self._walk(chosen[0], x, path), key=lambda e: e[0])
            return "".join(f"; at {_where(p)}: {m}" for p, m in errors)
        if chosen:
            return ""
        names = dict.fromkeys(k for c in consts for k in c)
        return "".join(
            f"; {k!r} must be one of {[c[k] for c in consts if k in c]!r}" for k in names
        )

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
                    detail = "" if matches else self._no_match_detail(arg, x, path)
                    yield path, f"{x!r} is {how} of the given schemas{detail}"
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


def _non_finite_paths(node, path: tuple = ()) -> list[tuple]:
    """Key paths of the NaN and infinite numbers in a parsed config, and of
    the integers beyond the float range; Python's json reads NaN, Infinity,
    overflowing literals such as 1e999 and integers of any size."""
    if isinstance(node, (int, float)) and not isinstance(node, bool):
        return [] if abs(node) <= sys.float_info.max else [path]
    if isinstance(node, (dict, list)):
        items = node.items() if isinstance(node, dict) else enumerate(node)
        return [bad for k, v in items for bad in _non_finite_paths(v, path + (k,))]
    return []


def validated(instance):
    """instance resolved against the config schema (Schema.resolve), once
    it has no non-finite number and no schema violation; otherwise a
    ValueError that names the path of each."""
    bad = [_where(p) for p in _non_finite_paths(instance)]
    if bad:
        raise ValueError("config rejected: non-finite number at " + ", ".join(bad))
    schema = config_schema()
    errors = schema.errors(instance)
    if errors:
        lines = [f"  at {_where(p)}: {m}" for p, m in errors]
        raise ValueError("config rejected by schema:\n" + "\n".join(lines))
    return schema.resolve(instance)
