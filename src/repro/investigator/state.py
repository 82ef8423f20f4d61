"""Model states and state fingerprinting.

The model checking engine works on opaque *states*; all it needs is

* a stable fingerprint so visited states can be deduplicated, and
* a way to carry arbitrary application data.

:class:`ModelState` is a thin immutable wrapper around a dictionary of
variables.  :func:`fingerprint` produces a stable digest of any
picklable value, normalising dictionaries and sets so logically equal
states hash identically regardless of construction order.
:func:`digest` is the same digest as raw bytes, and :func:`compose`
hashes a value that is canonical already; together they let a state
fingerprint itself from digests of its parts, each computed once.
"""

from __future__ import annotations

import hashlib
import pickle
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, Mapping, Tuple


#: Exact types ``_normalise`` returns unchanged without consulting an ABC.
_SCALARS = frozenset({str, int, float, bool, type(None), bytes})


def _normalise(value: Any) -> Any:
    """Recursively convert a value into a canonical, hashable-ish structure.

    The exact-type checks up front are fast paths for what states are
    made of; they produce what the ``Mapping``/set/sequence fallbacks
    below would (an ABC ``isinstance`` costs far more than a type test).
    """
    kind = type(value)
    if kind in _SCALARS:
        return value
    if kind is dict:
        return tuple(sorted((key, _normalise(sub)) for key, sub in value.items()))
    if kind is list or kind is tuple:
        return tuple(_normalise(item) for item in value)
    if isinstance(value, Mapping):
        return tuple(sorted((key, _normalise(sub)) for key, sub in value.items()))
    if isinstance(value, (set, frozenset)):
        return tuple(sorted((_normalise(item) for item in value), key=repr))
    if isinstance(value, (list, tuple)):
        return tuple(_normalise(item) for item in value)
    return value


def digest(value: Any) -> bytes:
    """Stable SHA-1 digest (raw bytes) of any picklable value with canonical ordering."""
    canonical = _normalise(value)
    try:
        blob = pickle.dumps(canonical, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception:
        blob = repr(canonical).encode("utf-8")
    return hashlib.sha1(blob).digest()


def fingerprint(value: Any) -> str:
    """Stable SHA-1 hex digest of any picklable value with canonical ordering."""
    return digest(value).hex()


def compose(parts: Tuple[Any, ...]) -> str:
    """SHA-1 hex digest of a value that is already canonical (digests, names, counters)."""
    return hashlib.sha1(pickle.dumps(parts, protocol=pickle.HIGHEST_PROTOCOL)).hexdigest()


@dataclass(frozen=True)
class ModelState:
    """An immutable assignment of values to model variables."""

    variables: Tuple[Tuple[str, Any], ...] = ()

    @staticmethod
    def from_dict(values: Mapping[str, Any]) -> "ModelState":
        return ModelState(tuple(sorted((key, _normalise(value)) for key, value in values.items())))

    def as_dict(self) -> Dict[str, Any]:
        return dict(self.variables)

    def get(self, name: str, default: Any = None) -> Any:
        for key, value in self.variables:
            if key == name:
                return value
        return default

    def __getitem__(self, name: str) -> Any:
        for key, value in self.variables:
            if key == name:
                return value
        raise KeyError(name)

    def __contains__(self, name: str) -> bool:
        return any(key == name for key, _ in self.variables)

    def __iter__(self) -> Iterator[str]:
        return (key for key, _ in self.variables)

    def with_values(self, **updates: Any) -> "ModelState":
        """Return a new state with the given variables replaced/added."""
        merged = self.as_dict()
        merged.update(updates)
        return ModelState.from_dict(merged)

    def fingerprint(self) -> str:
        return fingerprint(self.variables)

    def describe(self) -> str:
        """Compact one-line rendering used in trails."""
        inner = ", ".join(f"{key}={value!r}" for key, value in self.variables)
        return "{" + inner + "}"
