"""Bundled example cones used by the verification CLI and the test suite,
and the one reader of the JSON files the CLI is given."""

from __future__ import annotations

import json
from functools import cache

from .errors import ParseError
from .lattice_cones import Cone

# name -> (dim, inward normals), in the order reports list them
_FIXTURES = {
    "standard-2": (2, ((0, 1), (1, 0))),
    "standard-3": (3, ((1, 0, 0), (0, 1, 0), (0, 0, 1))),
    "wedge21": (2, ((0, 1), (-2, 1))),
    "wedge53": (2, ((0, 1), (-5, 3))),
    "cone-over-square": (3, ((1, 0, 0), (1, -1, 0), (1, -1, -1), (1, 0, -1))),
}

FIXTURE_NAMES = tuple(_FIXTURES)


@cache
def fixture_cone(name: str) -> Cone:
    """One of the bundled cones by name: one cone, and so one build of its geometry, per process."""
    if name not in _FIXTURES:
        raise ParseError(
            f"unknown fixture {name!r}; available: {', '.join(FIXTURE_NAMES)}"
        )
    return Cone(*_FIXTURES[name])


def read_json(path: str, label: str, unreadable: str | None = None):
    """The JSON document in the file at ``path``, read as UTF-8.

    A file that cannot be opened, is not UTF-8, is not JSON (an integer of
    more digits than ``int`` converts included) or nests too deeply for the
    parser raises ParseError, its message led by ``label``;
    ``unreadable``, if given, is the whole message of the first case.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ParseError(unreadable or f"{label}: cannot read file") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{label}: not UTF-8 text ({exc.reason} at byte {exc.start})") from exc
    except ValueError as exc:  # a JSONDecodeError, or an integer past int's digit limit
        raise ParseError(f"{label}: not valid JSON ({exc})") from exc
    except RecursionError as exc:
        raise ParseError(f"{label}: JSON nested too deeply to parse") from exc


def load_cone(path_or_name: str) -> Cone:
    """Load a cone from a fixture name or a JSON file path."""
    if path_or_name in _FIXTURES:
        return fixture_cone(path_or_name)
    data = read_json(
        path_or_name,
        path_or_name,
        f"{path_or_name!r} is neither a bundled cone name "
        f"({', '.join(FIXTURE_NAMES)}) nor a readable file",
    )
    return Cone.from_json_dict(data)
