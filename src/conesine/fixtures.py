"""Bundled example cones used by the verification CLI and the test suite."""

from __future__ import annotations

import json
from functools import cache
from importlib import resources

from .errors import ParseError
from .lattice_cones import Cone

FIXTURE_NAMES = (
    "standard-2",
    "standard-3",
    "wedge21",
    "wedge53",
    "cone-over-square",
)


@cache
def fixture_cone(name: str) -> Cone:
    """Load one of the bundled cones by name: one cone, and so one build of its geometry, per process."""
    if name not in FIXTURE_NAMES:
        raise ParseError(
            f"unknown fixture {name!r}; available: {', '.join(FIXTURE_NAMES)}"
        )
    payload = resources.files("conesine.data").joinpath(f"{name}.json").read_text()
    return Cone.from_json_dict(json.loads(payload))


def load_cone(path_or_name: str) -> Cone:
    """Load a cone from a fixture name or a JSON file path."""
    if path_or_name in FIXTURE_NAMES:
        return fixture_cone(path_or_name)
    try:
        with open(path_or_name, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ParseError(
            f"{path_or_name!r} is neither a bundled cone name "
            f"({', '.join(FIXTURE_NAMES)}) nor a readable file"
        ) from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path_or_name}: not valid JSON ({exc})") from exc
    return Cone.from_json_dict(data)
