"""JSON ingestion for lattice, frame, and pencil configs."""

import json

from .curves import Pencil
from .errors import InputError
from .frame import FibrationFrame
from .lattice import form_from_dict
from .linalg import vectors


def _require(doc: dict, key: str, where: str):
    if not isinstance(doc, dict):
        raise InputError(f"{where}: not a JSON object")
    if key not in doc:
        raise InputError(f"{where}: missing field '{key}'")
    return doc[key]


def frame_from_dict(doc: dict) -> FibrationFrame:
    """Build a frame from {"gram", "E", "O", "ample", "translations"[, "sections"]}.

    Sections, when given explicitly, are cross-checked against the ones
    derived from the translations (after canonicalization).
    """
    form = form_from_dict(doc)
    # the constructor coerces every vector, once
    frame = FibrationFrame.create(
        form,
        classE=_require(doc, "E", "frame config"),
        classO=_require(doc, "O", "frame config"),
        ample=_require(doc, "ample", "frame config"),
        translations=_require(doc, "translations", "frame config"),
    )
    if "sections" in doc:
        given = vectors(doc["sections"])
        if given != frame.sections:
            raise InputError(
                "frame config: explicit sections disagree with the translates "
                f"derived from the translation vectors (expected {frame.sections})")
    return frame


def _load_json(path) -> dict:
    """The JSON object at path; unreadable, non-UTF-8 or not one: `InputError`."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: invalid JSON ({exc})") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"{path}: cannot read ({exc})") from exc
    if not isinstance(doc, dict):
        raise InputError(f"{path}: the top level is not a JSON object")
    return doc


def load_frame(path) -> FibrationFrame:
    return frame_from_dict(_load_json(path))


def pencil_from_dict(doc: dict) -> Pencil:
    """{"a", "b", "sections": [{"x", "y"}, ...]}; `Pencil` coerces the
    coefficient lists."""
    sections = _require(doc, "sections", "pencil config")
    if not isinstance(sections, list):
        raise InputError("pencil config: 'sections' is not a list")
    return Pencil(a=_require(doc, "a", "pencil config"),
                  b=_require(doc, "b", "pencil config"),
                  sections=tuple(
                      (_require(sec, "x", f"pencil section {i}"),
                       _require(sec, "y", f"pencil section {i}"))
                      for i, sec in enumerate(sections)))


def load_pencil(path) -> Pencil:
    return pencil_from_dict(_load_json(path))
