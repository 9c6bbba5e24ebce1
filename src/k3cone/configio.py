"""JSON ingestion for lattice, frame, and pencil configs."""

import json

from .curves import Pencil
from .errors import InputError
from .frame import FibrationFrame
from .lattice import form_from_dict
from .linalg import vectors


def _require(doc: dict, key: str, where: str):
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
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise InputError(f"{path}: invalid JSON ({exc})") from exc


def load_frame(path) -> FibrationFrame:
    return frame_from_dict(_load_json(path))


def pencil_from_dict(doc: dict) -> Pencil:
    sections = []
    for i, sec in enumerate(_require(doc, "sections", "pencil config")):
        sections.append((_require(sec, "x", f"pencil section {i}"),
                         _require(sec, "y", f"pencil section {i}")))
    return Pencil(a=tuple(_require(doc, "a", "pencil config")),
                  b=tuple(_require(doc, "b", "pencil config")),
                  sections=tuple(sections))


def load_pencil(path) -> Pencil:
    return pencil_from_dict(_load_json(path))
