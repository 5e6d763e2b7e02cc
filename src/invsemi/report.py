"""Run reports: one structure, two renderings.

The structured rendering is canonical JSON (sorted keys, fixed
separators, trailing newline) and never contains volatile data, so a
fixed input and flag set always produces identical bytes.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path


@dataclass
class RunReport:
    command: str
    input_digest: str | None = None
    semigroup: dict | None = None
    properties: dict | None = None
    criterion: list | None = None
    groupoid: dict | None = None
    symbolic: dict | None = None
    verified: bool | None = None
    _text_lines: list = field(default_factory=list)

    def line(self, text: str = "") -> None:
        self._text_lines.append(text)

    def to_dict(self) -> dict:
        out: dict = {"command": self.command}
        for key in ("input_digest", "semigroup", "properties",
                    "criterion", "groupoid", "symbolic", "verified"):
            value = getattr(self, key)
            if value is not None:
                out[key] = value
        return out

    def render_structured(self) -> str:
        return canonical_json(self.to_dict())

    def render_text(self) -> str:
        return "\n".join(self._text_lines) + "\n"


def canonical_json(data) -> str:
    return json.dumps(data, indent=2, sort_keys=True, ensure_ascii=True) + "\n"


def file_digest(path: str | Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()
