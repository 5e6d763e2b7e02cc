"""Run reports: one structure, two renderings.

The structured rendering is canonical JSON (sorted keys, fixed
separators, trailing newline) and never contains volatile data, so a
fixed input and flag set always produces identical bytes.
"""

from __future__ import annotations

import json
from pathlib import Path


class RunReport:
    """What one subcommand found, for either rendering.

    The report keeps the input's path, not its digest: only the
    structured rendering prints `input_digest`, so only it reads the
    file again and hashes it.
    """

    def __init__(self, command: str, input_path: str | None = None):
        self.command = command
        self.input_path = input_path
        self.semigroup: dict | None = None
        self.properties: dict | None = None
        self.criterion: list | None = None
        self.groupoid: dict | None = None
        self.symbolic: dict | None = None
        self.verified: bool | None = None
        self._text_lines: list[str] = []

    def line(self, text: str = "") -> None:
        self._text_lines.append(text)

    def to_dict(self) -> dict:
        out: dict = {"command": self.command}
        if self.input_path is not None:
            out["input_digest"] = file_digest(self.input_path)
        for key in ("semigroup", "properties",
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
    import hashlib  # 3-4 ms of OpenSSL start-up that a human report never needs
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()
