"""The system file format: a line-oriented text serialization of subspace
systems in either field, with byte-identical parse/print round trips for
exact data.

    relpos-system 1
    field gaussian-rational
    ambient 3
    subspace E1 dim 2
    1 0 0
    0 1 0
    subspace E2 dim 1
    0 0 1
    meta key value

Each subspace lists one basis vector per line; the canonical basis is what
gets printed, so printing is deterministic."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .catalog import MAX_CATALOG_DIM
from .errors import ParseError
from .gaussian import format_cfloat, format_gq, parse_cfloat, parse_gq
from .matrix import DEFAULT_TOL, EXACT, FLOAT, Matrix
from .subspace import Subspace
from .system import SubspaceSystem

FORMAT_VERSION = 1
FIELD_NAMES = {EXACT: "gaussian-rational", FLOAT: "complex-float"}
FIELD_BY_NAME = {v: k for k, v in FIELD_NAMES.items()}


@dataclass
class SystemFile:
    format_version: int
    field_name: str
    ambient_dim: int
    subspaces: list  # (name, list of row vectors as scalar lists)
    metadata: dict = field(default_factory=dict)

    def to_system(self, tol: float = DEFAULT_TOL) -> SubspaceSystem:
        backend = FIELD_BY_NAME[self.field_name]
        subs = []
        for _, rows in self.subspaces:
            subs.append(
                Subspace.span_rows(self.ambient_dim, rows, field=backend, tol=tol)
            )
        return SubspaceSystem(self.ambient_dim, subs)

    @staticmethod
    def from_system(s: SubspaceSystem, names=None, metadata=None) -> "SystemFile":
        if names is None:
            names = [f"E{i+1}" for i in range(s.n)]
        subspaces = []
        for name, sub in zip(names, s.subspaces):
            rows = []
            basis = sub.basis
            for j in range(basis.cols):
                if s.field == EXACT:
                    rows.append([basis.entry(i, j) for i in range(basis.rows)])
                else:
                    rows.append([complex(basis.entry(i, j)) for i in range(basis.rows)])
            subspaces.append((name, rows))
        return SystemFile(
            format_version=FORMAT_VERSION,
            field_name=FIELD_NAMES[s.field],
            ambient_dim=s.ambient_dim,
            subspaces=subspaces,
            metadata=dict(metadata or {}),
        )


def render(f: SystemFile) -> str:
    lines = [f"relpos-system {f.format_version}"]
    lines.append(f"field {f.field_name}")
    lines.append(f"ambient {f.ambient_dim}")
    exact = f.field_name == FIELD_NAMES[EXACT]
    fmt = format_gq if exact else format_cfloat
    for name, rows in f.subspaces:
        lines.append(f"subspace {name} dim {len(rows)}")
        for row in rows:
            lines.append(" ".join(fmt(x) for x in row))
    for key in sorted(f.metadata):
        lines.append(f"meta {key} {f.metadata[key]}")
    return "\n".join(lines) + "\n"


def parse(text: str) -> SystemFile:
    lines = [ln.rstrip("\n") for ln in text.splitlines()]
    lines = [ln for ln in lines if ln.strip() != ""]
    if not lines:
        raise ParseError("empty system file")
    head = lines[0].split()
    if len(head) != 2 or head[0] != "relpos-system":
        raise ParseError("missing relpos-system header")
    try:
        version = int(head[1])
    except ValueError as exc:
        raise ParseError("bad format version") from exc
    if version != FORMAT_VERSION:
        raise ParseError(f"unsupported format version {version}")
    idx = 1
    field_name = None
    ambient = None
    subspaces = []
    metadata = {}
    while idx < len(lines):
        parts = lines[idx].split()
        if parts[0] == "field":
            if len(parts) != 2 or parts[1] not in FIELD_BY_NAME:
                raise ParseError(f"bad field line: {lines[idx]!r}")
            field_name = parts[1]
            idx += 1
        elif parts[0] == "ambient":
            try:
                ambient = int(parts[1])
            except (IndexError, ValueError) as exc:
                raise ParseError("bad ambient line") from exc
            if ambient < 0:
                raise ParseError(f"negative ambient dimension {ambient}")
            if ambient > MAX_CATALOG_DIM:
                raise ParseError(f"ambient dimension {ambient} exceeds the bound {MAX_CATALOG_DIM}")
            idx += 1
        elif parts[0] == "subspace":
            if field_name is None or ambient is None:
                raise ParseError("subspace before field/ambient headers")
            if len(parts) != 4 or parts[2] != "dim":
                raise ParseError(f"bad subspace line: {lines[idx]!r}")
            name = parts[1]
            try:
                dim = int(parts[3])
            except ValueError as exc:
                raise ParseError("bad subspace dimension") from exc
            if dim < 0:
                raise ParseError(f"subspace {name}: negative dimension {dim}")
            idx += 1
            rows = []
            scalar = parse_gq if field_name == FIELD_NAMES[EXACT] else parse_cfloat
            for _ in range(dim):
                if idx >= len(lines):
                    raise ParseError(f"subspace {name}: missing basis rows")
                entries = lines[idx].split()
                if len(entries) != ambient:
                    raise ParseError(
                        f"subspace {name}: vector length {len(entries)} != ambient {ambient}"
                    )
                rows.append([scalar(e) for e in entries])
                idx += 1
            subspaces.append((name, rows))
        elif parts[0] == "meta":
            if len(parts) < 3:
                raise ParseError(f"bad meta line: {lines[idx]!r}")
            metadata[parts[1]] = " ".join(parts[2:])
            idx += 1
        else:
            raise ParseError(f"unrecognized line: {lines[idx]!r}")
    if field_name is None or ambient is None:
        raise ParseError("missing field or ambient header")
    return SystemFile(
        format_version=version,
        field_name=field_name,
        ambient_dim=ambient,
        subspaces=subspaces,
        metadata=metadata,
    )


def system_to_text(s: SubspaceSystem, metadata=None) -> str:
    return render(SystemFile.from_system(s, metadata=metadata))


def system_from_text(text: str, tol: float = DEFAULT_TOL) -> SubspaceSystem:
    return parse(text).to_system(tol)
