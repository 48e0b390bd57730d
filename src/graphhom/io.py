"""File formats: edge-list/metadata CSV, series CSV, diagram JSON, barcode SVG.

All writers are deterministic byte-for-byte given the same inputs.  JSON
numbers carry 17 significant digits and infinite deaths use the string
sentinel "inf".
"""

from __future__ import annotations

import csv
import datetime
import io as _io
import json
import math

import numpy as np

from .diagrams import INF, PersistenceDiagram, PersistencePair
from .errors import ValidationError
from .graphs import WeightedGraph
from .series import SeriesTable


# -- canonical JSON ---------------------------------------------------------


def format_float(x: float) -> str:
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    if math.isnan(x):
        return '"nan"'
    return format(float(x), ".17g")


def dump_json(obj) -> str:
    """Deterministic JSON with 17-significant-digit floats and "inf" sentinels."""
    out = _io.StringIO()
    _write_json(obj, out)
    out.write("\n")
    return out.getvalue()


def _write_json(obj, out) -> None:
    if isinstance(obj, dict):
        out.write("{")
        for k, key in enumerate(obj):
            if k:
                out.write(", ")
            out.write(json.dumps(str(key)))
            out.write(": ")
            _write_json(obj[key], out)
        out.write("}")
    elif isinstance(obj, (list, tuple)):
        out.write("[")
        for k, item in enumerate(obj):
            if k:
                out.write(", ")
            _write_json(item, out)
        out.write("]")
    elif isinstance(obj, bool):
        out.write("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        out.write(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.write(format_float(float(obj)))
    elif obj is None:
        out.write("null")
    else:
        out.write(json.dumps(str(obj)))


# -- reading -----------------------------------------------------------------


def open_input(path, mode: str = "r", newline: str | None = None):
    """A file named on input, opened for reading; a missing or unreadable one is bad input.

    Text is decoded as UTF-8 in one go, so a file that is not UTF-8 is bad
    input reported with its line, not an error midway through a parser.
    """
    try:
        fh = open(path, "rb")
    except OSError as exc:
        raise ValidationError(f"{path}: cannot open: {exc.strerror}") from None
    if "b" in mode:
        return fh
    with fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ValidationError(f"{path}:{line}: not UTF-8 text") from None
    return _io.StringIO(text, newline=newline)


def _csv_lines(fh):
    """Lines of fh with '#' comment lines emptied, so csv line_num is the file line."""
    return ("" if line.startswith("#") else line for line in fh)


def _number(cell: str, path, line: int, what: str) -> float:
    try:
        x = float(cell)
    except ValueError:
        raise ValidationError(f"{path}:{line}: {what} {cell!r} is not a number") from None
    if not math.isfinite(x):
        raise ValidationError(f"{path}:{line}: {what} {cell!r} is not finite")
    return x


# -- graphs ------------------------------------------------------------------


def read_edge_csv(path, vertex_count: int | None = None) -> WeightedGraph:
    edges = []
    weights = []
    has_weights = None
    with open_input(path, newline="") as fh:
        reader = csv.reader(_csv_lines(fh))
        header = next(filter(None, reader), None)
        if header is None or [h.strip().lower() for h in header[:2]] != ["u", "v"]:
            raise ValidationError(f"{path}: expected header u,v[,weight]")
        for row in reader:
            if not row or not any(cell.strip() for cell in row):
                continue
            try:
                u, v = int(row[0]), int(row[1])
            except (ValueError, IndexError):
                msg = f"{path}:{reader.line_num}: malformed edge row {row!r}"
                raise ValidationError(msg) from None
            edges.append((u, v))
            w_cell = row[2].strip() if len(row) > 2 else ""
            if w_cell:
                if has_weights is False:
                    raise ValidationError(f"{path}: inconsistent weight column")
                has_weights = True
                weights.append(_number(w_cell, path, reader.line_num, "weight"))
            else:
                if has_weights:
                    raise ValidationError(f"{path}: inconsistent weight column")
                has_weights = False
    if vertex_count is None:
        vertex_count = max((max(e) for e in edges), default=-1) + 1
    return WeightedGraph(
        vertex_count, tuple(edges), tuple(weights) if has_weights else None
    )


def read_vertex_csv(path) -> tuple[int, tuple[str, ...], tuple[tuple[float, float], ...] | None]:
    """Vertex metadata: header id,label[,x,y]; returns (count, labels, coords)."""
    rows = {}
    with open_input(path, newline="") as fh:
        reader = csv.reader(_csv_lines(fh))
        header = next(filter(None, reader), None)
        fields = [h.strip().lower() for h in header or ()]
        if not {"id", "label"}.issubset(fields):
            raise ValidationError(f"{path}: expected header id,label[,x,y]")
        for row in reader:
            if not any(cell.strip() for cell in row):
                continue
            row = dict(zip(fields, (cell.strip() for cell in row)))
            line = reader.line_num
            if not row.get("id", "").isdigit():
                msg = f"{path}:{line}: vertex id {row.get('id')!r} is not an integer >= 0"
                raise ValidationError(msg)
            coord = None
            if row.get("x") and row.get("y"):
                coord = (_number(row["x"], path, line, "x"), _number(row["y"], path, line, "y"))
            rows[int(row["id"])] = (row.get("label", ""), coord)
    if not rows:
        raise ValidationError(f"{path}: no vertex rows")
    count = max(rows) + 1
    labels = tuple(rows.get(v, (f"v{v}", None))[0] for v in range(count))
    coords = tuple(rows.get(v, ("", None))[1] for v in range(count))
    if any(c is None for c in coords):
        return count, labels, None
    return count, labels, coords


# -- series -------------------------------------------------------------------


def write_series_csv(table: SeriesTable, path) -> None:
    all_times = sorted({int(t) for ts in table.times for t in ts})
    lookup = [dict(zip(ts.tolist(), vs.tolist())) for ts, vs in zip(table.times, table.values)]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t"] + list(table.names))
        for t in all_times:
            row = [str(t)]
            for series in lookup:
                value = series.get(t)
                row.append("" if value is None else format(value, ".17g"))
            writer.writerow(row)


def parse_time_index(cell: str) -> int:
    """Integer time index; ISO dates map to their proleptic ordinal day."""
    cell = cell.strip()
    try:
        return int(cell)
    except ValueError:
        pass
    try:
        return datetime.date.fromisoformat(cell).toordinal()
    except ValueError:
        raise ValidationError(f"cannot parse time index {cell!r}") from None


def read_series_csv(path) -> SeriesTable:
    with open_input(path, newline="") as fh:
        reader = csv.reader(_csv_lines(fh))
        header = next(filter(None, reader), None)
        if header is None or header[0].strip().lower() != "t":
            raise ValidationError(f"{path}: expected header t,<series>...")
        names = [h.strip() for h in header[1:]]
        times: list[list[int]] = [[] for _ in names]
        values: list[list[float]] = [[] for _ in names]
        for row in reader:
            if not row or not any(cell.strip() for cell in row):
                continue
            t = parse_time_index(row[0])
            for k in range(len(names)):
                cell = row[k + 1].strip() if k + 1 < len(row) else ""
                if cell:
                    times[k].append(t)
                    values[k].append(_number(cell, path, reader.line_num, "value"))
    return SeriesTable(
        names,
        [np.asarray(t, dtype=np.int64) for t in times],
        [np.asarray(v, dtype=float) for v in values],
    )


# -- diagrams -----------------------------------------------------------------


def diagram_to_dict(diag: PersistenceDiagram) -> dict:
    pairs = []
    for p in diag.pairs:
        entry: dict = {"birth": p.birth, "death": p.death}
        if p.representative is not None:
            entry["cycle"] = [[u, v] for u, v in p.representative]
        pairs.append(entry)
    out: dict = {"dimension": diag.dimension}
    if diag.method is not None:
        out["method"] = diag.method
    if diag.span is not None:
        out["span"] = list(diag.span)
    out["pairs"] = pairs
    return out


def write_diagram_json(diag: PersistenceDiagram, path, manifest_digest: str | None = None) -> None:
    data = diagram_to_dict(diag)
    if manifest_digest is not None:
        data["manifest"] = manifest_digest
    with open(path, "w") as fh:
        fh.write(dump_json(data))


def read_diagram_json(path) -> PersistenceDiagram:
    with open_input(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"{path}:{exc.lineno}: invalid JSON: {exc.msg}") from None
    if not isinstance(data, dict) or "dimension" not in data or "pairs" not in data:
        raise ValidationError(f"{path}: not a diagram JSON file")
    try:
        pairs = []
        for entry in data["pairs"]:
            birth, raw_death = float(entry["birth"]), entry["death"]
            death = INF if raw_death == "inf" else float(raw_death)
            if not (math.isfinite(birth) and (raw_death == "inf" or math.isfinite(death))):
                pair = f"({entry['birth']!r}, {raw_death!r})"
                raise ValidationError(f'{path}: pair {pair} is not finite; write "inf" for no death')
            rep = entry.get("cycle")
            pairs.append(
                PersistencePair(
                    birth,
                    death,
                    tuple((int(u), int(v)) for u, v in rep) if rep is not None else None,
                )
            )
        span = tuple(data["span"]) if "span" in data else None
        dimension = int(data["dimension"])
    except (KeyError, TypeError, ValueError, AttributeError):
        raise ValidationError(f"{path}: malformed diagram JSON") from None
    return PersistenceDiagram(dimension, pairs, span=span, method=data.get("method"))


# -- barcode SVG ---------------------------------------------------------------

SVG_WIDTH = 640
BAR_HEIGHT = 12
BAR_GAP = 6
MARGIN = 30


def barcode_svg(diag: PersistenceDiagram, version: str = "0") -> str:
    """One horizontal bar per pair, sorted by (birth, death); x = filtration value."""
    span = diag.span
    if span is None:
        finite = [p.death for p in diag.pairs if not math.isinf(p.death)]
        hi = max(finite + [p.birth for p in diag.pairs], default=1.0)
        span = (0.0, hi if hi > 0 else 1.0)
    lo, hi = span
    scale = (SVG_WIDTH - 2 * MARGIN) / (hi - lo if hi > lo else 1.0)
    bars = sorted(diag.pairs, key=lambda p: (p.birth, p.death))
    height = 2 * MARGIN + max(1, len(bars)) * (BAR_HEIGHT + BAR_GAP)
    lines = [
        f"<!-- graphhom {version} barcode -->",
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{SVG_WIDTH}" height="{height}" '
        f'viewBox="0 0 {SVG_WIDTH} {height}">',
        f'<line x1="{MARGIN}" y1="{height - MARGIN}" x2="{SVG_WIDTH - MARGIN}" '
        f'y2="{height - MARGIN}" stroke="black" stroke-width="1"/>',
    ]
    for k, p in enumerate(bars):
        x0 = MARGIN + (p.birth - lo) * scale
        x1 = MARGIN + (min(p.death, hi) - lo) * scale if not math.isinf(p.death) else SVG_WIDTH - MARGIN
        y = MARGIN + k * (BAR_HEIGHT + BAR_GAP)
        color = "#1f77b4" if not math.isinf(p.death) else "#d62728"
        lines.append(
            f'<rect x="{x0:.3f}" y="{y}" width="{max(x1 - x0, 1.0):.3f}" '
            f'height="{BAR_HEIGHT}" fill="{color}"/>'
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
