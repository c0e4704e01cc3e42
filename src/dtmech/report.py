"""Run reports: a metadata envelope around a deterministic payload.

Every command-line invocation produces one report.  The payload — column
names plus rows, or a JSON document body — is a pure function of the run
configuration, seed included, so identical inputs give identical payload
bytes regardless of thread count or wall-clock time.  The metadata (tool
version, echoed configuration, timestamp) travels alongside but never leaks
into the payload: CSV metadata lives on ``#``-prefixed preamble lines above
the header, JSON metadata under a separate ``"meta"`` key.

Floats are serialized with :func:`repr`, the shortest decimal string that
round-trips to the same IEEE double, so written values parse back exactly.
Non-finite floats become the strings ``"inf"``, ``"-inf"`` and ``"nan"``
(JSON has no literals for them; CSV uses the same spelling for symmetry).
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import stat
import sys
import tempfile
from datetime import datetime, timezone

import numpy as np

from . import __version__

CSV_EOL = "\r\n"


def build_meta(command: str, config: dict) -> dict:
    """Assemble the metadata envelope for one run.

    ``config`` is the fully resolved configuration (defaults + file +
    flags) echoed back so a report is reproducible from its own header;
    a command's seed and thread count, where it has them, are entries of
    it like every other flag.
    """
    return {
        "tool": "dtmech",
        "version": __version__,
        "command": command,
        "config": dict(config),
        "generated_at": datetime.now(timezone.utc).isoformat(),
    }


def _json_safe(value):
    """Recursively convert a value into something ``json.dumps`` accepts.

    numpy scalars and arrays become Python numbers and lists; non-finite
    floats become their string spellings (JSON has no inf/nan literals).
    """
    if isinstance(value, dict):
        return {str(k): _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, np.ndarray):
        return [_json_safe(v) for v in value.tolist()]
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        value = float(value)
        return value if math.isfinite(value) else repr(value)
    if isinstance(value, (complex, np.complexfloating)):
        return {"re": _json_safe(value.real), "im": _json_safe(value.imag)}
    return value


def _csv_cell(value) -> str:
    """One CSV cell: repr floats, true/false booleans, empty for None."""
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))  # "inf", "-inf" and "nan" too
    text = str(value)
    if any(ch in text for ch in (",", '"', "\r", "\n")):
        text = '"' + text.replace('"', '""') + '"'
    return text


def render_csv(meta: dict, columns: list, rows: list) -> str:
    """CSV report: ``#`` preamble with the metadata, then header + rows.

    The payload (header line onward) uses CRLF line endings and is byte
    deterministic; the preamble carries the metadata as a single JSON
    object split over comment lines and may vary between runs (timestamp).
    """
    meta_json = json.dumps(_json_safe(meta), sort_keys=True)
    out = io.StringIO()
    for line in meta_json.splitlines() or [meta_json]:
        out.write(f"# {line}{CSV_EOL}")
    out.write(",".join(_csv_cell(c) for c in columns) + CSV_EOL)
    for row in rows:
        out.write(",".join(_csv_cell(c) for c in row) + CSV_EOL)
    return out.getvalue()


def render_json(meta: dict, data) -> str:
    """JSON report: one document with separate ``meta`` and ``data`` keys."""
    doc = {"meta": _json_safe(meta), "data": _json_safe(data)}
    return json.dumps(doc, indent=2, allow_nan=False) + "\n"


def csv_payload(text: str) -> str:
    """Strip the metadata preamble, leaving only the deterministic payload."""
    return "".join(line + CSV_EOL
                   for line in text.split(CSV_EOL)
                   if line and not line.startswith("#"))


def write_report(text: str, path: str | None) -> None:
    """Write the report to ``path``, symlinks followed, or to stdout.

    A regular file is replaced atomically, by a temporary file in its
    directory renamed over it, so a crash never leaves a truncated report;
    it keeps its mode, or gets 0o666 less the umask if new, as ``open``
    would.  Any other target (a FIFO, a device) is written to directly."""
    if path is None:
        sys.stdout.write(text)
        return
    target = os.path.realpath(path)
    info = os.stat(target) if os.path.exists(target) else None
    if info is not None and not stat.S_ISREG(info.st_mode):
        with open(target, "w", newline="") as handle:
            handle.write(text)
        return
    umask = os.umask(0o022)
    os.umask(umask)
    mode = stat.S_IMODE(info.st_mode) if info is not None else 0o666 & ~umask
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(target), prefix=".dtmech-",
                               suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="") as handle:
            os.fchmod(fd, mode)
            handle.write(text)
        os.replace(tmp, target)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise
