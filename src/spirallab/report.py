"""JSON report plumbing: canonical serialization, atomic writes, and the
determinism hash (timing excluded).  Reports are strict JSON (RFC 8259): a
non-finite float (a NaN witness coordinate, say) is written as null."""

from __future__ import annotations

import hashlib
import json
import math
import os

SCHEMA = "spirallab/1"
NON_DETERMINISTIC_KEYS = ("timing_s",)
# Output destinations don't affect the computation, so two runs that differ
# only in where they write should hash identically.
PATH_INPUT_KEYS = ("out", "dump_region", "out_csv", "dump_curve", "dump_traj")


def _finite(obj):
    """obj with every non-finite float replaced by None."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _finite(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite(v) for v in obj]
    return obj


def canonical_bytes(payload: dict) -> bytes:
    return json.dumps(_finite(payload), sort_keys=True, separators=(",", ":"),
                      allow_nan=False).encode()


def dumps(payload: dict) -> str:
    """The report as indented strict JSON text, newline-terminated."""
    return json.dumps(_finite(payload), sort_keys=True, indent=2, allow_nan=False) + "\n"


def dump(payload: dict, fh):
    """The report to an open text file, indented, as strict JSON."""
    fh.write(dumps(payload))


def determinism_hash(payload: dict) -> str:
    clean = {k: v for k, v in payload.items() if k not in NON_DETERMINISTIC_KEYS}
    inputs = clean.get("inputs")
    if isinstance(inputs, dict):
        clean["inputs"] = {
            k: v for k, v in inputs.items() if k not in PATH_INPUT_KEYS
        }
    return hashlib.sha256(canonical_bytes(clean)).hexdigest()


def _create_temp(d):
    """A new file in directory d, open for writing, and its path.  Unlike
    mkstemp's 0600, its mode is 0666 under the umask, as open() gives."""
    while True:
        tmp = os.path.join(d, f"tmp{os.urandom(8).hex()}.tmp")
        try:
            return os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666), tmp
        except FileExistsError:
            continue


def write_report(path, payload: dict):
    """Atomic write: the report either exists complete or not at all."""
    data = memoryview(dumps(payload).encode())
    fd, tmp = _create_temp(os.path.dirname(os.path.abspath(path)))
    try:
        try:
            while data:  # one write, unless the file system takes less
                data = data[os.write(fd, data):]
        finally:
            os.close(fd)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
