"""The two caches: the in-process memo, and the content-addressed report
cache on disk (versioned header, hash, atomic writes)."""

from __future__ import annotations

import hashlib
import os
import tempfile

from . import __version__

HEADER = "cisupport-cache v1"
FORMAT_VERSION = "1"
# Bumped whenever the engine's computation changes, so reports cached by an
# earlier engine are never served.
ENGINE_VERSION = "8"

_MEMO: dict = {}  # table name -> {key: value}


def memo(table: str, key, build):
    """The value under key in the named table, made by build() on first use.

    Values live for the rest of the process, or until clear_memo().
    """
    entries = _MEMO.setdefault(table, {})
    if key not in entries:
        entries[key] = build()
    return entries[key]


def clear_memo():
    """Forget every memoized value."""
    _MEMO.clear()


def cache_key(job_text: str, command: str, params: dict) -> str:
    """Stable key over the package and engine versions, the canonical job
    text, the command and the parameters."""
    h = hashlib.sha256()
    for part in (FORMAT_VERSION, __version__, ENGINE_VERSION):
        h.update(part.encode())
        h.update(b"\x00")
    h.update(job_text.encode())
    h.update(b"\x00")
    h.update(command.encode())
    for k in sorted(params):
        h.update(b"\x00")
        h.update(f"{k}={params[k]}".encode())
    return h.hexdigest()


def cache_path(cache_dir: str, key: str) -> str:
    return os.path.join(cache_dir, f"{key}.json")


def read_cache(cache_dir: str, key: str):
    """The cached payload, or None on miss or any corruption."""
    path = cache_path(cache_dir, key)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            header = fh.readline().rstrip("\n")
            digest = fh.readline().rstrip("\n")
            payload = fh.read()
    except OSError:
        return None
    if header != HEADER:
        return None
    if hashlib.sha256(payload.encode()).hexdigest() != digest:
        return None
    return payload


def write_cache(cache_dir: str, key: str, payload: str):
    """Atomic write: temp file in the same directory, then rename."""
    os.makedirs(cache_dir, exist_ok=True)
    digest = hashlib.sha256(payload.encode()).hexdigest()
    body = f"{HEADER}\n{digest}\n{payload}"
    fd, tmp = tempfile.mkstemp(dir=cache_dir, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(body)
        os.replace(tmp, cache_path(cache_dir, key))
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
