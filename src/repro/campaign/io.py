"""Durability primitives: atomic writes, an append log, a verified store.

Every durable byte the repo writes goes through this module, and this
module alone calls :func:`os.fsync` (DESIGN.md §15, "durability
primitives"):

* :func:`atomic_write` — the payload lands in a temporary file in the
  target directory, is flushed and fsynced, and is then moved over the
  destination with :func:`os.replace`.  An interrupt (SIGKILL, power
  loss, a crashed worker) leaves either the previous artifact or the new
  one, never a truncated hybrid.  ``durable=False`` keeps the rename and
  drops both fsyncs: a ``kill -9`` still leaves the old or the new file,
  but an OS crash may leave a torn one, so it is only for files a reader
  verifies and can recompute (campaign checkpoints).
* :class:`AppendLog` — a JSONL log whose appends are fsynced before they
  return.  Opening it pins the directory entry and terminates a torn
  final line, so the next record is never glued onto the torn bytes;
  loading skips torn lines.  The campaign journal and the serve
  write-ahead request log are built on it.
* :class:`VerifiedStore` — atomic blob files that are verified on every
  read by a caller-supplied decoder; a blob that fails is moved into
  ``root/quarantine/`` and reported as absent.  The serve result cache
  and the campaign checkpoint store are built on it.
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
from pathlib import Path
from typing import Any, Callable, Iterable, TypeVar

T = TypeVar("T")


def atomic_write(path: str | os.PathLike, data: str | bytes, *,
                 encoding: str = "utf-8", durable: bool = True) -> Path:
    """Write ``data`` to ``path`` atomically (temp file + fsync + rename;
    without the file and directory fsyncs when ``durable`` is false).

    Parent directories are created as needed.  Returns the final path.
    """
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    payload = data.encode(encoding) if isinstance(data, str) else data
    fd, tmp_name = tempfile.mkstemp(
        prefix=f".{target.name}.", suffix=".tmp", dir=target.parent
    )
    tmp = Path(tmp_name)
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(payload)
            if durable:
                handle.flush()
                os.fsync(handle.fileno())
        os.replace(tmp, target)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    if durable:
        _fsync_dir(target.parent)
    return target


def _fsync_dir(directory: Path) -> None:
    """Best-effort directory fsync so the rename itself is durable."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform without dir fds
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - e.g. network filesystems
        pass
    finally:
        os.close(fd)


def _encode_line(record: dict[str, Any]) -> bytes:
    return (json.dumps(record, sort_keys=True) + "\n").encode("utf-8")


class AppendLog:
    """Append-only JSONL file, one fsynced record per line.

    Thread-safe: appends from concurrent threads are serialized by one
    lock, and the file handle stays open between them.
    """

    def __init__(self, path: str | os.PathLike) -> None:
        self.path = Path(path)
        self._handle = None
        self._lock = threading.Lock()
        self.appended = 0

    def open(self) -> None:
        """Open for appending (idempotent), creating the file if needed.

        A mid-write kill can leave a torn final line with no newline;
        appending straight after it would glue the next record onto the
        torn prefix and lose it, so the torn line is terminated (and
        fsynced) and stays its own, skipped, line.  The parent directory
        is fsynced on every open: a file created by a process that died
        before its own directory fsync must not lose its name after
        records start to depend on it.
        """
        with self._lock:
            self._open()

    def _open(self) -> None:
        if self._handle is not None:
            return
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._handle = open(self.path, "a+b")    # writes always append
        if self._handle.tell() > 0:
            self._handle.seek(-1, os.SEEK_END)
            if self._handle.read(1) != b"\n":
                self._handle.write(b"\n")
                self._handle.flush()
                os.fsync(self._handle.fileno())
        _fsync_dir(self.path.parent)

    def append(self, record: dict[str, Any]) -> None:
        """Durably append one record (flush + fsync before returning)."""
        line = _encode_line(record)
        with self._lock:
            self._open()
            self._handle.write(line)
            self._handle.flush()
            os.fsync(self._handle.fileno())
            self.appended += 1

    def close(self) -> None:
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None

    def load(self) -> tuple[list[dict[str, Any]], int]:
        """``(records, torn)``: every line that decodes to a JSON object,
        in file order, and the number of non-blank lines that do not.

        Raises :class:`FileNotFoundError` when the log does not exist.
        """
        records: list[dict[str, Any]] = []
        torn = 0
        for line in self.path.read_bytes().splitlines():
            if not line.strip():
                continue
            try:
                record = json.loads(line.decode("utf-8"))
            except ValueError:       # JSON or UTF-8 decode: a torn line
                torn += 1
                continue
            if isinstance(record, dict):
                records.append(record)
            else:
                torn += 1
        return records, torn

    def compact(self, records: Iterable[dict[str, Any]]) -> None:
        """Atomically replace the log with just ``records``; the next
        append reopens the new file."""
        body = b"".join(_encode_line(record) for record in records)
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None
            atomic_write(self.path, body)


class VerifiedStore:
    """Blob files under ``root``, verified on every read.

    Writes go through :func:`atomic_write`, so a reader sees the old
    blob or the complete new one; a write with ``durable=False`` skips
    the fsyncs, and the read-side verification is what catches a blob an
    OS crash tore.  Reads hand the text to a decoder
    supplied by the caller, which raises :class:`ValueError`,
    :class:`KeyError` or :class:`TypeError` on any defect; a defective
    or unreadable blob is moved into ``root/quarantine/`` (evidence is
    never deleted) and read as absent.
    """

    def __init__(self, root: str | os.PathLike) -> None:
        self.root = Path(root)
        self._lock = threading.Lock()
        self.corrupt = 0

    def write(self, path: Path, text: str, *, durable: bool = True) -> Path:
        return atomic_write(path, text, durable=durable)

    def read(self, path: Path, decode: Callable[[str], T]) -> T | None:
        """``decode(text)`` of the blob at ``path``, or ``None`` when it
        is absent or has just been quarantined."""
        try:
            text = path.read_text(encoding="utf-8")
        except (FileNotFoundError, NotADirectoryError):
            return None
        except (OSError, ValueError):   # unreadable, or not UTF-8
            self._quarantine(path)
            return None
        try:
            return decode(text)
        except (ValueError, KeyError, TypeError):
            self._quarantine(path)
            return None

    def _quarantine(self, path: Path) -> None:
        """Move a defective blob to ``quarantine/<name>.<pid>[.<n>]``; a
        failed move falls back to unlink so the bad blob cannot be read
        again either way."""
        quarantine_dir = self.root / "quarantine"
        with self._lock:
            self.corrupt += 1
            try:
                quarantine_dir.mkdir(parents=True, exist_ok=True)
                base = f"{path.name}.{os.getpid()}"
                target = quarantine_dir / base
                suffix = 0
                while target.exists():
                    suffix += 1
                    target = quarantine_dir / f"{base}.{suffix}"
                os.replace(path, target)
            except OSError:
                try:
                    path.unlink(missing_ok=True)
                except OSError:
                    pass

    def quarantined(self) -> list[Path]:
        try:
            return sorted((self.root / "quarantine").iterdir())
        except (FileNotFoundError, NotADirectoryError):
            return []
