"""Content-addressed blob files: the one on-disk format FixD writes bytes in.

A :class:`BlobStore` names every blob by the SHA-256 of its bytes
(``blobs/<aa>/<sha256>.blob``, sharded by the first address byte), so
identical bytes share one file and a read can prove its bytes are the
ones that were written.  Two layers keep their bytes here:

* the Time Machine's durable checkpoint store
  (:mod:`repro.timemachine.blobstore`) puts checkpoint chunks, the
  pending snapshot and the Scroll's sealed segments in one store per
  root, shared across runs;
* the Scroll (:mod:`repro.scroll.scroll`) seals segments into a
  private store of its own; a durable flush moves them into the run's
  store as one merged segment.

Writes are atomic: bytes go to a ``*.tmp`` file in the shard directory
and are ``os.replace``d into the final name, so a writer killed
mid-write leaves at worst an orphaned tmp file, never a torn addressed
blob.  With ``fsync=True`` (the default) the tmp file and the shard
directory are fsynced too, so the blob survives power loss.  A private
store passes ``fsync=False``: it is deleted with its Scroll, and a crash
loses it either way.

Reads validate: a blob whose bytes no longer hash to its name raises
:class:`repro.errors.BlobIntegrityError` instead of handing back
corrupt bytes.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, List, Tuple

from repro.errors import BlobIntegrityError, CheckpointError


def _fsync_dir(path: Path) -> None:
    """fsync a directory so a rename into it survives power loss, not just a crash."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:  # pragma: no cover - e.g. directories are not openable
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - filesystems without dir fsync
        pass
    finally:
        os.close(fd)


def _atomic_write(path: Path, data: bytes) -> None:
    """Write ``data`` to ``path`` via tmp+rename so readers never see a torn file."""
    tmp = path.parent / f"{path.name}.{os.getpid()}.tmp"
    with open(tmp, "wb") as handle:
        handle.write(data)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)
    _fsync_dir(path.parent)


@dataclass
class IntegrityReport:
    """What :meth:`BlobStore.validate_integrity` found (and optionally repaired)."""

    blobs_checked: int = 0
    corrupt: List[str] = field(default_factory=list)
    tmp_orphans: int = 0
    removed: int = 0

    @property
    def ok(self) -> bool:
        return not self.corrupt


class BlobStore:
    """SHA-256-addressed blob files with atomic writes and validated reads."""

    def __init__(self, root, fsync: bool = True) -> None:
        self.root = Path(root)
        self.blob_root = self.root / "blobs"
        self.blob_root.mkdir(parents=True, exist_ok=True)
        self.fsync = fsync
        self._write_counter = 0

    @staticmethod
    def address(data: bytes) -> str:
        return hashlib.sha256(data).hexdigest()

    def _path(self, name: str) -> Path:
        return self.blob_root / name[:2] / f"{name}.blob"

    def put(self, data: bytes) -> Tuple[str, bool]:
        """Store ``data``; returns ``(address, written)``.

        ``written`` is False when a blob with this address already
        exists — the content-addressed dedup case — in which case no
        bytes touch the disk.
        """
        name = self.address(data)
        path = self._path(name)
        if path.exists():
            return name, False
        path.parent.mkdir(parents=True, exist_ok=True)
        self._write_counter += 1
        tmp = path.parent / f"{name}.{os.getpid()}.{self._write_counter}.tmp"
        with open(tmp, "wb") as handle:
            handle.write(data)
            if self.fsync:
                handle.flush()
                os.fsync(handle.fileno())
        os.replace(tmp, path)
        if self.fsync:
            _fsync_dir(path.parent)
        return name, True

    def get(self, name: str, verify: bool = True) -> bytes:
        """Read a blob, verifying its bytes still hash to its address.

        ``verify=False`` skips the hash for a caller that already
        verified this blob once in this process.
        """
        path = self._path(name)
        try:
            data = path.read_bytes()
        except FileNotFoundError:
            raise CheckpointError(f"blob {name!r} is missing from the store") from None
        if verify and self.address(data) != name:
            raise BlobIntegrityError(
                f"blob {name!r} failed integrity validation: stored bytes hash to "
                f"{self.address(data)!r}"
            )
        return data

    def exists(self, name: str) -> bool:
        return self._path(name).exists()

    def delete(self, name: str) -> bool:
        try:
            self._path(name).unlink()
            return True
        except FileNotFoundError:
            return False

    def blob_names(self) -> Iterator[str]:
        for shard in sorted(self.blob_root.iterdir()):
            if not shard.is_dir():
                continue
            for entry in sorted(shard.iterdir()):
                if entry.suffix == ".blob":
                    yield entry.stem

    def bytes_on_disk(self) -> int:
        return sum(
            entry.stat().st_size
            for shard in self.blob_root.iterdir()
            if shard.is_dir()
            for entry in shard.iterdir()
            if entry.suffix == ".blob"
        )

    def validate_integrity(self, repair: bool = False) -> IntegrityReport:
        """Re-hash every blob and sweep writer-crash leftovers.

        Orphaned ``*.tmp`` files (a writer died between write and
        rename) are always removed — they were never addressable, so no
        committed line can reference them.  Corrupt addressed blobs are
        reported, and removed only with ``repair=True`` (a removed blob
        surfaces as a missing-blob error on restore rather than as
        silently wrong bytes).
        """
        report = IntegrityReport()
        for shard in sorted(self.blob_root.iterdir()):
            if not shard.is_dir():
                continue
            for entry in sorted(shard.iterdir()):
                if entry.name.endswith(".tmp"):
                    entry.unlink()
                    report.tmp_orphans += 1
                    continue
                if entry.suffix != ".blob":
                    continue
                report.blobs_checked += 1
                if self.address(entry.read_bytes()) != entry.stem:
                    report.corrupt.append(entry.stem)
                    if repair:
                        entry.unlink()
                        report.removed += 1
        return report
