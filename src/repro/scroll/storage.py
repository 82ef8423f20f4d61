"""Scroll storage codecs: the sealed-segment framing and the JSONL format.

A Scroll keeps its sealed segments (see :mod:`repro.scroll.scroll`) as
content-addressed blobs; this module is how their bytes look.  A segment
is the concatenation of one compact pickled
``(pid, kind, time, detail, vt, seq)`` tuple per entry
(:func:`encode_entry`), rather than the JSON line format
:func:`save_scroll` uses: decoding sits on the replay hot path (every
cold entry a query touches must be rebuilt), and the tuple pickle
decodes 2-3x faster than JSON + :meth:`ScrollEntry.from_record
<repro.scroll.entry.ScrollEntry.from_record>` while preserving payload
types (tuples, bytes) exactly.

Pickle frames are self-delimiting, so a segment needs no separator and
no index on disk.  :func:`encode_segment` and :func:`decode_segment`
also return the frame offsets, which the Scroll keeps in memory (8 bytes
per entry) so a cold read decodes only the frames it wants, and a cut
inside a segment is a byte prefix: ``raw[:offsets[k]]`` holds exactly
the first ``k`` frames.

The whole-Scroll helpers (:func:`save_scroll`, :func:`load_scroll`,
:func:`iter_scroll_records`, :func:`append_entry`) keep the
append-friendly, diff-able JSONL format for snapshot-style persistence
and interchange.
"""

from __future__ import annotations

import io
import json
import pickle
from array import array
from itertools import accumulate
from pathlib import Path
from typing import Iterator, List, Sequence, Tuple, Union

from repro.dsim.clock import VectorTimestamp
from repro.scroll.entry import ActionKind, ScrollEntry

PathLike = Union[str, Path]

_KIND_BY_VALUE = {kind.value: kind for kind in ActionKind}


def encode_entry(entry: ScrollEntry) -> bytes:
    """Serialize one entry to its on-disk segment framing (pickled tuple)."""
    return pickle.dumps(
        (
            entry.pid,
            entry.kind.value,
            entry.time,
            entry.detail,
            entry.vt.entries if entry.vt is not None else None,
            entry.seq,
        ),
        protocol=pickle.HIGHEST_PROTOCOL,
    )


def decode_entry(blob: bytes) -> ScrollEntry:
    """Rebuild an entry from :func:`encode_entry` output."""
    pid, kind, time, detail, vt, seq = pickle.loads(blob)
    return ScrollEntry(
        pid=pid,
        kind=_KIND_BY_VALUE[kind],
        time=time,
        detail=detail,
        vt=VectorTimestamp(vt) if vt is not None else None,
        seq=seq,
    )


def encode_segment(entries: Sequence[ScrollEntry]) -> Tuple[bytes, array]:
    """Serialize a run of entries to one segment payload and its frame offsets.

    The payload is the concatenation of :func:`encode_entry` frames;
    ``offsets`` holds ``len(entries) + 1`` byte positions, the start of
    every frame followed by the payload's end.
    """
    frames = [encode_entry(entry) for entry in entries]
    return b"".join(frames), array("q", accumulate(map(len, frames), initial=0))


def decode_segment(blob: bytes) -> Tuple[List[ScrollEntry], array]:
    """Rebuild the entry run and its frame offsets from a segment payload."""
    entries: List[ScrollEntry] = []
    offsets = array("q", [0])
    buffer = io.BytesIO(blob)
    end = len(blob)
    while buffer.tell() < end:
        pid, kind, time, detail, vt, seq = pickle.load(buffer)
        entries.append(
            ScrollEntry(
                pid=pid,
                kind=_KIND_BY_VALUE[kind],
                time=time,
                detail=detail,
                vt=VectorTimestamp(vt) if vt is not None else None,
                seq=seq,
            )
        )
        offsets.append(buffer.tell())
    return entries, offsets


# ----------------------------------------------------------------------
# whole-Scroll snapshot persistence (original JSONL helpers)
# ----------------------------------------------------------------------
def encode_record(entry: ScrollEntry) -> bytes:
    """Serialize one entry to its JSONL interchange line (no newline)."""
    return json.dumps(entry.to_record(), sort_keys=True, default=str).encode("utf-8")


def save_scroll(scroll, path: PathLike) -> int:
    """Write ``scroll`` to ``path`` as JSON lines; returns the entry count."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    count = 0
    with target.open("wb") as handle:
        for entry in scroll:
            handle.write(encode_record(entry))
            handle.write(b"\n")
            count += 1
    return count


def iter_scroll_records(path: PathLike) -> Iterator[dict]:
    """Yield raw entry records from a Scroll file without building a Scroll."""
    with Path(path).open("r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                yield json.loads(line)


def load_scroll(path: PathLike):
    """Load a Scroll previously written by :func:`save_scroll`."""
    from repro.scroll.scroll import Scroll

    return Scroll(ScrollEntry.from_record(record) for record in iter_scroll_records(path))


def append_entry(path: PathLike, entry: ScrollEntry) -> None:
    """Append a single entry to an existing Scroll JSONL file (creating it if needed)."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    with target.open("ab") as handle:
        handle.write(encode_record(entry))
        handle.write(b"\n")
