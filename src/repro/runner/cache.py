"""Content-addressed capture cache: in-memory LRU plus on-disk ``.npz``.

Keys are SHA-256 fingerprints of a canonical byte encoding of everything
that determines a payload — scene/radiance pixels, device profile
dataclasses, seed entropy, ISP/codec options — so two units that would
produce the same bytes share one cache slot regardless of which
experiment (or which process) asked first. Values are flat
``{name: ndarray}`` payloads, which covers every artifact the fleet
executor moves around (decoded pixels, raw mosaics, scalar sizes,
JSON-encoded metadata strings).

The disk layer shards by key prefix (``ab/abcdef....npz``) and writes
atomically (temp file + ``os.replace``), so concurrent runs sharing a
``--cache-dir`` never observe torn files. Entries are uncompressed
(``ZIP_STORED``) zip files written by ``np.savez``: a hit skips zlib at
~5x the bytes. Older deflated entries load unchanged under the same keys.

A disk hit reads the entry in one ``read`` and parses it from memory
rather than through ``np.load``. ``zipfile`` still checks every member's
CRC-32. Each member's ``.npy`` header goes through NumPy's own parser,
memoized on the header's raw bytes (the parser runs ``ast.literal_eval``,
and one study's entries share a handful of headers). Object dtypes are
refused, as ``allow_pickle=False`` does, each member must hold exactly
its header's byte count, and the zip's end record must count as many
members as its central directory lists (``np.load`` returns a subset of
an entry whose directory is damaged). Anything damaged or unexpected
reads as a miss.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import io
import math
import os
import tempfile
import zipfile
import zlib
from collections import OrderedDict
from pathlib import Path
from typing import Dict, Optional, Union

import numpy as np

from .. import obs

__all__ = ["fingerprint", "CacheStats", "CaptureCache"]

Payload = Dict[str, np.ndarray]


# ----------------------------------------------------------------------
# Canonical fingerprinting
# ----------------------------------------------------------------------
def _feed(hasher, obj) -> None:
    """Feed one object's canonical encoding into ``hasher``.

    Every branch writes a type tag before its content so that, e.g.,
    the string ``"1"`` and the integer ``1`` can never collide.
    """
    if obj is None:
        hasher.update(b"N")
    elif isinstance(obj, (bool, np.bool_)):
        hasher.update(b"B" + (b"1" if obj else b"0"))
    elif isinstance(obj, (int, np.integer)):
        hasher.update(b"I" + repr(int(obj)).encode())
    elif isinstance(obj, (float, np.floating)):
        hasher.update(b"F" + repr(float(obj)).encode())
    elif isinstance(obj, str):
        data = obj.encode("utf-8")
        hasher.update(b"S" + repr(len(data)).encode() + b":" + data)
    elif isinstance(obj, bytes):
        hasher.update(b"Y" + repr(len(obj)).encode() + b":" + obj)
    elif isinstance(obj, np.ndarray):
        arr = np.ascontiguousarray(obj)
        hasher.update(
            b"A" + arr.dtype.str.encode() + repr(arr.shape).encode() + arr.tobytes()
        )
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        hasher.update(b"D" + type(obj).__qualname__.encode())
        for f in dataclasses.fields(obj):
            _feed(hasher, f.name)
            _feed(hasher, getattr(obj, f.name))
    elif isinstance(obj, dict):
        hasher.update(b"M" + repr(len(obj)).encode())
        for key in sorted(obj, key=repr):
            _feed(hasher, key)
            _feed(hasher, obj[key])
    elif isinstance(obj, (list, tuple)):
        hasher.update(b"L" + repr(len(obj)).encode())
        for item in obj:
            _feed(hasher, item)
    elif callable(obj):
        hasher.update(
            b"C"
            + getattr(obj, "__module__", "?").encode()
            + b"."
            + getattr(obj, "__qualname__", repr(obj)).encode()
        )
    else:
        raise TypeError(f"cannot fingerprint object of type {type(obj).__name__!r}")


def fingerprint(obj) -> str:
    """Content-address an object: SHA-256 of its canonical encoding.

    Parameters
    ----------
    obj:
        Any composition of ``None``, bools, ints, floats, strings,
        bytes, numpy arrays, dataclass instances, dicts, lists/tuples,
        and named callables. Encoding is type-tagged and
        layout-insensitive (dict order, array contiguity don't matter).

    Returns
    -------
    A 64-character hex digest; equal digests imply the canonical
    encodings (and therefore the cache-relevant content) are equal.

    Raises
    ------
    TypeError:
        For objects outside the supported composition.
    """
    hasher = hashlib.sha256()
    _feed(hasher, obj)
    return hasher.hexdigest()


# ----------------------------------------------------------------------
# Reading an entry
# ----------------------------------------------------------------------
#: Distinct ``.npy`` headers whose parse is remembered. A study's entries
#: share a few (one per member name, dtype and shape), so this is ample.
_HEADER_MEMO_SIZE = 64

#: Everything a damaged or foreign entry can raise while it is parsed.
_UNREADABLE = (
    OSError,
    ValueError,
    EOFError,
    zipfile.BadZipFile,
    zlib.error,
    NotImplementedError,
    RuntimeError,
)


@functools.lru_cache(maxsize=_HEADER_MEMO_SIZE)
def _npy_header(header: bytes):
    """``(shape, fortran_order, dtype)`` of one raw ``.npy`` header."""
    fp = io.BytesIO(header)
    version = np.lib.format.read_magic(fp)
    if version == (1, 0):
        shape, fortran_order, dtype = np.lib.format.read_array_header_1_0(fp)
    elif version == (2, 0):
        shape, fortran_order, dtype = np.lib.format.read_array_header_2_0(fp)
    else:
        raise ValueError(f"unsupported .npy version {version}")
    if dtype.hasobject:
        raise ValueError("object arrays are never read from the cache")
    return shape, fortran_order, dtype


def _npy_array(member: bytes) -> np.ndarray:
    """The array one ``.npy`` member holds, as a read-only view of it."""
    length_bytes = {b"\x01": 2, b"\x02": 4}.get(member[6:7])
    if length_bytes is None:
        raise ValueError("not a version 1 or 2 .npy member")
    start = 8 + length_bytes
    end = start + int.from_bytes(member[8:start], "little")
    shape, fortran_order, dtype = _npy_header(member[:end])
    count = math.prod(shape)
    if len(member) - end != count * dtype.itemsize:
        raise ValueError("member length does not match its header")
    if count * dtype.itemsize:
        array = np.frombuffer(member, dtype=dtype, count=count, offset=end)
    else:  # np.frombuffer refuses zero-size items; there are no bytes to read
        array = np.ndarray(count, dtype=dtype)
    if fortran_order:
        return array.reshape(shape[::-1]).transpose()
    return array.reshape(shape)


def _read_npz(data: bytes) -> Payload:
    """Parse a whole ``np.savez`` entry held in memory."""
    payload: Payload = {}
    with zipfile.ZipFile(io.BytesIO(data)) as archive:
        infos = archive.infolist()
        # np.savez writes no archive comment, so the end record is the
        # last 22 bytes. Its entry count must match the central
        # directory's: a damaged directory can otherwise hide members.
        if data[-22:-18] != b"PK\x05\x06" or int.from_bytes(
            data[-12:-10], "little"
        ) != len(infos):
            raise ValueError("central directory does not match its end record")
        for info in infos:
            if not info.filename.endswith(".npy"):
                raise ValueError(f"unexpected member {info.filename!r}")
            payload[info.filename[:-4]] = _npy_array(archive.read(info))
    return payload


# ----------------------------------------------------------------------
# The cache proper
# ----------------------------------------------------------------------
@dataclasses.dataclass
class CacheStats:
    """Per-instance hit/miss/store counters.

    Kept on the cache itself (independent of the global
    :mod:`repro.obs` metrics) so tests and benchmarks can assert cache
    behavior without activating observability.

    Attributes
    ----------
    hits:
        Lookups served from the memory or disk layer.
    misses:
        Lookups that found nothing (including torn disk files).
    stores:
        Payloads written via :meth:`CaptureCache.put`.
    """

    hits: int = 0
    misses: int = 0
    stores: int = 0

    def reset(self) -> None:
        """Zero all three counters."""
        self.hits = self.misses = self.stores = 0


class CaptureCache:
    """Two-level content-addressed store for fleet artifacts.

    Parameters
    ----------
    cache_dir:
        Optional directory for the persistent layer; created eagerly
        (``exist_ok``, so concurrent constructions race safely).
        ``None`` keeps the cache purely in-memory.
    max_memory_items:
        LRU bound on the in-memory layer. Payloads are ~100 KiB each at
        the working 96x96 resolution, so the default bounds memory at
        a few hundred MiB.

    Raises
    ------
    ValueError:
        If ``max_memory_items`` is not positive, or ``cache_dir`` exists
        and is not a directory.
    """

    def __init__(
        self,
        cache_dir: Optional[Union[str, Path]] = None,
        max_memory_items: int = 2048,
    ) -> None:
        if max_memory_items < 1:
            raise ValueError("max_memory_items must be positive")
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        if self.cache_dir is not None:
            self._ensure_dir(self.cache_dir)
        self.max_memory_items = max_memory_items
        self.stats = CacheStats()
        self._memory: "OrderedDict[str, Payload]" = OrderedDict()

    # -- internals ------------------------------------------------------
    @staticmethod
    def _ensure_dir(path: Path) -> None:
        """Create ``path`` as a directory, tolerating concurrent creators.

        ``mkdir(exist_ok=True)`` alone still raises ``FileExistsError``
        when a racing process creates the directory between the internal
        existence check and the ``mkdir`` syscall on some platforms, so
        that error is swallowed iff the path ended up being a directory.
        """
        try:
            path.mkdir(parents=True, exist_ok=True)
        except FileExistsError:
            pass
        if not path.is_dir():
            raise ValueError(f"cache path {path} exists and is not a directory")

    def _disk_path(self, key: str) -> Path:
        assert self.cache_dir is not None
        return self.cache_dir / key[:2] / f"{key}.npz"

    @staticmethod
    def _copy(payload: Payload) -> Payload:
        return {name: np.array(value, copy=True) for name, value in payload.items()}

    def _remember(self, key: str, payload: Payload) -> None:
        self._memory[key] = payload
        self._memory.move_to_end(key)
        while len(self._memory) > self.max_memory_items:
            self._memory.popitem(last=False)

    # -- public API -----------------------------------------------------
    def get(self, key: str) -> Optional[Payload]:
        """Look up a payload by its content-addressed key.

        Parameters
        ----------
        key:
            A :func:`fingerprint` hex digest (see
            :func:`~repro.runner.units.unit_cache_key`).

        Returns
        -------
        A defensive *copy* of the stored ``{name: ndarray}`` payload
        (mutating it cannot corrupt the cache), or ``None`` on a miss.
        Disk-layer hits are promoted into the memory LRU; torn or
        unreadable disk files count as misses, never as errors.
        """
        cached = self._memory.get(key)
        if cached is not None:
            self._memory.move_to_end(key)
            self.stats.hits += 1
            obs.count("capture_cache.hit")
            obs.count("capture_cache.memory_hit")
            return self._copy(cached)
        if self.cache_dir is not None:
            try:
                entry = open(self._disk_path(key), "rb")
            except OSError:
                entry = None
            if entry is not None:
                try:
                    with entry, obs.span("cache.disk_read"):
                        payload = _read_npz(entry.read())
                except _UNREADABLE:
                    # A torn or stale file is a miss, never an error.
                    self.stats.misses += 1
                    obs.count("capture_cache.miss")
                    return None
                self._remember(key, payload)
                self.stats.hits += 1
                obs.count("capture_cache.hit")
                obs.count("capture_cache.disk_hit")
                return self._copy(payload)
        self.stats.misses += 1
        obs.count("capture_cache.miss")
        return None

    def put(self, key: str, payload: Payload) -> None:
        """Store a payload under ``key`` in both layers.

        Parameters
        ----------
        key:
            Content-addressed key the payload will be retrievable under.
        payload:
            Flat ``{name: ndarray}`` mapping; values are normalized with
            ``np.asarray`` and copied, so later mutation of the caller's
            arrays cannot corrupt the cache. The disk entry is an
            uncompressed ``.npz`` (cheap to read back); the write is
            atomic (temp file + ``os.replace``) and shard directories
            are created race-safely, so concurrent runs may share a
            ``cache_dir``.
        """
        normalized = {name: np.asarray(value) for name, value in payload.items()}
        self._remember(key, self._copy(normalized))
        self.stats.stores += 1
        obs.count("capture_cache.store")
        if self.cache_dir is not None:
            path = self._disk_path(key)
            self._ensure_dir(path.parent)
            fd, tmp = tempfile.mkstemp(
                dir=path.parent, prefix=".tmp-", suffix=".npz"
            )
            try:
                with obs.span("cache.disk_write"):
                    with os.fdopen(fd, "wb") as fh:
                        np.savez(fh, **normalized)
                    os.replace(tmp, path)
            except BaseException:
                if os.path.exists(tmp):
                    os.unlink(tmp)
                raise

    def __contains__(self, key: str) -> bool:
        if key in self._memory:
            return True
        return self.cache_dir is not None and self._disk_path(key).exists()

    def __len__(self) -> int:
        return len(self._memory)

    def clear_memory(self) -> None:
        """Drop the in-memory layer (the disk layer is untouched)."""
        self._memory.clear()
