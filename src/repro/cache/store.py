"""Content-addressed result store in a sharded local directory.

Every entry is keyed by ``sha256(canonical-JSON payload + code-version
salt)``: the payload is the resolved experiment content
(:meth:`repro.api.experiment.ExperimentSpec.resolved_payload` for single
runs, the per-candidate equivalent for sweep points) and the salt ties
entries to the code version that produced them — a version bump changes
every key, so stale results are simply never served (``gc`` reclaims
them by reading the salt recorded inside each entry).

The on-disk layout is a compatibility contract, byte for byte::

    <root>/ab/abcdef.../entry.json    # metadata + stats (+ scores)
    <root>/ab/abcdef.../traces.npz    # optional waveform arrays

Writes are atomic at entry granularity: each file lands through a
tmp-file + ``os.replace`` and ``entry.json`` is renamed into place last,
so a torn write is invisible (no ``entry.json`` means no entry) and
concurrent writers of one key are harmless (keys are content hashes).
Loads validate with the same rigor as
:func:`repro.io.csvio.validate_checkpoint`: an entry that exists but
cannot be trusted — unparseable JSON, key/schema/salt mismatch, missing
trace payload — raises
:class:`~repro.core.errors.CacheCorruptionError` naming the entry and
the problem instead of silently serving wrong results.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import re
import shutil
import time
import zipfile
import zlib
from dataclasses import asdict, is_dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Mapping, Optional, Tuple, Union

import numpy as np

from ..core.errors import CacheCorruptionError, ConfigurationError
from ..core.results import SimulationResult, SolverStats, Trace

__all__ = [
    "CACHE_SCHEMA_VERSION",
    "CACHE_ENV_VAR",
    "code_version_salt",
    "default_cache_dir",
    "ResultStore",
]

#: bump to invalidate every existing cache entry on a storage-format change
#: (2: execution fingerprints grew a "compiled" key for the lane core)
CACHE_SCHEMA_VERSION = 2

#: environment variable overriding the default store location
CACHE_ENV_VAR = "REPRO_CACHE_DIR"

PathLike = Union[str, Path]

_ENTRY_FILE = "entry.json"
_TRACES_FILE = "traces.npz"

#: an entry directory name: a sha256 hex digest
_KEY_PATTERN = re.compile(r"[0-9a-f]{64}")


def code_version_salt() -> str:
    """The salt mixed into every cache key.

    Combines the package version with the storage schema version: results
    computed by a different code version (or stored in a different
    layout) can never be served, only garbage-collected.
    """
    from .. import __version__

    return f"repro-{__version__}+schema{CACHE_SCHEMA_VERSION}"


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR`` or ``~/.cache/repro``."""
    env = os.environ.get(CACHE_ENV_VAR)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro"


def _jsonable(value: object) -> object:
    """Best-effort JSON-safe form of run metadata.

    Scalars pass through; tuples/lists/dicts recurse; dataclasses become
    dicts; anything else becomes its ``repr`` — metadata is bookkeeping,
    not part of the byte-identical contract (traces and stats are).
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    if isinstance(value, Mapping):
        return {str(key): _jsonable(item) for key, item in value.items()}
    if is_dataclass(value) and not isinstance(value, type):
        return _jsonable(asdict(value))
    return repr(value)


class ResultStore:
    """Content-addressed store of typed simulation results.

    Parameters
    ----------
    root:
        Store directory (created lazily on first write).  ``None`` uses
        :func:`default_cache_dir`.
    salt:
        Code-version salt override (tests only; defaults to
        :func:`code_version_salt`).
    """

    def __init__(
        self, root: Optional[PathLike] = None, *, salt: Optional[str] = None
    ) -> None:
        self.root = Path(root) if root is not None else default_cache_dir()
        self.salt = salt if salt is not None else code_version_salt()

    # ------------------------------------------------------------------ #
    # keys and layout
    # ------------------------------------------------------------------ #
    def key_for(self, payload: Mapping[str, object]) -> str:
        """Content key of ``payload``: canonical JSON + salt, hashed."""
        try:
            canonical = json.dumps(payload, sort_keys=True)
        except (TypeError, ValueError) as exc:
            raise ConfigurationError(
                f"cache payload is not canonical JSON data: {exc}"
            ) from None
        digest = hashlib.sha256()
        digest.update(canonical.encode())
        digest.update(b"\x00")
        digest.update(self.salt.encode())
        return digest.hexdigest()

    def _entry_dir(self, key: str) -> Path:
        """The entry's directory, ``<root>/<key[:2]>/<key>``."""
        return self.root / key[:2] / key

    def _entry_ref(self, key: str) -> str:
        """How error messages name one entry (location + key)."""
        return f"{key} at {self.root}"

    def _read(self, key: str, name: str) -> Optional[bytes]:
        """One file of the entry, or ``None`` when it does not exist;
        other I/O errors propagate for the caller to classify."""
        try:
            return (self._entry_dir(key) / name).read_bytes()
        except FileNotFoundError:
            return None

    def _keys(self) -> Iterator[str]:
        """Every stored key, complete or torn, in sorted order.

        Only ``<root>/<key[:2]>/<key>`` directories named by a sha256 hex
        digest count: dot-directories and stray directories are never
        entries, so maintenance neither reports nor deletes them.
        """
        if not self.root.is_dir():
            return
        for shard in sorted(self.root.iterdir()):
            if not shard.is_dir():
                continue
            for entry_dir in sorted(shard.iterdir()):
                key = entry_dir.name
                if (
                    entry_dir.is_dir()
                    and _KEY_PATTERN.fullmatch(key)
                    and key[:2] == shard.name
                ):
                    yield key

    def _size(self, key: str) -> int:
        entry_dir = self._entry_dir(key)
        if not entry_dir.is_dir():
            return 0
        return sum(
            item.stat().st_size for item in entry_dir.iterdir() if item.is_file()
        )

    def contains(self, key: str) -> bool:
        """Whether a (complete) entry exists for ``key``."""
        return (self._entry_dir(key) / _ENTRY_FILE).is_file()

    # ------------------------------------------------------------------ #
    # writing
    # ------------------------------------------------------------------ #
    def _write_entry(
        self,
        key: str,
        meta: Dict[str, object],
        traces: Optional[List[Trace]] = None,
    ) -> None:
        files: Dict[str, bytes] = {}
        if traces is not None:
            arrays: Dict[str, np.ndarray] = {}
            for index, trace in enumerate(traces):
                arrays[f"t{index}"] = trace.times
                arrays[f"v{index}"] = trace.values
            buffer = io.BytesIO()
            np.savez_compressed(buffer, **arrays)
            files[_TRACES_FILE] = buffer.getvalue()
        meta = dict(meta)
        meta.update(schema=CACHE_SCHEMA_VERSION, salt=self.salt, key=key)
        meta.setdefault("created_at", time.time())
        # entry.json lands last: its presence is what makes the entry real
        files[_ENTRY_FILE] = (
            json.dumps(meta, indent=2, sort_keys=True) + "\n"
        ).encode()
        entry_dir = self._entry_dir(key)
        entry_dir.mkdir(parents=True, exist_ok=True)
        for name, blob in files.items():
            tmp = entry_dir / f".{name}.tmp{os.getpid()}"
            with tmp.open("wb") as handle:
                handle.write(blob)
            os.replace(tmp, entry_dir / name)

    def store_run(
        self,
        key: str,
        result: SimulationResult,
        *,
        store_traces: bool = True,
        label: str = "",
    ) -> None:
        """Record one finished single run under ``key``."""
        traces = None
        trace_meta: List[Dict[str, str]] = []
        if store_traces:
            traces = [result.traces[name] for name in result.trace_names()]
            trace_meta = [
                {"name": trace.name, "unit": trace.unit} for trace in traces
            ]
        self._write_entry(
            key,
            {
                "kind": "run",
                "label": label,
                "stats": result.stats.as_dict(),
                "metadata": _jsonable(result.metadata),
                "traces": trace_meta,
                "has_traces": bool(store_traces),
            },
            traces=traces,
        )

    def store_point(
        self,
        key: str,
        *,
        score: float,
        cpu_time_s: float,
        exact_rerun: bool,
        label: str = "",
    ) -> None:
        """Record one finished sweep candidate under ``key``."""
        self._write_entry(
            key,
            {
                "kind": "point",
                "label": label,
                "score": float(score),
                "cpu_time_s": float(cpu_time_s),
                "exact_rerun": bool(exact_rerun),
            },
        )

    # ------------------------------------------------------------------ #
    # loading (validate-on-load)
    # ------------------------------------------------------------------ #
    def _load_entry(self, key: str, expect_kind: str) -> Optional[Dict[str, object]]:
        try:
            blob = self._read(key, _ENTRY_FILE)
        except OSError as exc:
            raise CacheCorruptionError(
                f"cache entry {self._entry_ref(key)} is unreadable ({exc}); "
                "delete it or run `repro cache gc`"
            ) from None
        if blob is None:
            return None
        try:
            meta = json.loads(blob.decode())
        except (UnicodeDecodeError, ValueError) as exc:
            raise CacheCorruptionError(
                f"cache entry {self._entry_ref(key)} is unreadable ({exc}); "
                "delete it or run `repro cache gc`"
            ) from None
        if not isinstance(meta, dict):
            raise CacheCorruptionError(
                f"cache entry {self._entry_ref(key)} does not contain a "
                "JSON object"
            )
        if meta.get("schema") != CACHE_SCHEMA_VERSION:
            raise CacheCorruptionError(
                f"cache entry {self._entry_ref(key)} has schema "
                f"{meta.get('schema')!r}; this code reads schema "
                f"{CACHE_SCHEMA_VERSION} — run `repro cache gc` to reclaim it"
            )
        if meta.get("key") != key:
            raise CacheCorruptionError(
                f"cache entry {self._entry_ref(key)} records key "
                f"{meta.get('key')!r} but is stored under {key!r}; the "
                "store is mis-indexed"
            )
        if meta.get("salt") != self.salt:
            # key derivation includes the salt, so this cannot happen via
            # normal addressing — treat a hand-moved entry as corruption
            raise CacheCorruptionError(
                f"cache entry {self._entry_ref(key)} was written with salt "
                f"{meta.get('salt')!r} (current {self.salt!r})"
            )
        if meta.get("kind") != expect_kind:
            raise CacheCorruptionError(
                f"cache entry {self._entry_ref(key)} has kind "
                f"{meta.get('kind')!r}; expected {expect_kind!r}"
            )
        return meta

    def load_run(self, key: str) -> Optional[SimulationResult]:
        """Rebuild the stored run for ``key`` (``None`` on a miss).

        Raises :class:`CacheCorruptionError` when the entry exists but
        fails validation.
        """
        meta = self._load_entry(key, "run")
        if meta is None:
            return None
        stats_data = meta.get("stats")
        if not isinstance(stats_data, dict):
            raise CacheCorruptionError(
                f"cache entry for {key} has no stats record"
            )
        try:
            stats = SolverStats(**stats_data)
        except TypeError as exc:
            raise CacheCorruptionError(
                f"cache entry for {key} has malformed stats: {exc}"
            ) from None
        result = SimulationResult(stats=stats, metadata=dict(meta.get("metadata", {})))
        if meta.get("has_traces"):
            trace_meta = meta.get("traces", [])
            try:
                npz_blob = self._read(key, _TRACES_FILE)
            except OSError:
                npz_blob = None
            if npz_blob is None:
                raise CacheCorruptionError(
                    f"cache entry for {key} declares traces but its "
                    f"{_TRACES_FILE} blob is missing"
                )
            try:
                with np.load(io.BytesIO(npz_blob)) as npz:
                    arrays = {name: npz[name] for name in npz.files}
            except (zipfile.BadZipFile, zlib.error, ValueError, OSError, EOFError) as exc:
                raise CacheCorruptionError(
                    f"cache entry {self._entry_ref(key)} has an unreadable {_TRACES_FILE} "
                    f"blob: {exc!r}"
                ) from None
            for index, info in enumerate(trace_meta):
                t_key, v_key = f"t{index}", f"v{index}"
                if t_key not in arrays or v_key not in arrays:
                    raise CacheCorruptionError(
                        f"cache entry for {key} is missing trace arrays "
                        f"{t_key}/{v_key} in its {_TRACES_FILE} blob"
                    )
                trace = Trace(str(info["name"]), str(info.get("unit", "")))
                trace._times = arrays[t_key].tolist()
                trace._values = arrays[v_key].tolist()
                result.add_trace(trace)
        return result

    def load_point(self, key: str) -> Optional[Dict[str, object]]:
        """The stored sweep-point record for ``key`` (``None`` on a miss)."""
        meta = self._load_entry(key, "point")
        if meta is None:
            return None
        if "score" not in meta or "cpu_time_s" not in meta:
            raise CacheCorruptionError(
                f"cache entry for {key} has no score record"
            )
        return {
            "score": float(meta["score"]),
            "cpu_time_s": float(meta["cpu_time_s"]),
            "exact_rerun": bool(meta.get("exact_rerun", False)),
        }

    def drop(self, key: str) -> bool:
        """Remove one entry; returns whether anything was removed."""
        entry_dir = self._entry_dir(key)
        if not entry_dir.exists():
            return False
        shutil.rmtree(entry_dir)
        return True

    # ------------------------------------------------------------------ #
    # maintenance (the `repro cache` surface)
    # ------------------------------------------------------------------ #
    def entries(self) -> Iterator[Tuple[str, Dict[str, object]]]:
        """Iterate ``(key, descriptor)`` over every stored entry.

        Unreadable entries are reported with ``"corrupt": True`` instead
        of raising, so maintenance commands can act on them.
        """
        for key in self._keys():
            descriptor: Dict[str, object] = {"size_bytes": self._size(key)}
            try:
                blob = self._read(key, _ENTRY_FILE)
                meta = json.loads(blob.decode()) if blob is not None else None
            except (OSError, UnicodeDecodeError, ValueError):
                meta = None
            if not isinstance(meta, dict):
                descriptor["corrupt"] = True
            else:
                descriptor.update(
                    kind=meta.get("kind", "?"),
                    label=meta.get("label", ""),
                    salt=meta.get("salt", ""),
                    created_at=float(meta.get("created_at", 0.0)),
                    stale=meta.get("salt") != self.salt,
                )
            yield key, descriptor

    def stats(self) -> Dict[str, object]:
        """Aggregate store statistics (entry counts, bytes, staleness)."""
        totals = {
            "root": str(self.root),
            "salt": self.salt,
            "n_entries": 0,
            "n_runs": 0,
            "n_points": 0,
            "n_stale": 0,
            "n_corrupt": 0,
            "total_bytes": 0,
        }
        for _, descriptor in self.entries():
            totals["n_entries"] += 1
            totals["total_bytes"] += int(descriptor.get("size_bytes", 0))
            if descriptor.get("corrupt"):
                totals["n_corrupt"] += 1
                continue
            if descriptor.get("stale"):
                totals["n_stale"] += 1
            if descriptor.get("kind") == "run":
                totals["n_runs"] += 1
            elif descriptor.get("kind") == "point":
                totals["n_points"] += 1
        return totals

    def gc(self, *, max_age_days: Optional[float] = None) -> int:
        """Reclaim unusable entries; returns the number removed.

        Removes corrupt entries, entries written under a different
        code-version salt (unreachable by construction) and — when
        ``max_age_days`` is given — entries older than that.
        """
        now = time.time()
        removed = 0
        for key, descriptor in list(self.entries()):
            stale = bool(descriptor.get("corrupt") or descriptor.get("stale"))
            if not stale and max_age_days is not None:
                age_days = (now - float(descriptor.get("created_at", now))) / 86400.0
                stale = age_days > max_age_days
            if stale and self.drop(key):
                removed += 1
        return removed

    def clear(self) -> int:
        """Remove every entry; returns the number removed."""
        removed = 0
        for key, _ in list(self.entries()):
            if self.drop(key):
                removed += 1
        return removed

    def __repr__(self) -> str:  # pragma: no cover - debug convenience
        return f"ResultStore({str(self.root)!r})"
