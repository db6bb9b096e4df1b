"""Storage contract of the content-addressed result store.

Hit/miss addressing, byte-identical trace round-trips, validate-on-load
corruption handling, code-version-salt invalidation and the maintenance
surface (`entries`/`stats`/`gc`/`clear`).  The layout tests at the
bottom additionally pin the on-disk format byte for byte and its write
and listing rules: existing caches must keep working.
"""

import json

import numpy as np
import pytest

import repro.cache.store as cache_store
from repro.cache import ResultStore, code_version_salt
from repro.cache.store import CACHE_SCHEMA_VERSION
from repro.core.errors import CacheCorruptionError, ConfigurationError
from repro.core.results import SimulationResult, SolverStats, Trace


def make_result() -> SimulationResult:
    result = SimulationResult(
        stats=SolverStats(
            solver_name="proposed", cpu_time_s=0.25, n_accepted_steps=10,
            final_time=0.1,
        ),
        metadata={"scenario": "unit", "controller_events": [(0.1, "wake")]},
    )
    trace = Trace("storage_voltage", "V")
    trace.extend([0.0, 0.05, 0.1], [0.0, 1.5, 2.25])
    result.add_trace(trace)
    return result


PAYLOAD = {"kind": "single", "scenario": {"name": "unit"}}


#: the forms a local store root is given in: an existing directory as a
#: ``Path``, the same as a plain ``str``, and a directory that does not
#: exist yet (the store creates it on first write)
ROOT_FORMS = {
    "local": lambda tmp_path: tmp_path,
    "local-str": lambda tmp_path: str(tmp_path),
    "local-uncreated": lambda tmp_path: tmp_path / "cache" / "nested",
}


@pytest.fixture(params=sorted(ROOT_FORMS))
def store_factory(request, tmp_path):
    """Builds stores over one shared directory, in each root form.

    The factory form (rather than a plain store) lets salt-sensitive
    tests open several differently-salted stores over the *same* bytes.
    """
    root = ROOT_FORMS[request.param](tmp_path)
    return lambda salt=None: ResultStore(root, salt=salt)


@pytest.fixture
def store(store_factory):
    return store_factory()


def corrupt_entry(store: ResultStore, key: str, data: bytes) -> None:
    """Overwrite one entry's metadata file."""
    (store._entry_dir(key) / "entry.json").write_bytes(data)


def drop_traces(store: ResultStore, key: str) -> None:
    """Remove an entry's trace payload but keep its metadata."""
    (store._entry_dir(key) / "traces.npz").unlink()


def test_store_and_load_run_round_trips_traces_exactly(store):
    key = store.key_for(PAYLOAD)
    assert store.load_run(key) is None  # miss before any write
    store.store_run(key, make_result(), label="unit/proposed")

    loaded = store.load_run(key)
    assert loaded is not None
    original = make_result()
    assert loaded.stats == original.stats
    trace = loaded["storage_voltage"]
    assert trace.unit == "V"
    assert trace.times.tobytes() == original["storage_voltage"].times.tobytes()
    assert trace.values.tobytes() == original["storage_voltage"].values.tobytes()
    for array in (trace.times, trace.values):
        assert array.dtype == np.float64 and not array.flags.writeable
    assert type(trace.final()) is float and trace.final() == 2.25
    # metadata is JSON-sanitised bookkeeping (tuples become lists)
    assert loaded.metadata["scenario"] == "unit"


def test_store_run_without_traces(store):
    key = store.key_for(PAYLOAD)
    store.store_run(key, make_result(), store_traces=False)
    loaded = store.load_run(key)
    assert loaded.stats.cpu_time_s == 0.25
    assert loaded.trace_names() == []


def test_point_round_trip_and_kind_check(store):
    key = store.key_for({"kind": "sweep_point", "index": 3})
    assert store.load_point(key) is None
    store.store_point(key, score=1.25e-5, cpu_time_s=0.75, exact_rerun=True)
    assert store.load_point(key) == {
        "score": 1.25e-5,
        "cpu_time_s": 0.75,
        "exact_rerun": True,
    }
    # a run lookup on a point entry is corruption, not a silent miss
    with pytest.raises(CacheCorruptionError, match="kind"):
        store.load_run(key)


def test_key_depends_on_payload_and_salt(store_factory):
    store = store_factory()
    assert store.key_for(PAYLOAD) == store.key_for(dict(PAYLOAD))
    assert store.key_for(PAYLOAD) != store.key_for({**PAYLOAD, "kind": "x"})
    other = store_factory(salt="other-version")
    assert store.key_for(PAYLOAD) != other.key_for(PAYLOAD)


def test_unserialisable_payload_is_rejected(store):
    with pytest.raises(ConfigurationError, match="canonical JSON"):
        store.key_for({"scenario": object()})


def test_corrupt_entry_json_raises_on_load(store):
    key = store.key_for(PAYLOAD)
    store.store_run(key, make_result())
    corrupt_entry(store, key, b"{not json")
    with pytest.raises(CacheCorruptionError, match="unreadable"):
        store.load_run(key)


def test_missing_trace_payload_is_corruption(store):
    key = store.key_for(PAYLOAD)
    store.store_run(key, make_result())
    drop_traces(store, key)
    with pytest.raises(CacheCorruptionError, match="traces"):
        store.load_run(key)


@pytest.mark.parametrize(
    "times, values",
    [
        (np.array([0, 1, 2]), np.array([0.0, 1.5, 2.25])),
        (np.zeros((3, 1)), np.zeros((3, 1))),
        (np.array([0.0, 0.05]), np.array([0.0, 1.5, 2.25])),
        (np.array([0.1, 0.05, 0.0]), np.array([0.0, 1.5, 2.25])),
    ],
    ids=["int", "2-D", "length", "non-monotonic"],
)
def test_malformed_trace_arrays_are_corruption(store, times, values):
    key = store.key_for(PAYLOAD)
    store.store_run(key, make_result())
    with open(store._entry_dir(key) / "traces.npz", "wb") as handle:
        np.savez_compressed(handle, t0=times, v0=values)
    with pytest.raises(CacheCorruptionError, match="trace"):
        store.load_run(key)


def test_schema_bump_is_corruption_and_gc_reclaims(store):
    key = store.key_for(PAYLOAD)
    store.store_run(key, make_result())
    meta = json.loads((store._entry_dir(key) / "entry.json").read_text())
    meta["schema"] = CACHE_SCHEMA_VERSION + 1
    corrupt_entry(store, key, json.dumps(meta).encode())
    with pytest.raises(CacheCorruptionError, match="schema"):
        store.load_run(key)


def test_stale_salt_entries_are_never_served_and_gc_reclaims(store_factory):
    old = store_factory(salt="repro-0.9")
    old_key = old.key_for(PAYLOAD)
    old.store_run(old_key, make_result())

    new = store_factory(salt="repro-1.0")
    # addressing includes the salt: the stale entry is simply unreachable
    assert new.key_for(PAYLOAD) != old_key
    assert new.load_run(new.key_for(PAYLOAD)) is None
    # a hand-moved entry (same key, wrong recorded salt) is corruption
    with pytest.raises(CacheCorruptionError, match="salt"):
        new.load_run(old_key)

    descriptors = dict(new.entries())
    assert descriptors[old_key]["stale"] is True
    assert new.gc() == 1
    assert list(new.entries()) == []


def test_stats_and_clear(store):
    run_key = store.key_for(PAYLOAD)
    store.store_run(run_key, make_result())
    store.store_point(
        store.key_for({"kind": "sweep_point"}),
        score=1.0,
        cpu_time_s=0.1,
        exact_rerun=False,
    )
    stats = store.stats()
    assert stats["n_entries"] == 2
    assert stats["n_runs"] == 1
    assert stats["n_points"] == 1
    assert stats["total_bytes"] > 0
    assert stats["root"] == str(store.root)
    assert store.clear() == 2
    assert store.stats()["n_entries"] == 0


def test_default_salt_tracks_package_version():
    assert "repro-" in code_version_salt()
    assert f"schema{CACHE_SCHEMA_VERSION}" in code_version_salt()


# ---------------------------------------------------------------------- #
# local-layout pins: the on-disk format is a compatibility contract
# ---------------------------------------------------------------------- #
def test_local_layout_is_byte_identical_to_the_historical_format(tmp_path):
    store = ResultStore(tmp_path)
    key = store.key_for(PAYLOAD)
    store.store_run(key, make_result(), label="unit/proposed")
    entry_dir = tmp_path / key[:2] / key
    assert entry_dir == store._entry_dir(key)
    assert sorted(p.name for p in entry_dir.iterdir()) == [
        "entry.json",
        "traces.npz",
    ]
    text = (entry_dir / "entry.json").read_text()
    meta = json.loads(text)
    # indent-2, sorted keys, trailing newline: exactly what the store has
    # always written, so diffs against old caches stay empty
    assert text == json.dumps(meta, indent=2, sort_keys=True) + "\n"
    assert meta["key"] == key
    assert meta["salt"] == store.salt
    assert meta["schema"] == CACHE_SCHEMA_VERSION


def test_pre_backend_cache_written_by_hand_is_still_readable(tmp_path):
    """An entry laid out with plain file writes (as an old cache on disk)
    loads through the store unchanged."""
    store = ResultStore(tmp_path)
    key = store.key_for({"kind": "sweep_point", "legacy": True})
    entry_dir = tmp_path / key[:2] / key
    entry_dir.mkdir(parents=True)
    meta = {
        "kind": "point",
        "label": "legacy",
        "score": 2.5,
        "cpu_time_s": 0.5,
        "exact_rerun": False,
        "schema": CACHE_SCHEMA_VERSION,
        "salt": store.salt,
        "key": key,
        "created_at": 0.0,
    }
    (entry_dir / "entry.json").write_text(
        json.dumps(meta, indent=2, sort_keys=True) + "\n"
    )
    assert store.load_point(key) == {
        "score": 2.5,
        "cpu_time_s": 0.5,
        "exact_rerun": False,
    }


def shared_times_result() -> SimulationResult:
    """Three traces over one read-only times array, as a recorded run has,
    plus one trace on times of its own."""
    times = np.array([0.0, 0.05, 0.1])
    times.flags.writeable = False
    result = make_result()
    result.traces.clear()
    for index, name in enumerate(["a", "b", "c"]):
        result.add_trace(Trace(name, "V", times=times, values=times * (index + 1)))
    result.add_trace(Trace("own", "A", times=[0.0, 0.2], values=[1.0, -1.0]))
    return result


def test_one_times_array_per_distinct_buffer_and_loads_share_it(tmp_path):
    store = ResultStore(tmp_path)
    key = store.key_for(PAYLOAD)
    stored = shared_times_result()
    store.store_run(key, stored)
    entry_dir = store._entry_dir(key)
    with np.load(entry_dir / "traces.npz") as npz:
        assert sorted(npz.files) == ["t0", "t1", "v0", "v1", "v2", "v3"]
    meta = json.loads((entry_dir / "entry.json").read_text())
    assert [info["times"] for info in meta["traces"]] == ["t0", "t0", "t0", "t1"]
    loaded = store.load_run(key)
    shared = loaded["a"].times
    assert loaded["b"].times is shared and loaded["c"].times is shared
    assert loaded["own"].times is not shared
    assert not shared.flags.writeable
    for name in stored.trace_names():
        assert loaded[name].unit == stored[name].unit
        assert loaded[name].times.tobytes() == stored[name].times.tobytes()
        assert loaded[name].values.tobytes() == stored[name].values.tobytes()


def test_per_trace_times_layout_written_by_hand_is_still_readable(tmp_path):
    """An entry of the older layout, one ``t<i>`` per trace and no
    ``"times"`` in the trace records, loads unchanged."""
    store = ResultStore(tmp_path)
    key = store.key_for(PAYLOAD)
    entry_dir = tmp_path / key[:2] / key
    entry_dir.mkdir(parents=True)
    stored = shared_times_result()
    arrays = {}
    for index, name in enumerate(stored.trace_names()):
        arrays[f"t{index}"] = stored[name].times
        arrays[f"v{index}"] = stored[name].values
    with open(entry_dir / "traces.npz", "wb") as handle:
        np.savez_compressed(handle, **arrays)
    meta = {
        "kind": "run",
        "label": "legacy",
        "stats": stored.stats.as_dict(),
        "metadata": {},
        "traces": [
            {"name": stored[name].name, "unit": stored[name].unit}
            for name in stored.trace_names()
        ],
        "has_traces": True,
        "schema": CACHE_SCHEMA_VERSION,
        "salt": store.salt,
        "key": key,
        "created_at": 0.0,
    }
    (entry_dir / "entry.json").write_text(
        json.dumps(meta, indent=2, sort_keys=True) + "\n"
    )
    loaded = store.load_run(key)
    assert loaded.trace_names() == stored.trace_names()
    for name in stored.trace_names():
        assert not loaded[name].times.flags.writeable
        assert loaded[name].times.tobytes() == stored[name].times.tobytes()
        assert loaded[name].values.tobytes() == stored[name].values.tobytes()


def test_write_renames_entry_json_into_place_last(store, monkeypatch):
    landed = []
    real_replace = cache_store.os.replace

    def recording_replace(src, dst):
        landed.append(str(dst).rsplit("/", 1)[-1])
        return real_replace(src, dst)

    monkeypatch.setattr(cache_store.os, "replace", recording_replace)
    store.store_run(store.key_for(PAYLOAD), make_result())
    # no entry.json means no entry, so it must always land last
    assert landed == ["traces.npz", "entry.json"]


def test_torn_entry_is_invisible_but_enumerable(store):
    key = store.key_for(PAYLOAD)
    entry_dir = store._entry_dir(key)
    entry_dir.mkdir(parents=True)
    (entry_dir / "traces.npz").write_bytes(b"npz")  # crashed before entry.json
    assert store.contains(key) is False
    assert store.load_run(key) is None
    # gc still sees the torn directory so it can be reclaimed
    assert dict(store.entries()) == {key: {"size_bytes": 3, "corrupt": True}}
    assert store.drop(key) is True
    assert store.drop(key) is False


def test_key_listing_skips_dot_directories(store):
    key = store.key_for(PAYLOAD)
    store.store_run(key, make_result())
    # a leftover work queue of an earlier version lived in <root>/.queue;
    # it must never look like an entry, nor be deleted as one
    leftover = store.root / ".queue" / "pending" / "bogus.json"
    leftover.parent.mkdir(parents=True)
    leftover.write_text("{}")
    assert [listed for listed, _ in store.entries()] == [key]
    assert store.stats()["n_entries"] == 1
    assert store.gc() == 0
    assert store.clear() == 1
    assert leftover.read_text() == "{}"


def test_stray_directories_are_not_entries(store):
    key = store.key_for(PAYLOAD)
    torn = store._entry_dir(key)
    torn.mkdir(parents=True)
    (torn / "traces.npz").write_bytes(b"npz")
    strays = [
        store.root / "zz" / "notakey",
        store.root / "ab" / ("cd" + "0" * 62),  # hex key under the wrong shard
        store.root / "AB" / ("AB" + "0" * 62),  # not lowercase hex
    ]
    for stray in strays:
        stray.mkdir(parents=True)
    stats = store.stats()
    assert (stats["n_entries"], stats["n_corrupt"]) == (1, 1)
    # the torn entry is reclaimed once; the strays are never touched
    assert store.gc() == 1
    assert store.stats()["n_entries"] == 0
    assert store.clear() == 0
    assert all(stray.is_dir() for stray in strays)


def test_a_second_handle_on_the_same_root_serves_every_entry(store_factory):
    # process workers write through their own handle; the parent reads
    writer, reader = store_factory(), store_factory()
    run_key = writer.key_for(PAYLOAD)
    point_key = writer.key_for({"kind": "sweep_point", "index": 0})
    writer.store_run(run_key, make_result())
    writer.store_point(point_key, score=0.5, cpu_time_s=0.1, exact_rerun=False)
    assert reader.contains(run_key) and reader.contains(point_key)
    assert reader.load_run(run_key).stats == make_result().stats
    assert reader.load_point(point_key)["score"] == 0.5
    assert [key for key, _ in reader.entries()] == sorted([run_key, point_key])


def test_an_uncreated_root_is_an_empty_store_until_the_first_write(tmp_path):
    root = tmp_path / "not" / "yet"
    store = ResultStore(root)
    key = store.key_for(PAYLOAD)
    assert store.stats()["n_entries"] == 0
    assert list(store.entries()) == []
    assert store.load_run(key) is None
    assert (store.gc(), store.clear(), store.drop(key)) == (0, 0, False)
    assert not root.exists()  # reads and maintenance never create it
    store.store_run(key, make_result())
    assert store.stats()["n_runs"] == 1


def test_gc_reclaims_entries_older_than_max_age_only(store):
    old_key = store.key_for({"kind": "sweep_point", "index": 0})
    new_key = store.key_for({"kind": "sweep_point", "index": 1})
    for key in (old_key, new_key):
        store.store_point(key, score=1.0, cpu_time_s=0.1, exact_rerun=False)
    meta_path = store._entry_dir(old_key) / "entry.json"
    meta = json.loads(meta_path.read_text())
    meta["created_at"] -= 3 * 86400.0
    meta_path.write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")
    assert store.gc() == 0  # without an age limit both are fresh and valid
    assert store.gc(max_age_days=7) == 0
    assert store.gc(max_age_days=1) == 1
    assert [key for key, _ in store.entries()] == [new_key]


def test_overwriting_a_key_replaces_the_entry_in_place(store):
    key = store.key_for({"kind": "sweep_point", "index": 0})
    store.store_point(key, score=1.0, cpu_time_s=0.1, exact_rerun=False)
    store.store_point(key, score=2.0, cpu_time_s=0.2, exact_rerun=True)
    assert store.load_point(key) == {
        "score": 2.0,
        "cpu_time_s": 0.2,
        "exact_rerun": True,
    }
    # no tmp files survive the rewrite
    assert sorted(p.name for p in store._entry_dir(key).iterdir()) == [
        "entry.json"
    ]
    assert store.stats()["n_entries"] == 1


KEY = "ab" + "0" * 62

#: paths under the store root that are not entries, each with whether it
#: is a file (otherwise a directory)
STRAY_PATHS = {
    "non-key-name": ("zz/notakey", False),
    "wrong-shard": ("cd/" + KEY, False),
    "uppercase-hex": ("AB/" + KEY.upper(), False),
    "short-digest": ("ab/" + KEY[:-1], False),
    "long-digest": ("ab/" + KEY + "0", False),
    "non-hex-digit": ("ab/ab" + "g" * 62, False),
    "file-named-as-key": ("ab/" + KEY, True),
    "file-as-shard": ("README", True),
    "dot-directory-in-root": (".queue/pending", False),
    "dot-directory-in-shard": ("ab/.scratch", False),
}


@pytest.mark.parametrize("stray_name", sorted(STRAY_PATHS))
def test_stray_path_in_the_root_is_never_listed_or_deleted(tmp_path, stray_name):
    relative, is_file = STRAY_PATHS[stray_name]
    store = ResultStore(tmp_path)
    key = store.key_for(PAYLOAD)
    store.store_run(key, make_result())
    stray = store.root / relative
    stray.parent.mkdir(parents=True, exist_ok=True)
    if is_file:
        stray.write_text("not an entry")
    else:
        stray.mkdir()
    assert [listed for listed, _ in store.entries()] == [key]
    stats = store.stats()
    assert (stats["n_entries"], stats["n_corrupt"]) == (1, 0)
    assert store.gc() == 0
    assert store.clear() == 1
    assert stray.exists()


#: leftovers of a writer that died before ``entry.json`` landed
TORN_LEFTOVERS = {
    "empty-directory": [],
    "traces-only": ["traces.npz"],
    "tmp-file-only": [".entry.json.tmp4242"],
    "traces-and-tmp-file": ["traces.npz", ".entry.json.tmp4242"],
}


@pytest.mark.parametrize("leftover", sorted(TORN_LEFTOVERS))
def test_torn_entry_is_a_miss_that_gc_reclaims(tmp_path, leftover):
    store = ResultStore(tmp_path)
    key = store.key_for(PAYLOAD)
    entry_dir = store._entry_dir(key)
    entry_dir.mkdir(parents=True)
    for name in TORN_LEFTOVERS[leftover]:
        (entry_dir / name).write_bytes(b"partial")
    assert store.contains(key) is False
    assert store.load_run(key) is None
    assert store.load_point(key) is None
    assert dict(store.entries())[key]["corrupt"] is True
    assert store.stats()["n_corrupt"] == 1
    assert store.gc() == 1
    assert not entry_dir.exists()
    # the key is writable again after reclamation
    store.store_run(key, make_result())
    assert store.load_run(key).stats == make_result().stats
