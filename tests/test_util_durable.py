"""The shared durability layer (repro.util.durable).

Every persisted file in the package goes through ``atomic_write`` and
every cache entry through ``write_verified``/``read_verified``, so the
contracts are pinned here: all-or-nothing writes whose temp files are
unique per thread and caught by the leftover checks elsewhere in the
suite, and a verified store in which no single-byte change to an entry
can ever be served back as a payload.
"""

from __future__ import annotations

import os
import tempfile
import threading

import pytest
from hypothesis import given, settings, strategies as st

from repro.util.durable import (
    CorruptEntryError,
    atomic_write,
    entry_path,
    read_verified,
    write_verified,
)

JSON_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=False),
    st.text(max_size=20),
)
PAYLOADS = st.dictionaries(
    st.text(max_size=10),
    st.recursive(
        JSON_SCALARS,
        lambda inner: st.lists(inner, max_size=4)
        | st.dictionaries(st.text(max_size=8), inner, max_size=4),
        max_leaves=12,
    ),
    max_size=6,
)


class TestAtomicWrite:
    def test_temp_names_are_per_thread_and_match_leftover_checks(self, tmp_path):
        target = tmp_path / "out.bin"
        names: list[str] = []
        barrier = threading.Barrier(2)

        def write(handle):
            names.append(os.path.basename(handle.name))
            barrier.wait(timeout=5.0)
            handle.write(b"x")

        threads = [
            threading.Thread(target=atomic_write, args=(target, write)) for _ in range(2)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10.0)
            assert not thread.is_alive()
        assert len(set(names)) == 2
        for name in names:
            assert ".tmp." in name and name.endswith(".tmp")
        assert os.listdir(tmp_path) == ["out.bin"]
        assert target.read_bytes() == b"x"

    def test_failed_write_keeps_previous_file_and_leaves_no_temp(self, tmp_path):
        target = tmp_path / "out.bin"
        atomic_write(target, lambda handle: handle.write(b"good"), fsync=True)

        def torn(handle):
            handle.write(b"partial")
            raise OSError("disk full")

        with pytest.raises(OSError, match="disk full"):
            atomic_write(target, torn)
        assert target.read_bytes() == b"good"
        assert os.listdir(tmp_path) == ["out.bin"]


class TestVerifiedStore:
    def test_round_trip_and_absent_key(self, tmp_path):
        write_verified(tmp_path, "k", {"v": [1, 2.5, None]}, version=3)
        assert read_verified(tmp_path, "k", version=3) == {"v": [1, 2.5, None]}
        assert read_verified(tmp_path, "other", version=3) is None

    def test_other_version_is_a_plain_miss(self, tmp_path):
        write_verified(tmp_path, "k", {"v": 1}, version=1)
        assert read_verified(tmp_path, "k", version=2) is None
        assert os.listdir(tmp_path) == ["k.json"]  # not quarantined

    def test_sanitised_key_collision_is_a_plain_miss(self, tmp_path):
        write_verified(tmp_path, "a/b", {"v": 1}, version=1)
        assert read_verified(tmp_path, "ab", version=1) is None
        assert read_verified(tmp_path, "a/b", version=1) == {"v": 1}

    @settings(max_examples=200, deadline=None)
    @given(payload=PAYLOADS, data=st.data())
    def test_any_single_byte_change_is_detected(self, payload, data):
        with tempfile.TemporaryDirectory() as root:
            write_verified(root, "key", payload, version=1)
            path = entry_path(root, "key")
            with open(path, "rb") as handle:
                raw = bytearray(handle.read())
            index = data.draw(st.integers(0, len(raw) - 1), label="index")
            raw[index] ^= data.draw(st.integers(1, 255), label="mask")
            with open(path, "wb") as handle:
                handle.write(raw)
            with pytest.raises(CorruptEntryError):
                read_verified(root, "key", version=1)
            assert os.path.exists(path + ".corrupt")
            assert read_verified(root, "key", version=1) is None
