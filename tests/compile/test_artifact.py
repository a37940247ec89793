"""Tests for the artifact cache and the RPTB bytes every reader shares."""

import hashlib
import json

import pytest

from repro.bpmn import encode
from repro.compile import (
    TABLE_FORMAT_NAME,
    TABLE_FORMAT_VERSION,
    AutomatonCache,
    compile_automaton,
    decode_table,
    encode_table,
    load_table,
    save_table,
    table_path,
)
from repro.compile.table import TABLE_MAGIC, TABLE_PREFIX
from repro.core import ComplianceChecker
from repro.errors import ArtifactError
from repro.obs import MetricsRegistry, Telemetry
from repro.obs.log import ARTIFACT_INVALID, MemoryEventLog
from repro.scenarios import sequential_process
from repro.testing import corrupt_artifact


@pytest.fixture
def automaton():
    checker = ComplianceChecker(encode(sequential_process(2)))
    return compile_automaton(checker)


@pytest.fixture
def saved(automaton, tmp_path):
    path = table_path(tmp_path, automaton.purpose, automaton.fingerprint)
    save_table(automaton, path)
    return path


def telemetry_with_log():
    log = MemoryEventLog()
    registry = MetricsRegistry()
    return Telemetry.create(registry=registry, events=log.events), log, registry


def split(data: bytes) -> tuple[bytes, bytes]:
    """An RPTB file's ``(header bytes, cell bytes)``."""
    length = TABLE_PREFIX.unpack_from(data)[2]
    start = TABLE_PREFIX.size
    return data[start:start + length], data[start + length:]


def header_of(data: bytes) -> dict:
    return json.loads(split(data)[0])


def seal(header: bytes, cells: bytes) -> bytes:
    """A v3 file around *header* and *cells*, its checksum recomputed."""
    return TABLE_PREFIX.pack(
        TABLE_MAGIC,
        TABLE_FORMAT_VERSION,
        len(header),
        len(cells),
        hashlib.sha256(header + cells).digest(),
    ) + header + cells


def as_version_2(data: bytes) -> bytes:
    """The same automaton in the RPTB v2 layout: a 12-byte prefix, and
    a checksum of the cells alone inside the header."""
    header, cells = split(data)
    document = dict(
        json.loads(header),
        cells_bytes=len(cells),
        table_sha256=hashlib.sha256(cells).hexdigest(),
    )
    body = json.dumps(document, separators=(",", ":"), sort_keys=True).encode()
    body += b" " * ((-len(body)) % 4)
    return b"".join((
        TABLE_MAGIC,
        (2).to_bytes(4, "little"),
        len(body).to_bytes(4, "little"),
        body,
        cells,
    ))


class TestSaveLoad:
    def test_round_trip(self, automaton, saved):
        loaded = load_table(saved, expected_fingerprint=automaton.fingerprint)
        assert loaded.n_states == automaton.n_states
        assert loaded.transition_count == automaton.transition_count

    def test_envelope_shape(self, automaton, saved):
        data = saved.read_bytes()
        assert data[:4] == TABLE_MAGIC
        assert int.from_bytes(data[4:8], "little") == TABLE_FORMAT_VERSION
        header = header_of(data)
        assert header["format"] == TABLE_FORMAT_NAME
        assert header["eof"] is True
        assert list(header) == sorted(header)  # canonical JSON
        assert len(header["states"]) == automaton.n_states
        key, size, may_continue, active, path = header["states"][0]
        assert path == [] and size == 1 and may_continue is True
        _, _, length, cells, checksum = TABLE_PREFIX.unpack_from(data)
        assert cells == len(automaton.cells) * 4
        assert checksum == hashlib.sha256(data[TABLE_PREFIX.size:]).digest()
        assert len(data) == TABLE_PREFIX.size + length + cells

    def test_path_is_keyed_by_purpose_and_fingerprint(
        self, automaton, tmp_path
    ):
        cache = AutomatonCache(tmp_path)
        path = cache.path_for(automaton.purpose, automaton.fingerprint)
        assert automaton.fingerprint[:16] in path.name
        assert path.suffix == ".bin"

    def test_missing_file(self, tmp_path):
        with pytest.raises(ArtifactError) as excinfo:
            load_table(tmp_path / "nope.table.bin")
        assert excinfo.value.reason == "missing"


class TestCorruptionModes:
    """The bytes decoder parallel workers use rejects every corruption
    with the same reason the file reader reports — the cache turns each
    into a transparent recompile, never a crash."""

    @pytest.mark.parametrize(
        "mode,reason",
        [
            ("truncate", "truncated"),
            ("garbage", "format"),
            ("empty", "truncated"),
            ("version", "version"),
            ("bitflip", "tamper"),
            ("pool", "tamper"),
            ("fingerprint", "fingerprint"),
        ],
    )
    def test_detected_with_reason(self, automaton, saved, mode, reason):
        corrupt_artifact(saved, mode)
        with pytest.raises(ArtifactError) as excinfo:
            decode_table(
                saved.read_bytes(), expected_fingerprint=automaton.fingerprint
            )
        assert excinfo.value.reason == reason

    def test_wrong_format_name(self, automaton):
        header, cells = split(encode_table(automaton))
        header = header.replace(
            TABLE_FORMAT_NAME.encode(), b"x" * len(TABLE_FORMAT_NAME), 1
        )
        with pytest.raises(ArtifactError) as excinfo:
            decode_table(seal(header, cells))
        assert excinfo.value.reason == "format"

    def test_any_byte_after_the_prefix_is_covered(self, automaton):
        """The checksum spans header and cells: a flipped byte anywhere
        after the prefix reads as tamper before the header is parsed."""
        data = encode_table(automaton)
        for at in range(TABLE_PREFIX.size, len(data), 97):
            flipped = bytearray(data)
            flipped[at] ^= 0x01
            with pytest.raises(ArtifactError) as excinfo:
                decode_table(bytes(flipped))
            assert excinfo.value.reason == "tamper", at

    def test_version_2_file_is_refused(self, automaton):
        with pytest.raises(ArtifactError) as excinfo:
            decode_table(as_version_2(encode_table(automaton)))
        assert excinfo.value.reason == "version"

    def test_unknown_mode_rejected(self, saved):
        with pytest.raises(ValueError):
            corrupt_artifact(saved, "hammer")


class TestAutomatonCache:
    def test_miss_then_hit(self, automaton, tmp_path):
        cache = AutomatonCache(tmp_path)
        assert cache.load(automaton.purpose, automaton.fingerprint) is None
        cache.save(automaton)
        loaded = cache.load(automaton.purpose, automaton.fingerprint)
        assert loaded is not None
        assert loaded.n_states == automaton.n_states
        assert [p.name for p in tmp_path.iterdir()] == [
            cache.path_for(automaton.purpose, automaton.fingerprint).name
        ]

    def test_version_2_artifact_is_recompiled(self, automaton, tmp_path):
        tel, log, _ = telemetry_with_log()
        cache = AutomatonCache(tmp_path, telemetry=tel)
        path = cache.save(automaton)
        path.write_bytes(as_version_2(path.read_bytes()))
        assert cache.load(automaton.purpose, automaton.fingerprint) is None
        assert [e["reason"] for e in log.named(ARTIFACT_INVALID)] == [
            "version"
        ]
        cache.save(automaton)
        assert cache.load(automaton.purpose, automaton.fingerprint) is not None

    def test_invalid_artifact_is_a_miss_with_event(self, automaton, tmp_path):
        tel, log, registry = telemetry_with_log()
        cache = AutomatonCache(tmp_path, telemetry=tel)
        path = cache.save(automaton)
        corrupt_artifact(path, "truncate")
        assert cache.load(automaton.purpose, automaton.fingerprint) is None
        events = log.named(ARTIFACT_INVALID)
        assert len(events) == 1
        assert events[0]["reason"] == "truncated"
        assert (
            registry.counter("automaton_artifacts_invalid_total").value(
                reason="truncated"
            )
            == 1.0
        )

    def test_plain_miss_emits_no_event(self, automaton, tmp_path):
        tel, log, _ = telemetry_with_log()
        cache = AutomatonCache(tmp_path, telemetry=tel)
        assert cache.load(automaton.purpose, automaton.fingerprint) is None
        assert log.named(ARTIFACT_INVALID) == []

    def test_stale_fingerprint_is_a_miss(self, automaton, tmp_path):
        """A process edit changes the fingerprint; yesterday's artifact
        must not be served for today's process."""
        tel, log, _ = telemetry_with_log()
        cache = AutomatonCache(tmp_path, telemetry=tel)
        cache.save(automaton)
        stale = cache.path_for(automaton.purpose, "f" * 64)
        cache.path_for(automaton.purpose, automaton.fingerprint).rename(stale)
        assert cache.load(automaton.purpose, "f" * 64) is None
        assert log.named(ARTIFACT_INVALID)[0]["reason"] == "fingerprint"
