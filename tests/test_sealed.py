"""The sealed-artifact module: seals, save faults, fsync.

``repro.utils.sealed`` is the one writer behind the campaign store, the
shard ledger and the gateway checkpoints.  These tests pin its pieces
directly; the callers' own suites cover the damage-and-heal paths.
"""

import json
import os

import pytest

from repro.fleet.shards import ShardLedger
from repro.gateway import FleetTwin, save_checkpoint
from repro.utils import sealed


@pytest.fixture
def fsyncs(monkeypatch):
    """Count ``os.fsync`` calls while still performing them."""
    calls = []
    real = os.fsync

    def counting(fd):
        calls.append(fd)
        real(fd)

    monkeypatch.setattr(os, "fsync", counting)
    return calls


class TestSeal:
    def test_seal_replaces_an_old_seal(self):
        stale = {"a": 1, sealed.SEAL_KEY: {"algo": "sha256", "digest": "x"}}
        _, digest = sealed.seal(stale)
        assert digest == sealed.cell_checksum({"a": 1})
        assert stale[sealed.SEAL_KEY]["digest"] == "x"  # input untouched

    @pytest.mark.parametrize(
        "found", [None, "digest", {"algo": "md5", "digest": "d"}, {"algo": "sha256"}]
    )
    def test_unseal_without_a_sha256_seal(self, found):
        body = {"a": 1}
        if found is not None:
            body[sealed.SEAL_KEY] = found
        stored, computed = sealed.unseal(body)
        assert stored is None
        assert computed == sealed.cell_checksum({"a": 1})


class TestSaveFaults:
    @pytest.mark.parametrize(
        "first", [{"op": "empty"}, {"op": "truncate", "keep_frac": 0.0}]
    )
    def test_bitflip_on_an_emptied_file_is_a_no_op(self, tmp_path, first):
        path = tmp_path / "a.json"
        sealed.atomic_write_json(str(path), {"a": 1})
        sealed._apply_save_faults(str(path), [first, {"op": "bitflip"}])
        assert path.read_bytes() == b""


class TestDurability:
    """Every publish fsyncs the file before it is named and the directory
    after, so a completed artifact survives a power cut, not just a crash.
    """

    def test_atomic_write_json(self, tmp_path, fsyncs):
        path = tmp_path / "report.json"
        sealed.atomic_write_json(str(path), {"a": 1})
        assert len(fsyncs) == 2
        assert json.loads(path.read_text()) == {"a": 1}
        assert os.listdir(tmp_path) == ["report.json"]

    def test_save_shard_publish(self, tmp_path, fsyncs):
        ledger = ShardLedger(str(tmp_path / "led"))
        assert ledger.save_shard("s0000", {"a": 1}) == "published"
        assert len(fsyncs) == 2
        assert ledger.load_shard("s0000") == {"a": 1}

    def test_losing_publish_syncs_only_its_temp_file(self, tmp_path, fsyncs):
        ledger = ShardLedger(str(tmp_path / "led"))
        ledger.save_shard("s0000", {"a": 1})
        del fsyncs[:]
        assert ledger.save_shard("s0000", {"a": 1}) == "verified"
        assert len(fsyncs) == 1
        assert os.listdir(ledger.shards_dir) == ["s0000.json"]

    def test_save_checkpoint(self, tmp_path, fsyncs):
        twin = FleetTwin.from_scenario("dev-smoke", {"num_devices": 2})
        save_checkpoint(twin, str(tmp_path / "twin.ckpt"))
        assert len(fsyncs) == 2
