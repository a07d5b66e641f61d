"""Unit tests for Table 1 aggregation and the key-pool helper."""

import importlib.util
import random
from pathlib import Path

import pytest

from repro.crypto import keypool, keypool_data
from repro.crypto.keypool import FixtureError, key_from_primes, pooled_keypair
from repro.crypto.rsa import generate_keypair
from repro.emulation import DAY, NIGHT, render_table1
from repro.emulation.driver import CellResult, Table1Result


def make_cell(route, tod, mno, cb, metric="iperf_mbps"):
    cell = CellResult(route=route, time_of_day=tod, mttho_s=50.0)
    getattr(cell, metric).update({"mno": mno, "cellbricks": cb})
    return cell


class TestOverallSlowdown:
    def test_higher_is_better_direction(self):
        result = Table1Result(cells=[make_cell("downtown", DAY, 10.0, 9.7)])
        assert result.overall_slowdown("iperf_mbps", DAY) == \
            pytest.approx(3.0)

    def test_lower_is_better_direction(self):
        result = Table1Result(
            cells=[make_cell("downtown", DAY, 5.0, 5.2,
                             metric="web_load_s")])
        # CB takes 5.2 s vs 5.0 s: 4% slower.
        assert result.overall_slowdown("web_load_s", DAY,
                                       lower_is_better=True) == \
            pytest.approx(4.0)

    def test_negative_slowdown_when_cb_wins(self):
        result = Table1Result(
            cells=[make_cell("highway", NIGHT, 11.38, 12.42)])
        slowdown = result.overall_slowdown("iperf_mbps", NIGHT)
        assert slowdown < 0  # the paper's highway-night row, reproduced

    def test_averages_across_routes(self):
        result = Table1Result(cells=[
            make_cell("suburb", DAY, 10.0, 9.0),     # 10% slowdown
            make_cell("downtown", DAY, 10.0, 10.0),  # 0%
        ])
        assert result.overall_slowdown("iperf_mbps", DAY) == \
            pytest.approx(5.0)

    def test_times_of_day_kept_separate(self):
        result = Table1Result(cells=[
            make_cell("suburb", DAY, 10.0, 9.0),
            make_cell("suburb", NIGHT, 10.0, 10.0),
        ])
        assert result.overall_slowdown("iperf_mbps", NIGHT) == 0.0

    def test_missing_cells_skipped(self):
        result = Table1Result(cells=[
            CellResult(route="suburb", time_of_day=DAY)])
        assert result.overall_slowdown("iperf_mbps", DAY) == 0.0


class TestRenderTable1:
    def test_renders_all_columns(self):
        cell = make_cell("downtown", DAY, 1.14, 1.11)
        cell.ping_p50_ms = {"mno": 48.0, "cellbricks": 48.1}
        cell.voip_mos = {"mno": 4.30, "cellbricks": 4.25}
        cell.video_level = {"mno": 2.03, "cellbricks": 1.97}
        cell.web_load_s = {"mno": 5.12, "cellbricks": 5.22}
        text = render_table1(Table1Result(cells=[cell]))
        assert "downtown" in text
        assert "CellBricks" in text
        assert "Overall Perf. Slowdown" in text
        assert "1.14" in text and "1.11" in text

    def test_renders_partial_results(self):
        text = render_table1(Table1Result(
            cells=[CellResult(route="suburb", time_of_day=NIGHT)]))
        assert "suburb" in text


FIXTURE_TOOL = Path(__file__).resolve().parents[1] / "tools" / \
    "keypool_fixture.py"


def fixture_tool():
    """``tools/keypool_fixture.py``, imported from its path."""
    spec = importlib.util.spec_from_file_location("keypool_fixture",
                                                  FIXTURE_TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def fixture_primes(slot):
    p, q = keypool_data.PRIMES[slot]
    return int(p, 16), int(q, 16)


def edit_hex_digit(text, index=64):
    """``text`` with one hex digit changed (a one-byte edit)."""
    digit = "0" if text[index] != "0" else "1"
    return text[:index] + digit + text[index + 1:]


class TestKeyPool:
    def test_same_slot_same_key(self):
        assert pooled_keypair(12345) is pooled_keypair(12345)

    def test_different_slots_differ(self):
        assert pooled_keypair(12346).n != pooled_keypair(12347).n

    def test_pool_keys_functional(self):
        key = pooled_keypair(12348)
        signature = key.sign(b"message")
        assert key.public_key.verify(b"message", signature)

    @pytest.mark.parametrize("slot", [min(keypool_data.PRIMES),
                                      max(keypool_data.PRIMES),
                                      9900])  # perfbench attach_lte
    def test_fixture_slot_matches_generator(self, slot):
        derived = generate_keypair(
            rng=random.Random(keypool._POOL_SEED + slot * 7919))
        assert (derived.p, derived.q) == fixture_primes(slot)
        assert pooled_keypair(slot) == derived

    def test_every_fixture_entry_passes_loader_checks(self):
        for slot in keypool_data.PRIMES:
            key = key_from_primes(*fixture_primes(slot))
            assert key.n.bit_length() == keypool.FIXTURE_BITS

    def test_fixture_file_is_canonical(self):
        tool = fixture_tool()
        assert sorted(keypool_data.PRIMES) == tool.SLOTS
        canonical = {slot: tuple(format(value, "x")
                                 for value in fixture_primes(slot))
                     for slot in keypool_data.PRIMES}
        assert tool.DATA_PATH.read_text() == tool.render(canonical)

    @pytest.mark.parametrize("tamper, match", [
        (lambda p, q: (p, p), "p equals q"),
        (lambda p, q: (p, q >> 8), "1016 bits, not 1024"),
        (lambda p, q: (3 * (p // 3 + 1), q), "p fails the base-2 Fermat"),
    ], ids=["p-equals-q", "wrong-bit-length", "composite-p"])
    def test_loader_rejects_tampered_entry(self, tamper, match):
        p, q = fixture_primes(9900)
        with pytest.raises(FixtureError, match=match):
            key_from_primes(*tamper(p, q))

    @pytest.mark.parametrize("field", [0, 1], ids=["p", "q"])
    def test_pool_raises_on_edited_fixture_entry(self, monkeypatch, field):
        entry = list(keypool_data.PRIMES[9900])
        entry[field] = edit_hex_digit(entry[field])
        monkeypatch.setitem(keypool_data.PRIMES, 9900, tuple(entry))
        monkeypatch.setattr(keypool, "_POOL", {})
        with pytest.raises(FixtureError, match="fixture slot 9900"):
            pooled_keypair(9900)

    def test_slots_outside_fixture_still_generate(self, monkeypatch):
        calls = []
        real = keypool.generate_keypair

        def counting(**kwargs):
            calls.append(kwargs["bits"])
            return real(**kwargs)

        monkeypatch.setattr(keypool, "generate_keypair", counting)
        monkeypatch.setattr(keypool, "_POOL", {})
        assert 12349 not in keypool_data.PRIMES
        key = pooled_keypair(12349)
        signature = key.sign(b"message")
        assert key.public_key.verify(b"message", signature)
        # Only 1024-bit keys come from the fixture.
        assert pooled_keypair(0, bits=512).n.bit_length() == 512
        assert calls == [1024, 512]
