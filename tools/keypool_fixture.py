"""Write, or check, the committed keypool fixture.

    python tools/keypool_fixture.py           # (re)write the data module
    python tools/keypool_fixture.py --check   # re-derive it; exit 1 on any
                                              # byte difference

``src/repro/crypto/keypool_data.py`` maps each slot in :data:`SLOTS` to
the hex ``p`` and ``q`` that ``repro.crypto.rsa.generate_keypair`` yields
for the slot's seeded generator (``keypool.slot_rng``).  The generator
stays the source of truth; the fixture only saves the prime search.
Generation takes about 0.2 s per slot on one core.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.crypto import keypool  # noqa: E402
from repro.crypto.rsa import generate_keypair  # noqa: E402

DATA_PATH = ROOT / "src" / "repro" / "crypto" / "keypool_data.py"

#: every slot the fixture covers: each slot the repo's fixed-seed runs
#: draw, grouped by the code that draws it.
SLOTS = sorted({
    *range(0, 4),          # testbed.attach_bench (fig7, fig9, attach)
    *range(300, 305),      # seed*100 network builders at seed 3 (tests)
    *range(500, 505),      # ... at seed 5 (tests)
    *range(700, 706),      # ... at seed 7 (chaos/trace CLI, tests)
    *range(800, 806),      # ... at seed 8 (tests)
    *range(810, 817),      # tests/test_fivegc.py
    *range(820, 825),      # testbed.attach_bench5g
    *range(830, 835),      # 5G chaos tests, bench_5g_registration
    *range(840, 846),      # tests/test_settlement.py
    *range(860, 864),      # tests/test_multitenancy.py (operators)
    *range(870, 874),      # tests/test_multitenancy.py (UEs)
    *range(880, 885),      # examples/generations.py
    890,                   # tests/test_fivegc_errors.py
    *range(900, 904),      # benchmarks/bench_sap_microbench.py
    *range(910, 913),      # benchmarks/bench_billing_reputation.py
    *range(920, 924),      # benchmarks/bench_scale_concurrent_ues.py
    *range(930, 934),      # the churn CLI command
    950, 951,              # tests/test_crypto_properties.py
    *range(1100, 1109),    # seed*100 network builders at seed 11
    *range(1120, 1130),    # fleet-drive UEs at seed 11
    *range(9300, 9319),    # testbed.broker_scale
    *range(9500, 9522),    # throwaway keys in the tier-1 tests
    *range(9650, 9655),    # testbed.megaload real cohort
    9700,                  # crypto.simcost
    *range(9900, 9919),    # perfbench attach_lte
    *range(12345, 12349),  # tests/test_driver_units.py
})

_HEADER = '''"""RSA primes for the keypool's 1024-bit slots (generated; do not edit).

Written by ``tools/keypool_fixture.py``: slot -> (hex p, hex q), the
primes ``generate_keypair`` finds for the slot's seeded generator.
``python tools/keypool_fixture.py --check`` re-derives every entry.
"""

PRIMES = {
'''


def derive(slot: int) -> tuple[str, str]:
    """``slot``'s primes from the generator, as fixture hex strings."""
    key = generate_keypair(bits=keypool.FIXTURE_BITS,
                           rng=keypool.slot_rng(slot))
    return format(key.p, "x"), format(key.q, "x")


def _entry(slot: int, primes: tuple[str, str]) -> str:
    p, q = primes
    return f'    {slot}: (\n        "{p}",\n        "{q}"),\n'


def render(primes: dict) -> str:
    """The data module's text for ``primes`` (slot -> (hex p, hex q))."""
    entries = [_entry(slot, primes[slot]) for slot in sorted(primes)]
    return _HEADER + "".join(entries) + "}\n"


def check() -> int:
    """Re-derive every slot; 0 when the committed file matches byte for
    byte, 1 (with the differing slots listed) otherwise."""
    expected = {slot: derive(slot) for slot in SLOTS}
    text = DATA_PATH.read_text() if DATA_PATH.exists() else ""
    if text == render(expected):
        print(f"ok   {DATA_PATH.name}: {len(SLOTS)} slots re-derived")
        return 0
    bad = [slot for slot in SLOTS if _entry(slot, expected[slot]) not in text]
    print(f"FAIL {DATA_PATH.name} differs from the generator"
          + (f" at slots {bad}" if bad else " outside the slot entries"))
    return 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="re-derive every slot and compare, writing "
                             "nothing")
    args = parser.parse_args(argv)
    if args.check:
        return check()
    DATA_PATH.write_text(render({slot: derive(slot) for slot in SLOTS}))
    print(f"wrote {DATA_PATH} ({len(SLOTS)} slots)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
