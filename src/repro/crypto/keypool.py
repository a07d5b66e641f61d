"""A process-wide pool of deterministic RSA keypairs.

RSA key generation is by far the slowest operation in the reproduction
(~0.2 s per 1024-bit key).  Simulated entities do not need *secret* keys —
they need *distinct, functioning* keys — so scenario builders draw from
this deterministic pool instead of generating fresh primes per entity.

Slot ``s`` holds the key :func:`generate_keypair` yields for
``random.Random(_POOL_SEED + s * 7919)``; that generator is the single
source of truth.  For the 1024-bit slots the repo's own fixed-seed runs
use, the primes are also committed in :mod:`repro.crypto.keypool_data`
(written, and re-derived with ``--check``, by
``tools/keypool_fixture.py``).  The pool serves those slots from the
fixture, checking every entry it serves, and generates every other key.
Either way each slot's key is built once per process and reused.

Never use this for anything outside a simulation.
"""

from __future__ import annotations

import math
import random

from .rsa import PrivateKey, generate_keypair

_POOL: dict[int, PrivateKey] = {}
_POOL_SEED = 0x9E37_79B9
#: the only key size the fixture holds.
FIXTURE_BITS = 1024
#: the public exponent of every fixture key (``generate_keypair``'s default).
_E = 65537


class FixtureError(ValueError):
    """A key-fixture entry failed one of the loader's checks."""


def slot_rng(slot: int) -> random.Random:
    """The generator that seeds ``slot``'s key search."""
    return random.Random(_POOL_SEED + slot * 7919)


def key_from_primes(p: int, q: int) -> PrivateKey:
    """The keypair :func:`generate_keypair` builds from primes ``p, q``.

    Raises :class:`FixtureError` unless ``p != q``, ``n = p*q`` has
    exactly :data:`FIXTURE_BITS` bits, ``e`` is coprime to
    ``(p-1)(q-1)``, and both primes pass a base-2 Fermat test.
    """
    if p == q:
        raise FixtureError("p equals q")
    n = p * q
    if n.bit_length() != FIXTURE_BITS:
        raise FixtureError(
            f"n has {n.bit_length()} bits, not {FIXTURE_BITS}")
    phi = (p - 1) * (q - 1)
    if math.gcd(_E, phi) != 1:
        raise FixtureError("e is not coprime to (p-1)(q-1)")
    for name, prime in (("p", p), ("q", q)):
        if pow(2, prime - 1, prime) != 1:
            raise FixtureError(f"{name} fails the base-2 Fermat test")
    return PrivateKey(n=n, e=_E, d=pow(_E, -1, phi), p=p, q=q)


def _fixture_keypair(slot: int) -> PrivateKey | None:
    """``slot``'s checked key from the committed fixture, or None when
    the fixture lacks the slot.  The fixture loads on first use."""
    from .keypool_data import PRIMES

    entry = PRIMES.get(slot)
    if entry is None:
        return None
    try:
        return key_from_primes(int(entry[0], 16), int(entry[1], 16))
    except ValueError as exc:
        raise FixtureError(f"keypool fixture slot {slot}: {exc}") from None


def pooled_keypair(slot: int, bits: int = 1024) -> PrivateKey:
    """Return the pool's keypair for ``slot`` (created on first use).

    Distinct slots yield distinct keys; the same slot always yields the
    same key within and across processes (seeded deterministically).
    """
    key = (slot, bits) if bits != 1024 else slot
    pair = _POOL.get(key)
    if pair is None:
        if bits == FIXTURE_BITS:
            pair = _fixture_keypair(slot)
        if pair is None:
            pair = generate_keypair(bits=bits, rng=slot_rng(slot))
        _POOL[key] = pair
    return pair


def warm(slots, bits: int = 1024) -> list[PrivateKey]:
    """Build pool keys for ``slots`` (an iterable of slot numbers).

    Scenario builders and benches call this up front so key set-up —
    a checked fixture lookup, or prime generation for slots the fixture
    lacks — and each key's CRT context happen outside the timed region,
    instead of lazily on the first attach that touches each entity.
    """
    keys = []
    for slot in slots:
        key = pooled_keypair(slot, bits=bits)
        key._crt_context()
        keys.append(key)
    return keys
