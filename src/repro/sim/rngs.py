"""Named RNG stream derivation for domain-partitioned determinism.

The window-batched partition engine (``repro.sim.partition``) dispatches
provably-independent events out of global timestamp order.  Any two
model components that *share* one ``random.Random`` therefore see their
draw interleaving change with the engine — the classic PDES
repeatability bug.  The fix is structural: every component draws from
its **own named stream**, derived deterministically from the run's root
seed, so the sequence each component observes is a pure function of
``(root_seed, stream name)`` and never of cross-domain dispatch order.

Derivation is a keyed hash (BLAKE2b) of the slash-joined name path, so

- streams are independent for distinct names (no correlated low bits,
  unlike ``seed + k`` offsets),
- adding a stream never perturbs existing ones, and
- derivation is stable across processes, platforms and Python versions
  (the telemetry-shard / ``--jobs`` byte-identity contract).

The experiment runners that predate this module already keep one
``random.Random`` per purpose (kernel costs / service-time model /
load generator at ``seed``, ``seed+1``, ``seed+2``); those literal
seeds are pinned by the golden digest and stay as they are.  New code
— and any component whose draws can happen in more than one timing
domain (the fault injector was the one offender) — goes through
:class:`RngStreams` instead.

Conformance: ``tests/conformance/test_rng_streams.py`` replays
generated programs whose dispatch log records every draw's
``(stream name, value)`` across the serial, exact-merge and
window-batched engines and asserts the per-stream sequences are
identical.
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict, Tuple

__all__ = ["derive_seed", "RngStreams"]

#: Hash personalization: changing this re-keys every derived stream, so
#: it doubles as a derivation-scheme version tag.
_PERSON = b"wave-rngs/1"


def derive_seed(root_seed: int, *names: str) -> int:
    """A 64-bit seed for the stream at ``names`` under ``root_seed``.

    Deterministic in ``(root_seed, names)`` and nothing else.  Name
    components are joined with ``/`` (components must not contain
    ``/`` themselves, so ``("a", "b/c")`` and ``("a/b", "c")`` cannot
    collide).
    """
    if not names:
        return int(root_seed)
    for name in names:
        if "/" in name:
            raise ValueError(f"stream name component {name!r} contains '/'")
    digest = hashlib.blake2b(
        "/".join(names).encode(),
        digest_size=8,
        key=repr(int(root_seed)).encode(),
        person=_PERSON,
    ).digest()
    return int.from_bytes(digest, "big")


class RngStreams:
    """A family of independent named ``random.Random`` streams.

    One instance per run (or per component tree, via :meth:`spawn`).
    ``streams.stream("nic", "arrivals")`` always returns the same
    object for the same name path, seeded by :func:`derive_seed` — so
    model code can fetch its stream at the point of use without
    threading Random objects through every constructor.

    The draw *order within one stream* is whatever the owning
    component does with it; the batched-engine contract is only that a
    stream is owned by (drawn from) a single timing domain.
    """

    __slots__ = ("root_seed", "_prefix", "_streams")

    def __init__(self, root_seed: int,
                 _prefix: Tuple[str, ...] = ()):
        self.root_seed = int(root_seed)
        self._prefix = _prefix
        self._streams: Dict[Tuple[str, ...], random.Random] = {}

    def stream(self, *names: str) -> random.Random:
        """The (cached) stream for this name path."""
        if not names:
            raise ValueError("a stream needs at least one name component")
        rng = self._streams.get(names)
        if rng is None:
            rng = random.Random(
                derive_seed(self.root_seed, *self._prefix, *names))
            self._streams[names] = rng
        return rng

    def spawn(self, *names: str) -> "RngStreams":
        """A child family rooted at this name path.

        ``spawn("faults").stream("msg-drop")`` and
        ``stream("faults", "msg-drop")`` are the *same* sequence: the
        child extends the name path (rather than re-rooting on a
        derived seed, which would silently break that equivalence), so
        a component can hand sub-components a family without them
        knowing their absolute position in the tree.
        """
        if not names:
            raise ValueError("spawn needs at least one name component")
        return RngStreams(self.root_seed, self._prefix + names)

    def __repr__(self) -> str:
        return (f"<RngStreams root={self.root_seed} "
                f"prefix={'/'.join(self._prefix) or '-'} "
                f"streams={sorted(self._streams)}>")
