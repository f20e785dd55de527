"""Random-oracle hash family (paper §I-C, §IV).

The paper makes the *random oracle assumption* [Bellare–Rogaway]: there exist
hash functions ``h`` whose output is uniformly distributed over ``[0, 1)`` the
first time any input is queried, and consistent thereafter.  The construction
uses several independent oracles:

* ``h1``, ``h2`` — group-membership point derivation (§III-A),
* ``f``, ``g`` — the two composed puzzle hashes (§IV-A),
* ``h`` — random-string outputs (App. VIII).

:class:`RandomOracle` realizes this with keyed BLAKE2b: the oracle name and a
session seed form the key, the canonicalized input forms the message, and the
first 8 output bytes map to a float64 in ``[0, 1)``.  This is deterministic
across runs (reproducibility), uniform (BLAKE2b), and collision-free for our
purposes (64-bit outputs).

Substitution note: the paper suggests SHA-2; any random-oracle instantiation
is interchangeable for the analysis, and BLAKE2b is the fastest keyed hash in
CPython's standard library.

For bulk Monte-Carlo work (millions of oracle points), :meth:`RandomOracle.
uniform_stream` derives a seeded NumPy ``Generator`` from an input key and
emits a vectorized uniform stream — distributionally identical to repeated
oracle calls under the random-oracle assumption, but ~100x faster.  The two
paths are cross-checked in the test suite.
"""

from __future__ import annotations

import hashlib
import struct
from typing import Iterable

import numpy as np

__all__ = ["RandomOracle", "OracleSuite"]

_TWO64 = float(2**64)


def _canon(part) -> bytes:
    """Canonical byte encoding of one input component.

    Floats are encoded via ``struct`` (exact bits), ints via two's-complement
    length-prefixed bytes, strings via UTF-8, bytes verbatim.  Each component
    is tagged with its type so ``(1, "a")`` and ``("1a",)`` cannot collide.
    """
    if isinstance(part, bool):  # must precede int check
        return b"b" + (b"\x01" if part else b"\x00")
    if isinstance(part, (int, np.integer)):
        v = int(part)
        nbytes = max(1, (v.bit_length() + 8) // 8)
        return b"i" + v.to_bytes(nbytes, "little", signed=True)
    if isinstance(part, (float, np.floating)):
        return b"f" + struct.pack("<d", float(part))
    if isinstance(part, str):
        raw = part.encode("utf-8")
        return b"s" + len(raw).to_bytes(4, "little") + raw
    if isinstance(part, (bytes, bytearray)):
        return b"y" + len(part).to_bytes(4, "little") + bytes(part)
    raise TypeError(f"unhashable oracle input component: {type(part)!r}")


class RandomOracle:
    """A named, seeded hash function ``h : inputs -> [0, 1)``.

    Two oracles with different ``(name, seed)`` behave as independent random
    functions; the same ``(name, seed)`` always reproduces the same mapping.

    Examples
    --------
    >>> h1 = RandomOracle("h1", seed=7)
    >>> 0.0 <= h1(0.25, 3) < 1.0
    True
    >>> h1(0.25, 3) == h1(0.25, 3)
    True
    """

    __slots__ = ("name", "seed", "_key")

    def __init__(self, name: str, seed: int = 0):
        self.name = name
        self.seed = int(seed)
        self._key = hashlib.blake2b(
            f"{name}\x00{seed}".encode("utf-8"), digest_size=16
        ).digest()

    def digest(self, *parts) -> bytes:
        """Raw 8-byte digest of the canonicalized input."""
        h = hashlib.blake2b(key=self._key, digest_size=8)
        for p in parts:
            h.update(_canon(p))
        return h.digest()

    def __call__(self, *parts) -> float:
        """Hash to a float in ``[0, 1)``."""
        (v,) = struct.unpack("<Q", self.digest(*parts))
        return v / _TWO64

    def u64(self, *parts) -> int:
        """Hash to an unsigned 64-bit integer (used to seed generators)."""
        (v,) = struct.unpack("<Q", self.digest(*parts))
        return v

    def many(self, base, count: int, start: int = 1) -> np.ndarray:
        """``[h(base, start), ..., h(base, start+count-1)]`` as an array.

        This is the paper's ``h(w, i)`` pattern for group-membership points
        (§III-A).  Exact oracle calls (not the fast stream) so that any party
        can re-derive and *verify* an individual point.
        """
        out = np.empty(count, dtype=np.float64)
        for j in range(count):
            out[j] = self(base, start + j)
        return out

    def uniform_stream(self, *key) -> np.random.Generator:
        """A seeded NumPy generator keyed by ``key``.

        Under the random-oracle assumption, fresh oracle queries are i.i.d.
        uniforms; this returns a PCG64 stream seeded from ``h(key)`` that is
        distributionally equivalent and vectorizable.  Use for bulk sampling
        (PoW trials, Monte-Carlo probes), never for values that a protocol
        participant must later *verify* point-wise.
        """
        return np.random.Generator(np.random.PCG64(self.u64(*key)))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RandomOracle(name={self.name!r}, seed={self.seed})"


class OracleSuite:
    """The full set of oracles a deployment shares (paper §I-C, §IV-A).

    All participants — good and bad — know these functions; they ship with
    the client software.  A single session ``seed`` derives the whole suite,
    so experiments are reproducible end to end.

    Attributes
    ----------
    h1, h2:
        Membership-point oracles for group graphs 1 and 2 (§III-A).
    f, g:
        The composed puzzle oracles (§IV-A): an ID is valid iff
        ``g(sigma XOR r) <= tau`` and the ID equals ``f(g(sigma XOR r))``.
    h:
        Random-string output oracle (App. VIII).
    """

    __slots__ = ("seed", "h1", "h2", "f", "g", "h")

    def __init__(self, seed: int = 0):
        self.seed = int(seed)
        self.h1 = RandomOracle("h1", seed)
        self.h2 = RandomOracle("h2", seed)
        self.f = RandomOracle("f", seed)
        self.g = RandomOracle("g", seed)
        self.h = RandomOracle("h", seed)

    def membership_oracle(self, which: int) -> RandomOracle:
        """``h1`` for group graph 1, ``h2`` for group graph 2."""
        if which == 1:
            return self.h1
        if which == 2:
            return self.h2
        raise ValueError("group graph index must be 1 or 2")

    def __repr__(self) -> str:  # pragma: no cover
        return f"OracleSuite(seed={self.seed})"
