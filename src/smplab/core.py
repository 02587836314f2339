"""Shared vocabulary for the protocol lab.

Inputs are fixed-length bit strings, messages are classical bit payloads or
plain descriptors of the quantum states they stand for, and every source of
randomness is a counter-based (master seed, stream id) pair so that trials
reproduce bit-for-bit regardless of scheduling.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Any

import numpy as np

_MASK64 = (1 << 64) - 1
_ORD_0 = ord("0")


class ConfigError(ValueError):
    """Bad experiment configuration (reported before any trial runs)."""


class Verdict(Enum):
    """Accept/reject outcome of a decision protocol."""

    ACCEPT = "accept"
    REJECT = "reject"


class OneOutOfTwoVerdict(Enum):
    """Which of Alice's two inputs the referee declares equal to Bob's."""

    FIRST_EQUAL = "first_equal"
    SECOND_EQUAL = "second_equal"


# A protocol run produces exactly one verdict, drawn from one of the two
# enums above depending on the problem being decided.
Decision = Verdict | OneOutOfTwoVerdict


class InstanceKind(Enum):
    EQ_PAIR = "eq_pair"
    NE_PAIR = "ne_pair"
    ONE_OUT_OF_TWO_TRIPLE = "one_out_of_two_triple"
    DISJ_PAIR = "disj_pair"
    INTERSECT_PAIR = "intersect_pair"


@dataclass(frozen=True, eq=False)
class BitString:
    """Immutable {0,1} string: one read-only 1-d uint8 array.

    Built from any 1-d sequence of 0/1 integers or booleans.  A read-only
    uint8 array, such as a row or column view of a codeword grid, is wrapped
    without a copy; anything else is copied once and frozen.
    """

    array: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.array)
        if a.ndim != 1:
            raise ValueError("bits must form a 1-d sequence")
        if a.dtype.kind == "b":
            a = a.view(np.uint8)
        elif a.dtype.kind not in "iu":
            if a.size:
                raise ValueError("bits must be integers 0 or 1")
            a = a.astype(np.uint8)
        # Shifting out the low bit leaves every value other than 0 and 1
        # (negatives included) nonzero.
        if np.any(a >> 1):
            raise ValueError("bits must be 0 or 1")
        if a.dtype != np.uint8 or a.flags.writeable:
            a = a.astype(np.uint8)
            a.flags.writeable = False
        object.__setattr__(self, "array", a)

    @property
    def n(self) -> int:
        return self.array.size

    def __eq__(self, other) -> bool:
        if not isinstance(other, BitString):
            return NotImplemented
        return self.array.tobytes() == other.array.tobytes()

    def __hash__(self) -> int:
        return hash(self.array.tobytes())

    @staticmethod
    def from_array(a) -> "BitString":
        return BitString(a)

    @staticmethod
    def from_text(text: str) -> "BitString":
        return BitString(np.frombuffer(text.encode("ascii"), dtype=np.uint8) - _ORD_0)

    def to_text(self) -> str:
        return (self.array + _ORD_0).tobytes().decode("ascii")

    def __str__(self) -> str:
        return self.to_text()


def hamming_distance(x: BitString, y: BitString) -> int:
    """Number of positions where x and y differ; lengths must match."""
    if x.n != y.n:
        raise ValueError(f"length mismatch: {x.n} != {y.n}")
    return int(np.count_nonzero(x.array != y.array))


@dataclass(frozen=True)
class RandomSource:
    """Counter-based randomness: (master_seed, stream_id) -> Philox stream.

    Identical pairs replay identical draw sequences; distinct stream ids give
    statistically independent streams.  Never share one stream between
    concurrent workers — derive a child per worker/role instead.
    """

    master_seed: int
    stream_id: int = 0

    def generator(self) -> np.random.Generator:
        key = np.array(
            [self.master_seed & _MASK64, self.stream_id & _MASK64], dtype=np.uint64
        )
        return np.random.Generator(np.random.Philox(key=key))

    def derive(self, *path: int) -> "RandomSource":
        """Child source with a stream id mixed from this one and `path`."""
        sid = self.stream_id & _MASK64
        for tag in path:
            sid = _splitmix64(sid ^ ((tag * 0x9E3779B97F4A7C15) & _MASK64))
        return RandomSource(self.master_seed, sid)


def _splitmix64(z: int) -> int:
    z = (z + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


@dataclass(frozen=True)
class Message:
    """One player's message: classical bits or a quantum state descriptor.

    `length` counts bits for classical payloads and qubits for quantum ones.
    """

    kind: str  # "classical" | "quantum"
    length: int
    payload: Any

    def __post_init__(self):
        if self.kind not in ("classical", "quantum"):
            raise ValueError(f"unknown message kind {self.kind!r}")
        if self.length < 0:
            raise ValueError("length must be nonnegative")


_KIND_FOR_LETTER = {"R": "classical", "Q": "quantum"}


@dataclass(frozen=True)
class Transcript:
    """The (up to three) messages the referee received, typed by protocol.

    `protocol_type` is the usual letter string (RR, QQ, RRR, QRQ, ...);
    letters map positionally to Alice, Bob and, when present, Merlin.
    """

    alice: Message
    bob: Message
    merlin: Message | None
    protocol_type: str

    def __post_init__(self):
        letters = self.protocol_type
        expected = 2 if self.merlin is None else 3
        if len(letters) != expected:
            raise ValueError(
                f"protocol type {letters!r} does not match message count {expected}"
            )
        msgs = [self.alice, self.bob] + ([] if self.merlin is None else [self.merlin])
        for letter, msg, who in zip(letters, msgs, ("alice", "bob", "merlin")):
            want = _KIND_FOR_LETTER.get(letter)
            if want is None:
                raise ValueError(f"unknown protocol letter {letter!r}")
            if msg.kind != want:
                raise ValueError(f"{who} message kind {msg.kind} != {want}")

    def lengths(self) -> dict[str, int]:
        out = {"alice": self.alice.length, "bob": self.bob.length}
        if self.merlin is not None:
            out["merlin"] = self.merlin.length
        return out


def _random_bitstring(n: int, g: np.random.Generator) -> BitString:
    return BitString(g.integers(0, 2, size=n))


def sample_instance(kind: InstanceKind, n: int, rng: RandomSource):
    """Draw a promise-respecting input tuple for the given problem family."""
    if n < 2:
        raise ValueError("n must be at least 2")
    g = rng.generator()
    if kind is InstanceKind.EQ_PAIR:
        x = _random_bitstring(n, g)
        return x, x
    if kind is InstanceKind.NE_PAIR:
        x = _random_bitstring(n, g)
        y = _random_bitstring(n, g)
        while y == x:
            y = _random_bitstring(n, g)
        return x, y
    if kind is InstanceKind.ONE_OUT_OF_TWO_TRIPLE:
        y = _random_bitstring(n, g)
        other = _random_bitstring(n, g)
        while other == y:
            other = _random_bitstring(n, g)
        if g.integers(0, 2) == 0:
            return y, other, y
        return other, y, y
    if kind is InstanceKind.DISJ_PAIR:
        # Per position, (x_i, y_i) uniform over {(0,0),(0,1),(1,0)}: AND is zero.
        choice = g.integers(0, 3, size=n)
        x, y = BitString(choice == 2), BitString(choice == 1)
        return x, y
    if kind is InstanceKind.INTERSECT_PAIR:
        x = _random_bitstring(n, g)
        y = _random_bitstring(n, g)
        if not np.any(x.array & y.array):
            pos = int(g.integers(0, n))
            xb, yb = x.array.copy(), y.array.copy()
            xb[pos] = yb[pos] = 1
            x, y = BitString(xb), BitString(yb)
        return x, y
    raise ValueError(f"unknown instance kind {kind}")
