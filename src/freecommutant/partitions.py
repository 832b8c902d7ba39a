"""Set partitions of {1..n}.

Enumerates the partition families of the ``partitions`` command (all set
partitions, non-crossing, interval, interval with blocks of size >= 2,
non-crossing with first and last element joined) and merges the blocks of
an interval partition along a coarser non-crossing one.  The cumulant
computations sum over no partition here: they run first-block recursions.
The enumerating oracles of those recursions, the lattice join and the cyclic
assignment of symbols along blocks are test code
(``tests/partition_oracles.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterator

from .errors import DomainError, GroundSetError, KindError


class PartitionKind(Enum):
    ALL = "all"
    NC = "nc"
    INTERVAL = "interval"
    INTERVAL_MIN2 = "interval-min2"
    NC_IRREDUCIBLE = "nc-irreducible"


@dataclass(frozen=True, slots=True)
class Partition:
    """A set partition of {1..n} in canonical form.

    Blocks are internally sorted and ordered by least element; equality and
    hashing are structural, so canonicalization is idempotent by
    construction.
    """

    n: int
    blocks: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        n = self.n
        if n < 1:
            raise DomainError(f"ground-set size must be positive, got {n}")
        canon = sorted((tuple(sorted(b)) for b in self.blocks), key=lambda b: b[0] if b else 0)
        seen: list[int] = []
        for b in canon:
            if not b:
                raise DomainError("empty block")
            seen.extend(b)
        if sorted(seen) != list(range(1, n + 1)):
            raise DomainError(f"blocks do not partition {{1..{n}}}: {canon}")
        object.__setattr__(self, "blocks", tuple(canon))

    @property
    def num_blocks(self) -> int:
        return len(self.blocks)

    def block_index(self) -> dict[int, int]:
        """Map each element to the index of its block."""
        owner: dict[int, int] = {}
        for i, b in enumerate(self.blocks):
            for e in b:
                owner[e] = i
        return owner

    def to_json(self) -> list[list[int]]:
        return [list(b) for b in self.blocks]

    def __repr__(self) -> str:
        return f"Partition({self.n}, {[list(b) for b in self.blocks]})"


def is_noncrossing(p: Partition) -> bool:
    """True iff no quadruple a<b<c<d has a,c in one block and b,d in another."""
    owner = p.block_index()
    last = {i: b[-1] for i, b in enumerate(p.blocks)}
    stack: list[int] = []
    open_blocks: set[int] = set()
    for e in range(1, p.n + 1):
        b = owner[e]
        if b in open_blocks:
            if stack[-1] != b:
                return False
        else:
            open_blocks.add(b)
            stack.append(b)
        if e == last[b]:
            stack.pop()
            open_blocks.discard(b)
    return True


def is_interval(p: Partition) -> bool:
    """True iff every block is a run of consecutive integers."""
    return all(b[-1] - b[0] + 1 == len(b) for b in p.blocks)


def compose_interval(pi: Partition, sigma: Partition) -> Partition:
    """Merge the interval blocks of ``sigma`` along the blocks of ``pi``.

    ``sigma`` must be an interval partition with k blocks and ``pi`` a
    non-crossing partition of {1..k}; block i of the result is the union of
    the sigma-blocks whose indices share a pi-block.
    """
    if not is_interval(sigma):
        raise KindError(f"sigma must be an interval partition, got {sigma!r}")
    k = sigma.num_blocks
    if pi.n != k:
        raise GroundSetError(f"pi partitions {{1..{pi.n}}} but sigma has {k} blocks")
    if not is_noncrossing(pi):
        raise KindError(f"pi must be non-crossing, got {pi!r}")
    merged = [
        sorted(e for j in v for e in sigma.blocks[j - 1])
        for v in pi.blocks
    ]
    rho = Partition(sigma.n, merged)
    assert is_noncrossing(rho)
    return rho


def _iter_nc_blocklists(lo: int, hi: int) -> Iterator[tuple[tuple[int, ...], ...]]:
    if lo > hi:
        yield ()
        return
    yield from _iter_first_block(lo, hi, span=False)


def _iter_first_block(lo: int, hi: int, span: bool) -> Iterator[tuple[tuple[int, ...], ...]]:
    """Partitions of [lo, hi] listed by the block of ``lo``; with ``span``
    that block is required to contain ``hi``."""

    def grow(members: list[int], nxt: int) -> Iterator[tuple[tuple[int, ...], ...]]:
        if not span or members[-1] == hi:
            block = tuple(members)
            for rest in _iter_nc_blocklists(nxt, hi):
                yield (block,) + rest
        for m in range(nxt, hi + 1):
            for gap in _iter_nc_blocklists(nxt, m - 1):
                members.append(m)
                for out in grow(members, m + 1):
                    yield (out[0],) + gap + out[1:]
                members.pop()

    yield from grow([lo], lo + 1)


def _iter_compositions(total: int, min_part: int) -> Iterator[tuple[int, ...]]:
    if total == 0:
        yield ()
        return
    for first in range(min_part, total + 1):
        for rest in _iter_compositions(total - first, min_part):
            yield (first,) + rest


def _iter_all_blocklists(n: int) -> Iterator[tuple[tuple[int, ...], ...]]:
    # restricted growth strings, lexicographic
    labels = [0] * n

    def rec(i: int, mx: int) -> Iterator[tuple[tuple[int, ...], ...]]:
        if i == n:
            blocks: list[list[int]] = [[] for _ in range(mx + 1)]
            for e in range(n):
                blocks[labels[e]].append(e + 1)
            yield tuple(tuple(b) for b in blocks)
            return
        for v in range(mx + 2):
            labels[i] = v
            yield from rec(i + 1, max(mx, v))

    yield from rec(1, 0) if n > 1 else iter([((1,),)])


def iter_partitions(n: int, kind: PartitionKind) -> Iterator[Partition]:
    """Lazily yield every partition of the kind exactly once, deterministically."""
    if n < 1:
        raise DomainError(f"ground-set size must be positive, got {n}")
    if kind is PartitionKind.ALL:
        source = _iter_all_blocklists(n)
    elif kind is PartitionKind.NC:
        source = _iter_nc_blocklists(1, n)
    elif kind is PartitionKind.NC_IRREDUCIBLE:
        source = _iter_first_block(1, n, span=True)
    elif kind is PartitionKind.INTERVAL:
        source = _interval_blocklists(n, 1)
    elif kind is PartitionKind.INTERVAL_MIN2:
        source = _interval_blocklists(n, 2)
    else:  # pragma: no cover
        raise DomainError(f"unknown kind {kind!r}")
    for blocks in source:
        yield Partition(n, blocks)


def _interval_blocklists(n: int, min_part: int) -> Iterator[tuple[tuple[int, ...], ...]]:
    for comp in _iter_compositions(n, min_part):
        blocks = []
        start = 1
        for size in comp:
            blocks.append(tuple(range(start, start + size)))
            start += size
        yield tuple(blocks)

