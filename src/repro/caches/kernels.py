"""Vectorized simulation kernels for set-indexed structures.

The per-reference :class:`~repro.caches.cache.SetAssociativeCache` loop
is exact but interpreter-bound: every address pays a method call, a
list search and a policy dispatch.  This module provides the grouped-set
alternative the trace-driven drivers run on — one vectorized pass per
chunk instead of one Python call per address — while staying
*bit-identical* to the per-reference path.  Both share one key format,
:func:`pack`.

Why grouping is exact
---------------------

LRU and FIFO state is independent across sets: the outcome of a
reference depends only on the sequence of prior references *to its own
set*.  A stable argsort by set index therefore preserves, within each
set, the original reference order — so replaying the chunk set-by-set
over contiguous runs produces exactly the per-reference result (the
generalization of Mattson's observation that stack algorithms may be
evaluated per congruence class).  Two further exact reductions apply:

* **direct-mapped** sets hold exactly the last key that touched them, so
  a whole chunk reduces to pure numpy (compare each sorted reference
  with its predecessor; write each set's final key back);
* **consecutive duplicates** within a set's run are guaranteed hits that
  do not disturb LRU/FIFO state (the key is already resident — and, for
  LRU, already most-recently-used), so the sequential stack update only
  visits the run's *collapsed* key sequence.  Sequential code streams
  collapse by a factor of line_bytes/word_size.

What cannot be grouped: a shared-RNG random replacement policy consumes
its stream in global miss order, which grouping reorders.  Such configs
must stay on the per-reference path; :mod:`repro.caches.pipeline`
routes them there.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigError

#: bits of a packed key that hold the space id
SPACE_BITS = 12

#: space id range mixed into packed keys (tids must stay below this)
MAX_SPACES = 1 << SPACE_BITS

#: replacement policies the grouped kernel can replay exactly
GROUPABLE_POLICIES = ("lru", "fifo")


def pack(line, space):
    """The key of one simulated-structure entry: ``line << SPACE_BITS |
    space``.

    ``line`` is a line number (``addr >> line_shift``) or a superpage
    number; ``space`` is the tid for virtually indexed caches and TLBs
    and 0 for physical caches.  Works on ints and on int64 arrays.
    """
    return line << SPACE_BITS | space


def unpack(key):
    """``(line, space)`` of a packed key (ints or int64 arrays); the
    empty key -1 unpacks to ``(-1, MAX_SPACES - 1)``."""
    return key >> SPACE_BITS, key & (MAX_SPACES - 1)


def line_address(key, line_shift: int):
    """The address of a physical key's line, ``unpack(key)[0] <<
    line_shift``, in one shift.

    A physical key's space bits are 0 and a line is at most a page
    (``line_shift <= SPACE_BITS``), so shifting right by the difference
    is exact; the empty key -1 stays -1.
    """
    return key >> (SPACE_BITS - line_shift)


def check_space(tid: int) -> int:
    """``tid`` as a packed key's space; a tid outside ``[0,
    MAX_SPACES)`` would alias another task's entries, so it raises."""
    if not 0 <= tid < MAX_SPACES:
        raise ConfigError(
            f"tid {tid} outside the packed-key space range [0, {MAX_SPACES})"
        )
    return tid


def dm_grouped_pass(
    state: np.ndarray,
    sets: np.ndarray,
    keys: np.ndarray,
    missed: np.ndarray | None = None,
    previous: np.ndarray | None = None,
) -> int:
    """One exact direct-mapped pass: update ``state``, return misses.

    ``state`` maps set index -> resident key (-1 = empty).  A
    direct-mapped set always holds the last key that touched it, so a
    reference misses iff its key differs from its set's previous key;
    the per-set *last* key is written back.

    ``missed`` and ``previous``, when given, are arrays as long as
    ``keys`` that receive, in the caller's reference order, whether each
    reference missed and the key its set held just before it: the key
    a miss displaced (-1 for an empty set), a hit's own key.
    Trap-driven batched delivery reads the miss positions and victims
    from them.
    """
    n = len(sets)
    if n == 0:
        return 0
    order = sets.argsort(kind="stable")
    sets_sorted = sets[order]
    keys_sorted = keys[order]
    same = sets_sorted[1:] == sets_sorted[:-1]
    # the set's resident for a set's first reference, the reference
    # before it in the set for every later one
    held = state[sets_sorted]
    np.copyto(held[1:], keys_sorted[:-1], where=same)
    miss_sorted = keys_sorted != held
    if missed is not None:
        missed[order] = miss_sorted
    if previous is not None:
        previous[order] = held
    last = np.empty(n, dtype=bool)
    last[-1] = True
    np.logical_not(same, out=last[:-1])
    state[sets_sorted[last]] = keys_sorted[last]
    return int(np.count_nonzero(miss_sorted))


def grouped_stack_pass(
    sets_store: list[list],
    associativity: int,
    lru: bool,
    set_list: list[int],
    key_list: list,
) -> int:
    """Sequential per-set stack update over contiguous runs.

    ``set_list``/``key_list`` must already be sorted by set (stable) and
    collapsed of consecutive duplicates; ``sets_store`` holds each set's
    entries in policy order (index 0 most protected, last the victim —
    the :mod:`repro.caches.replacement` convention for LRU and FIFO).
    Returns the miss count; mutates ``sets_store`` in place.
    """
    misses = 0
    n = len(set_list)
    i = 0
    while i < n:
        s = set_list[i]
        entries = sets_store[s]
        while i < n and set_list[i] == s:
            key = key_list[i]
            try:
                way = entries.index(key)
            except ValueError:
                misses += 1
                if len(entries) >= associativity:
                    entries.pop()
                entries.insert(0, key)
            else:
                if lru and way:
                    entries.insert(0, entries.pop(way))
            i += 1
    return misses


def first_touch_mask(keys: np.ndarray, seen: set) -> np.ndarray:
    """Boolean mask of compulsory references: True where a chunk
    position is its key's first occurrence in the *whole* stream.

    ``seen`` is the caller's cross-chunk set of every key ever
    referenced; it is updated in place with this chunk's keys.  The mask
    is set-count independent (a key's first touch is a property of the
    stream, not of any geometry), so the all-associativity sweep
    computes it once per chunk and shares it across every set-count
    pass.
    """
    unique, first_index = np.unique(keys, return_index=True)
    mask = np.zeros(len(keys), dtype=bool)
    fresh = [
        index
        for key, index in zip(unique.tolist(), first_index.tolist())
        if key not in seen
    ]
    if fresh:
        mask[fresh] = True
        seen.update(keys[fresh].tolist())
    return mask


def grouped_distance_pass(
    stacks: list[list[int]],
    max_depth: int | None,
    set_list: list[int],
    key_list: list,
    cold_list: list[bool],
    distances: list[int],
) -> tuple[int, int]:
    """Per-set LRU stack-*distance* extraction over contiguous runs.

    The all-associativity generalization of :func:`grouped_stack_pass`:
    instead of replaying one fixed associativity, record each found
    reference's LRU depth ``d`` — by stack inclusion the reference then
    hits in *every* associativity ``A > d`` at this set count, so one
    pass prices the whole ways axis.  Inputs follow the grouped-pass
    contract (sorted by set, consecutive duplicates collapsed);
    ``stacks`` holds each set's keys most-recent-first, truncated to
    ``max_depth`` entries (``None`` = unbounded, the fully-associative
    profiler's mode); ``cold_list`` flags first-ever references (from
    :func:`first_touch_mask`); found depths are appended to
    ``distances``.  Returns ``(cold, overflow)`` — references absent
    from their bounded stack split into compulsory misses and
    truncation-overflow (depth >= ``max_depth``, a miss at every
    associativity the sweep prices).  Mutates ``stacks`` in place.
    """
    cold = 0
    overflow = 0
    n = len(set_list)
    i = 0
    while i < n:
        s = set_list[i]
        stack = stacks[s]
        while i < n and set_list[i] == s:
            key = key_list[i]
            try:
                depth = stack.index(key)
            except ValueError:
                if cold_list[i]:
                    cold += 1
                else:
                    overflow += 1
                if max_depth is not None and len(stack) >= max_depth:
                    stack.pop()
                stack.insert(0, key)
            else:
                distances.append(depth)
                if depth:
                    stack.insert(0, stack.pop(depth))
            i += 1
    return cold, overflow


def collapse_consecutive(
    sets_sorted: np.ndarray, keys_sorted: np.ndarray
) -> np.ndarray:
    """Keep-mask dropping consecutive same-key repeats (guaranteed hits).

    Assumes keys determine sets (a key encodes its full line/superpage
    number), so equal adjacent keys always share a set.
    """
    keep = np.empty(len(keys_sorted), dtype=bool)
    keep[0] = True
    np.not_equal(keys_sorted[1:], keys_sorted[:-1], out=keep[1:])
    return keep
