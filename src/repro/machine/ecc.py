"""SEC-DED ECC memory model and the diagnostic controller interface.

The DECstation 5000/200 protects each 32-bit word with 7 check bits of a
single-error-correcting, double-error-detecting (SEC-DED) code, and its
memory-controller ASIC exposes a diagnostic mode that lets privileged
software read and write the check bits directly.  Tapeworm sets a memory
trap by flipping *one specific check bit* of a word; any subsequent
cache-line refill touching that word raises an ECC error trap to the
kernel.  Because Tapeworm always flips the same check bit, it can
distinguish its own traps from true memory errors: a single-bit error in
any of the other 38 bit positions, or any double-bit error, must be real
(paper, footnote 1).

Two layers are provided:

* :class:`ECCWord` — a faithful bit-level (39,32) SEC-DED codec used to
  validate the classification logic and by the error-injection tests.
* :class:`ECCController` — the machine-wide controller that the CPU and
  Tapeworm actually use.  For speed it tracks *which granules are tampered*
  in a numpy bitmap (one flag per 4-word check granule, since the hardware
  only checks ECC on 4-word cache-line refills) and keeps a sparse map of
  injected true errors.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from repro.errors import MachineError
from repro.machine.memory import GRANULE_BYTES, PhysicalMemory

# ---------------------------------------------------------------------------
# Bit-level (39,32) SEC-DED codec
# ---------------------------------------------------------------------------

#: Codeword positions are 1-indexed 1..38 plus an overall parity bit.
#: Power-of-two positions hold the six Hamming check bits.
_HAMMING_POSITIONS = (1, 2, 4, 8, 16, 32)
_DATA_POSITIONS = tuple(
    pos for pos in range(1, 39) if pos not in _HAMMING_POSITIONS
)
assert len(_DATA_POSITIONS) == 32

#: The check bit Tapeworm flips to set a trap (the Hamming bit at
#: codeword position 1).  Index into the 7-bit check field: bits 0..5 are
#: the Hamming bits for positions 1,2,4,8,16,32 and bit 6 is overall parity.
TAPEWORM_CHECK_BIT = 0


def _encode_hamming(data: int) -> int:
    """Return the 6 Hamming check bits for a 32-bit data word."""
    syndrome = 0
    for bit_index, pos in enumerate(_DATA_POSITIONS):
        if (data >> bit_index) & 1:
            syndrome ^= pos
    check = 0
    for check_index, pos in enumerate(_HAMMING_POSITIONS):
        if (syndrome >> check_index) & 1:
            check |= 1 << check_index
    return check


def _overall_parity(data: int, hamming: int) -> int:
    """Even parity over all data and Hamming check bits."""
    return (bin(data).count("1") + bin(hamming).count("1")) & 1


class ECCStatus(enum.Enum):
    """Outcome of checking one stored word against its check bits."""

    OK = "ok"
    SINGLE_BIT = "single_bit"
    DOUBLE_BIT = "double_bit"


@dataclass
class ECCWord:
    """One ECC-protected 32-bit word with direct check-bit access.

    ``check`` is a 7-bit field: bits 0..5 the Hamming bits, bit 6 the
    overall parity bit.  A freshly constructed word carries the correct
    check bits for its data.
    """

    data: int = 0
    check: int = field(default=-1)

    def __post_init__(self) -> None:
        if not 0 <= self.data < 2**32:
            raise MachineError(f"data word out of range: {self.data:#x}")
        if self.check == -1:
            self.check = self.correct_check()

    def correct_check(self) -> int:
        """The check bits a fault-free word would carry."""
        hamming = _encode_hamming(self.data)
        return hamming | (_overall_parity(self.data, hamming) << 6)

    def flip_check_bit(self, bit: int) -> None:
        """Diagnostic write: flip one of the 7 check bits."""
        if not 0 <= bit < 7:
            raise MachineError(f"check bit index out of range: {bit}")
        self.check ^= 1 << bit

    def flip_data_bit(self, bit: int) -> None:
        """Inject a data-bit error (models a true memory fault)."""
        if not 0 <= bit < 32:
            raise MachineError(f"data bit index out of range: {bit}")
        self.data ^= 1 << bit

    def status(self) -> tuple[ECCStatus, int | None]:
        """Run the SEC-DED decode against the stored check bits.

        Returns ``(status, position)`` where ``position`` is the syndrome
        — the 1-indexed codeword position of a single-bit error, with 0
        meaning the overall parity bit itself — or ``None`` when the word
        is clean or the error is uncorrectable.
        """
        recomputed = _encode_hamming(self.data)
        syndrome = 0
        for check_index, pos in enumerate(_HAMMING_POSITIONS):
            stored = (self.check >> check_index) & 1
            expected = (recomputed >> check_index) & 1
            if stored != expected:
                syndrome ^= pos
        parity_ok = ((self.check >> 6) & 1) == _overall_parity(
            self.data, self.check & 0x3F
        )
        if syndrome == 0 and parity_ok:
            return ECCStatus.OK, None
        if not parity_ok:
            # Odd number of flipped bits: a correctable single-bit error.
            return ECCStatus.SINGLE_BIT, syndrome
        # Non-zero syndrome with even overall parity: double-bit error.
        return ECCStatus.DOUBLE_BIT, None

    def is_tapeworm_trap(self) -> bool:
        """True when the *only* fault is the designated Tapeworm check bit.

        This is the classification rule of the paper's footnote 1: a
        single-bit error at the Tapeworm check-bit position is one of our
        own traps; any other single-bit position, or a double-bit error,
        is a true memory error.
        """
        status, position = self.status()
        if status is not ECCStatus.SINGLE_BIT:
            return False
        return position == _HAMMING_POSITIONS[TAPEWORM_CHECK_BIT]


# ---------------------------------------------------------------------------
# Machine-wide controller
# ---------------------------------------------------------------------------


class TrapClass(enum.Enum):
    """What an ECC trap turned out to be once classified by software."""

    TAPEWORM = "tapeworm"
    TRUE_SINGLE = "true_single"
    TRUE_DOUBLE = "true_double"


@dataclass(frozen=True)
class ECCDiagnostic:
    """Structured result of classifying one ECC trap.

    ``recoverable`` is the decision the paper's handler makes: a single
    corrupted *data* bit can always be repaired (even under Tapeworm's
    own check-bit flip, which software knows how to undo), while two or
    more data-bit errors form a genuinely uncorrectable pattern — the
    once-a-year double-bit error the DECstation would panic on.
    """

    pa: int
    granule: int
    trap_class: TrapClass
    status: ECCStatus
    #: corrupted data-bit positions injected into this granule, sorted
    data_bits: tuple[int, ...] = ()
    #: whether Tapeworm's designated check bit is currently flipped here
    tapeworm_flipped: bool = False

    @property
    def recoverable(self) -> bool:
        return len(self.data_bits) <= 1

    def describe(self) -> str:
        bits = ",".join(str(b) for b in self.data_bits) or "none"
        return (
            f"pa={self.pa:#x} granule={self.granule} "
            f"class={self.trap_class.value} status={self.status.value} "
            f"data_bits=[{bits}] tapeworm_bit={self.tapeworm_flipped} "
            f"recoverable={self.recoverable}"
        )


#: log2 of :data:`GRANULE_BYTES`
_GRANULE_SHIFT = GRANULE_BYTES.bit_length() - 1


def _range_granules(bases: np.ndarray, size: int) -> np.ndarray:
    """The granules of each ``size``-byte range based at ``bases``:
    range by range, ascending within each."""
    if size == GRANULE_BYTES:
        return bases >> _GRANULE_SHIFT
    offsets = np.arange(size >> _GRANULE_SHIFT, dtype=np.int64)
    return ((bases >> _GRANULE_SHIFT)[:, None] + offsets).ravel()


class ECCController:
    """The memory-controller ASIC's diagnostic interface, machine-wide.

    The controller checks ECC only on 4-word cache-line refills, so the
    effective trap granularity is one
    :data:`~repro.machine.memory.GRANULE_BYTES` granule.
    ``granule_trapped`` is the numpy bitmap the simulated CPU consults on
    every reference chunk — it stands in for the physical check-bit state
    on the fast path, while :class:`ECCWord` models the bits themselves.

    The controller also logs granules that gained a trap since the last
    drain; the CPU uses this to notice when a miss handler sets a trap on
    a line that appears *later in the same chunk*.
    """

    def __init__(self, memory: PhysicalMemory) -> None:
        self.memory = memory
        #: granules that will raise an ECC trap when refilled (the OR of
        #: Tapeworm tampering and injected true errors)
        self.granule_trapped = np.zeros(memory.n_granules, dtype=bool)
        #: granules whose Tapeworm check bit is currently flipped
        self._tapeworm = np.zeros(memory.n_granules, dtype=bool)
        #: granule -> set of injected true-error (word_offset, bit) pairs
        self._true_errors: dict[int, set[tuple[int, int]]] = {}
        self._recent_sets: list[int] = []
        self.stats_sets = 0
        self.stats_clears = 0

    # -- trap manipulation (Tapeworm's tw_set_trap / tw_clear_trap use these)

    def _granule_range(self, pa: int, size: int) -> range:
        self.memory.check_pa(pa, size)
        if pa % GRANULE_BYTES or size % GRANULE_BYTES:
            raise MachineError(
                "ECC traps must be granule-aligned: the controller only "
                f"checks ECC on {GRANULE_BYTES}-byte refills "
                f"(got pa={pa:#x}, size={size})"
            )
        return range(pa // GRANULE_BYTES, (pa + size) // GRANULE_BYTES)

    def set_trap(self, pa: int, size: int) -> None:
        """Flip the Tapeworm check bit for every granule in the range."""
        granules = self._granule_range(pa, size)
        self._tapeworm[granules.start : granules.stop] = True
        self.granule_trapped[granules.start : granules.stop] = True
        self._recent_sets.extend(granules)
        self.stats_sets += 1

    def set_traps(self, bases: np.ndarray, size: int) -> None:
        """:meth:`set_trap` on every ``size``-byte range based at
        ``bases``, in order, as one bitmap write.

        Every range passes the same range and alignment checks (all of
        them before any bit is written; the first failing range raises
        as :meth:`set_trap` would), and the bits, ``stats_sets`` and
        the recent-set log end as ``len(bases)`` calls leave them.
        """
        bases = np.asarray(bases, dtype=np.int64)
        if not len(bases):
            return
        bad = (
            (bases < 0)
            | (bases + size > self.memory.size_bytes)
            | (bases % GRANULE_BYTES != 0)
        )
        if size < 1 or size % GRANULE_BYTES or bad.any():
            self._granule_range(int(bases[int(np.argmax(bad))]), size)
        granules = _range_granules(bases, size)
        self._tapeworm[granules] = True
        self.granule_trapped[granules] = True
        self._recent_sets.extend(granules.tolist())
        self.stats_sets += len(bases)

    def clear_trap(self, pa: int, size: int) -> None:
        """Restore the Tapeworm check bit for every granule in the range.

        Injected true errors, if any, keep the granule trapping — exactly
        as on real hardware, where clearing Tapeworm's bit does not repair
        an unrelated fault.
        """
        granules = self._granule_range(pa, size)
        start, stop = granules.start, granules.stop
        self._tapeworm[start:stop] = False
        self.granule_trapped[start:stop] = False
        for granule in self._true_errors:
            if start <= granule < stop:
                self.granule_trapped[granule] = True
        self.stats_clears += 1

    def retrap_lines(
        self,
        trapped: np.ndarray,
        untrapped: np.ndarray,
        size: int,
        clears: int,
    ) -> None:
        """Apply one segment's line-sized trap writes at once.

        Sets every ``size``-byte range based at ``trapped``, then clears
        every one based at ``untrapped``: the net effect, and the
        counts, of ``len(trapped)`` :meth:`set_trap` calls and
        ``clears`` :meth:`clear_trap` calls in which each ``untrapped``
        range is written last by a clear.  Batched delivery declines
        while injected true errors exist, so a clear leaves
        ``granule_trapped`` false.  Nothing is logged for rescans: the
        batch has already replayed the whole segment.
        """
        for bases, value in ((trapped, True), (untrapped, False)):
            granules = _range_granules(bases, size)
            self._tapeworm[granules] = value
            self.granule_trapped[granules] = value
        self.stats_sets += len(trapped)
        self.stats_clears += clears

    @property
    def has_true_errors(self) -> bool:
        """Whether any injected true error is still unscrubbed."""
        return bool(self._true_errors)

    def is_trapped(self, pa: int) -> bool:
        """Whether a reference to ``pa`` would raise an ECC trap."""
        return bool(self.granule_trapped[self.memory.granule_of(pa)])

    def is_tapeworm_trapped(self, pa: int) -> bool:
        """Whether Tapeworm's check bit is flipped for ``pa``'s granule."""
        return bool(self._tapeworm[self.memory.granule_of(pa)])

    # -- recent-set log, used by the CPU's in-order chunk scan

    def drain_recent_sets(self) -> list[int]:
        """Return and clear the granules trapped since the last drain."""
        recent, self._recent_sets = self._recent_sets, []
        return recent

    # -- true memory errors (for the bias/accuracy experiments)

    def inject_true_error(self, pa: int, bit: int, double: bool = False) -> None:
        """Corrupt a data bit (or two, for ``double``) at ``pa``.

        Models the genuine memory faults the paper logged about once a
        year; used to verify that Tapeworm still detects them while its
        own traps are active.
        """
        granule = self.memory.granule_of(pa)
        word = (pa % GRANULE_BYTES) // 4
        errors = self._true_errors.setdefault(granule, set())
        errors.add((word, bit))
        if double:
            errors.add((word, (bit + 1) % 32))
        self.granule_trapped[granule] = True

    def classify(self, pa: int) -> TrapClass:
        """Classify an ECC trap at ``pa`` the way Tapeworm's handler does."""
        return self.diagnose(pa).trap_class

    def diagnose(self, pa: int) -> ECCDiagnostic:
        """Full classification of an ECC trap at ``pa``.

        Reconstructs the word-level ECC state — the Tapeworm check-bit
        flip and/or injected data-bit errors — and runs the SEC-DED
        decode of :class:`ECCWord`.  The diagnostic carries everything a
        handler (or a raised :class:`~repro.errors.DoubleBitError`)
        needs: the corrupted bit positions, whether our own check bit is
        flipped, and whether the pattern is recoverable.
        """
        granule = self.memory.granule_of(pa)
        tapeworm = bool(self._tapeworm[granule])
        errors = self._true_errors.get(granule, set())
        if not errors:
            # the fast path: only our own check-bit flip is present
            return ECCDiagnostic(
                pa=pa,
                granule=granule,
                trap_class=TrapClass.TAPEWORM,
                status=ECCStatus.SINGLE_BIT,
                tapeworm_flipped=tapeworm,
            )
        word = ECCWord(0)
        if tapeworm:
            word.flip_check_bit(TAPEWORM_CHECK_BIT)
        for _, bit in sorted(errors):
            word.flip_data_bit(bit)
        status, _ = word.status()
        if status is ECCStatus.DOUBLE_BIT or tapeworm:
            # Tapeworm's flip plus a true error is at least a double-bit
            # pattern; either way the true error is detected.
            trap_class = TrapClass.TRUE_DOUBLE
        else:
            trap_class = TrapClass.TRUE_SINGLE
        return ECCDiagnostic(
            pa=pa,
            granule=granule,
            trap_class=trap_class,
            status=status,
            data_bits=tuple(sorted(bit for _, bit in errors)),
            tapeworm_flipped=tapeworm,
        )

    def tapeworm_granules(self) -> np.ndarray:
        """Granule numbers whose Tapeworm check bit is currently flipped
        (ascending).  Read-only view for auditors and fault injectors."""
        return np.nonzero(self._tapeworm)[0]

    def true_error_granules(self) -> dict[int, int]:
        """``granule -> number of injected data-bit errors`` for every
        granule still carrying an unscrubbed true error.  The
        trap-invariant auditor sweeps this at end of run: an injected
        error that was never referenced (so never classified) must not
        vanish silently."""
        return {
            granule: len(errors)
            for granule, errors in self._true_errors.items()
        }

    def scrub(self, pa: int) -> None:
        """Repair injected errors at ``pa`` (what the kernel's error
        handler would do after logging a true single-bit error)."""
        granule = self.memory.granule_of(pa)
        self._true_errors.pop(granule, None)
        self.granule_trapped[granule] = bool(self._tapeworm[granule])
