"""The NAND flash array: real bytes with NAND semantics.

The array enforces what firmware must live with:

* reads and programs happen at page granularity,
* a page can only be programmed once after an erase (no in-place update),
* erases happen at block granularity.

State lives in per-block records keyed by one flat block id
(``ppn // pages_per_block``). A record exists only from its block's first
program to its erase, so simulating a multi-GiB device costs memory
proportional to the data actually written, never to the geometry.
"""

from __future__ import annotations

import enum
from typing import Optional, Sequence

from repro.errors import FlashError, ProgramFailError
from repro.faults import SITE_NAND_PROGRAM, check_fault
from repro.flash.geometry import NandGeometry
from repro.storage.page import verify_pages


class PageState(enum.Enum):
    """Lifecycle of one flash page."""

    ERASED = "erased"
    PROGRAMMED = "programmed"
    INVALID = "invalid"  # superseded data awaiting block erase


#: Page-state codes as stored in :attr:`BlockRecord.state`; a code indexes
#: :data:`_STATES` back to the public enum.
ERASED, PROGRAMMED, INVALID = 0, 1, 2
_STATES = (PageState.ERASED, PageState.PROGRAMMED, PageState.INVALID)


class BlockRecord:
    """What one non-erased block holds, indexed by page offset.

    ``state`` has one byte per page; ``data`` and ``oob`` (the owning LPN
    and a monotonic write sequence — what real firmware stashes in the spare
    area so the mapping survives power loss) grow only as far as the highest
    page programmed.

    ``checked`` has one byte per page, set once the stored copy passed the
    ECC check (:meth:`NandArray.read_unit`). Stored bytes are immutable, so
    a check of the same copy can never give another answer; only a new copy
    clears the byte: :meth:`store`, :meth:`NandArray.corrupt_page`, and an
    erase (which drops the whole record). A page appended past the end of
    ``data`` has never held a copy in this record, so its byte is clear.
    """

    __slots__ = ("state", "data", "oob", "checked")

    def __init__(self, pages_per_block: int):
        self.state = bytearray(pages_per_block)
        self.data: list[Optional[bytes]] = []
        self.oob: list[Optional[tuple[int, int]]] = []
        self.checked = bytearray(pages_per_block)

    def store(self, page: int, data: bytes,
              oob: Optional[tuple[int, int]]) -> None:
        """Keep a page's payload and metadata (the state is the caller's)."""
        gap = page + 1 - len(self.data)
        if gap > 0:
            self.data.extend([None] * gap)
            self.oob.extend([None] * gap)
        self.data[page] = data
        self.oob[page] = oob
        self.checked[page] = 0


class NandArray:
    """A flash array storing real page bytes under NAND rules."""

    def __init__(self, geometry: NandGeometry):
        self.geometry = geometry
        self._pages_per_block = geometry.pages_per_block
        #: Flat block id -> record of every block that is not fully erased.
        #: The FTL's write core and collector compute block ids themselves
        #: and work on records directly; all else uses the checked methods.
        self.blocks: dict[int, BlockRecord] = {}
        self.reads = 0
        self.programs = 0
        self.erases = 0
        self.program_failures = 0
        #: Optional :class:`repro.faults.FaultPlan` (wired by the device).
        self.faults = None

    def open_block(self, flat: int) -> BlockRecord:
        """The record of block ``flat``, created if the block is erased."""
        record = self.blocks.get(flat)
        if record is None:
            record = self.blocks[flat] = BlockRecord(self._pages_per_block)
        return record

    def state(self, ppn: int) -> PageState:
        """Current state of a page (pages start erased)."""
        self._check_ppn(ppn)
        flat, page = divmod(ppn, self._pages_per_block)
        record = self.blocks.get(flat)
        if record is None:
            return PageState.ERASED
        return _STATES[record.state[page]]

    def read(self, ppn: int) -> bytes:
        """Read a programmed page's bytes."""
        pages_per_block = self._pages_per_block
        record = self.blocks.get(ppn // pages_per_block)
        page = ppn % pages_per_block
        # A record implies the block id is in range (only a program creates
        # one), so the range check can wait for the error path.
        if record is not None and record.state[page] == PROGRAMMED:
            self.reads += 1
            return record.data[page]
        raise FlashError(f"read of {self.state(ppn).value} page {ppn}")

    def read_unit(self, ppns: Sequence[int], verify: bool) -> list[bytes]:
        """Read many programmed pages, ECC-checking each stored copy once.

        With ``verify``, pages whose ``checked`` byte is clear go through
        :func:`~repro.storage.page.verify_pages` (a bad copy raises
        :class:`~repro.errors.StorageError` and stays unchecked, so every
        later read raises again); the byte is set only once the check
        passes. Returns the bytes in ``ppns`` order.
        """
        pages_per_block = self._pages_per_block
        blocks = self.blocks
        pages = []
        unchecked = []
        for ppn in ppns:
            record = blocks.get(ppn // pages_per_block)
            page = ppn % pages_per_block
            if record is None or record.state[page] != PROGRAMMED:
                self.reads += len(pages)
                self.read(ppn)  # raises the FlashError
            data = record.data[page]
            pages.append(data)
            if verify and not record.checked[page]:
                unchecked.append((record.checked, page, data))
        self.reads += len(pages)
        if unchecked:
            verify_pages([data for __, __, data in unchecked])
            for checked, page, __ in unchecked:
                checked[page] = 1
        return pages

    def program(self, ppn: int, data: bytes,
                oob: Optional[tuple[int, int]] = None) -> None:
        """Program an erased page with exactly one page of bytes.

        ``oob`` carries (LPN, write-sequence) metadata into the page's
        out-of-band area; the FTL uses it to rebuild its mapping after an
        unclean shutdown. An injected program failure leaves the page
        unusable (INVALID, reclaimed on the next block erase) and raises
        :class:`~repro.errors.ProgramFailError` for firmware to retry.
        """
        self._check_ppn(ppn)
        if len(data) != self.geometry.page_nbytes:
            raise FlashError(
                f"program of {len(data)} bytes; page is "
                f"{self.geometry.page_nbytes}")
        flat, page = divmod(ppn, self._pages_per_block)
        record = self.open_block(flat)
        if record.state[page] != ERASED:
            raise FlashError(
                f"program of {self.state(ppn).value} page {ppn} "
                "(erase-before-program violated)")
        if check_fault(self.faults, SITE_NAND_PROGRAM, ppn=ppn) is not None:
            record.state[page] = INVALID
            self.program_failures += 1
            raise ProgramFailError(f"program failure at page {ppn}")
        record.store(page, bytes(data), oob)
        record.state[page] = PROGRAMMED
        self.programs += 1

    def oob(self, ppn: int) -> Optional[tuple[int, int]]:
        """The (LPN, sequence) metadata programmed alongside a page."""
        self._check_ppn(ppn)
        flat, page = divmod(ppn, self._pages_per_block)
        record = self.blocks.get(flat)
        if record is None or page >= len(record.oob):
            return None
        return record.oob[page]

    def programmed_ppns(self) -> list[int]:
        """Every page currently holding live data, in PPN order."""
        pages_per_block = self._pages_per_block
        return [flat * pages_per_block + page
                for flat in sorted(self.blocks)
                for page, code in enumerate(self.blocks[flat].state)
                if code == PROGRAMMED]

    def invalidate(self, ppn: int) -> None:
        """Mark a programmed page's data as superseded (FTL bookkeeping)."""
        if self.state(ppn) is not PageState.PROGRAMMED:
            raise FlashError(f"invalidate of {self.state(ppn).value} page {ppn}")
        flat, page = divmod(ppn, self._pages_per_block)
        self.blocks[flat].state[page] = INVALID

    def corrupt_page(self, ppn: int, data: bytes) -> None:
        """Test hook: swap a programmed page's stored bytes under the ECC,
        leaving its state and out-of-band metadata alone."""
        flat, page = divmod(ppn, self._pages_per_block)
        record = self.blocks.get(flat)
        if record is None or record.state[page] != PROGRAMMED:
            raise FlashError(f"corrupt of {self.state(ppn).value} page {ppn}")
        record.data[page] = bytes(data)
        record.checked[page] = 0

    def erase_block(self, channel: int, chip: int, block: int) -> None:
        """Erase a whole block, releasing all its pages."""
        first = self.geometry.ppn(channel, chip, block, 0)
        self.blocks.pop(first // self._pages_per_block, None)
        self.erases += 1

    def block_page_states(self, channel: int, chip: int,
                          block: int) -> list[PageState]:
        """States of every page in a block, in page order."""
        first = self.geometry.ppn(channel, chip, block, 0)
        return [self.state(ppn)
                for ppn in range(first, first + self._pages_per_block)]

    def _check_ppn(self, ppn: int) -> None:
        if not 0 <= ppn < self.geometry.total_pages:
            raise FlashError(f"PPN {ppn} out of range")
