"""Shadow-paging coherence checker.

Cross-checks the *cached* translation state (TLB entries, shadow PTEs)
against fresh, uncached walks of the authoritative state — the guest
GPT through the machine's memory chain (:meth:`Machine.expected_frame`),
the same reference semantics on all seven machines.  Four hook
families:

* ``check_flush_*`` — called by :class:`~repro.hw.mmu.Mmu` immediately
  after each flush executes, asserting the flush left no matching
  translation behind (the "skipped flush" bug class).
* ``after_sync`` — called after every shadow fix, asserting every
  shadow half agrees with the guest PTE and the expected target frame.
* ``after_zap`` — called after ``invalidate_pages``, asserting the
  zapped range is gone from the shadow tables (if any) and the TLB.
* ``after_fault`` — called once per access whose faults were serviced.

``after_zap`` and ``after_fault`` audit the cached TLB entries against
the reference walk: every Nth call in ``sampled`` mode (deterministic
counter, never wall clock or RNG), every call in ``full`` mode.  A
``full`` audit also recounts each TLB's 2 MiB entries against the
:attr:`Tlb.huge_entries` count the MMU trusts to skip the 2 MiB probe.

All probes are read-only and charge no virtual time: the oracle uses
``PageTable.lookup`` (never ``walk``, which sets accessed/dirty bits),
``MemoryChain.peek``/``peek_target`` (never the lazily-allocating
backing calls), the machine's side-effect-free TLB tags (never
``asid_for``, which touches the PCID window), and
:meth:`Tlb.peek_packed` (never ``lookup``, which counts hits/misses).
"""

from __future__ import annotations

from repro.hw.tlb import HUGE_TAG, KEY_SHIFT, Tlb
from repro.hw.types import NUM_PCIDS, PCID_BITS, Asid
from repro.sanitize.core import SanitizeReport, Violation

#: In ``sampled`` mode, audit the TLBs on every Nth sync/zap hook.
SAMPLE_EVERY = 16


class ShadowCoherenceSanitizer:
    """TLB/shadow-vs-guest-table coherence checks for one machine."""

    def __init__(self, machine, report: SanitizeReport) -> None:
        self.machine = machine
        self.report = report
        self._tick = 0

    # -- flush invariants (machine-agnostic, called from the Mmu) --------

    def check_flush_page(self, tlb: Tlb, asid: Asid, vpn: int) -> None:
        """After INVLPG, no 4K entry for (asid, vpn) may remain.

        Only the 4K key is asserted: hardware INVLPG drops the entry it
        finds, and the model pops the covering huge entry only when no
        4K entry existed — mirroring that, the huge key is only checked
        when the page had no 4K mapping (i.e. always, via peek, minus
        the case where a huge entry coexists with a removed 4K one,
        which the pcid/vpid flush invariants still cover).
        """
        self.report.check("shadow")
        akey = asid.key
        if (akey << KEY_SHIFT) | vpn in tlb.entries:
            self._stale(tlb, akey, vpn, "stale-after-page-flush",
                        "4K entry survived flush_page")

    def check_flush_pcid(self, tlb: Tlb, asid: Asid) -> None:
        """After a PCID flush, no entry of the ASID remains."""
        self.report.check("shadow")
        akey = asid.key
        for key in tlb.entries:
            if key >> KEY_SHIFT == akey:
                self._stale(tlb, akey, _entry_vpn(key),
                            "stale-after-pcid-flush",
                            "entry survived flush_pcid")

    def check_flush_vpid(self, tlb: Tlb, vpid: int) -> None:
        """After a VPID flush, no entry of the VM remains."""
        self.report.check("shadow")
        for key in tlb.entries:
            akey = key >> KEY_SHIFT
            if akey >> PCID_BITS == vpid:
                self._stale(tlb, akey, _entry_vpn(key),
                            "stale-after-vpid-flush",
                            "entry survived flush_vpid")

    def check_flush_all(self, tlb: Tlb) -> None:
        """After a full flush the TLB must be empty."""
        self.report.check("shadow")
        if tlb.entries:
            key = next(iter(tlb.entries))
            self._stale(tlb, key >> KEY_SHIFT, _entry_vpn(key),
                        "stale-after-full-flush", "entry survived flush_all")

    # -- shadow fix / zap hooks (shadow-paging machines) -----------------

    def after_sync(self, ctx, proc, vpn: int, gpt_pte, result) -> None:
        """Audit the shadow entries just installed for one guest PTE."""
        self.report.check("shadow")
        machine = self.machine
        target = machine.memory.peek_target(gpt_pte.frame)
        if target is not None:
            err = machine.shadow.coherence_error(proc, vpn, gpt_pte, target)
            if err is not None:
                spte = machine.shadow.lookup(proc, vpn)
                self.report.violation(Violation(
                    checker="shadow", kind="shadow-incoherent-after-sync",
                    detail=err, vpid=machine.vpid, pcid=proc.pcid, vpn=vpn,
                    expected=target,
                    actual=spte.frame if spte is not None else None,
                ))

    def after_zap(self, ctx, proc, vpns) -> None:
        """Audit that a zapped range is gone from shadow tables (where
        the machine has them) and from the TLB."""
        machine = self.machine
        self.report.check("shadow", max(1, len(vpns)))
        akey = machine.tlb_tag(proc)
        halves = ("user", "kernel") if machine.shadow is not None else ()
        for vpn in vpns:
            for half in halves:
                pte = machine.shadow.lookup(proc, vpn, half)
                # A huge leftover is legal: only the aligned base vpn
                # unmaps a 2 MiB shadow entry, so zapping a partial run
                # leaves the covering entry in place by design.
                if pte is not None and not pte.huge:
                    self.report.violation(Violation(
                        checker="shadow", kind="shadow-survived-zap",
                        detail=f"{half}-half shadow entry survived "
                               f"invalidate_pages",
                        vpid=machine.vpid, pcid=proc.pcid, vpn=vpn,
                        expected=None, actual=pte.frame,
                    ))
            if akey is not None:
                frame = ctx.tlb.peek_packed(akey, vpn)
                if frame is not None:
                    self._stale(ctx.tlb, akey, vpn, "stale-after-zap",
                                "TLB entry survived invalidate_pages")
        self._maybe_scan()

    def after_fault(self) -> None:
        """Audit cached translations after an access that faulted.

        Every machine's ``touch`` calls this once its faults (guest,
        shadow or extended) are serviced, so the TLB audit covers all
        seven machines whatever tables they keep; shadow syncs happen
        inside fault handling and are audited here too.
        """
        self._maybe_scan()

    def after_discard(self) -> None:
        """Audit cached translations after a balloon/reclaim discard.

        A discarded (and soon reallocated) host frame must not remain
        reachable through any TLB entry or shadow PTE; a full
        cross-check right after the discard catches the "forgot to
        zap" bug class at its source instead of at the next sampled
        sync.
        """
        self.report.check("shadow")
        self.scan_tlbs()

    # -- TLB-vs-2D-walk audit --------------------------------------------

    def scan_tlbs(self) -> int:
        """Cross-check every cached TLB entry against fresh table walks.

        Returns the number of entries audited.  Only entries whose tag
        names exactly one live process (:meth:`Machine.tlb_owners`) can
        be attributed; kernel-half tags are never filled by
        ``translate`` and are not among the owners.
        """
        owners = self.machine.tlb_owners()
        full = self.report.mode == "full"
        checked = 0
        for ctx in self.machine.contexts:
            if full:
                self._check_huge_count(ctx.tlb)
            for key, frame in ctx.tlb.entries.items():
                proc = owners.get(key >> KEY_SHIFT)
                if proc is None:
                    continue
                checked += 1
                self._check_entry(proc, key, frame)
        if checked:
            self.report.check("shadow-scan", checked)
        return checked

    def _check_huge_count(self, tlb: Tlb) -> None:
        """The TLB's 2 MiB count must equal its 2 MiB keys: a count that
        reads low makes the MMU skip a cached 2 MiB translation."""
        huge = sum(1 for key in tlb.entries if key & HUGE_TAG)
        if huge != tlb.huge_entries:
            self.report.violation(Violation(
                checker="shadow", kind="tlb-huge-count-mismatch",
                detail=f"TLB counts {tlb.huge_entries} 2 MiB entries but "
                       f"caches {huge}",
                vpid=self.machine.vpid, expected=huge,
                actual=tlb.huge_entries,
            ))

    def _check_entry(self, proc, key: int, frame: int) -> None:
        vpn = _entry_vpn(key)
        # A huge entry is keyed (and its frame normalized) at its 2 MiB
        # base, which is the vpn compared here.
        expected = self.machine.expected_frame(proc, vpn)
        if expected == frame:
            return  # the cached translation is what a fresh walk gives
        # Disagreement: classify it against the guest PTE.
        machine = self.machine
        gpt_pte = proc.gpt.lookup(vpn)
        if gpt_pte is None:
            self.report.violation(Violation(
                checker="shadow", kind="tlb-maps-unmapped",
                detail="cached translation for a guest-unmapped page",
                vpid=machine.vpid, pcid=proc.pcid, vpn=vpn,
                expected=None, actual=frame,
            ))
        elif bool(key & HUGE_TAG) != gpt_pte.huge:
            cached_huge = not gpt_pte.huge
            self.report.violation(Violation(
                checker="shadow", kind="tlb-page-size-mismatch",
                detail=f"cached huge={cached_huge} but guest PTE "
                       f"huge={gpt_pte.huge}",
                vpid=machine.vpid, pcid=proc.pcid, vpn=vpn,
                expected=gpt_pte.huge, actual=cached_huge,
            ))
        elif expected is not None:  # None: backing not materialized
            self.report.violation(Violation(
                checker="shadow", kind="tlb-stale-translation",
                detail="cached frame disagrees with a fresh walk of the "
                       "guest table through the memory chain",
                vpid=machine.vpid, pcid=proc.pcid, vpn=vpn,
                expected=expected, actual=frame,
            ))

    # -- internals --------------------------------------------------------

    def _maybe_scan(self) -> None:
        self._tick += 1
        if self.report.mode == "full" or self._tick % SAMPLE_EVERY == 0:
            self.scan_tlbs()

    def _stale(self, tlb: Tlb, akey: int, vpn: int, kind: str,
               detail: str) -> None:
        self.report.violation(Violation(
            checker="shadow", kind=kind, detail=detail,
            vpid=akey >> PCID_BITS, pcid=akey & (NUM_PCIDS - 1), vpn=vpn,
            expected=None, actual=tlb.peek_packed(akey, vpn),
        ))


def _entry_vpn(key: int) -> int:
    """The vpn a TLB key caches: a 2 MiB entry's is its run's base."""
    if key & HUGE_TAG:
        return (key & (HUGE_TAG - 1)) << 9
    return key & (HUGE_TAG - 1)
