// Package nsu implements the Near-data processing SIMD Unit (§4.5): a
// simple in-order SIMT core on the logic layer of each memory stack. It has
// no MMU, no TLB, and no data cache — loads pop the read-data buffer filled
// by RDF responses, stores pop the write-address buffer filled by WTA
// packets, and all addresses it touches are physical, provided by the GPU.
package nsu

import (
	"fmt"
	"math/bits"

	"ndpgpu/internal/analyzer"
	"ndpgpu/internal/config"
	"ndpgpu/internal/core"
	"ndpgpu/internal/fault"
	"ndpgpu/internal/isa"
	"ndpgpu/internal/noc"
	"ndpgpu/internal/stats"
	"ndpgpu/internal/timing"
	"ndpgpu/internal/vm"
)

// bufKey identifies one read-data or write-address buffer entry.
type bufKey struct {
	id  core.OffloadID
	seq int
}

// rdEntry accumulates RDF responses for one load instruction.
type rdEntry struct {
	mask uint32
	data [core.WarpWidth]uint32
	pkts int
}

// wtEntry accumulates WTA packets for one store instruction.
type wtEntry struct {
	accesses []core.LineAccess
	total    int
}

// instRec tracks the latest offload instance seen for one (SM, warp) pair
// under fault injection: which credits previous incarnations already
// returned, and the saved acknowledgment for duplicate-command replay.
// Retransmitted commands, data packets, and write acks are reconciled
// against it so each buffer credit is returned exactly once per instance.
type instRec struct {
	tag      core.ProtoTag // instance (and latest attempt) being tracked
	numLD    int
	numST    int
	retLD    int // read-data credits returned: seqs [0, retLD)
	retST    int // write-address credits returned: seqs [0, retST)
	cmdRet   bool
	done     bool
	aborted  bool
	savedAck *core.AckPacket
}

// nsuWarp is one warp slot.
type nsuWarp struct {
	active   bool
	id       core.OffloadID
	block    *analyzer.Block
	mask     uint32
	pc       int
	seqLD    int
	seqST    int
	pending  int // unacknowledged DRAM writes
	readyAt  timing.PS
	tag      core.ProtoTag // the spawning command's instance/attempt tag
	deadline timing.PS     // fault mode: give up on the warp past this time

	// stBuf holds the block's stores under fault injection. The fault-free
	// NSU streams each store to memory as it executes; the resilient
	// protocol instead buffers them here and applies the whole set
	// atomically at OFLD.END (commit), so a retried or fallen-back attempt
	// re-executes against unmutated memory — without this, a partially
	// written in-place block (read-modify-write on the same lines) could
	// never be replayed correctly.
	stBuf []*core.WritePacket
	regs  map[isa.Reg]*[core.WarpWidth]uint64
	// written tracks which lanes each register was produced for, so the
	// acknowledgment ships only meaningful values.
	written map[isa.Reg]uint32
}

func (w *nsuWarp) reg(r isa.Reg) *[core.WarpWidth]uint64 {
	v, ok := w.regs[r]
	if !ok {
		v = new([core.WarpWidth]uint64)
		w.regs[r] = v
	}
	return v
}

// CreditReturner receives buffer credits as NSU entries drain (§4.3); the
// GPU's buffer manager implements it.
type CreditReturner interface {
	Return(target int, kind core.BufferKind, n int)
}

// WriteSubmitter accepts a write packet destined for a local vault; the
// owning HMC implements it.
type WriteSubmitter interface {
	SubmitNSUWrite(p *core.WritePacket, now timing.PS)
}

// NSU is one near-data SIMD unit.
type NSU struct {
	ID  int
	cfg config.Config
	mem *vm.System
	fab *noc.Fabric
	st  *stats.Stats

	credits CreditReturner
	local   WriteSubmitter

	blocks map[int]*analyzer.Block
	warps  []nsuWarp
	cmdQ   []*core.CmdPacket
	rd     map[bufKey]*rdEntry
	wt     map[bufKey]*wtEntry

	period     timing.PS
	icodeSeen  map[int]bool // block IDs whose code this NSU has executed
	icodeBytes int64

	// Fault-injection state (all nil/zero on the fault-free path).
	flt         *fault.Injector
	abortPS     timing.PS // warp give-up window, > the GPU's full retry window
	inst        map[core.OffloadID]*instRec
	deadCleaned bool // permanent failure observed and state torn down

	// Idle mirror cache. idleValid holds between evaluations until a Deliver
	// or a full Tick can change the outcome; while it certifies idleness past
	// the current edge, Tick applies the snapshot below instead of rescanning
	// the warps.
	idleValid bool
	idleWake  timing.PS

	// onWork, when set, is called from Deliver with the delivery time: the
	// NSU domain is wake-scheduled and this NSU's slot must be re-armed no
	// later than the edge that can first observe the packet.
	onWork func(at timing.PS)

	// Snapshot of the per-cycle statistics an empty tick would record,
	// captured by the last evaluation that certified idleness; SkipIdle
	// replays it for each retired cycle. Only idle evaluations overwrite it,
	// so the snapshot always describes the stretch being skipped.
	skipOcc int64
	skipRD  int64
	skipWA  int64
}

// New builds an NSU for stack id. The program's blocks provide the NSU code
// image (appended to the workload executable per §3.2).
func New(id int, cfg config.Config, prog *analyzer.Program, mem *vm.System,
	fab *noc.Fabric, st *stats.Stats, credits CreditReturner) *NSU {
	n := &NSU{
		ID:        id,
		cfg:       cfg,
		mem:       mem,
		fab:       fab,
		st:        st,
		credits:   credits,
		blocks:    make(map[int]*analyzer.Block),
		warps:     make([]nsuWarp, cfg.NSU.NumWarps),
		rd:        make(map[bufKey]*rdEntry),
		wt:        make(map[bufKey]*wtEntry),
		period:    timing.PeriodFromMHz(cfg.NSU.ClockMHz),
		icodeSeen: make(map[int]bool),
	}
	for _, b := range prog.Blocks {
		n.blocks[b.ID] = b
	}
	return n
}

// SetLocalWriter wires the owning HMC's vault path.
func (n *NSU) SetLocalWriter(w WriteSubmitter) { n.local = w }

// SetFault attaches the fault injector. abortPS is the window after which a
// spawned warp that cannot finish (its data packets were lost and the GPU
// abandoned the block) is killed; it must exceed the GPU's full retry window
// so an abort implies the GPU has already fallen back and quarantined this
// stack.
func (n *NSU) SetFault(inj *fault.Injector, abortPS timing.PS) {
	n.flt = inj
	n.abortPS = abortPS
	n.inst = make(map[core.OffloadID]*instRec)
}

// Failed reports whether this NSU is permanently dead as of the injector's
// last applied state (used by the drain check, which runs after the
// injector's schedule edge has fired).
func (n *NSU) Failed() bool {
	return n.flt != nil && (n.deadCleaned || n.flt.NSUFailedApplied(n.ID))
}

// SetWakeHook installs the Deliver-time re-arm callback (wake scheduling).
func (n *NSU) SetWakeHook(f func(at timing.PS)) { n.onWork = f }

// Deliver accepts a protocol packet routed to this NSU by the HMC logic
// layer.
func (n *NSU) Deliver(msg any, now timing.PS) {
	if n.flt != nil && n.flt.NSUFailed(now, n.ID) {
		return // dead silicon: arriving packets vanish into the failed stack
	}
	n.idleValid = false
	if n.onWork != nil {
		n.onWork(now)
	}
	switch m := msg.(type) {
	case *core.CmdPacket:
		if n.flt != nil && n.deliverCmdFaulty(m, now) {
			return
		}
		n.cmdQ = append(n.cmdQ, m)
	case *core.RDFResp:
		if n.flt != nil && n.staleData(m.ID, m.Tag, m.Seq, true) {
			return
		}
		k := bufKey{id: m.ID, seq: m.Seq}
		e, ok := n.rd[k]
		if !ok {
			e = &rdEntry{}
			n.rd[k] = e
		}
		e.mask |= m.Mask
		e.pkts++
		for t := 0; t < core.WarpWidth; t++ {
			if m.Mask&(1<<uint(t)) != 0 {
				e.data[t] = m.Data[t]
			}
		}
	case *core.RDFRef:
		// §7.1 extension: the line is in this NSU's read-only cache; build
		// the words locally instead of receiving them over the link.
		if n.flt != nil && n.staleData(m.ID, m.Tag, m.Seq, true) {
			return
		}
		k := bufKey{id: m.ID, seq: m.Seq}
		e, ok := n.rd[k]
		if !ok {
			e = &rdEntry{}
			n.rd[k] = e
		}
		e.mask |= m.Access.Mask
		e.pkts++
		for t := 0; t < core.WarpWidth; t++ {
			if m.Access.Mask&(1<<uint(t)) != 0 {
				addr := m.Access.LineAddr + uint64(m.Access.Offsets[t])*core.WordBytes
				e.data[t] = n.mem.Read32(addr)
			}
		}
	case *core.WTAPacket:
		if n.flt != nil && n.staleData(m.ID, m.Tag, m.Seq, false) {
			return
		}
		k := bufKey{id: m.ID, seq: m.Seq}
		e, ok := n.wt[k]
		if !ok {
			e = &wtEntry{}
			n.wt[k] = e
		}
		if n.flt != nil {
			// Retransmitted WTAs can duplicate a line access: merge by line
			// so the entry completes on distinct lines, not raw packet count.
			merged := false
			for i := range e.accesses {
				if e.accesses[i].LineAddr == m.Access.LineAddr {
					e.accesses[i].Mask |= m.Access.Mask
					for t := 0; t < core.WarpWidth; t++ {
						if m.Access.Mask&(1<<uint(t)) != 0 {
							e.accesses[i].Offsets[t] = m.Access.Offsets[t]
						}
					}
					merged = true
					break
				}
			}
			if !merged {
				e.accesses = append(e.accesses, m.Access)
			}
		} else {
			e.accesses = append(e.accesses, m.Access)
		}
		e.total = m.TotalPkts
	case *core.WriteAck:
		if n.flt != nil {
			// Buffered-commit mode: stores are fire-and-forget at commit
			// time, so the returning acks drain here with no warp waiting.
			return
		}
		for i := range n.warps {
			w := &n.warps[i]
			if w.active && w.id == m.ID {
				w.pending--
				return
			}
		}
		panic("nsu: write ack for unknown warp")
	default:
		panic(fmt.Sprintf("nsu: unexpected message %T", msg))
	}
}

// staleData decides whether an arriving data packet (RDF response/reference
// or WTA) belongs to a superseded, finished, or abandoned offload instance
// and must be discarded instead of polluting the buffers.
func (n *NSU) staleData(id core.OffloadID, tag core.ProtoTag, seq int, isLD bool) bool {
	rec := n.inst[id]
	if rec == nil || rec.tag.Inst != tag.Inst || rec.done || rec.aborted {
		n.st.StaleProtoPkts++
		return true
	}
	for i := range n.warps {
		w := &n.warps[i]
		if w.active && w.id == id {
			consumed := w.seqLD
			if !isLD {
				consumed = w.seqST
			}
			if seq < consumed {
				// Duplicate of an already-consumed entry: dropping it keeps
				// the buffer from growing an orphan no warp will ever pop.
				n.st.StaleProtoPkts++
				return true
			}
			break
		}
	}
	return false
}

// deliverCmdFaulty reconciles an arriving command against the instance
// table. Returns true when the command was fully handled (duplicate replay,
// in-queue substitution, or in-place respawn); false means the caller should
// enqueue it normally.
func (n *NSU) deliverCmdFaulty(m *core.CmdPacket, now timing.PS) bool {
	rec := n.inst[m.ID]
	if rec == nil || rec.tag.Inst != m.Tag.Inst {
		// A new offload instance for this (SM, warp): start tracking it.
		n.inst[m.ID] = &instRec{tag: m.Tag, numLD: m.NumLD, numST: m.NumST}
		return false
	}
	if m.Tag.Attempt <= rec.tag.Attempt {
		n.st.StaleProtoPkts++ // duplicate or out-of-order command
		return true
	}
	rec.tag = m.Tag
	if rec.done {
		// The block already completed; the ack must have been lost. Replay
		// it (a fresh packet: the auditor tracks injection by identity).
		dup := *rec.savedAck
		dup.Tag = m.Tag
		n.fab.SendHMCToGPU(now, n.ID, dup.Size(), &dup)
		return true
	}
	for i, c := range n.cmdQ {
		if c.ID == m.ID {
			n.cmdQ[i] = m // not yet spawned: substitute in place
			return true
		}
	}
	for i := range n.warps {
		w := &n.warps[i]
		if w.active && w.id == m.ID {
			// Kill the stale incarnation and respawn from the fresh command;
			// buffered entries stay (same instance, still valid) and the
			// instance record's credit marks prevent double returns.
			n.spawn(i, m, now)
			return true
		}
	}
	// Not queued, not active, not done: the warp was reclaimed after the
	// GPU abandoned the instance. The GPU never retries an abandoned
	// instance, so anything landing here is a straggler from before the
	// abandon — drop it rather than re-enter the queue without a credit.
	n.st.StaleProtoPkts++
	return true
}

// Tick advances the NSU by one of its clock cycles.
func (n *NSU) Tick(now timing.PS) {
	if n.flt != nil {
		if n.flt.NSUFailed(now, n.ID) {
			n.failTick()
			return
		}
		if n.flt.NSUStalled(now, n.ID) {
			// Frozen core: nothing advances, nothing certifies. Dense ticks
			// through the stall window are safe — a stalled NSU must never
			// report idle, or the engine would skip past the window's end.
			n.idleValid = false
			return
		}
	}
	if n.idleValid && n.idleWake > now {
		// A prior evaluation certified nothing can issue strictly before
		// idleWake and no Deliver has arrived since: this tick is empty, so
		// apply its fixed per-cycle statistics without rescanning the warps.
		n.SkipIdle(1)
		return
	}
	n.idleValid = false
	spawned := false
	// Spawn warps for queued offload commands.
	for len(n.cmdQ) > 0 {
		slot := -1
		for i := range n.warps {
			if !n.warps[i].active {
				slot = i
				break
			}
		}
		if slot < 0 {
			break
		}
		cmd := n.cmdQ[0]
		n.cmdQ = n.cmdQ[1:]
		n.spawn(slot, cmd, now)
		spawned = true
		// The command has left the offload command buffer: its credit goes
		// back to the GPU's buffer manager (the warp slot, not the buffer
		// entry, is what the command occupies from now on). Under fault
		// injection a respawned instance's credit was already returned by
		// its first spawn.
		if n.flt != nil {
			if rec := n.inst[cmd.ID]; rec != nil && !rec.cmdRet {
				rec.cmdRet = true
				n.credits.Return(n.ID, core.CmdBuffer, 1)
			}
		} else {
			n.credits.Return(n.ID, core.CmdBuffer, 1)
		}
	}

	occupied := 0
	issued := 0
	for i := range n.warps {
		w := &n.warps[i]
		if !w.active {
			continue
		}
		if n.flt != nil && w.deadline != 0 && now > w.deadline {
			if n.flt.InstanceAbandoned(w.id, w.tag.Inst) {
				// The GPU gave up on this instance and re-executed the block
				// host-side: reclaim the slot and drop the orphaned buffer
				// entries. The stack was quarantined in the same step as the
				// abandon, so the unreturned credits are exempt from the
				// drain check.
				n.abortWarp(w)
				continue
			}
			// Past the nominal window but still live at the GPU — it may be
			// feeding the block slowly under congestion, or a retry may be
			// in flight. Never kill an instance the GPU still owns; just
			// extend the reclamation deadline.
			w.deadline = now + n.abortPS
		}
		occupied++
		if issued >= n.cfg.NSU.IssueWidth || w.readyAt > now {
			continue
		}
		if n.step(w, now) {
			// Temporal SIMT (§4.5): a logical warp instruction occupies the
			// physical datapath for ceil(active/phys) slots.
			issued += n.simtSlots(w.mask)
		}
	}
	n.st.NSUWarpCycleSum += int64(occupied)
	if occupied > 0 {
		n.st.NSUActiveCycles++
	}
	if issued == 0 && !spawned {
		// An empty tick: certify and cache the idle stretch so following
		// empty ticks reduce to SkipIdle(1) and the engine can fast-forward
		// the domain.
		n.computeIdle(now)
	}
}

// simtSlots returns the issue slots one warp instruction occupies given the
// physical SIMD width.
func (n *NSU) simtSlots(mask uint32) int {
	phys := n.cfg.NSU.PhysSIMDWidth
	active := bits.OnesCount32(mask)
	if active == 0 {
		return 1
	}
	return (active + phys - 1) / phys
}

func (n *NSU) spawn(slot int, cmd *core.CmdPacket, now timing.PS) {
	blk, ok := n.blocks[cmd.BlockID]
	if !ok {
		panic(fmt.Sprintf("nsu: unknown block %d", cmd.BlockID))
	}
	w := &n.warps[slot]
	*w = nsuWarp{
		active:  true,
		id:      cmd.ID,
		block:   blk,
		mask:    cmd.Mask,
		tag:     cmd.Tag,
		regs:    make(map[isa.Reg]*[core.WarpWidth]uint64),
		written: make(map[isa.Reg]uint32),
	}
	if n.flt != nil {
		w.deadline = now + n.abortPS
	}
	for _, rv := range cmd.In.Regs {
		*w.reg(isa.Reg(rv.Reg)) = rv.Vals
	}
	n.st.NSUWarpsSpawned++
	if !n.icodeSeen[blk.ID] {
		n.icodeSeen[blk.ID] = true
		n.icodeBytes += int64(len(blk.NSUCode) * isa.InstrBytes)
		n.st.SetNSUICode(n.ID, n.icodeBytes)
	}
}

// effMask applies the instruction predicate on the NSU side (it has the
// predicate registers, either computed locally or transferred in).
func (w *nsuWarp) effMask(in isa.Instr) uint32 {
	if in.Pred == isa.RNone {
		return w.mask
	}
	p := w.reg(in.Pred)
	var m uint32
	for t := 0; t < core.WarpWidth; t++ {
		if w.mask&(1<<uint(t)) == 0 {
			continue
		}
		on := p[t] != 0
		if on != in.PredNeg {
			m |= 1 << uint(t)
		}
	}
	return m
}

// effMaskRO is effMask without the register-map insertion reg() performs for
// never-written predicates (an absent register reads as all zeros either
// way). NextWorkAt must not mutate even semantically-invisible state.
func (w *nsuWarp) effMaskRO(in isa.Instr) uint32 {
	if in.Pred == isa.RNone {
		return w.mask
	}
	p, ok := w.regs[in.Pred]
	var m uint32
	for t := 0; t < core.WarpWidth; t++ {
		if w.mask&(1<<uint(t)) == 0 {
			continue
		}
		on := ok && p[t] != 0
		if on != in.PredNeg {
			m |= 1 << uint(t)
		}
	}
	return m
}

// NextWorkAt implements timing.IdleHint as a pure read of the mirror cache:
// certification happens as a byproduct of an empty Tick, so an NSU whose
// mirror is invalid — it just did work, or a Deliver dirtied it — reads as
// busy and simply runs its next tick densely.
func (n *NSU) NextWorkAt(now timing.PS) timing.PS {
	if !n.idleValid {
		return now
	}
	return n.idleWake
}

// computeIdle mirrors Tick without side effects. A warp that would issue, a
// spawnable command, or a due buffer entry makes the NSU busy now; otherwise
// the NSU wakes at the earliest warp readyAt (warps blocked on buffer fills
// or write acks are woken externally by the Deliver that unblocks them, via
// the delivering domain's own edge). On an idle result the per-cycle
// stall/occupancy profile of the stretch is snapshotted for SkipIdle; a busy
// result leaves the snapshot untouched.
func (n *NSU) computeIdle(now timing.PS) {
	n.idleValid = true
	n.idleWake = now // overwritten below when the scan proves idleness
	occ := int64(0)
	var nRD, nWA int64
	wake := timing.Never
	free := false
	for i := range n.warps {
		w := &n.warps[i]
		if !w.active {
			free = true
			continue
		}
		occ++
		if n.flt != nil && w.deadline != 0 {
			if now > w.deadline {
				return // busy: the abort is due
			}
			if w.deadline+1 < wake {
				wake = w.deadline + 1
			}
		}
		if w.readyAt > now {
			if w.readyAt < wake {
				wake = w.readyAt
			}
			continue
		}
		in := w.block.NSUCode[w.pc]
		switch in.Op {
		case isa.LD:
			need := w.effMaskRO(in)
			if need == 0 {
				return // busy: would issue (predicated-off fast path)
			}
			e, ok := n.rd[bufKey{id: w.id, seq: w.seqLD}]
			if !ok || e.mask&need != need {
				nRD++ // stalls, charging NSUStallRDWait each cycle
				continue
			}
			return // busy
		case isa.ST:
			need := w.effMaskRO(in)
			if need == 0 {
				return // busy
			}
			e, ok := n.wt[bufKey{id: w.id, seq: w.seqST}]
			if !ok || len(e.accesses) < e.total || e.total == 0 {
				continue // silent stall: no counter in step()
			}
			return // busy
		case isa.OFLDEND:
			if w.pending > 0 {
				nWA++ // stalls, charging NSUStallWrAck each cycle
				continue
			}
			return // busy
		default:
			// OFLDBEG, LDC, ALU: always issue when ready.
			return // busy
		}
	}
	if len(n.cmdQ) > 0 && free {
		return // busy: Tick would spawn a warp
	}
	n.skipOcc = occ
	n.skipRD = nRD
	n.skipWA = nWA
	n.idleWake = wake
}

// SkipIdle implements timing.IdleSkipper: batch-apply the statistics that
// `cycles` consecutive empty Tick calls would have recorded, using the
// profile captured by the certifying NextWorkAt.
func (n *NSU) SkipIdle(cycles int64) {
	n.st.NSUWarpCycleSum += n.skipOcc * cycles
	if n.skipOcc > 0 {
		n.st.NSUActiveCycles += cycles
	}
	n.st.NSUStallRDWait += n.skipRD * cycles
	n.st.NSUStallWrAck += n.skipWA * cycles
}

// step executes one instruction of the warp; returns true if it issued.
func (n *NSU) step(w *nsuWarp, now timing.PS) bool {
	in := w.block.NSUCode[w.pc]
	switch in.Op {
	case isa.OFLDBEG:
		w.pc++
		n.st.NSUInstrs++
		return true

	case isa.LD:
		need := w.effMask(in)
		if need == 0 {
			// Fully predicated off: the GPU sent no packets; drop the
			// reserved entry and move on.
			n.retCredLD(w)
			w.seqLD++
			w.pc++
			n.st.NSUInstrs++
			return true
		}
		k := bufKey{id: w.id, seq: w.seqLD}
		e, ok := n.rd[k]
		if !ok || e.mask&need != need {
			n.st.NSUStallRDWait++
			return false // stall until all RDF responses arrive
		}
		dst := w.reg(in.Dst)
		for t := 0; t < core.WarpWidth; t++ {
			if need&(1<<uint(t)) != 0 {
				dst[t] = uint64(e.data[t])
			}
		}
		w.written[in.Dst] |= need
		if n.flt == nil {
			delete(n.rd, k)
		}
		n.retCredLD(w)
		w.seqLD++
		w.pc++
		w.readyAt = now + n.period
		n.st.NSUInstrs++
		return true

	case isa.ST:
		need := w.effMask(in)
		if need == 0 {
			n.retCredST(w)
			w.seqST++
			w.pc++
			n.st.NSUInstrs++
			return true
		}
		k := bufKey{id: w.id, seq: w.seqST}
		e, ok := n.wt[k]
		if !ok || len(e.accesses) < e.total || e.total == 0 {
			return false // stall until all write addresses arrive
		}
		val := w.reg(in.Src[1])
		for _, acc := range e.accesses {
			wp := &core.WritePacket{ID: w.id, Tag: w.tag, Seq: w.seqST, Source: n.ID, Access: acc}
			for t := 0; t < core.WarpWidth; t++ {
				if acc.Mask&(1<<uint(t)) != 0 {
					wp.Data[t] = uint32(val[t])
				}
			}
			if n.flt != nil {
				// Resilient protocol: hold the store in the commit buffer.
				// Memory stays unmutated until OFLD.END so a failed attempt
				// can be re-executed (or re-run host-side) from clean state.
				w.stBuf = append(w.stBuf, wp)
				continue
			}
			for t := 0; t < core.WarpWidth; t++ {
				if acc.Mask&(1<<uint(t)) != 0 {
					// Functional write happens at NSU store execution.
					addr := acc.LineAddr + uint64(acc.Offsets[t])*core.WordBytes
					n.mem.Write32(addr, wp.Data[t])
				}
			}
			w.pending++
			home := n.mem.HMCOf(acc.LineAddr)
			if home == n.ID {
				n.local.SubmitNSUWrite(wp, now)
			} else {
				n.fab.SendHMCToHMC(now, n.ID, home, wp.Size(), wp)
			}
		}
		if n.flt == nil {
			delete(n.wt, k)
		}
		n.retCredST(w)
		w.seqST++
		w.pc++
		w.readyAt = now + n.period
		n.st.NSUInstrs++
		return true

	case isa.LDC:
		// Constant-cache load: the NSU's 4 KB constant cache (Table 2)
		// serves it locally with no protocol traffic.
		m := w.effMask(in)
		dst := w.reg(in.Dst)
		addr := w.reg(in.Src[0])
		for t := 0; t < core.WarpWidth; t++ {
			if m&(1<<uint(t)) != 0 {
				dst[t] = uint64(n.mem.Read32(addr[t] + uint64(in.Imm)))
			}
		}
		w.written[in.Dst] |= m
		w.readyAt = now + n.period
		w.pc++
		n.st.NSUInstrs++
		return true

	case isa.OFLDEND:
		if w.pending > 0 {
			n.st.NSUStallWrAck++
			return false // wait for all DRAM write acknowledgments
		}
		ack := &core.AckPacket{ID: w.id, Tag: w.tag, Mask: w.mask}
		for _, r := range w.block.RegsOut {
			m := w.written[r]
			if m == 0 {
				continue // never produced (fully predicated off): nothing to send
			}
			rv := core.RegVals{Reg: int16(r), Mask: m, Vals: *w.reg(r)}
			ack.Out.Regs = append(ack.Out.Regs, rv)
		}
		if n.flt != nil {
			if n.flt.InstanceAbandoned(w.id, w.tag.Inst) {
				// The GPU fell back and re-executed this block host-side
				// while we were draining our last dependency. Committing now
				// would apply stale stores over the host's result: abort
				// instead — no commit, no ack, slot reclaimed.
				n.abortWarp(w)
				return false
			}
			// Commit: apply the buffered stores and post the commit record
			// atomically with the acknowledgment send below. From this step
			// on the block's effects are durable; a duplicate command gets
			// the saved ack replayed instead of a re-execution.
			n.commit(w, now)
		}
		n.fab.SendHMCToGPU(now, n.ID, ack.Size(), ack)
		w.active = false
		if n.flt != nil {
			if rec := n.inst[w.id]; rec != nil {
				rec.done = true
				rec.savedAck = ack
				// Every buffer credit of the instance returns in bulk now:
				// entries were retained for replay until this commit, so
				// occupancy never exceeds the credits still outstanding.
				if d := rec.numLD - rec.retLD; d > 0 {
					n.credits.Return(n.ID, core.ReadDataBuffer, d)
				}
				if d := rec.numST - rec.retST; d > 0 {
					n.credits.Return(n.ID, core.WriteAddrBuffer, d)
				}
				rec.retLD, rec.retST = rec.numLD, rec.numST
			}
			// The retained entries (and any late duplicates) drain with the
			// instance so quiescence is reachable.
			n.dropEntries(w.id)
		}
		n.st.NSUInstrs++
		return true

	default:
		if !in.Op.IsALU() {
			panic(fmt.Sprintf("nsu: illegal opcode %v in NSU code", in.Op))
		}
		m := w.effMask(in)
		var a, b, c *[core.WarpWidth]uint64
		if in.Src[0] != isa.RNone {
			a = w.reg(in.Src[0])
		}
		if in.Src[1] != isa.RNone {
			b = w.reg(in.Src[1])
		}
		if in.Src[2] != isa.RNone {
			c = w.reg(in.Src[2])
		}
		dst := w.reg(in.Dst)
		for t := 0; t < core.WarpWidth; t++ {
			if m&(1<<uint(t)) == 0 {
				continue
			}
			var av, bv, cv uint64
			if a != nil {
				av = a[t]
			}
			if b != nil {
				bv = b[t]
			}
			if c != nil {
				cv = c[t]
			}
			dst[t] = isa.Eval(in, av, bv, cv)
		}
		w.written[in.Dst] |= m
		w.readyAt = now + timing.PS(n.cfg.NSU.ALULatency)*n.period
		w.pc++
		n.st.NSUInstrs++
		n.st.IssuedThreadOps += int64(bits.OnesCount32(m))
		return true
	}
}

// commit atomically applies the warp's buffered stores to functional memory
// and posts the instance's commit record, then ships the write packets for
// their timing, traffic, and invalidation effects. The packets are
// fire-and-forget: their values are already durable, so a lost packet or
// ack costs nothing functionally — and the commit record stops the GPU from
// ever re-executing this instance.
func (n *NSU) commit(w *nsuWarp, now timing.PS) {
	n.flt.CommitInstance(w.id, w.tag.Inst)
	for _, wp := range w.stBuf {
		for t := 0; t < core.WarpWidth; t++ {
			if wp.Access.Mask&(1<<uint(t)) != 0 {
				addr := wp.Access.LineAddr + uint64(wp.Access.Offsets[t])*core.WordBytes
				n.mem.Write32(addr, wp.Data[t])
			}
		}
		home := n.mem.HMCOf(wp.Access.LineAddr)
		if home == n.ID {
			n.local.SubmitNSUWrite(wp, now)
		} else {
			n.fab.SendHMCToHMC(now, n.ID, home, wp.Size(), wp)
		}
	}
	w.stBuf = nil
}

// retCredLD returns one read-data credit. Under fault injection nothing is
// returned here: entries stay buffered for replay and every credit of the
// instance returns in bulk at commit.
func (n *NSU) retCredLD(w *nsuWarp) {
	if n.flt != nil {
		return
	}
	n.credits.Return(n.ID, core.ReadDataBuffer, 1)
}

// retCredST is retCredLD for the write-address buffer.
func (n *NSU) retCredST(w *nsuWarp) {
	if n.flt != nil {
		return
	}
	n.credits.Return(n.ID, core.WriteAddrBuffer, 1)
}

// dropEntries removes every buffered read-data and write-address entry of
// the given offload. Fault paths only; linear in the buffer population.
func (n *NSU) dropEntries(id core.OffloadID) {
	for k := range n.rd {
		if k.id == id {
			delete(n.rd, k)
		}
	}
	for k := range n.wt {
		if k.id == id {
			delete(n.wt, k)
		}
	}
}

// abortWarp gives up on a warp whose block the GPU has abandoned.
func (n *NSU) abortWarp(w *nsuWarp) {
	w.active = false
	n.dropEntries(w.id)
	if rec := n.inst[w.id]; rec != nil {
		rec.aborted = true
	}
	n.st.NSUAbortedWarps++
}

// failTick is the whole Tick of a permanently failed NSU: tear down all
// state once, then certify permanent idleness so the domain never wakes for
// this unit again (Deliver on a failed NSU discards without dirtying).
func (n *NSU) failTick() {
	if !n.deadCleaned {
		n.deadCleaned = true
		n.cmdQ = nil
		for k := range n.rd {
			delete(n.rd, k)
		}
		for k := range n.wt {
			delete(n.wt, k)
		}
		for i := range n.warps {
			n.warps[i].active = false
		}
		n.skipOcc, n.skipRD, n.skipWA = 0, 0, 0
	}
	n.idleValid = true
	n.idleWake = timing.Never
}

// Busy reports whether the NSU has live warps, queued commands, or buffer
// entries awaiting consumption. A permanently failed NSU is never busy: its
// residual state can make no further progress and its stack is quarantined.
func (n *NSU) Busy() bool {
	if n.Failed() {
		return false
	}
	if len(n.cmdQ) > 0 || len(n.rd) > 0 || len(n.wt) > 0 {
		return true
	}
	for i := range n.warps {
		if n.warps[i].active {
			return true
		}
	}
	return false
}

// BufferOccupancy reports the live entry counts of the NSU-side NDP buffers
// — command queue, read-data, and write-address — for the invariant auditor:
// each must stay within its configured capacity and within the credits the
// GPU has outstanding for this NSU.
func (n *NSU) BufferOccupancy() (cmd, rd, wt int) {
	return len(n.cmdQ), len(n.rd), len(n.wt)
}

// Slots returns the number of hardware warp contexts — the occupancy
// denominator for the Figure 11 metric and the metrics layer's gauge.
func (n *NSU) Slots() int { return len(n.warps) }

// Occupied returns the number of active warp slots (Figure 11 metric).
func (n *NSU) Occupied() int {
	c := 0
	for i := range n.warps {
		if n.warps[i].active {
			c++
		}
	}
	return c
}

// ICodeBytes returns the distinct NSU code footprint executed so far.
func (n *NSU) ICodeBytes() int64 { return n.icodeBytes }
