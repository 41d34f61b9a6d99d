package gpu

import (
	"testing"

	"ndpgpu/internal/analyzer"
	"ndpgpu/internal/config"
	"ndpgpu/internal/core"
	"ndpgpu/internal/isa"
	"ndpgpu/internal/kernel"
	"ndpgpu/internal/noc"
	"ndpgpu/internal/stats"
	"ndpgpu/internal/vm"
)

// harness builds a minimal GPU around a kernel for white-box tests.
func harness(t *testing.T, k *kernel.Kernel) (*GPU, *SM, *warp) {
	t.Helper()
	return harnessWith(t, k, core.Never{})
}

// harnessWith is harness with the given offload decider.
func harnessWith(t *testing.T, k *kernel.Kernel, dec core.Decider) (*GPU, *SM, *warp) {
	t.Helper()
	cfg := config.Default()
	cfg.GPU.NumSMs = 1
	mem := vm.New(cfg)
	mem.Alloc(1 << 20)
	prog, err := analyzer.Analyze(k, analyzer.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	st := stats.New()
	fab := noc.NewFabric(cfg, st)
	g := New(cfg, prog, mem, fab, st, dec)
	sm := g.sms[0]
	sm.refill()
	if sm.warps[0] == nil {
		t.Fatal("no warp resident")
	}
	return g, sm, sm.warps[0]
}

func simpleKernel(t *testing.T) *kernel.Kernel {
	t.Helper()
	kb := kernel.NewBuilder()
	kb.OpImm(isa.SHLI, 16, kernel.RegGTID, 2)
	kb.Op3(isa.ADD, 17, kernel.RegParam0, 16)
	kb.Ld(18, 17, 0)
	kb.Op3(isa.FADD, 19, 18, 18)
	kb.St(17, 0, 19)
	kb.Exit()
	return kb.MustBuild("k", 1, 32, 0x10000)
}

func TestCoalesceContiguous(t *testing.T) {
	_, sm, w := harness(t, simpleKernel(t))
	in := isa.New(isa.LD)
	in.Dst, in.Src[0] = 18, 17
	// 32 consecutive words starting line-aligned: one aligned access.
	for tid := 0; tid < 32; tid++ {
		w.regs[17][tid] = 0x10000 + uint64(4*tid)
	}
	lines := sm.coalesce(w, in, 0xFFFFFFFF)
	if len(lines) != 1 {
		t.Fatalf("lines = %d, want 1", len(lines))
	}
	if !lines[0].Aligned {
		t.Fatal("identity offsets must classify as aligned (§4.1.1)")
	}
	if lines[0].Mask != 0xFFFFFFFF {
		t.Fatalf("mask = %#x", lines[0].Mask)
	}
}

func TestCoalesceBroadcastMisaligned(t *testing.T) {
	_, sm, w := harness(t, simpleKernel(t))
	in := isa.New(isa.LD)
	in.Dst, in.Src[0] = 18, 17
	for tid := 0; tid < 32; tid++ {
		w.regs[17][tid] = 0x10000 + 8 // all threads read word 2
	}
	lines := sm.coalesce(w, in, 0xFFFFFFFF)
	if len(lines) != 1 {
		t.Fatalf("lines = %d, want 1", len(lines))
	}
	if lines[0].Aligned {
		t.Fatal("broadcast access must be misaligned (offset_i != i)")
	}
	for tid := 0; tid < 32; tid++ {
		if lines[0].Offsets[tid] != 2 {
			t.Fatalf("offset[%d] = %d, want 2", tid, lines[0].Offsets[tid])
		}
	}
}

func TestCoalesceDivergent(t *testing.T) {
	_, sm, w := harness(t, simpleKernel(t))
	in := isa.New(isa.LD)
	in.Dst, in.Src[0] = 18, 17
	// 128-byte stride: every thread its own line.
	for tid := 0; tid < 32; tid++ {
		w.regs[17][tid] = 0x10000 + uint64(128*tid)
	}
	lines := sm.coalesce(w, in, 0xFFFFFFFF)
	if len(lines) != 32 {
		t.Fatalf("lines = %d, want 32", len(lines))
	}
}

func TestCoalesceRespectsMask(t *testing.T) {
	_, sm, w := harness(t, simpleKernel(t))
	in := isa.New(isa.LD)
	in.Dst, in.Src[0] = 18, 17
	for tid := 0; tid < 32; tid++ {
		w.regs[17][tid] = 0x10000 + uint64(128*tid)
	}
	lines := sm.coalesce(w, in, 0x1) // one active thread
	if len(lines) != 1 {
		t.Fatalf("lines = %d, want 1", len(lines))
	}
}

func TestMaxResidentCTAsRegisterLimit(t *testing.T) {
	kb := kernel.NewBuilder()
	kb.MovI(60, 1) // forces RegsUsed = 61
	kb.Exit()
	k := kb.MustBuild("fat", 64, 256)
	_, sm, _ := harness(t, k)
	// 61 regs x 256 threads = 15616 regs/CTA; 32768/15616 = 2 CTAs.
	if got := sm.maxResidentCTAs(); got != 2 {
		t.Fatalf("resident CTAs = %d, want 2 (register limit)", got)
	}
}

func TestBlockInfos(t *testing.T) {
	mem := vm.New(config.Default())
	mem.Alloc(1 << 16)
	prog, err := analyzer.Analyze(simpleKernel(t), analyzer.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	infos := BlockInfos(prog)
	if len(infos) != len(prog.Blocks) {
		t.Fatalf("infos = %d, blocks = %d", len(infos), len(prog.Blocks))
	}
	for i, b := range prog.Blocks {
		if infos[i].NumLD != b.NumLD || infos[i].NumST != b.NumST {
			t.Fatalf("info %d mismatch", i)
		}
	}
}

func TestStallClassificationWarpIdle(t *testing.T) {
	g, sm, w := harness(t, simpleKernel(t))
	// Force the warp into the ack-wait state: no issuable instruction.
	w.waitAck = true
	before := g.st.NoIssue[stats.WarpIdle]
	sm.tick(1429)
	sm.flushIdle() // certify-first defers an empty tick's classification
	if g.st.NoIssue[stats.WarpIdle] != before+1 {
		t.Fatalf("ack-blocked warp not classified as warp idle: %+v", g.st.NoIssue)
	}
}

func TestStallClassificationDependency(t *testing.T) {
	g, sm, w := harness(t, simpleKernel(t))
	w.pc = 3                 // fadd r19, r18, r18
	w.regReady[18] = 1 << 50 // operand far in the future
	sm.tick(1429)            // cold L1I fetch first
	before := g.st.NoIssue[stats.DependencyStall]
	sm.tick(1 << 40) // fetch long since complete; operand still pending
	sm.flushIdle()   // certify-first defers an empty tick's classification
	if g.st.NoIssue[stats.DependencyStall] != before+1 {
		t.Fatalf("operand hazard not classified as dependency stall: %+v", g.st.NoIssue)
	}
}

func TestSchedulerOrderGTO(t *testing.T) {
	g, sm, _ := harness(t, simpleKernel(t))
	g.cfg.GPU.SchedulerKind = "gto"
	sm.greedyWarp = 5
	order := sm.schedOrder()
	if order[0] != 5 {
		t.Fatalf("GTO must visit the greedy warp first, got %v", order[:3])
	}
	seen := map[int]bool{}
	for _, slot := range order {
		if seen[slot] {
			t.Fatalf("slot %d visited twice", slot)
		}
		seen[slot] = true
	}
	if len(seen) != len(sm.warps) {
		t.Fatalf("order covers %d of %d slots", len(seen), len(sm.warps))
	}
}

func TestSchedulerOrderRR(t *testing.T) {
	g, sm, _ := harness(t, simpleKernel(t))
	g.cfg.GPU.SchedulerKind = "rr"
	sm.rrStart = 7
	order := sm.schedOrder()
	if order[0] != 7 || order[1] != 8 {
		t.Fatalf("RR order should rotate from rrStart: %v", order[:3])
	}
}

func TestTLBCountsTranslations(t *testing.T) {
	g, sm, w := harness(t, simpleKernel(t))
	in := isa.New(isa.LD)
	in.Dst, in.Src[0] = 18, 17
	// Dense access: one page.
	for tid := 0; tid < 32; tid++ {
		w.regs[17][tid] = 0x10000 + uint64(4*tid)
	}
	if !sm.setupMem(w, in, 0) {
		t.Fatal("setupMem failed")
	}
	if sm.tlb.Stats.Accesses != 1 {
		t.Fatalf("TLB accesses = %d, want 1 (one page)", sm.tlb.Stats.Accesses)
	}
	if sm.tlb.Stats.Hits != 0 {
		t.Fatal("cold TLB should miss")
	}
	// The page walk delays the micro-ops.
	if w.memq[0].readyAt == 0 {
		t.Fatal("TLB miss did not delay the access")
	}
	// Same page again: a hit, no delay.
	w.memq = nil
	w.pc = 2
	if !sm.setupMem(w, in, 1_000_000_000) {
		t.Fatal("setupMem failed")
	}
	if sm.tlb.Stats.Hits != 1 {
		t.Fatalf("TLB hits = %d, want 1", sm.tlb.Stats.Hits)
	}
	if w.memq[0].readyAt > 1_000_000_000 {
		t.Fatal("TLB hit should not delay the access")
	}
	_ = g
}

func TestMaxResidentCTAsScratchpadLimit(t *testing.T) {
	kb := kernel.NewBuilder()
	kb.Exit()
	k := kb.MustBuild("smem", 64, 64)
	k.SmemBytes = 20 << 10 // 20 KB per CTA of a 48 KB scratchpad
	_, sm, _ := harness(t, k)
	if got := sm.maxResidentCTAs(); got != 2 {
		t.Fatalf("resident CTAs = %d, want 2 (scratchpad limit)", got)
	}
}

// offloadHarness enters simpleKernel's offload block on an always-offload
// GPU whose command credits are all taken: it returns the block's first
// memory instruction with the warp at it, and the OFLDBEG command sitting in
// the pending buffer.
func offloadHarness(t *testing.T) (*GPU, *SM, *warp, isa.Instr) {
	t.Helper()
	g, sm, w := harnessWith(t, simpleKernel(t), core.Always{})
	for tgt := 0; tgt < g.bufmgr.NumTargets(); tgt++ {
		for g.bufmgr.Available(tgt, core.CmdBuffer) > 0 {
			g.bufmgr.Reserve(tgt, 0, 0)
		}
	}
	code := g.prog.Kernel.Code
	w.pc = g.prog.Blocks[0].BegPC
	if !sm.execOffload(w, code[w.pc], 0) || w.off == nil || len(sm.pendingQ) != 1 {
		t.Fatal("OFLDBEG did not start an offload instance")
	}
	for code[w.pc].Op != isa.LD {
		w.pc++
	}
	return g, sm, w, code[w.pc]
}

// setAddrs points every thread of the warp at consecutive words from base.
func setAddrs(w *warp, in isa.Instr, base uint64) {
	for tid := 0; tid < 32; tid++ {
		w.regs[in.Src[0]][tid] = base + uint64(4*tid)
	}
}

// otherHomePage returns a page-aligned address in the harness heap whose
// stack differs from hmc.
func otherHomePage(t *testing.T, g *GPU, hmc int) uint64 {
	t.Helper()
	for a := uint64(0x10000); a < 0x100000; a += uint64(g.cfg.Mem.PageBytes) {
		if g.mem.HMCOf(a) != hmc {
			return a
		}
	}
	t.Fatal("every heap page is on one stack")
	return 0
}

func TestCreditRejectReusesTarget(t *testing.T) {
	g, sm, w, in := offloadHarness(t)
	const base = 0x10000
	setAddrs(w, in, base)
	target := g.mem.HMCOf(base)
	pc := w.pc

	if sm.setupMem(w, in, 0) {
		t.Fatal("reservation succeeded without command credits")
	}
	ctx := w.off
	if !ctx.targetPicked || ctx.targetKnown || ctx.target != target {
		t.Fatalf("first attempt: picked=%v known=%v target=%d, want target %d",
			ctx.targetPicked, ctx.targetKnown, ctx.target, target)
	}
	// The retry must not look at the address registers again: point them
	// at another stack, which a fresh pick would choose.
	setAddrs(w, in, otherHomePage(t, g, target))
	if sm.setupMem(w, in, 1) {
		t.Fatal("retry succeeded without command credits")
	}
	if ctx.target != target {
		t.Fatalf("retry re-picked target %d, want memoized %d", ctx.target, target)
	}
	if g.st.CreditStalls != 2 || g.bufmgr.Rejects != 2 || g.bufmgr.TargetRejects(target) != 2 {
		t.Fatalf("CreditStalls=%d Rejects=%d target rejects=%d, want 2 each",
			g.st.CreditStalls, g.bufmgr.Rejects, g.bufmgr.TargetRejects(target))
	}
	if w.pc != pc || len(w.memq) != 0 || len(sm.pendingQ) != 1 || len(sm.readyQ) != 0 {
		t.Fatal("a rejected attempt changed the warp or the packet buffers")
	}

	g.bufmgr.Return(target, core.CmdBuffer, 1)
	if !sm.setupMem(w, in, 2) {
		t.Fatal("reservation failed after a command credit came back")
	}
	if !ctx.targetKnown || ctx.target != target || g.st.CreditStalls != 2 {
		t.Fatalf("known=%v target=%d stalls=%d", ctx.targetKnown, ctx.target, g.st.CreditStalls)
	}
	if len(sm.pendingQ) != 0 || len(sm.readyQ) != 1 || sm.readyQ[0].target != target {
		t.Fatalf("command not released to target %d: pending=%d ready=%+v",
			target, len(sm.pendingQ), sm.readyQ)
	}
	if cmd := sm.readyQ[0].msg.(*core.CmdPacket); cmd.Target != target {
		t.Fatalf("command targets %d, want %d", cmd.Target, target)
	}
	memq := append([]microOp(nil), w.memq...)
	want := sm.coalesce(w, in, w.effMask(in))
	if len(memq) != len(want) {
		t.Fatalf("%d micro-ops, coalesce gives %d lines", len(memq), len(want))
	}
	for i, op := range memq {
		if op.access != want[i] || !op.offload || op.total != len(want) {
			t.Fatalf("micro-op %d = %+v, want access %+v", i, op, want[i])
		}
	}
	if w.pc != pc+1 {
		t.Fatalf("pc = %d, want %d", w.pc, pc+1)
	}
}

// A page migration between attempts can change the majority home, so the
// memoized target is dropped and the next attempt picks again.
func TestCreditRejectRepicksAfterPageMove(t *testing.T) {
	g, sm, w, in := offloadHarness(t)
	const base = 0x10000
	setAddrs(w, in, base)
	first := g.mem.HMCOf(base)
	if sm.setupMem(w, in, 0) {
		t.Fatal("reservation succeeded without command credits")
	}
	moved := (first + 1) % g.cfg.NumHMCs
	g.mem.PlacePage(base, moved)
	if sm.setupMem(w, in, 1) {
		t.Fatal("retry succeeded without command credits")
	}
	if w.off.target != moved || g.bufmgr.TargetRejects(moved) != 1 {
		t.Fatalf("target = %d after the page moved to %d", w.off.target, moved)
	}
}
