// Package vm implements the simulated virtual memory system: a flat
// functional backing store, a 4 KB page table that places pages on memory
// stacks at random (the paper's "unrestricted data placement", §5), and the
// physical address decode down to HMC / vault / bank / DRAM row.
//
// Translation happens only on the GPU (that is the paper's core premise:
// the memory stacks have no MMU). In this model virtual and physical offsets
// coincide; "translation" is the page→stack placement lookup, which is the
// part that matters for timing and traffic.
package vm

import (
	"encoding/binary"
	"fmt"
	"math/rand"

	"ndpgpu/internal/config"
	"ndpgpu/internal/isa"
)

// Loc is the physical location of one cache-line-sized block.
type Loc struct {
	HMC   int
	Vault int
	Bank  int
	Row   int64
}

// System is the memory system: functional contents plus placement metadata.
type System struct {
	pageBytes int
	lineBytes int
	numHMCs   int
	vaults    int
	banks     int

	pageShift  uint // pages are a power of two: page-of-addr is a shift, not a divide
	vaultShift uint
	bankShift  uint
	rowShift   uint

	data    []byte
	brk     uint64
	pageHMC []uint8
	rng     *rand.Rand
	seed    int64 // placement seed, kept so Clone can rebuild an rng

	placeGen uint32 // PlacePage calls so far, modulo 2^32
}

// heapBase is the first virtual address handed out; keeps address 0 invalid.
const heapBase = 0x1000

// New creates an empty memory system for the given configuration.
func New(cfg config.Config) *System {
	line := cfg.LineBytes()
	s := &System{
		pageBytes:  cfg.Mem.PageBytes,
		lineBytes:  line,
		numHMCs:    cfg.NumHMCs,
		vaults:     cfg.HMC.NumVaults,
		banks:      cfg.HMC.BanksPerVault,
		pageShift:  uint(log2(cfg.Mem.PageBytes)),
		vaultShift: uint(log2(line)),
		rng:        rand.New(rand.NewSource(cfg.Mem.PlacementSeed)),
		seed:       cfg.Mem.PlacementSeed,
		brk:        heapBase,
	}
	s.bankShift = s.vaultShift + uint(log2(s.vaults))
	s.rowShift = s.bankShift + uint(log2(s.banks))
	return s
}

func log2(n int) int {
	k := 0
	for 1<<k < n {
		k++
	}
	if 1<<k != n {
		panic(fmt.Sprintf("vm: %d is not a power of two", n))
	}
	return k
}

// PageBytes returns the page size.
func (s *System) PageBytes() int { return s.pageBytes }

// LineBytes returns the cache-line / memory-access granularity.
func (s *System) LineBytes() int { return s.lineBytes }

// Alloc reserves n bytes and returns the virtual base address, aligned to a
// page boundary so distinct arrays never share a page.
func (s *System) Alloc(n int) uint64 {
	if n <= 0 {
		panic("vm: non-positive allocation")
	}
	base := (s.brk + uint64(s.pageBytes) - 1) &^ (uint64(s.pageBytes) - 1)
	s.brk = base + uint64(n)
	s.ensure(s.brk)
	return base
}

// ensure grows the backing store and page map to cover addresses < limit.
func (s *System) ensure(limit uint64) {
	if uint64(len(s.data)) < limit {
		grown := make([]byte, (limit+uint64(s.pageBytes))&^(uint64(s.pageBytes)-1))
		copy(grown, s.data)
		s.data = grown
	}
	pages := int((limit + uint64(s.pageBytes) - 1) / uint64(s.pageBytes))
	for len(s.pageHMC) < pages {
		s.pageHMC = append(s.pageHMC, uint8(s.rng.Intn(s.numHMCs)))
	}
}

// Size returns the current extent of the allocated address space.
func (s *System) Size() uint64 { return s.brk }

// Snapshot returns a copy of the allocated backing store. Two systems built
// with the same configuration and the same allocation/initialization sequence
// produce directly comparable snapshots, which is how the audit harness
// checks a timing-simulated run bit-for-bit against the reference
// interpreter.
func (s *System) Snapshot() []byte {
	out := make([]byte, s.brk)
	copy(out, s.data[:s.brk])
	return out
}

func (s *System) check(addr uint64, n int) {
	if addr < heapBase || addr+uint64(n) > uint64(len(s.data)) {
		panic(fmt.Sprintf("vm: access [%#x,%#x) outside allocated space [%#x,%#x)",
			addr, addr+uint64(n), heapBase, len(s.data)))
	}
}

// Read32 loads a 4-byte word.
func (s *System) Read32(addr uint64) uint32 {
	s.check(addr, 4)
	return binary.LittleEndian.Uint32(s.data[addr:])
}

// Write32 stores a 4-byte word.
func (s *System) Write32(addr uint64, v uint32) {
	s.check(addr, 4)
	binary.LittleEndian.PutUint32(s.data[addr:], v)
}

// ReadF32 loads a float32.
func (s *System) ReadF32(addr uint64) float32 { return isa.F32(uint64(s.Read32(addr))) }

// WriteF32 stores a float32.
func (s *System) WriteF32(addr uint64, f float32) { s.Write32(addr, uint32(isa.FromF32(f))) }

// HMCOf returns the stack holding the page of addr.
func (s *System) HMCOf(addr uint64) int {
	page := addr >> s.pageShift
	if page >= uint64(len(s.pageHMC)) {
		panic(fmt.Sprintf("vm: address %#x beyond mapped pages", addr))
	}
	return int(s.pageHMC[page])
}

// Decode resolves an address to its full physical location.
func (s *System) Decode(addr uint64) Loc {
	return Loc{
		HMC:   s.HMCOf(addr),
		Vault: int(addr>>s.vaultShift) & (s.vaults - 1),
		Bank:  int(addr>>s.bankShift) & (s.banks - 1),
		Row:   int64(addr >> s.rowShift),
	}
}

// LineAddr returns addr rounded down to its cache line.
func (s *System) LineAddr(addr uint64) uint64 {
	return addr &^ (uint64(s.lineBytes) - 1)
}

// PlacePage overrides the random placement of the page containing addr;
// used by tests and by experiments that need controlled placement.
func (s *System) PlacePage(addr uint64, hmc int) {
	if hmc < 0 || hmc >= s.numHMCs {
		panic(fmt.Sprintf("vm: invalid HMC %d", hmc))
	}
	s.ensure(addr + 1)
	s.pageHMC[addr/uint64(s.pageBytes)] = uint8(hmc)
	s.placeGen++
}

// PlacementGen counts the PlacePage calls so far, modulo 2^32. A result
// derived from HMCOf stays valid while the count is unchanged (short of
// exactly 2^32 page moves in between).
func (s *System) PlacementGen() uint32 { return s.placeGen }

// NumHMCs returns the number of stacks.
func (s *System) NumHMCs() int { return s.numHMCs }

// NumPages returns the number of pages currently mapped.
func (s *System) NumPages() int { return len(s.pageHMC) }

// Clone returns an independent deep copy of the system: same contents, same
// placement, same allocation state. The clone's placement PRNG restarts from
// the original seed — identical to a fresh System's stream, not a
// continuation of the original's — which only matters if the clone allocates
// new pages. Backends use clones to run functional pre-passes (e.g. a traced
// interpreter run that profiles page access patterns) without perturbing the
// memory image the timing simulation will execute over.
func (s *System) Clone() *System {
	c := *s
	c.data = append([]byte(nil), s.data...)
	c.pageHMC = append([]uint8(nil), s.pageHMC...)
	c.rng = rand.New(rand.NewSource(s.seed))
	return &c
}
