package mipsi

import (
	"fmt"

	"interplab/internal/mips"
	"interplab/internal/trace"
	"interplab/internal/vfs"
)

// Synthetic kernel layout for direct-mode syscalls: a real compiled program
// spends its system time in precompiled kernel code touching the buffer
// cache.
const (
	kernelBase  uint32 = 0x0030_0000
	kernelSize  uint32 = 4 << 10
	kernelCache uint32 = 0x0f00_0000
)

// Native executes a MIPS binary directly: every guest instruction becomes
// exactly one native instruction event, with its own PC and effective
// address.  This is the compiled-C execution mode — the baseline of
// Table 1, the C des row of Table 2, and the native SPEC runs of Figure 3.
type Native struct {
	M *Machine

	// batch buffers the emitted stream into blocks delivered to the sink
	// once per fill; the compiled-C path has no attribution state, so
	// blocks only flush on fill and at end of Run.
	batch *trace.Batcher

	prevDest int // register written by the previous instruction (0 = none)
	kpc      uint32
}

// NewNative loads prog into a machine for direct execution.
func NewNative(prog *mips.Program, os *vfs.OS, sink trace.Sink) (*Native, error) {
	m, err := NewMachine(prog, os)
	if err != nil {
		return nil, err
	}
	return &Native{M: m, batch: trace.NewBatcher(sink)}, nil
}

func (n *Native) emit(e trace.Event) { n.batch.Append(e) }

// Flush delivers any buffered events.  Run flushes on every exit path;
// callers stepping the machine by hand flush before reading sink state.
func (n *Native) Flush() { n.batch.Flush(trace.FlushFinal) }

// BatchStats returns the native path's batching account.
func (n *Native) BatchStats() trace.BatchStats { return n.batch.Stats() }

// destReg returns the register an instruction writes, or 0.
func destReg(in mips.Inst) int {
	switch in.Op.Class() {
	case mips.ClassALU, mips.ClassShift:
		switch in.Op {
		case mips.ADDI, mips.ADDIU, mips.SLTI, mips.SLTIU,
			mips.ANDI, mips.ORI, mips.XORI, mips.LUI:
			return in.Rt
		case mips.MFHI, mips.MFLO:
			return in.Rd
		}
		return in.Rd
	case mips.ClassLoad:
		return in.Rt
	case mips.ClassJump:
		if in.Op == mips.JAL {
			return mips.RegRA
		}
		if in.Op == mips.JALR {
			return in.Rd
		}
	}
	return 0
}

// Step executes one guest instruction and emits its event.
func (n *Native) Step() error {
	m := n.M
	pc, in, err := m.Fetch()
	if err != nil {
		return err
	}
	info, err := m.Exec(pc, in)
	if err != nil {
		return err
	}

	var fl trace.Flags
	if n.prevDest != 0 && (in.Rs == n.prevDest || in.Rt == n.prevDest) {
		fl |= trace.FlagDep
	}
	n.prevDest = destReg(in)

	e := trace.Event{PC: pc, Flags: fl}
	switch in.Op.Class() {
	case mips.ClassShift:
		e.Kind = trace.ShortInt
	case mips.ClassMulDiv:
		e.Kind = trace.Mul
	case mips.ClassLoad:
		e.Kind = trace.Load
		e.Addr = info.MemAddr
	case mips.ClassStore:
		e.Kind = trace.Store
		e.Addr = info.MemAddr
	case mips.ClassBranch:
		e.Kind = trace.Branch
		e.Addr = info.Target
		if info.Taken {
			e.Flags |= trace.FlagTaken
		}
	case mips.ClassJump:
		e.Addr = info.Target
		switch in.Op {
		case mips.JAL, mips.JALR:
			e.Kind = trace.Jump
			e.Flags |= trace.FlagCall
		case mips.JR:
			if in.Rs == mips.RegRA {
				e.Kind = trace.Return
			} else {
				e.Kind = trace.Jump
			}
		default:
			e.Kind = trace.Jump
		}
	case mips.ClassSyscall:
		e.Kind = trace.Jump
		e.Addr = kernelBase
		e.Flags |= trace.FlagCall
	default:
		if in.Op == mips.LBU || in.Op == mips.LB || in.Op == mips.SB {
			e.Kind = trace.ShortInt // byte ops are "short int" on the 21064
		} else {
			e.Kind = trace.Int
		}
	}
	n.emit(e)

	if in.Op.Class() == mips.ClassSyscall {
		n.kernel(info)
	}
	return nil
}

// kernel emits the precompiled kernel path for a trap: entry/validation
// code plus a word-copy loop over the buffer cache for read/write payloads.
func (n *Native) kernel(info StepInfo) {
	exec := func(cnt int) {
		for i := 0; i < cnt; i++ {
			n.emit(trace.Event{PC: kernelBase + n.kpc, Kind: trace.Int})
			n.kpc = (n.kpc + 4) % kernelSize
		}
	}
	exec(90)
	for b := 0; b < info.SyscallBytes; b += 4 {
		n.emit(trace.Event{PC: kernelBase + n.kpc, Kind: trace.Load, Addr: kernelCache + uint32(b)%(256<<10)})
		n.kpc = (n.kpc + 4) % kernelSize
		exec(1)
	}
	exec(30)
	n.emit(trace.Event{PC: kernelBase + n.kpc, Kind: trace.Return, Addr: info.PC + 4})
}

// Run executes until exit or maxSteps instructions (0 = no limit).
func (n *Native) Run(maxSteps uint64) error {
	defer n.Flush()
	for maxSteps == 0 || n.M.Steps < maxSteps {
		if err := n.Step(); err != nil {
			if err == ErrExited || n.M.Exited() {
				return nil
			}
			return err
		}
		if n.M.Exited() {
			return nil
		}
	}
	return fmt.Errorf("mipsi: native step budget exhausted (%d)", maxSteps)
}
