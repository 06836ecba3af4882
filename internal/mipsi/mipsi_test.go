package mipsi

import (
	"strings"
	"testing"

	"interplab/internal/atom"
	"interplab/internal/mips"
	"interplab/internal/mips/asm"
	"interplab/internal/trace"
	"interplab/internal/vfs"
)

func assemble(t *testing.T, src string) *mips.Program {
	t.Helper()
	p, err := asm.Assemble("test", src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	return p
}

// sumProgram computes 1+2+...+10 into $s0 and exits with that status.
const sumProgram = `
	.text
main:
	li $s0, 0
	li $t0, 10
loop:
	addu $s0, $s0, $t0
	addiu $t0, $t0, -1
	bgtz $t0, loop
	nop
	move $a0, $s0
	li $v0, 1
	syscall
	nop
`

func TestMachineArithmeticLoop(t *testing.T) {
	m, err := NewMachine(assemble(t, sumProgram), vfs.New())
	if err != nil {
		t.Fatal(err)
	}
	for !m.Exited() {
		if _, err := m.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if m.ExitCode != 55 {
		t.Errorf("exit code = %d, want 55", m.ExitCode)
	}
	if m.Regs[mips.RegS0] != 55 {
		t.Errorf("$s0 = %d, want 55", m.Regs[mips.RegS0])
	}
}

func TestMachineDelaySlot(t *testing.T) {
	// The instruction in the branch delay slot executes even when the
	// branch is taken: $t1 must become 7.
	src := `
	.text
main:
	li $t1, 0
	b over
	li $t1, 7
	li $t1, 99
over:
	move $a0, $t1
	li $v0, 1
	syscall
	nop
`
	m, err := NewMachine(assemble(t, src), vfs.New())
	if err != nil {
		t.Fatal(err)
	}
	for !m.Exited() {
		if _, err := m.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if m.ExitCode != 7 {
		t.Errorf("delay slot not executed: exit = %d, want 7", m.ExitCode)
	}
}

func TestMachineJalAndJr(t *testing.T) {
	src := `
	.text
main:
	jal double
	li $a0, 21
	li $v0, 1
	move $a0, $v1
	syscall
	nop
double:
	addu $v1, $a0, $a0
	jr $ra
	nop
`
	m, err := NewMachine(assemble(t, src), vfs.New())
	if err != nil {
		t.Fatal(err)
	}
	for !m.Exited() {
		if _, err := m.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if m.ExitCode != 42 {
		t.Errorf("exit = %d, want 42", m.ExitCode)
	}
}

func TestMachineMemoryOps(t *testing.T) {
	src := `
	.data
val:	.word 100
bytes:	.byte 0xff, 1
	.text
main:
	la $t0, val
	lw $t1, 0($t0)
	addiu $t1, $t1, 1
	sw $t1, 0($t0)
	lw $a0, 0($t0)
	la $t2, bytes
	lb $t3, 0($t2)        # sign-extended: -1
	addu $a0, $a0, $t3
	lbu $t4, 0($t2)       # zero-extended: 255
	sltiu $t5, $t4, 256
	addu $a0, $a0, $t5    # 101 - 1 + 1 = 101
	li $v0, 1
	syscall
	nop
`
	m, err := NewMachine(assemble(t, src), vfs.New())
	if err != nil {
		t.Fatal(err)
	}
	for !m.Exited() {
		if _, err := m.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if m.ExitCode != 101 {
		t.Errorf("exit = %d, want 101", m.ExitCode)
	}
}

func TestMachineMulDiv(t *testing.T) {
	src := `
	.text
main:
	li $t0, -6
	li $t1, 7
	mult $t0, $t1
	mflo $t2          # -42
	li $t3, 5
	div $t2, $t3
	mflo $t4          # -8 (trunc toward zero)
	mfhi $t5          # -2
	sub $a0, $t4, $t5 # -8 - -2 = -6
	neg $a0, $a0
	li $v0, 1
	syscall
	nop
`
	m, err := NewMachine(assemble(t, src), vfs.New())
	if err != nil {
		t.Fatal(err)
	}
	for !m.Exited() {
		if _, err := m.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if m.ExitCode != 6 {
		t.Errorf("exit = %d, want 6", m.ExitCode)
	}
}

func TestMachineSyscallFileIO(t *testing.T) {
	src := `
	.data
path:	.asciiz "in.txt"
out:	.asciiz "out.txt"
buf:	.space 64
	.text
main:
	# fd = open("in.txt", 0)
	la $a0, path
	li $a1, 0
	li $v0, 5
	syscall
	nop
	move $s0, $v0
	# read(fd, buf, 64)
	move $a0, $s0
	la $a1, buf
	li $a2, 64
	li $v0, 3
	syscall
	nop
	move $s1, $v0        # bytes read
	# write(stdout, buf, n)
	li $a0, 1
	la $a1, buf
	move $a2, $s1
	li $v0, 4
	syscall
	nop
	move $a0, $s1
	li $v0, 1
	syscall
	nop
`
	osys := vfs.New()
	osys.AddFile("in.txt", []byte("hello"))
	m, err := NewMachine(assemble(t, src), osys)
	if err != nil {
		t.Fatal(err)
	}
	for !m.Exited() {
		if _, err := m.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if m.ExitCode != 5 {
		t.Errorf("exit = %d, want 5 bytes read", m.ExitCode)
	}
	if got := osys.Stdout.String(); got != "hello" {
		t.Errorf("stdout = %q", got)
	}
}

func TestMachineSbrk(t *testing.T) {
	src := `
	.text
main:
	li $a0, 64
	li $v0, 9
	syscall
	nop
	move $s0, $v0     # old break
	sw $s0, 0($s0)    # heap is writable
	lw $a0, 0($s0)
	xor $a0, $a0, $s0 # 0 if round-trip worked
	li $v0, 1
	syscall
	nop
`
	m, err := NewMachine(assemble(t, sumProgram), vfs.New())
	if err != nil {
		t.Fatal(err)
	}
	_ = m
	m2, err := NewMachine(assemble(t, src), vfs.New())
	if err != nil {
		t.Fatal(err)
	}
	for !m2.Exited() {
		if _, err := m2.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if m2.ExitCode != 0 {
		t.Errorf("heap round-trip failed: exit = %d", m2.ExitCode)
	}
}

func TestMemoryUnmappedLoadFails(t *testing.T) {
	mem := NewMemory()
	if _, err := mem.LoadWord(0xdead_0000); err == nil {
		t.Error("unmapped load must fail")
	}
	if err := mem.StoreWord(0xdead_0000, 1); err != nil {
		t.Errorf("store should allocate: %v", err)
	}
	v, err := mem.LoadWord(0xdead_0000)
	if err != nil || v != 1 {
		t.Errorf("round trip = %d, %v", v, err)
	}
}

func TestMemoryPageStraddle(t *testing.T) {
	mem := NewMemory()
	addr := uint32(pageSize - 2)
	if err := mem.StoreWord(addr, 0xaabbccdd); err != nil {
		t.Fatal(err)
	}
	v, err := mem.LoadWord(addr)
	if err != nil || v != 0xaabbccdd {
		t.Errorf("straddling word = %#x, %v", v, err)
	}
	if err := mem.StoreHalf(addr, 0x1122); err != nil {
		t.Fatal(err)
	}
	h, err := mem.LoadHalf(addr)
	if err != nil || h != 0x1122 {
		t.Errorf("straddling half = %#x, %v", h, err)
	}
}

func TestMemoryCString(t *testing.T) {
	mem := NewMemory()
	if err := mem.WriteBytes(0x1000, []byte("abc\x00def")); err != nil {
		t.Fatal(err)
	}
	s, err := mem.ReadCString(0x1000)
	if err != nil || s != "abc" {
		t.Errorf("cstring = %q, %v", s, err)
	}
}

// runBoth executes a program in both modes and checks architectural
// equivalence.
func runBoth(t *testing.T, src string) (*Interp, *Native) {
	t.Helper()
	prog := assemble(t, src)

	img := atom.NewImage()
	p := atom.NewProbe(img, trace.Discard)
	osys := vfs.New()
	osys.Instrument(img, p)
	ip, err := New(prog, osys, img, p)
	if err != nil {
		t.Fatal(err)
	}
	if err := ip.Run(10_000_000); err != nil {
		t.Fatalf("interp run: %v", err)
	}

	nat, err := NewNative(assemble(t, src), vfs.New(), trace.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if err := nat.Run(10_000_000); err != nil {
		t.Fatalf("native run: %v", err)
	}
	return ip, nat
}

func TestInterpAndNativeAgree(t *testing.T) {
	ip, nat := runBoth(t, sumProgram)
	if ip.M.ExitCode != 55 || nat.M.ExitCode != 55 {
		t.Errorf("exit codes: interp=%d native=%d, want 55", ip.M.ExitCode, nat.M.ExitCode)
	}
	if ip.M.Steps != nat.M.Steps {
		t.Errorf("step counts differ: %d vs %d", ip.M.Steps, nat.M.Steps)
	}
}

func TestInterpCostBands(t *testing.T) {
	// The calibration targets of Table 2: MIPSI fetch/decode ≈ 47–51
	// native instructions per command, execute ≈ 17–23.
	ip, _ := runBoth(t, sumProgram)
	st := ip.p.Stats()
	if st.Commands != ip.M.Steps {
		t.Fatalf("commands (%d) must equal guest instructions (%d)", st.Commands, ip.M.Steps)
	}
	fd, ex := st.InstructionsPerCommand()
	if fd < 40 || fd > 60 {
		t.Errorf("fetch/decode per command = %.1f, want ~47-51", fd)
	}
	if ex < 5 || ex > 30 {
		t.Errorf("execute per command = %.1f, want ~17-23", ex)
	}
	if st.Startup == 0 {
		t.Error("binary load must be charged to startup")
	}
}

func TestInterpMemoryModelRegion(t *testing.T) {
	src := `
	.data
arr:	.space 400
	.text
main:
	la $t0, arr
	li $t1, 100
loop:
	sw $t1, 0($t0)
	lw $t2, 0($t0)
	addiu $t0, $t0, 4
	addiu $t1, $t1, -1
	bgtz $t1, loop
	nop
	li $v0, 1
	move $a0, $zero
	syscall
	nop
`
	prog := assemble(t, src)
	img := atom.NewImage()
	p := atom.NewProbe(img, trace.Discard)
	osys := vfs.New()
	osys.Instrument(img, p)
	ip, err := New(prog, osys, img, p)
	if err != nil {
		t.Fatal(err)
	}
	if err := ip.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
	st := ip.p.Stats()
	mm, ok := st.Region("memmodel")
	if !ok || mm.Accesses != 200 {
		t.Fatalf("memmodel accesses = %+v, want 200", mm)
	}
	per := mm.PerAccess()
	if per < 30 || per > 70 {
		t.Errorf("per-access cost = %.1f, want tens of instructions", per)
	}
	// §3.3: memory model should be 13–18% of instructions for this
	// memory-heavy loop it will be higher; just require a sane share.
	share := float64(mm.Instructions) / float64(st.Instructions-st.Startup)
	if share <= 0.05 || share >= 0.6 {
		t.Errorf("memmodel share = %.2f implausible", share)
	}
}

func TestNativeEventStream(t *testing.T) {
	prog := assemble(t, sumProgram)
	var rec trace.Recorder
	nat, err := NewNative(prog, vfs.New(), &rec)
	if err != nil {
		t.Fatal(err)
	}
	if err := nat.Run(0); err != nil {
		t.Fatal(err)
	}
	// One event per guest instruction plus the synthetic kernel.
	if uint64(len(rec.Events)) < nat.M.Steps {
		t.Fatalf("events %d < steps %d", len(rec.Events), nat.M.Steps)
	}
	// The loop branch (bgtz) must appear taken 9 times, not-taken once.
	var taken, ntaken int
	for _, e := range rec.Events {
		if e.Kind == trace.Branch {
			if e.Taken() {
				taken++
			} else {
				ntaken++
			}
		}
	}
	if taken != 9 || ntaken != 1 {
		t.Errorf("branch outcomes taken=%d ntaken=%d, want 9/1", taken, ntaken)
	}
	// A run whose sink is a bare counter must tally the recorded stream.
	var want, got trace.Counter
	for _, e := range rec.Events {
		want.Emit(e)
	}
	nat, err = NewNative(prog, vfs.New(), &got)
	if err != nil {
		t.Fatal(err)
	}
	if err := nat.Run(0); err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("counter sink tallied %+v, recorded stream %+v", got, want)
	}
}

func TestNativeDependencyFlags(t *testing.T) {
	src := `
	.text
main:
	li $t0, 1
	addu $t1, $t0, $t0   # depends on previous
	li $v0, 1
	move $a0, $zero
	syscall
	nop
`
	prog := assemble(t, src)
	var rec trace.Recorder
	nat, err := NewNative(prog, vfs.New(), &rec)
	if err != nil {
		t.Fatal(err)
	}
	if err := nat.Run(0); err != nil {
		t.Fatal(err)
	}
	if !rec.Events[1].Dep() {
		t.Error("addu after li $t0 must carry the dependence flag")
	}
	if rec.Events[2].Dep() {
		t.Error("li $v0 does not read $t1")
	}
}

func TestInterpInvalidInstruction(t *testing.T) {
	prog := &mips.Program{
		Name:     "bad",
		TextBase: mips.TextBase,
		Text:     []uint32{0xfc00_0000},
		DataBase: mips.DataBase,
		Entry:    mips.TextBase,
		Symbols:  map[string]uint32{},
	}
	img := atom.NewImage()
	p := atom.NewProbe(img, trace.Discard)
	ip, err := New(prog, vfs.New(), img, p)
	if err != nil {
		t.Fatal(err)
	}
	err = ip.Run(10)
	if err == nil || !strings.Contains(err.Error(), "invalid") {
		t.Errorf("expected invalid-instruction error, got %v", err)
	}
}

func TestRunStepBudget(t *testing.T) {
	// An infinite loop must hit the budget, not hang.
	src := ".text\nmain:\n\tb main\n\tnop\n"
	nat, err := NewNative(assemble(t, src), vfs.New(), trace.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if err := nat.Run(1000); err == nil {
		t.Error("expected budget-exhausted error")
	}
}
