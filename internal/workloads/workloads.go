// Package workloads defines every benchmark program of the study: the
// des reference point implemented in all four interpreted systems plus
// compiled C, the per-language macro suites of Table 2, and the
// microbenchmarks of Table 1.
//
// Programs are constructed at a size scale: scale 1 keeps each run in the
// millions-of-native-instructions range so the full suite finishes in
// seconds; the shapes the paper reports (per-command costs, distribution
// concentration, cache behavior) are size-stable well below the original
// inputs, which ran for billions of cycles on a 175-MHz Alpha.
package workloads

import (
	"fmt"

	"interplab/internal/atom"
	"interplab/internal/core"
	"interplab/internal/jvm"
	"interplab/internal/minicc"
	"interplab/internal/mipsi"
	"interplab/internal/perl"
	"interplab/internal/tcl"
	"interplab/internal/tk"
	"interplab/internal/trace"
)

// runMIPS compiles mini-C and interprets the binary under MIPSI.
func runMIPS(ctx *core.Ctx, name, src string) error {
	prog, err := minicc.CompileMIPS(name, src)
	if err != nil {
		return err
	}
	ctx.SetProgramSize(prog.SizeBytes())
	ip, err := mipsi.New(prog, ctx.OS, ctx.Image, ctx.Probe)
	if err != nil {
		return err
	}
	if err := ip.Run(0); err != nil {
		return err
	}
	if ip.M.ExitCode != 0 {
		return fmt.Errorf("guest exited with %d", ip.M.ExitCode)
	}
	return nil
}

// runNative compiles mini-C and executes it directly (the compiled-C mode).
func runNative(ctx *core.Ctx, name, src string) error {
	prog, err := minicc.CompileMIPS(name, src)
	if err != nil {
		return err
	}
	ctx.SetProgramSize(prog.SizeBytes())
	nat, err := mipsi.NewNative(prog, ctx.OS, ctx.Sink)
	if err != nil {
		return err
	}
	if err := nat.Run(0); err != nil {
		return err
	}
	ctx.RecordBatch(nat.BatchStats())
	if nat.M.ExitCode != 0 {
		return fmt.Errorf("program exited with %d", nat.M.ExitCode)
	}
	return nil
}

// runJava compiles mini-C for the JVM and interprets the bytecode, binding
// the OS natives plus any extra native library.
func runJava(ctx *core.Ctx, name, src string, extraNatives ...[]*jvm.NativeFn) error {
	mod, err := minicc.CompileJVM(name, src)
	if err != nil {
		return err
	}
	ctx.SetProgramSize(mod.CodeBytes())
	if err := mod.Bind(jvm.OSNatives(ctx.OS)); err != nil {
		return err
	}
	for _, nats := range extraNatives {
		if err := mod.Bind(nats); err != nil {
			return err
		}
	}
	if missing := mod.Unbound(); len(missing) > 0 {
		return fmt.Errorf("unbound natives: %v", missing)
	}
	vm, err := jvm.New(mod, ctx.Image, ctx.Probe)
	if err != nil {
		return err
	}
	ret, err := vm.Run("main", 0)
	if err != nil {
		return err
	}
	if ret != 0 {
		return fmt.Errorf("main returned %d", ret)
	}
	return nil
}

// runPerl interprets a script.
func runPerl(ctx *core.Ctx, src string) error {
	ctx.SetProgramSize(len(src))
	ip, err := perl.New(src, ctx.OS, ctx.Image, ctx.Probe)
	if err != nil {
		return err
	}
	if err := ip.Run(); err != nil {
		return err
	}
	if ip.ExitCode() != 0 {
		return fmt.Errorf("script exited with %d", ip.ExitCode())
	}
	return nil
}

// runTcl interprets a script; withTk attaches the widget toolkit.
func runTcl(ctx *core.Ctx, src string, withTk bool) error {
	ctx.SetProgramSize(len(src))
	i := tcl.New(ctx.OS, ctx.Image, ctx.Probe)
	if withTk {
		tk.Attach(i, ctx.Display(320, 240))
	}
	if _, err := i.Eval(src); err != nil {
		return err
	}
	if i.ExitCode() != 0 {
		return fmt.Errorf("script exited with %d", i.ExitCode())
	}
	return nil
}

// Suite returns the Table 2 macro programs for all systems at the given
// scale (1 = default sizes).
func Suite(scale float64) []core.Program {
	if scale <= 0 {
		scale = 1
	}
	n := func(base int) int {
		v := int(float64(base) * scale)
		if v < 1 {
			v = 1
		}
		return v
	}
	progs := []core.Program{
		DESNative(n(150)),
		DESMIPSI(n(150)),
		DESJava(n(260)),
		DESPerl(n(18)),
		DESTcl(n(6)),
	}
	progs = append(progs, MIPSISuite(scale)...)
	progs = append(progs, JavaSuite(scale)...)
	progs = append(progs, PerlSuite(scale)...)
	progs = append(progs, TclSuite(scale)...)
	return progs
}

// ByID finds a program in the default suite.
func ByID(id string) (core.Program, bool) {
	for _, p := range Suite(1) {
		if p.ID() == id {
			return p, true
		}
	}
	return core.Program{}, false
}

var _ = atom.CodeBase
var _ trace.Sink
