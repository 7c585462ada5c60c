package compile

import (
	"kex/internal/ebpf/isa"
	"kex/internal/safext/compile/mir"
	"kex/internal/safext/lang"
)

// EmitMIR allocates and emits one function's MIR exactly as given, so
// emitter tests can reach IR shapes the source language cannot spell.
func EmitMIR(f *mir.Func) ([]isa.Instruction, *mir.Alloc, error) {
	al := mir.Allocate(f)
	e := &mirEmitter{c: &compiler{obj: &Object{}, funcPCs: map[string]int32{}}, f: f, al: al, fn: &lang.FuncDecl{Name: f.Name}}
	err := e.emitFunc()
	return e.insns, al, err
}
