package ir_test

import (
	"testing"

	"nadroid/internal/corpus"
	"nadroid/internal/ir"
)

// refOrigins is the reference value-origin dataflow: the original
// formulation with a register map per block and a full register-file
// snapshot before every instruction.
type refOrigins struct {
	before []map[int]ir.Origin
}

func (oi *refOrigins) At(i, r int) ir.Origin {
	if o, ok := oi.before[i][r]; ok {
		return o
	}
	return ir.Origin{Kind: ir.OriginUndef, Site: -1}
}

func refComputeOrigins(m *ir.Method) *refOrigins {
	g := ir.BuildCFG(m)
	oi := &refOrigins{before: make([]map[int]ir.Origin, len(m.Instrs)+1)}
	entry := make(map[int]ir.Origin)
	for r := 0; r <= m.NumArgs; r++ {
		entry[r] = ir.Origin{Kind: ir.OriginParam, Site: -1}
	}
	in := make([]map[int]ir.Origin, len(g.Blocks))
	in[0] = entry
	work := []int{0}
	inWork := make([]bool, len(g.Blocks))
	inWork[0] = true
	for len(work) > 0 {
		b := work[0]
		work = work[1:]
		inWork[b] = false
		state := refCopy(in[b])
		blk := g.Blocks[b]
		for i := blk.Start; i < blk.End; i++ {
			oi.before[i] = refCopy(state)
			refApply(state, m.Instrs[i], i)
		}
		for _, s := range blk.Succs {
			if refMerge(&in[s], state) && !inWork[s] {
				work = append(work, s)
				inWork[s] = true
			}
		}
	}
	return oi
}

func refApply(state map[int]ir.Origin, in ir.Instr, idx int) {
	switch in.Op {
	case ir.OpConstNull:
		state[in.A] = ir.Origin{Kind: ir.OriginNull, Site: idx}
	case ir.OpConstInt, ir.OpConstStr:
		state[in.A] = ir.Origin{Kind: ir.OriginConst, Site: idx}
	case ir.OpNew:
		state[in.A] = ir.Origin{Kind: ir.OriginNew, Site: idx}
	case ir.OpMove:
		state[in.A] = state[in.B]
	case ir.OpGetField, ir.OpGetStatic:
		state[in.A] = ir.Origin{Kind: ir.OriginLoad, Site: idx}
	case ir.OpInvoke, ir.OpInvokeStatic:
		if in.A != ir.NoReg {
			state[in.A] = ir.Origin{Kind: ir.OriginCall, Site: idx}
		}
	}
}

func refCopy(s map[int]ir.Origin) map[int]ir.Origin {
	out := make(map[int]ir.Origin, len(s))
	for k, v := range s {
		out[k] = v
	}
	return out
}

func refMerge(dst *map[int]ir.Origin, src map[int]ir.Origin) bool {
	if *dst == nil {
		*dst = refCopy(src)
		return true
	}
	changed := false
	for r, o := range src {
		old, ok := (*dst)[r]
		if !ok {
			(*dst)[r] = o
			changed = true
			continue
		}
		merged := refMergeOrigin(old, o)
		if merged != old {
			(*dst)[r] = merged
			changed = true
		}
	}
	return changed
}

func refMergeOrigin(a, b ir.Origin) ir.Origin {
	if a.Kind == ir.OriginUndef {
		return b
	}
	if b.Kind == ir.OriginUndef {
		return a
	}
	if a == b {
		return a
	}
	return ir.Origin{Kind: ir.OriginUnknown, Site: -1}
}

// TestOriginsMatchReference checks, for every method of every corpus
// app, that the operand origins equal the reference dataflow's at each
// instruction's A and B registers.
func TestOriginsMatchReference(t *testing.T) {
	methods, operands := 0, 0
	for _, app := range append(corpus.Apps(), corpus.AsyncApps()...) {
		for _, c := range app.Build().Program.Classes() {
			for _, m := range c.Methods {
				oi, ref := ir.ComputeOrigins(m), refComputeOrigins(m)
				methods++
				for i, in := range m.Instrs {
					for _, r := range []int{in.A, in.B} {
						if r == ir.NoReg {
							continue
						}
						operands++
						if got, want := oi.At(i, r), ref.At(i, r); got != want {
							t.Errorf("%s %s: At(%d, r%d) = %+v, reference %+v", app.Name(), m.Ref(), i, r, got, want)
						}
					}
				}
			}
		}
	}
	if methods == 0 || operands == 0 {
		t.Fatalf("checked %d methods, %d operands", methods, operands)
	}
}

// TestMoveFromUnassignedRegister pins the one place where a slice state
// differs from a map read: a move from a never-assigned register stores
// the zero Origin (unknown, site 0), as reading a missing map entry
// did, while the unassigned source itself still reads as undef.
func TestMoveFromUnassignedRegister(t *testing.T) {
	m := ir.NewMethod("C", "m", 0)
	m.NumRegs = 3
	f := ir.FieldRef{Class: "C", Name: "f"}
	m.Instrs = []ir.Instr{
		{Op: ir.OpMove, A: 1, B: 2},               // 0
		{Op: ir.OpPutField, B: 0, A: 1, Field: f}, // 1
		{Op: ir.OpReturn, A: ir.NoReg},            // 2
	}
	oi, ref := ir.ComputeOrigins(m), refComputeOrigins(m)
	if got, want := oi.At(0, 2), (ir.Origin{Kind: ir.OriginUndef, Site: -1}); got != want || ref.At(0, 2) != want {
		t.Errorf("unassigned source = %+v (reference %+v), want %+v", got, ref.At(0, 2), want)
	}
	if got, want := oi.At(1, 1), (ir.Origin{}); got != want || ref.At(1, 1) != want {
		t.Errorf("moved value = %+v (reference %+v), want %+v", got, ref.At(1, 1), want)
	}
}
