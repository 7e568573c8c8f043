package ir

// OriginKind classifies where a register's value came from, as far as a
// simple intra-procedural forward analysis can tell. The UAF definition
// ("free" = putfield of null), the IA filter (store of a fresh allocation)
// and the MA filter (store of a getter result) all key off this lattice.
type OriginKind int

const (
	// OriginUnknown is the lattice top: conflicting or untracked.
	OriginUnknown OriginKind = iota
	// OriginUndef means the register was never assigned on any path yet
	// (lattice bottom; merges as identity).
	OriginUndef
	// OriginNull: definitely null.
	OriginNull
	// OriginNew: definitely the object allocated at Site.
	OriginNew
	// OriginCall: definitely the return value of the invoke at Site.
	OriginCall
	// OriginParam: an incoming parameter or receiver.
	OriginParam
	// OriginLoad: loaded from the field at Site (a getfield/getstatic).
	OriginLoad
	// OriginConst: a non-null primitive constant.
	OriginConst
)

func (k OriginKind) String() string {
	switch k {
	case OriginUndef:
		return "undef"
	case OriginNull:
		return "null"
	case OriginNew:
		return "new"
	case OriginCall:
		return "call"
	case OriginParam:
		return "param"
	case OriginLoad:
		return "load"
	case OriginConst:
		return "const"
	}
	return "unknown"
}

// Origin is one lattice element: a kind plus, where meaningful, the
// instruction index that produced the value.
type Origin struct {
	Kind OriginKind
	Site int // producing instruction index for New/Call/Load; else -1
}

func mergeOrigin(a, b Origin) Origin {
	if a.Kind == OriginUndef {
		return b
	}
	if b.Kind == OriginUndef {
		return a
	}
	if a == b {
		return a
	}
	return Origin{Kind: OriginUnknown, Site: -1}
}

// OriginInfo holds the value origins of one method's instruction
// operands.
type OriginInfo struct {
	m *Method
	// a[i] and b[i] are the origins of Instrs[i].A and Instrs[i].B
	// immediately before instruction i executes.
	a, b []Origin
}

// At returns the origin of register r immediately before instruction i.
// Only operand origins are kept: r must be Instrs[i].A or Instrs[i].B,
// which is every question the analyses ask (a store's value, a field
// access's base, an invoke's receiver, a null check's operand). Any
// other register yields the lattice top, OriginUnknown.
func (oi *OriginInfo) At(i, r int) Origin {
	if i >= 0 && i < len(oi.a) {
		switch in := oi.m.Instrs[i]; r {
		case in.A:
			return oi.a[i]
		case in.B:
			return oi.b[i]
		}
	}
	return Origin{Kind: OriginUnknown, Site: -1}
}

// ComputeOrigins runs the forward value-origin dataflow over m's CFG.
// States are register-indexed slices: one in-state per block and one
// scratch state for the block being walked.
func ComputeOrigins(m *Method) *OriginInfo {
	g := BuildCFG(m)
	n := len(m.Instrs)
	undef := Origin{Kind: OriginUndef, Site: -1}
	nregs := max(m.NumRegs, m.NumArgs+1)
	for _, in := range m.Instrs {
		nregs = max(nregs, in.A+1, in.B+1)
	}
	// Instructions in unreachable blocks keep undef operands.
	oi := &OriginInfo{m: m, a: make([]Origin, n), b: make([]Origin, n)}
	for i := range oi.a {
		oi.a[i], oi.b[i] = undef, undef
	}
	entry := make([]Origin, nregs)
	for r := range entry {
		entry[r] = undef
		if r <= m.NumArgs {
			entry[r] = Origin{Kind: OriginParam, Site: -1}
		}
	}

	in := make([][]Origin, len(g.Blocks))
	in[0] = entry
	state := make([]Origin, nregs)
	// Worklist over blocks.
	work := []int{0}
	inWork := make([]bool, len(g.Blocks))
	inWork[0] = true
	for len(work) > 0 {
		b := work[0]
		work = work[1:]
		inWork[b] = false
		copy(state, in[b])
		blk := g.Blocks[b]
		for i := blk.Start; i < blk.End; i++ {
			ins := m.Instrs[i]
			oi.a[i], oi.b[i] = regOrigin(state, ins.A), regOrigin(state, ins.B)
			applyOrigin(state, ins, i)
		}
		for _, s := range blk.Succs {
			if mergeInto(&in[s], state) {
				if !inWork[s] {
					work = append(work, s)
					inWork[s] = true
				}
			}
		}
	}
	return oi
}

// regOrigin reads register r of state; NoReg is undef.
func regOrigin(state []Origin, r int) Origin {
	if r < 0 {
		return Origin{Kind: OriginUndef, Site: -1}
	}
	return state[r]
}

func applyOrigin(state []Origin, in Instr, idx int) {
	set := func(o Origin) {
		if in.A >= 0 {
			state[in.A] = o
		}
	}
	switch in.Op {
	case OpConstNull:
		set(Origin{Kind: OriginNull, Site: idx})
	case OpConstInt, OpConstStr:
		set(Origin{Kind: OriginConst, Site: idx})
	case OpNew:
		set(Origin{Kind: OriginNew, Site: idx})
	case OpMove:
		// A move from a never-assigned register yields the zero Origin
		// (unknown, site 0), not undef: the copy is a definite value of
		// unknown provenance.
		o := regOrigin(state, in.B)
		if o.Kind == OriginUndef {
			o = Origin{}
		}
		set(o)
	case OpGetField, OpGetStatic:
		set(Origin{Kind: OriginLoad, Site: idx})
	case OpInvoke, OpInvokeStatic:
		set(Origin{Kind: OriginCall, Site: idx})
	}
}

// mergeInto merges src into *dst, reporting whether *dst changed.
func mergeInto(dst *[]Origin, src []Origin) bool {
	if *dst == nil {
		*dst = append([]Origin(nil), src...)
		return true
	}
	d := *dst
	changed := false
	for r, o := range src {
		if merged := mergeOrigin(d[r], o); merged != d[r] {
			d[r] = merged
			changed = true
		}
	}
	return changed
}

// IsFree reports whether instruction i of m is a "free" in the paper's
// sense: a putfield (or putstatic) storing a definitely-null value.
func IsFree(oi *OriginInfo, m *Method, i int) bool {
	in := m.Instrs[i]
	if in.Op != OpPutField && in.Op != OpPutStatic {
		return false
	}
	return oi.At(i, in.A).Kind == OriginNull
}

// IsUse reports whether instruction i of m is a "use": a getfield (or
// getstatic) retrieving a field value.
func IsUse(m *Method, i int) bool {
	op := m.Instrs[i].Op
	return op == OpGetField || op == OpGetStatic
}

// UsesOfDef returns the instruction indices that may read the value
// defined by instruction def (which must define a register), following
// moves transitively. The walk is path-insensitive: any read of the
// register reachable from def before a redefinition counts.
func UsesOfDef(m *Method, def int) []int {
	r, ok := m.Instrs[def].DefReg()
	if !ok {
		return nil
	}
	g := BuildCFG(m)
	type st struct {
		instr int
		reg   int
	}
	seen := make(map[st]bool)
	var out []int
	outSeen := make(map[int]bool)
	var walk func(i, reg int)
	walk = func(i, reg int) {
		for {
			if i >= len(m.Instrs) {
				return
			}
			key := st{i, reg}
			if seen[key] {
				return
			}
			seen[key] = true
			in := m.Instrs[i]
			for _, u := range in.Uses() {
				if u == reg && !outSeen[i] {
					outSeen[i] = true
					out = append(out, i)
				}
			}
			// Follow a move of our value into another register.
			if in.Op == OpMove && in.B == reg {
				walk(i+1, in.A)
			}
			if d, has := in.DefReg(); has && d == reg {
				return // redefined
			}
			if in.IsBranch() {
				walk(m.Index(in.Target), reg)
				if in.Op == OpGoto {
					return
				}
			}
			if in.IsTerminator() {
				return
			}
			i++
		}
	}
	_ = g
	walk(def+1, r)
	return out
}
