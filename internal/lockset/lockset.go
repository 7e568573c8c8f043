// Package lockset computes the set of locks that must be held at every
// instruction of every analyzed method context. nAdroid ignores locksets
// for race detection itself (locks cannot prevent ordering violations,
// §5) but the IG and IA filters use them selectively: an if-guard or
// intra-allocation between two background threads is only sound when a
// common lock provides atomicity (§6.1.2).
//
// A lock is identified by an abstract object; to stay a *must* analysis,
// a monitor expression contributes a lock only when its points-to set is
// a singleton (must-alias). Held sets flow into callees as the
// intersection over all call sites (plus the receiver for synchronized
// methods).
package lockset

import (
	"sort"

	"nadroid/internal/ir"
	"nadroid/internal/pointsto"
	"nadroid/internal/threadify"
)

// LockID is the abstract object serving as a lock.
type LockID = pointsto.ObjID

// Result answers "which locks are definitely held here".
type Result struct {
	m *threadify.Model
	// entry[mc] is the set of locks held on every path reaching mc.
	entry map[threadify.MCtx]lockSet
}

type lockSet map[LockID]struct{}

func (s lockSet) clone() lockSet {
	out := make(lockSet, len(s))
	for k := range s {
		out[k] = struct{}{}
	}
	return out
}

func intersect(a, b lockSet) lockSet {
	out := make(lockSet)
	for k := range a {
		if _, ok := b[k]; ok {
			out[k] = struct{}{}
		}
	}
	return out
}

func equal(a, b lockSet) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if _, ok := b[k]; !ok {
			return false
		}
	}
	return true
}

// Analyze computes lock sets for every method context in the model.
func Analyze(m *threadify.Model) *Result {
	r := &Result{
		m:     m,
		entry: make(map[threadify.MCtx]lockSet),
	}

	// Entry-lock propagation: a worklist over call edges. Thread entries
	// start with no locks.
	type edge struct {
		to   threadify.MCtx
		held lockSet
	}
	var work []edge
	for _, th := range m.Threads {
		if th.Kind == threadify.KindDummyMain {
			continue
		}
		work = append(work, edge{th.Entry, make(lockSet)})
	}
	for len(work) > 0 {
		e := work[len(work)-1]
		work = work[:len(work)-1]
		cur, seen := r.entry[e.to]
		var next lockSet
		if !seen {
			next = e.held.clone()
		} else {
			next = intersect(cur, e.held)
			if equal(next, cur) {
				continue
			}
		}
		r.entry[e.to] = next

		mth, err := m.H.MethodByRef(e.to.Method)
		if err != nil || mth.Abstract {
			continue
		}
		held := r.heldVector(e.to, mth, next)
		// Propagate to callees.
		for i := range mth.Instrs {
			for _, callee := range m.PTS.CalleeContextsAt(e.to.Method, e.to.Recv, i) {
				work = append(work, edge{
					to:   threadify.MCtx{Method: callee.Method, Recv: callee.Recv},
					held: held[i],
				})
			}
		}
	}
	return r
}

// heldVector computes the per-instruction must-held set inside one
// method context, given the locks held on entry.
func (r *Result) heldVector(mc threadify.MCtx, mth *ir.Method, entry lockSet) []lockSet {
	n := len(mth.Instrs)
	out := make([]lockSet, n+1)
	base := entry.clone()
	if mth.Synch && !mth.Static {
		for _, o := range mustAlias(r.m.PTS.PointsTo(mc.Method, mc.Recv, mth.ThisReg())) {
			base[o] = struct{}{}
		}
	}
	// Forward must-dataflow over the CFG.
	g := ir.BuildCFG(mth)
	in := make([]lockSet, len(g.Blocks))
	in[0] = base
	work := []int{0}
	inWork := make([]bool, len(g.Blocks))
	inWork[0] = true
	for len(work) > 0 {
		b := work[0]
		work = work[1:]
		inWork[b] = false
		state := in[b].clone()
		blk := g.Blocks[b]
		for i := blk.Start; i < blk.End; i++ {
			out[i] = state.clone()
			switch mth.Instrs[i].Op {
			case ir.OpMonitorEnter:
				for _, o := range mustAlias(r.m.PTS.PointsTo(mc.Method, mc.Recv, mth.Instrs[i].B)) {
					state[o] = struct{}{}
				}
			case ir.OpMonitorExit:
				for _, o := range r.m.PTS.PointsTo(mc.Method, mc.Recv, mth.Instrs[i].B) {
					delete(state, o)
				}
			}
		}
		for _, s := range blk.Succs {
			var merged lockSet
			if in[s] == nil {
				merged = state.clone()
			} else {
				merged = intersect(in[s], state)
				if equal(merged, in[s]) {
					continue
				}
			}
			in[s] = merged
			if !inWork[s] {
				work = append(work, s)
				inWork[s] = true
			}
		}
	}
	for i := range out {
		if out[i] == nil {
			out[i] = make(lockSet)
		}
	}
	return out
}

// mustAlias keeps the lock only when the points-to set is a singleton.
func mustAlias(objs []pointsto.ObjID) []pointsto.ObjID {
	if len(objs) == 1 {
		return objs
	}
	return nil
}

// HeldAt returns the locks definitely held at instruction idx of the
// given method context, sorted.
func (r *Result) HeldAt(mc threadify.MCtx, idx int) []LockID {
	entry, ok := r.entry[mc]
	if !ok {
		return nil
	}
	mth, err := r.m.H.MethodByRef(mc.Method)
	if err != nil || mth.Abstract || idx >= len(mth.Instrs) {
		return nil
	}
	vec := r.heldVector(mc, mth, entry)
	set := vec[idx]
	out := make([]LockID, 0, len(set))
	for o := range set {
		out = append(out, o)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// CommonLock reports whether the two sites definitely hold a common lock.
func (r *Result) CommonLock(a threadify.MCtx, ai int, b threadify.MCtx, bi int) bool {
	la := r.HeldAt(a, ai)
	if len(la) == 0 {
		return false
	}
	lb := r.HeldAt(b, bi)
	set := make(map[LockID]bool, len(la))
	for _, l := range la {
		set[l] = true
	}
	for _, l := range lb {
		if set[l] {
			return true
		}
	}
	return false
}
