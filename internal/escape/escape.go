// Package escape implements thread-escape analysis over the threadified
// model: an abstract object escapes when two distinct modeled threads can
// reach it (through local variables, field chains, or static fields).
// Chord's race detector uses the same notion to discard thread-local
// accesses (§5).
//
// The paper's Chord build states the analysis in Datalog:
//
//	Reach(t, h)  :- Root(t, h)
//	Reach(t, h2) :- Reach(t, h1), HeapPT(h1, f, h2)
//	Reach(t, h)  :- Touches(t), StaticPT(h)   (statics are global)
//	Escapes(h)   :- Reach(t1, h), Reach(t2, h), t1 != t2
//
// The cold path computes the same relations without an engine: the
// static seeds are closed over the heap graph once into a word-packed
// bitset, each non-dummy thread's Reach set is that set plus a
// depth-first walk from the thread's roots, and an object escapes iff
// at least two threads' sets hold it (its reacher count). The rules
// above are kept as the test oracle. AnalyzeIncremental runs the reach
// rules on the Datalog engine's delta path.
package escape

import (
	"math/bits"
	"sort"

	"nadroid/internal/datalog"
	"nadroid/internal/pointsto"
	"nadroid/internal/threadify"
)

// Options tunes the analysis.
type Options struct {
	// Workers is ignored: AnalyzeWith and AnalyzeDetailed run no
	// Datalog engine. It is kept so existing callers compile.
	Workers int
}

// Result maps object IDs to their escape status.
type Result struct {
	escaped map[pointsto.ObjID]bool
	// reachers counts how many threads reach each object (diagnostics).
	reachers map[pointsto.ObjID]int
}

// Escaped reports whether obj is reachable from two or more threads.
func (r *Result) Escaped(obj pointsto.ObjID) bool { return r.escaped[obj] }

// ReacherCount returns how many threads reach obj.
func (r *Result) ReacherCount(obj pointsto.ObjID) int { return r.reachers[obj] }

// Snapshot flattens the result for serialization: one row per object
// with a recorded reacher count, escaped derived per row. The order is
// unspecified; FromSnapshot rebuilds an equivalent Result.
func (r *Result) Snapshot() (objs []pointsto.ObjID, reachers []int, escaped []bool) {
	for o, n := range r.reachers {
		objs = append(objs, o)
		reachers = append(reachers, n)
		escaped = append(escaped, r.escaped[o])
	}
	return objs, reachers, escaped
}

// FromSnapshot rebuilds a Result from Snapshot's parallel slices.
func FromSnapshot(objs []pointsto.ObjID, reachers []int, escaped []bool) *Result {
	r := &Result{
		escaped:  make(map[pointsto.ObjID]bool, len(objs)),
		reachers: make(map[pointsto.ObjID]int, len(objs)),
	}
	for i, o := range objs {
		r.reachers[o] = reachers[i]
		if escaped[i] {
			r.escaped[o] = true
		}
	}
	return r
}

// Analyze computes escape facts for every abstract object in the model.
func Analyze(m *threadify.Model) *Result { return AnalyzeWith(m, Options{}) }

// AnalyzeWith is Analyze with explicit options.
func AnalyzeWith(m *threadify.Model, opts Options) *Result {
	res, _ := AnalyzeDetailed(m, opts)
	return res
}

// installReachRules installs the reach-closure subset of the escape
// rules — everything except the Escapes self-join, which
// resultFromReach replaces with per-object reacher counting.
func installReachRules(e *datalog.Engine) {
	e.MustRule("Reach(t, h) :- Root(t, h)")
	e.MustRule("Reach(t, h2) :- Reach(t, h1), HeapPT(h1, f, h2)")
	e.MustRule("Reach(t, h) :- Touches(t), StaticPT(h)")
	e.MustRule("StaticPT(h2) :- StaticPT(h1), HeapPT(h1, f, h2)")
}

// RootObjs enumerates a thread's root objects in deterministic fact
// order: every object any register of any reachable method context
// points to. The same enumeration seeds the engine's Root facts, so
// digests over it gate partition reuse exactly.
func RootObjs(m *threadify.Model, thread int) []pointsto.ObjID {
	pts := m.PTS
	var out []pointsto.ObjID
	for mc := range m.Reach(thread) {
		mth, err := m.H.MethodByRef(mc.Method)
		if err != nil || mth.Abstract {
			continue
		}
		for reg := 0; reg < mth.NumRegs; reg++ {
			out = append(out, pts.PointsTo(mc.Method, mc.Recv, reg)...)
		}
	}
	return out
}

// HeapEdge is one points-to heap edge: Src.Field may point to Dst.
type HeapEdge struct {
	Src   pointsto.ObjID
	Field string
	Dst   pointsto.ObjID
}

// HeapEdges enumerates every heap points-to edge in deterministic
// order (object ID, then declared-field order up the hierarchy).
func HeapEdges(pts *pointsto.Result) []HeapEdge {
	var out []HeapEdge
	for id := range pts.Objects() {
		o := pointsto.ObjID(id)
		for _, f := range fieldsOf(pts, o) {
			for _, o2 := range pts.FieldPointsTo(o, f) {
				out = append(out, HeapEdge{Src: o, Field: f, Dst: o2})
			}
		}
	}
	return out
}

// StaticSeeds enumerates the objects held by static fields — the seed
// set of the StaticPT relation, before heap closure — in deterministic
// declaration order.
func StaticSeeds(pts *pointsto.Result) []pointsto.ObjID {
	var out []pointsto.ObjID
	for _, f := range staticFieldsOf(pts) {
		out = append(out, pts.StaticPointsTo(f)...)
	}
	return out
}

// Detail carries the factored reach state AnalyzeDetailed extracts
// alongside the Result: per-thread reach rows and the closed static
// set. These are the per-thread fact partitions the incremental
// pipeline persists and replays.
type Detail struct {
	// Reach maps thread ID -> sorted object IDs the thread reaches.
	// Dummy-main threads are absent.
	Reach map[int][]pointsto.ObjID
	// Statics is the sorted closed static-reachable object set (the
	// StaticPT relation after heap closure).
	Statics []pointsto.ObjID
}

// AnalyzeDetailed is AnalyzeWith plus the reach state behind it: the
// per-thread reach rows and the closed static set a later incremental
// run preloads.
func AnalyzeDetailed(m *threadify.Model, _ Options) (*Result, *Detail) {
	roots := make(map[int][]pointsto.ObjID)
	for _, th := range m.Threads {
		if th.Kind != threadify.KindDummyMain {
			roots[th.ID] = RootObjs(m, th.ID)
		}
	}
	return solve(len(m.PTS.Objects()), HeapEdges(m.PTS), StaticSeeds(m.PTS), roots)
}

// solve runs the escape analysis on its raw inputs: numObjs objects,
// the heap edges, the static seeds, and each thread's roots. A thread's
// reach set is the heap closure of its roots on top of the closed
// static set; an object's reacher count is the number of sets holding
// it.
func solve(numObjs int, edges []HeapEdge, staticSeeds []pointsto.ObjID, roots map[int][]pointsto.ObjID) (*Result, *Detail) {
	succ := make([][]pointsto.ObjID, numObjs)
	for _, edge := range edges {
		succ[edge.Src] = append(succ[edge.Src], edge.Dst)
	}
	var stack []pointsto.ObjID
	statics := make(objSet, (numObjs+63)/64)
	stack = statics.closure(succ, staticSeeds, stack)
	det := &Detail{
		Reach:   make(map[int][]pointsto.ObjID, len(roots)),
		Statics: statics.appendTo(nil),
	}
	reach := make(objSet, len(statics))
	for t, rs := range roots {
		copy(reach, statics)
		stack = reach.closure(succ, rs, stack)
		det.Reach[t] = reach.appendTo(make([]pointsto.ObjID, 0, reach.len()))
	}
	return resultFromReach(numObjs, det.Reach), det
}

// objSet is a word-packed set of object IDs sized for one model.
type objSet []uint64

// closure adds seeds and every object heap-reachable from them,
// walking only from objects not already in s (s is closed on entry).
// stack is scratch space, returned for reuse.
func (s objSet) closure(succ [][]pointsto.ObjID, seeds []pointsto.ObjID, stack []pointsto.ObjID) []pointsto.ObjID {
	push := func(o pointsto.ObjID) {
		w, bit := o>>6, uint64(1)<<(o&63)
		if s[w]&bit == 0 {
			s[w] |= bit
			stack = append(stack, o)
		}
	}
	for _, o := range seeds {
		push(o)
	}
	for len(stack) > 0 {
		o := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, o2 := range succ[o] {
			push(o2)
		}
	}
	return stack
}

// len counts the set's members.
func (s objSet) len() int {
	n := 0
	for _, w := range s {
		n += bits.OnesCount64(w)
	}
	return n
}

// appendTo appends the set's members to out in ascending ID order.
func (s objSet) appendTo(out []pointsto.ObjID) []pointsto.ObjID {
	for wi, w := range s {
		for w != 0 {
			out = append(out, pointsto.ObjID(wi*64+bits.TrailingZeros64(w)))
			w &= w - 1
		}
	}
	return out
}

// reachRow extracts one thread's sorted reach set from the engine.
func reachRow(e *datalog.Engine, thr datalog.Sym) []pointsto.ObjID {
	rows := e.Query("Reach", thr, datalog.Wild)
	out := make([]pointsto.ObjID, 0, len(rows))
	for _, row := range rows {
		if _, v, ok := e.IntSymVal(row[1]); ok {
			out = append(out, pointsto.ObjID(v))
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// IncrementalInput is the reusable state a previous run's partitions
// provide to AnalyzeIncremental. The caller is responsible for the
// reuse gates: CleanReach rows must be the exact fixpoint rows the
// current model would derive for those threads (root-digest match) and
// Statics must be the closed static set under an identical heap.
type IncrementalInput struct {
	// CleanReach maps surviving thread ID -> its base-run reach rows.
	CleanReach map[int][]pointsto.ObjID
	// StaleReach maps dirty or removed thread ID -> its base-run reach
	// rows. They are preloaded and then retracted, exercising the
	// partition-retraction path; threads absent from the base run
	// simply have no entry.
	StaleReach map[int][]pointsto.ObjID
	// Statics is the base run's closed static-reachable set.
	Statics []pointsto.ObjID
	// Dirty lists the thread IDs whose reach must be recomputed (every
	// current non-dummy thread not covered by CleanReach).
	Dirty []int
	// Workers bounds the Datalog engine's worker pool.
	Workers int
}

// IncrementalStats counts the delta work an incremental solve did.
type IncrementalStats struct {
	// Retracted is the number of fact-partition rows removed.
	Retracted int
	// Asserted is the number of fresh delta facts asserted.
	Asserted int
	// Engine is the underlying Datalog engine's counters.
	Engine datalog.Stats
}

// AnalyzeIncremental recomputes escape facts from a previous run's
// partitions: clean threads' reach rows are preloaded below the engine
// fixpoint, dirty partitions are retracted, fresh root facts for the
// dirty threads are asserted as the delta, and the semi-naive engine
// derives only what changed. Escape status comes from counting
// reachers per object, as on the cold path.
//
// The Result and Detail are identical to AnalyzeDetailed's on the same
// model whenever the IncrementalInput contract holds.
func AnalyzeIncremental(m *threadify.Model, in IncrementalInput) (*Result, *Detail, IncrementalStats) {
	var stats IncrementalStats
	e := datalog.NewEngine()
	e.SetWorkers(in.Workers)
	objSym := func(o pointsto.ObjID) datalog.Sym { return e.IntSym('h', int(o)) }
	thrSym := func(t int) datalog.Sym { return e.IntSym('t', t) }
	pts := m.PTS

	// Preload the reusable fixpoint: heap edges (digest-matched, so
	// identical to the base run's), the closed static set, clean
	// threads' reach rows and Touches marks, and the stale partitions
	// about to be retracted.
	for _, edge := range HeapEdges(pts) {
		e.Fact("HeapPT", objSym(edge.Src), e.Sym("f:"+edge.Field), objSym(edge.Dst))
	}
	for _, o := range in.Statics {
		e.Fact("StaticPT", objSym(o))
	}
	dirty := make(map[int]bool, len(in.Dirty))
	for _, t := range in.Dirty {
		dirty[t] = true
	}
	for _, th := range m.Threads {
		if th.Kind == threadify.KindDummyMain || dirty[th.ID] {
			continue
		}
		for _, o := range in.CleanReach[th.ID] {
			e.Fact("Reach", thrSym(th.ID), objSym(o))
		}
		e.Fact("Touches", thrSym(th.ID))
	}
	staleThreads := make([]int, 0, len(in.StaleReach))
	for t := range in.StaleReach {
		staleThreads = append(staleThreads, t)
	}
	sort.Ints(staleThreads)
	for _, t := range staleThreads {
		for _, o := range in.StaleReach[t] {
			e.Fact("Reach", thrSym(t), objSym(o))
		}
	}

	installReachRules(e)
	e.MarkFixpoint()

	// Retract the invalidated partitions, then assert the fresh root
	// facts of the dirty threads — the sole delta the Run sees.
	for _, t := range staleThreads {
		stats.Retracted += e.RetractWhere("Reach", 0, thrSym(t))
	}
	before := e.Stats().Facts
	for _, th := range m.Threads {
		if th.Kind == threadify.KindDummyMain || !dirty[th.ID] {
			continue
		}
		for _, o := range RootObjs(m, th.ID) {
			e.Fact("Root", thrSym(th.ID), objSym(o))
		}
		e.Fact("Touches", thrSym(th.ID))
	}
	stats.Asserted = e.Stats().Facts - before
	e.Run()
	stats.Engine = e.Stats()

	// Combine: clean rows pass through, dirty rows come off the engine,
	// and escape status falls out of per-object reacher counts.
	det := &Detail{Reach: make(map[int][]pointsto.ObjID)}
	for _, th := range m.Threads {
		if th.Kind == threadify.KindDummyMain {
			continue
		}
		if dirty[th.ID] {
			det.Reach[th.ID] = reachRow(e, thrSym(th.ID))
		} else {
			det.Reach[th.ID] = in.CleanReach[th.ID]
		}
	}
	for _, row := range e.Query("StaticPT", datalog.Wild) {
		if _, v, ok := e.IntSymVal(row[0]); ok {
			det.Statics = append(det.Statics, pointsto.ObjID(v))
		}
	}
	sort.Slice(det.Statics, func(i, j int) bool { return det.Statics[i] < det.Statics[j] })
	return resultFromReach(len(pts.Objects()), det.Reach), det, stats
}

// resultFromReach derives the escape Result from per-thread reach
// sets: an object's reacher count is the number of threads whose set
// contains it, and it escapes when that count is at least two —
// exactly what the Escapes Datalog rule derives.
func resultFromReach(numObjs int, reach map[int][]pointsto.ObjID) *Result {
	counts := make([]int, numObjs)
	for _, objs := range reach {
		for _, o := range objs {
			if int(o) < numObjs {
				counts[o]++
			}
		}
	}
	res := &Result{
		escaped:  make(map[pointsto.ObjID]bool),
		reachers: make(map[pointsto.ObjID]int, numObjs),
	}
	for o := 0; o < numObjs; o++ {
		res.reachers[pointsto.ObjID(o)] = counts[o]
		if counts[o] >= 2 {
			res.escaped[pointsto.ObjID(o)] = true
		}
	}
	return res
}

// fieldsOf enumerates field names with recorded pointees on o. The
// points-to result has no direct field-name index, so we consult the
// class's declared fields up the hierarchy.
func fieldsOf(pts *pointsto.Result, o pointsto.ObjID) []string {
	// FieldPointsTo on arbitrary names returns empty sets, so probing
	// declared fields is sufficient and cheap.
	var names []string
	obj := pts.Obj(o)
	h := pts.Hierarchy()
	for cur := obj.Class; cur != ""; {
		c := h.Program().Class(cur)
		if c == nil {
			break
		}
		for _, f := range c.Fields {
			if !f.Static {
				names = append(names, f.Name)
			}
		}
		cur = c.Super
	}
	return names
}

// staticFieldsOf enumerates static field refs declared in the program.
func staticFieldsOf(pts *pointsto.Result) []string {
	var out []string
	for _, c := range pts.Hierarchy().Program().Classes() {
		for _, f := range c.Fields {
			if f.Static {
				out = append(out, f.Ref())
			}
		}
	}
	return out
}
