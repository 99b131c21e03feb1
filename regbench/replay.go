package main

import (
	"time"

	"repro/internal/alloc"
	"repro/internal/alloc/layered"
	"repro/internal/alloc/linearscan"
	"repro/internal/arch"
	"repro/internal/cliques"
	"repro/internal/coalesce"
	"repro/internal/core"
	"repro/internal/fingerprint"
	"repro/internal/ifg"
	"repro/internal/ir"
	"repro/internal/liveness"
	"repro/internal/outcache"
	"repro/internal/regassign"
	"repro/internal/spillcost"
)

// The traced replay re-runs a workload's inputs stage by stage through the
// layers' exported functions, in the order internal/core runs them, and
// times every call as a span. replay_test.go pins that the replay computes
// exactly what regalloc.Engine computes, so the per-layer numbers describe
// the program the end-to-end numbers measure.

// span is one timed call into a layer. Start and End are nanoseconds since
// the tracer's epoch; Parent is the index of the enclosing span within the
// same root, or -1 for a root.
type span struct {
	Name   string `json:"name"`
	Func   int    `json:"func"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory and folds each finished root into per-name
// self-time totals (a span's duration minus what its children cover). A
// nil *tracer records nothing, so the same replay code runs untraced.
type tracer struct {
	epoch  time.Time
	cur    []span // spans of the open root; cur[0] is the root
	open   []int  // stack of open span indexes into cur
	nextID int
	keep   bool // keep spans: asked for, and the first counted pass is not over
	warm   bool // the current pass counts (every pass after the first)
	kept   []span
	self   map[string]time.Duration
	counts map[string]float64
	roots  int
}

// newTracer returns a tracer; with spans set it keeps the spans of the
// first counted replay pass for the span file.
func newTracer(spans bool) *tracer {
	return &tracer{epoch: time.Now(), keep: spans,
		self: map[string]time.Duration{}, counts: map[string]float64{}}
}

// startPass marks the start of replay pass p over a workload's inputs.
// Pass 0 warms caches and scratch up and is not counted.
func (t *tracer) startPass(p int) {
	if t != nil {
		t.warm = p > 0
		t.keep = t.keep && p <= 1
	}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// root opens the root span of one function or request (fn identifies the
// input within its workload).
func (t *tracer) root(name string, fn int) {
	if t == nil {
		return
	}
	t.cur, t.open = t.cur[:0], t.open[:0]
	t.cur = append(t.cur, span{Name: name, Func: fn, ID: t.nextID, Parent: -1, Start: t.now()})
	t.nextID++
	t.open = append(t.open, 0)
}

// begin opens a child span of the innermost open span and returns its
// handle for end.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := t.open[len(t.open)-1]
	t.cur = append(t.cur, span{Name: name, Func: t.cur[0].Func, ID: t.nextID, Parent: parent, Start: t.now()})
	t.nextID++
	t.open = append(t.open, len(t.cur)-1)
	return len(t.cur) - 1
}

func (t *tracer) end(h int) {
	if t == nil {
		return
	}
	t.cur[h].End = t.now()
	t.open = t.open[:len(t.open)-1]
}

// finish closes the root and folds its spans into the totals.
func (t *tracer) finish() {
	if t == nil {
		return
	}
	t.cur[0].End = t.now()
	if !t.warm {
		return
	}
	for _, s := range t.cur {
		d := time.Duration(s.End - s.Start)
		t.self[s.Name] += d
		if s.Parent >= 0 {
			t.self[t.cur[s.Parent].Name] -= d
		}
	}
	if t.keep {
		for _, s := range t.cur {
			// Parent becomes a span ID in the file, so spans of different
			// roots never alias.
			if s.Parent >= 0 {
				s.Parent = t.cur[s.Parent].ID
			}
			t.kept = append(t.kept, s)
		}
	}
	t.roots++
}

// count adds a per-root count (averaged over roots when reported).
func (t *tracer) count(name string, v float64) {
	if t != nil {
		t.counts[name] += v
	}
}

// selfUS returns the mean self time per root of the named span, in µs.
func (t *tracer) selfUS(name string) float64 {
	if t.roots == 0 {
		return 0
	}
	return float64(t.self[name].Nanoseconds()) / 1e3 / float64(t.roots)
}

// perRoot returns a count averaged over roots.
func (t *tracer) perRoot(name string) float64 {
	if t.roots == 0 {
		return 0
	}
	return t.counts[name] / float64(t.roots)
}

// replayPasses replays n inputs pass after pass, alternating an untraced
// and a traced pass so that drift in machine speed hits both alike. Each
// side makes one uncounted warm-up pass, then counted passes until d is
// spent (at least one each). replay(traced, pass, i) replays input i and
// reports success. It returns the counted µs per input of each side, the
// replays attempted and those that failed.
func replayPasses(n int, t *tracer, root string, d time.Duration, replay func(traced bool, pass, i int) bool) (untraced, traced float64, attempted, failed int64) {
	var spent [2]time.Duration
	var counted int
	for pass := 0; pass < 2 || spent[0]+spent[1] < d; pass++ {
		t.startPass(pass)
		for side := range spent {
			start := time.Now()
			for i := 0; i < n; i++ {
				if side == 1 {
					t.root(root, i)
				}
				ok := replay(side == 1, pass, i)
				if side == 1 {
					t.finish()
				}
				attempted++
				if !ok {
					failed++
				}
			}
			if pass > 0 {
				spent[side] += time.Since(start)
			}
		}
		if pass > 0 {
			counted += n
		}
	}
	return us(spent[0]) / float64(counted), us(spent[1]) / float64(counted), attempted, failed
}

// replayer is the stage-by-stage pipeline: internal/core's unconstrained
// driver with its per-worker scratch (core.Runner), unrolled so that every
// layer call is its own span.
type replayer struct {
	regs      int
	live      *liveness.Scratch
	cs        *cliques.Scratch
	ra        *regassign.Scratch
	bias      coalesce.BiasScratch
	chordal   alloc.Allocator
	general   alloc.Allocator
	costs     []float64
	allocated []bool
	spilled   []bool
	t         *tracer
}

func newReplayer(regs int, t *tracer) *replayer {
	return &replayer{
		regs:    regs,
		live:    liveness.NewScratch(),
		cs:      cliques.NewScratch(),
		ra:      regassign.NewScratch(),
		chordal: layered.BFPL(),
		general: layered.NewLH(),
		t:       t,
	}
}

// allocate replays core's unconstrained pipeline (default allocators,
// default cost model, no budget, rewrite on) on f.
func (r *replayer) allocate(f *ir.Func) (*core.Outcome, error) {
	t := r.t
	h := t.begin("ir.validate")
	dom, err := f.ValidateAnalyzed()
	t.end(h)
	if err != nil {
		return nil, err
	}
	h = t.begin("ir.loops")
	f.ComputeLoops(dom)
	t.end(h)
	h = t.begin("liveness")
	info := r.live.Compute(f)
	t.end(h)
	t.count("liveness.points", float64(len(info.Points)))
	h = t.begin("spillcost")
	r.costs = spillcost.CostsInto(r.costs, f, spillcost.Model{})
	t.end(h)

	h = t.begin("cliques")
	var cs *cliques.Structure
	if cliques.Applicable(f, dom) {
		cs = cliques.Derive(info, dom, r.cs)
	}
	t.end(h)
	var build *ifg.Build
	if cs != nil {
		t.count("cliques.sets", float64(len(cs.Sets)))
		t.count("cliques.maxlive", float64(cs.MaxLive))
	} else {
		h = t.begin("ifg")
		build = ifg.FromLiveness(info)
		t.end(h)
		t.count("ifg.edges", float64(build.Graph.M()))
	}
	h = t.begin("alloc.problem")
	var p *alloc.Problem
	if cs != nil {
		p = alloc.BuildProblem(alloc.Spec{Cliques: cs, Costs: r.costs, R: r.regs})
		p.Intervals = linearscan.IntervalsFromLiveness(info, cs.VertexOf, cs.N)
	} else {
		p = alloc.BuildProblem(alloc.Spec{Build: build, Costs: r.costs, R: r.regs, Dom: dom})
		p.Intervals = linearscan.BuildIntervals(info, build)
	}
	t.end(h)

	a := r.general
	if p.Chordal {
		a = r.chordal
	}
	h = t.begin("alloc.allocate")
	if c, ok := a.(alloc.ProblemChecker); ok {
		err = c.CheckProblem(p)
	}
	var res *alloc.Result
	if err == nil {
		res = a.Allocate(p)
		err = p.Validate(res)
	}
	t.end(h)
	if err != nil {
		return nil, err
	}
	out := &core.Outcome{F: f, Build: build, Cliques: cs, Problem: p, Result: res, SpillCost: res.SpillCost(p)}
	if cs != nil {
		out.VertexOf, out.ValueOf, out.MaxLive = cs.VertexOf, cs.ValueOf, cs.MaxLive
	} else {
		out.VertexOf, out.ValueOf, out.MaxLive = build.VertexOf, build.ValueOf, build.MaxLive
	}
	for vx, al := range res.Allocated {
		if !al {
			out.SpilledValues = append(out.SpilledValues, out.ValueOf[vx])
		}
	}
	if !f.SSA || !p.Chordal {
		r.countOutcome(out)
		return out, nil
	}

	r.allocated = resetFlags(r.allocated, f.NumValues)
	r.spilled = resetFlags(r.spilled, f.NumValues)
	for vx, al := range res.Allocated {
		if al {
			r.allocated[out.ValueOf[vx]] = true
		}
	}
	h = t.begin("regassign.assign")
	regOf, err := regassign.AssignBiasedBudget(f, dom, info, r.allocated, r.regs, r.ra, nil, nil)
	t.end(h)
	if err != nil {
		return nil, err
	}
	h = t.begin("regassign.verify")
	err = regassign.VerifyAssignment(info, r.allocated, regOf)
	t.end(h)
	if err != nil {
		return nil, err
	}
	out.RegisterOf = regOf
	for _, v := range out.SpilledValues {
		r.spilled[v] = true
	}
	h = t.begin("regassign.rewrite")
	out.Rewritten = regassign.InsertSpillCode(f, r.spilled)
	if len(out.SpilledValues) > 0 {
		err = out.Rewritten.Validate()
	}
	t.end(h)
	if err != nil {
		return nil, err
	}
	r.countOutcome(out)
	return out, nil
}

// allocateConstrained probes the stages of internal/core's constrained
// driver that have exported entry points, then runs the driver itself for
// the outcome. The forced-spill passes, per-class allocation and assignment
// have none; their time is the driver's span minus the probed stages.
func (r *replayer) allocateConstrained(f *ir.Func, runner *core.Runner, cfg core.Config) (*core.Outcome, error) {
	t := r.t
	if t != nil {
		h := t.begin("ir.validate")
		dom, err := f.ValidateAnalyzed()
		t.end(h)
		if err != nil {
			return nil, err
		}
		h = t.begin("ir.loops")
		f.ComputeLoops(dom)
		t.end(h)
		h = t.begin("liveness")
		info := r.live.Compute(f)
		t.end(h)
		t.count("liveness.points", float64(len(info.Points)))
		h = t.begin("spillcost")
		r.costs = spillcost.CostsInto(r.costs, f, cfg.CostModel)
		t.end(h)
		h = t.begin("cliques")
		cs := cliques.Derive(info, dom, r.cs)
		t.end(h)
		if cs != nil {
			t.count("cliques.sets", float64(len(cs.Sets)))
			t.count("cliques.maxlive", float64(cs.MaxLive))
			h = t.begin("coalesce")
			moves := coalesce.MovesFromFunc(f, cfg.CostModel)
			var aff *coalesce.Affinity
			if len(moves) > 0 {
				aff = coalesce.BuildAffinityConstrained(cs, f, moves, cfg.Coalescing, classCaps(cfg.Constraints), &r.bias)
			}
			t.end(h)
			t.count("coalesce.moves", float64(len(moves)))
			if aff != nil {
				t.count("coalesce.classes", float64(aff.NumClasses))
			}
		}
	}
	h := t.begin("core.run")
	out, err := runner.Run(f, cfg)
	t.end(h)
	if err != nil {
		return nil, err
	}
	if out.Coalesce != nil {
		t.count("coalesce.residual_cost", out.Coalesce.ResidualCost)
	}
	r.countOutcome(out)
	return out, nil
}

// serve replays the allocation service's single-function request path
// (service.Do → Engine.AllocateFunc with a shared outcome cache): parse,
// fingerprint, cache lookup, and on a miss the pipeline and the cache
// offer.
func (r *replayer) serve(src string, cache *outcache.Cache, fold fingerprint.Config) (*core.Outcome, error) {
	t := r.t
	h := t.begin("ir.parse")
	f, err := ir.Parse(src)
	t.end(h)
	if err != nil {
		return nil, err
	}
	h = t.begin("fingerprint")
	key := fingerprint.Key(f, fold)
	t.end(h)
	h = t.begin("outcache.get")
	out := cache.Get(key, f)
	t.end(h)
	if out != nil {
		r.countOutcome(out)
		return out, nil
	}
	out, err = r.allocate(f)
	if err != nil {
		return nil, err
	}
	h = t.begin("outcache.put")
	cache.Put(key, out)
	t.end(h)
	return out, nil
}

// countOutcome records the outcome-level counts of one function.
func (r *replayer) countOutcome(out *core.Outcome) {
	t := r.t
	if t == nil {
		return
	}
	t.count("alloc.spilled", float64(len(out.SpilledValues)))
	t.count("alloc.spill_cost", out.SpillCost)
	if out.Rewritten != nil {
		n := 0
		for _, b := range out.Rewritten.Blocks {
			for _, ins := range b.Instrs {
				if ins.Op == ir.OpSpill || ins.Op == ir.OpReload {
					n++
				}
			}
		}
		t.count("regassign.spill_instrs", float64(n))
	}
}

// classCaps returns the per-class register capacities of a machine.
func classCaps(cons *arch.Constraints) [ir.NumClasses]int {
	var caps [ir.NumClasses]int
	for c := ir.Class(0); c < ir.NumClasses; c++ {
		caps[c] = cons.Cap(c)
	}
	return caps
}

// resetFlags returns s resized to n with every flag cleared.
func resetFlags(s []bool, n int) []bool {
	if cap(s) < n {
		return make([]bool, n)
	}
	s = s[:n]
	clear(s)
	return s
}
