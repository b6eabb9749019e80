package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"github.com/alphawan/alphawan/internal/adaptive"
	"github.com/alphawan/alphawan/internal/alphawan/cp"
	"github.com/alphawan/alphawan/internal/alphawan/evolve"
	"github.com/alphawan/alphawan/internal/lora"
	"github.com/alphawan/alphawan/internal/region"
)

// replan: a fig17-scale channel-planning instance — the Testbed band's
// 24 channels, 12 SX1302-class gateways, 144 nodes with distance-graded
// reachability — is cold-solved during set-up. Requests are a seeded
// stream of drifts, each one gateway outage or one decoder degrade
// against the base problem, answered by adaptive.Replan from the live
// incumbent; adopted plans become the incumbent. Each replan runs a
// fixed GA budget (no early stop), so every request does the same
// amount of search whatever the seed. An operation is one replan.

type replanScale struct {
	gateways, nodes int
	cold            evolve.Options
	warm            evolve.Options
	round           int // drift requests per round
}

func replanSizes(smoke bool) replanScale {
	warm := evolve.Options{
		Population: 24, Generations: 16, MutationRate: 0.15, TournamentK: 3,
		Elitism: 4, ExactPolish: true,
	}
	if smoke {
		warm.Population, warm.Generations = 8, 4
		cold := evolve.DefaultOptions(0)
		cold.Population, cold.Generations, cold.Parallel = 12, 10, false
		return replanScale{gateways: 4, nodes: 40, cold: cold, warm: warm, round: 4}
	}
	cold := evolve.DefaultOptions(0)
	cold.Parallel = false
	return replanScale{gateways: 12, nodes: region.Testbed.TheoreticalCapacity(), cold: cold, warm: warm, round: 8}
}

// drift is one request: gateway gw goes down (decoders == 0) or keeps
// only decoders decoders.
type drift struct {
	gw       int
	decoders int
}

type replan struct {
	sc        replanScale
	base      *cp.Problem
	incumbent *cp.Assignment
	rng       *rand.Rand
	seed      int64
	req       int64

	coldStats evolve.SolveStats
	replans   int64
	adopted   int64
	diffGenes int64
	failures  []string
}

// replanProblem makes the instance: gateways and nodes scattered over a
// 2 km square, a node's fastest data rate to a gateway graded by
// distance, every node reaching at least its nearest gateway.
func replanProblem(rng *rand.Rand, nGW, nNodes int) *cp.Problem {
	const side = 2000.0
	p := &cp.Problem{Channels: region.Testbed.AllChannels()}
	type pt struct{ x, y float64 }
	gws := make([]pt, nGW)
	for j := range gws {
		gws[j] = pt{rng.Float64() * side, rng.Float64() * side}
		p.Gateways = append(p.Gateways, cp.GatewaySpec{Decoders: 16, MaxChannels: 8, SpanHz: 1_600_000})
	}
	// Ring edges in metres: DR5 closes below 250 m, DR0 below 1500 m.
	edges := [lora.NumDRs]float64{1500, 1150, 850, 600, 400, 250}
	for i := 0; i < nNodes; i++ {
		at := pt{rng.Float64() * side, rng.Float64() * side}
		n := cp.NodeSpec{Traffic: float64(1+rng.Intn(4)) / 2, MaxDR: make([]int, nGW)}
		nearest, best := 0, math.Inf(1)
		for j, g := range gws {
			d := math.Hypot(at.x-g.x, at.y-g.y)
			if d < best {
				nearest, best = j, d
			}
			n.MaxDR[j] = -1
			for dr := lora.NumDRs - 1; dr >= 0; dr-- {
				if d < edges[dr] {
					n.MaxDR[j] = dr
					break
				}
			}
		}
		if n.MaxDR[nearest] < 0 {
			n.MaxDR[nearest] = 0
		}
		p.Nodes = append(p.Nodes, n)
	}
	return p
}

func setupReplan(cfg config, tr *tracer) (instance, error) {
	sc := replanSizes(cfg.smoke)
	rng := rand.New(rand.NewSource(cfg.seed))
	r := &replan{sc: sc, base: replanProblem(rng, sc.gateways, sc.nodes), rng: rng, seed: cfg.seed}
	opt := sc.cold
	opt.Seed = cfg.seed
	var sp active
	if tr != nil {
		sp = tr.begin(spSolve, nil, 0)
	}
	res, err := evolve.Solve(r.base, opt)
	if tr != nil {
		tr.end(&sp)
	}
	if err != nil {
		return nil, fmt.Errorf("cold solve: %w", err)
	}
	if got := r.base.Evaluate(res.Assignment); !sameCost(got, res.Cost) {
		return nil, fmt.Errorf("cold solve reports cost %+v, Evaluate of its assignment gives %+v", res.Cost, got)
	}
	r.incumbent = res.Assignment
	r.coldStats = res.Stats
	return r, nil
}

// sameCost compares two costs bit for bit.
func sameCost(a, b cp.Cost) bool {
	return math.Float64bits(a.DecoderRisk) == math.Float64bits(b.DecoderRisk) &&
		math.Float64bits(a.ChannelOverload) == math.Float64bits(b.ChannelOverload) &&
		a.Unconnected == b.Unconnected && a.SpanViolations == b.SpanViolations
}

// drifted projects a drift onto the base problem the way the adaptive
// controller does: a degraded gateway loses decoders, a down gateway
// loses every link.
func (r *replan) drifted(d drift) *cp.Problem {
	q := &cp.Problem{Channels: r.base.Channels}
	q.Gateways = append([]cp.GatewaySpec(nil), r.base.Gateways...)
	if d.decoders > 0 {
		q.Gateways[d.gw].Decoders = d.decoders
		q.Nodes = r.base.Nodes
		return q
	}
	q.Nodes = make([]cp.NodeSpec, len(r.base.Nodes))
	for i, n := range r.base.Nodes {
		n.MaxDR = append([]int(nil), n.MaxDR...)
		n.MaxDR[d.gw] = -1
		q.Nodes[i] = n
	}
	return q
}

func (r *replan) nextDrift() drift {
	d := drift{gw: r.rng.Intn(len(r.base.Gateways))}
	if r.rng.Intn(2) == 0 {
		d.decoders = 2 + r.rng.Intn(7)
	}
	return d
}

func (r *replan) run(w *window, tr *tracer, seconds float64) error {
	start := time.Now()
	for time.Since(start).Seconds() < seconds {
		for k := 0; k < r.sc.round; k++ {
			r.req++
			q := r.drifted(r.nextDrift())
			opt := r.sc.warm
			opt.Seed = r.seed + r.req*0x9E37
			t0 := time.Now()
			var sp active
			if tr != nil {
				sp = tr.begin(spReplan, nil, r.req)
			}
			d, err := adaptive.Replan(q, r.incumbent, opt)
			if tr != nil {
				tr.end(&sp)
			}
			w.latencies = append(w.latencies, msSince(t0))
			if err != nil {
				w.failed++
				continue
			}
			w.ops++
			r.verify(q, d, tr)
			r.replans++
			r.diffGenes += int64(len(d.Diff))
			if d.Adopted {
				r.adopted++
				r.incumbent = d.Candidate
			}
		}
		w.markRound(w.ops)
	}
	return nil
}

// verify checks one decision against computations made apart from the
// replanner: a fresh full Evaluate of the candidate, and a Rescore of
// the diff from the incumbent on a scorer of the benchmark's own.
func (r *replan) verify(q *cp.Problem, d *adaptive.Decision, tr *tracer) {
	fail := func(format string, args ...any) {
		if len(r.failures) < 8 {
			r.failures = append(r.failures, fmt.Sprintf("request %d: ", r.req)+fmt.Sprintf(format, args...))
		}
	}
	var sp active
	if tr != nil {
		sp = tr.begin(spEvaluate, nil, r.req)
	}
	full := q.Evaluate(d.Candidate)
	if tr != nil {
		tr.end(&sp)
	}
	if !sameCost(full, d.CandidateCost) {
		fail("candidate cost %+v, full Evaluate %+v", d.CandidateCost, full)
	}
	sc := cp.NewScorer(q)
	sc.Reset(r.incumbent)
	if tr != nil {
		sp = tr.begin(spRescore, nil, r.req)
	}
	re := sc.Rescore(d.Candidate, d.Diff)
	if tr != nil {
		tr.end(&sp)
	}
	if !sameCost(re, full) {
		fail("rescore of the diff %+v, full Evaluate %+v", re, full)
	}
	if d.Adopted {
		if err := d.Candidate.Validate(q); err != nil {
			fail("adopted plan does not validate: %v", err)
		}
		if inc := q.Evaluate(r.incumbent); d.CandidateCost.Total() > inc.Total() {
			fail("adopted plan costs %v, incumbent %v", d.CandidateCost.Total(), inc.Total())
		}
	}
}

func (r *replan) check() error {
	if len(r.failures) > 0 {
		return fmt.Errorf("%d replans failed their checks, first: %s", len(r.failures), r.failures[0])
	}
	if r.replans == 0 {
		return fmt.Errorf("no replans")
	}
	return nil
}

func (r *replan) layers(tr *tracer, w *window, m metricSet) {
	m.put("adaptive.replan_ms", tr.meanUs(spReplan)/1e3, "ms")
	m.put("cp.evaluate_us", tr.meanUs(spEvaluate), "us")
	m.put("cp.rescore_us", tr.meanUs(spRescore), "us")
	m.put("adaptive.adopted_ratio", float64(r.adopted)/float64(r.replans), "ratio")
	m.put("adaptive.diff_genes", float64(r.diffGenes)/float64(r.replans), "count")
	m.put("evolve.solve_ms", float64(tr.totalNs(spSolve))/1e6, "ms")
	st := r.coldStats
	m.put("evolve.rescore_share", float64(st.Rescores)/float64(st.Rescores+st.FullEvals), "ratio")
}

func (r *replan) close() {}
