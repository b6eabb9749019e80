package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"github.com/alphawan/alphawan/internal/adaptive"
	"github.com/alphawan/alphawan/internal/alphawan/evolve"
	"github.com/alphawan/alphawan/internal/alphawan/planner"
	"github.com/alphawan/alphawan/internal/baseline"
	"github.com/alphawan/alphawan/internal/des"
	"github.com/alphawan/alphawan/internal/faults"
	"github.com/alphawan/alphawan/internal/gateway"
	"github.com/alphawan/alphawan/internal/medium"
	"github.com/alphawan/alphawan/internal/netserver"
	"github.com/alphawan/alphawan/internal/node"
	"github.com/alphawan/alphawan/internal/phy"
	"github.com/alphawan/alphawan/internal/radio"
	"github.com/alphawan/alphawan/internal/region"
	"github.com/alphawan/alphawan/internal/sim"
)

// coexist-des: three operators share the 24-channel Testbed band on the
// node-path discrete-event simulator. Operator 1 is AlphaWAN-planned and
// runs the closed-loop adaptive controller; operators 2 and 3 keep the
// standard sub-band plans. A seeded fault plan takes one of operator 1's
// gateways down once per round, so the controller replans twice a round
// (outage start and end). Decoder-degrade episodes are left out: while
// a degrade lowers a busy gateway's cap, faults.Invariants reports a
// decoder growth that happened before the degrade (its occupancy check
// runs on the lock-on event, before the radio allocates). Every node sends Poisson
// uplinks that the benchmark schedules itself and sends with node.Send.
//
// A request is one fixed slice of simulated time; a round is one fault
// cycle of slices. An operation is one uplink sent.

type coexistScale struct {
	nodes    [3]int // per operator
	gateways [3]int
	area     float64        // side of the square deployment, m
	mean     des.Time       // mean Poisson gap per node
	slice    des.Time       // simulated time per request
	slices   int            // slices per round (one fault cycle)
	rounds   int            // rounds the fault plan and controller cover
	solver   evolve.Options // offline plan and each replan; no early stop, so every replan searches as long
}

func coexistSizes(smoke bool) coexistScale {
	solver := evolve.Options{
		Population: 24, Generations: 20, MutationRate: 0.15, TournamentK: 3,
		Elitism: 4, ExactPolish: true,
	}
	if smoke {
		solver.Population, solver.Generations = 12, 8
		return coexistScale{
			nodes: [3]int{30, 20, 10}, gateways: [3]int{2, 2, 1}, area: 800,
			mean: 5 * des.Second, slice: des.Second, slices: 20, rounds: 400, solver: solver,
		}
	}
	return coexistScale{
		nodes: [3]int{600, 450, 300}, gateways: [3]int{4, 3, 2}, area: 1500,
		mean: 5 * des.Second, slice: des.Second, slices: 60, rounds: 1000, solver: solver,
	}
}

type coexist struct {
	sc   coexistScale
	n    *sim.Network
	inv  *faults.Invariants
	ctrl *adaptive.Controller
	band []region.Channel
	t0   des.Time // first slice
	end  des.Time // end of the horizon the plan covers

	traffic bool // false once the run is over: users stop sending

	// tr and cur are the tracer of the current window (nil untraced) and
	// the open slice span, read by the callbacks the DES runs.
	tr  *tracer
	cur *active
	req int64

	sent      int64
	sendFails int64
	events    int64 // DES events, sentinels excluded
	lockOns   int64
	delivered int64 // gateway deliveries (copies)
	decDrops  int64

	// distinct counts each network's frames delivered to at least one
	// of its gateways; a frame's copies all land at its end time, so
	// the set of frames seen needs to hold only the current instant.
	distinct   map[medium.NetworkID]int64
	seenAt     des.Time
	seenFrames map[int64]bool

	// Traced-window tallies for des.self_ns_per_event, taken over
	// slices in which no replan ran.
	quietSelfNs  int64
	quietEvents  int64
	windowEvents int64
	windowOps    int64
	windowLock   int64
	windowDeliv  int64
	windowDrops  int64
}

// user is one node's Poisson traffic source.
type user struct {
	nd  *node.Node
	rng uint64
}

func (u *user) gap(mean des.Time) des.Time {
	// Exponential gap from a SplitMix64 stream (53-bit uniform in (0,1]).
	u.rng += 0x9E3779B97F4A7C15
	z := u.rng
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	f := (float64(z>>11) + 1) / (1 << 53)
	g := des.Time(-math.Log(f) * float64(mean))
	if g < des.Millisecond {
		g = des.Millisecond
	}
	return g
}

func setupCoexist(cfg config, tr *tracer) (instance, error) {
	sc := coexistSizes(cfg.smoke)
	seed := cfg.seed
	c := &coexist{sc: sc, traffic: true, distinct: map[medium.NetworkID]int64{}, seenFrames: map[int64]bool{}}
	c.band = region.Testbed.AllChannels()

	var sp active
	if tr != nil {
		sp = tr.begin(spSimBuild, nil, 0)
	}
	n := sim.New(seed, phy.Urban(seed))
	c.n = n
	rng := rand.New(rand.NewSource(seed))
	models := [3]radio.GatewayModel{radio.Models[0], radio.Models[2], radio.Models[2]}
	for i := 0; i < 3; i++ {
		op := n.AddOperator()
		cfgs := baseline.StandardConfigs(region.Testbed, sc.gateways[i], op.Sync)
		for j := 0; j < sc.gateways[i]; j++ {
			// Gateway sites are fixed, so seeds vary nodes and traffic only:
			// operator i's gateways sit evenly on a circle of their own.
			angle := 2*math.Pi*float64(j)/float64(sc.gateways[i]) + float64(i)
			r := sc.area * (0.2 + 0.1*float64(i))
			pos := phy.Pt(sc.area/2+r*math.Cos(angle), sc.area/2+r*math.Sin(angle))
			// Rotate the standard plans per operator so co-located
			// operators overlap on different sub-bands.
			if _, err := op.AddGateway(models[i], pos, cfgs[(j+i)%len(cfgs)]); err != nil {
				return nil, fmt.Errorf("gateway: %w", err)
			}
		}
		op.UniformNodes(sc.nodes[i], sc.area, sc.area, c.band, seed+int64(i)+1)
		if i > 0 {
			op.AssignNodesToGatewayPlans()
		}
	}
	c.watch()
	if tr != nil {
		tr.end(&sp)
		sp = tr.begin(spSimLearn, nil, 0)
	}
	// Every node of operator 1 sends on every channel once, so its
	// server's log holds complete link profiles for the planner.
	n.LearningSweep(0, 40*des.Millisecond, c.band, 2)
	if tr != nil {
		tr.end(&sp)
		sp = tr.begin(spPlannerPlan, nil, 0)
	}
	a := n.Operators[0]
	solver := sc.solver
	solver.Seed = seed
	plan, err := planner.Plan(planner.Input{
		Log: a.Server.Log(), Channels: c.band, Gateways: a.GatewayInfo(), Sync: a.Sync,
		TrafficOverride: 1, NodeSide: true, MarginDB: 2, Solver: solver,
	})
	if err != nil {
		return nil, fmt.Errorf("plan: %w", err)
	}
	if err := a.ApplyGatewayConfigs(plan.GWConfigs); err != nil {
		return nil, fmt.Errorf("apply plan: %w", err)
	}
	a.ApplyNodePlans(plan.NodePlans)
	if tr != nil {
		tr.end(&sp)
	}
	// Per-network statistics cover the measured traffic only.
	n.Col.Reset()

	c.t0 = (n.Sim.Now()/des.Second + 1) * des.Second
	round := des.Time(sc.slices) * sc.slice
	c.end = c.t0 + des.Time(sc.rounds)*round
	inj, err := faults.Attach(n, c.faultPlan(rng, round))
	if err != nil {
		return nil, fmt.Errorf("fault plan: %w", err)
	}
	c.inv = faults.Watch(n)
	c.inv.WatchInjector(inj)
	view := adaptive.NewView(n, c.band)
	view.WatchFaults(inj)
	solver.Seed = seed + 7919
	c.ctrl, err = adaptive.Attach(n, a, plan, view, adaptive.Config{
		Start: c.t0, Stop: c.end, Interval: 5 * des.Second, Channels: c.band, Solver: solver,
	})
	if err != nil {
		return nil, fmt.Errorf("controller: %w", err)
	}
	c.ctrl.Events.Subscribe(func(e adaptive.PlanEvent) {
		if e.Adopted && e.Changed > 0 {
			c.inv.NotePlanSwap(e.At)
		}
	})
	for _, op := range n.Operators {
		for _, nd := range op.Nodes {
			u := &user{nd: nd, rng: uint64(des.StreamSeed(seed, int64(nd.ID)+int64(nd.Network)<<32))}
			n.Sim.At(c.t0+u.gap(sc.mean), func() { c.tick(u) })
		}
	}
	return c, nil
}

// faultPlan makes one outage of an operator-1 gateway per round, at a
// seeded gateway and offset.
func (c *coexist) faultPlan(rng *rand.Rand, round des.Time) *faults.Plan {
	a := c.n.Operators[0]
	sec := func(t des.Time) float64 { return float64(t) / float64(des.Second) }
	p := &faults.Plan{}
	for r := 0; r < c.sc.rounds; r++ {
		base := c.t0 + des.Time(r)*round
		out := a.Gateways[rng.Intn(len(a.Gateways))].ID
		start := base + round/10 + des.Time(rng.Int63n(int64(round/5)))
		p.Episodes = append(p.Episodes, faults.Episode{Kind: faults.KindGatewayOutage, Gateway: &out,
			StartS: sec(start), EndS: sec(start + round/3)})
	}
	return p
}

// watch subscribes the benchmark's own counters and wraps every
// operator's backhaul so the server's HandleUplink can be timed.
func (c *coexist) watch() {
	med := c.n.Med
	med.LockOns.Subscribe(func(medium.LockOnEvent) { c.lockOns++ })
	med.Drops.Subscribe(func(d medium.Drop) {
		if d.Reason == radio.DropNoDecoder {
			c.decDrops++
		}
	})
	med.Deliveries.Subscribe(func(d medium.Delivery) {
		c.delivered++
		if now := c.n.Sim.Now(); now != c.seenAt {
			c.seenAt = now
			clear(c.seenFrames)
		}
		if !c.seenFrames[d.TX.ID] {
			c.seenFrames[d.TX.ID] = true
			c.distinct[d.TX.Network]++
		}
	})
	for _, op := range c.n.Operators {
		srv := op.Server
		op.SetBackhaul(func(_ *gateway.Gateway, raw []byte, meta netserver.UplinkMeta) {
			if c.tr == nil {
				srv.HandleUplink(raw, meta)
				return
			}
			sp := c.tr.begin(spHandle, c.cur, c.req)
			srv.HandleUplink(raw, meta)
			c.tr.end(&sp)
		})
	}
}

// tick is one Poisson arrival of a user: send if the MAC allows it,
// otherwise come back when it does (drawing nothing, so the stream is
// the same whatever the MAC state).
func (c *coexist) tick(u *user) {
	if !c.traffic {
		return
	}
	s := c.n.Sim
	now := s.Now()
	if next := u.nd.NextSendOpportunity(now); next > now {
		s.At(next, func() { c.tick(u) })
		return
	}
	var err error
	if c.tr != nil {
		sp := c.tr.begin(spNodeSend, c.cur, c.req)
		_, err = u.nd.Send(c.n.Med)
		c.tr.end(&sp)
	} else {
		_, err = u.nd.Send(c.n.Med)
	}
	if err != nil {
		c.sendFails++
	} else {
		c.sent++
	}
	s.At(now+u.gap(c.sc.mean), func() { c.tick(u) })
}

// slice runs the simulation for one slice of simulated time. A sentinel
// event at the slice end stops the loop, so the loop can count the
// events it ran.
func (c *coexist) slice() {
	s := c.n.Sim
	stop := false
	s.At(s.Now()+c.sc.slice, func() { stop = true })
	for !stop && s.Step() {
		c.events++
	}
	c.events-- // the sentinel
}

func (c *coexist) run(w *window, tr *tracer, seconds float64) error {
	c.tr = tr
	defer func() { c.tr, c.cur = nil, nil }()
	start := time.Now()
	sent0, fails0 := c.sent, c.sendFails
	rounds := 0
	ev0, lock0, del0, drop0 := c.events, c.lockOns, c.delivered, c.decDrops
	// A program fast enough to use up the simulated horizon just ends
	// its window early; every figure is per operation or per request.
	for time.Since(start).Seconds() < seconds && c.n.Sim.Now()+des.Time(c.sc.slices)*c.sc.slice <= c.end {
		for k := 0; k < c.sc.slices; k++ {
			c.req++
			replans, _, _ := c.ctrl.Replans()
			evBefore := c.events
			t0 := time.Now()
			if tr != nil {
				sp := tr.begin(spSlice, nil, c.req)
				c.cur = &sp
				c.slice()
				d := tr.end(&sp)
				c.cur = nil
				if after, _, _ := c.ctrl.Replans(); after == replans {
					c.quietSelfNs += d - sp.child
					c.quietEvents += c.events - evBefore
				}
			} else {
				c.slice()
			}
			w.latencies = append(w.latencies, msSince(t0))
		}
		w.markRound(w.ops + c.sent - sent0)
		if rounds++; rounds == coexistRSSRounds {
			w.samplePeakRSS()
		}
	}
	w.ops += c.sent - sent0
	w.failed += c.sendFails - fails0
	if tr != nil {
		c.windowOps = c.sent - sent0
		c.windowEvents = c.events - ev0
		c.windowLock = c.lockOns - lock0
		c.windowDeliv = c.delivered - del0
		c.windowDrops = c.decDrops - drop0
	}
	return nil
}

// coexistRSSRounds is the work after which peak RSS is read: the
// server logs and the invariant checker grow with every uplink, so a
// reading at the end of the run would grow with the program's speed.
const coexistRSSRounds = 8

func msSince(t time.Time) float64 { return float64(time.Since(t)) / float64(time.Millisecond) }

// check stops the traffic, lets every frame in flight land, and checks
// the run's outputs.
func (c *coexist) check() error {
	c.traffic = false
	c.n.Sim.RunUntil(c.n.Sim.Now() + 10*des.Second)
	if v := c.inv.Finish(); len(v) > 0 {
		return fmt.Errorf("fault invariants: %d violations, first: %s", len(v), v[0])
	}
	for _, op := range c.n.Operators {
		st := c.n.Col.Network(op.ID)
		lost := 0
		for _, l := range st.Losses {
			lost += l
		}
		if st.Sent != st.Received+lost {
			return fmt.Errorf("network %d: sent %d != received %d + lost %d", op.ID, st.Sent, st.Received, lost)
		}
		if got, want := op.Server.Stats().Delivered, c.distinct[op.ID]; int64(got) != want {
			return fmt.Errorf("network %d: server delivered %d frames, medium delivered %d distinct", op.ID, got, want)
		}
	}
	if c.sent == 0 {
		return fmt.Errorf("no uplinks sent")
	}
	return nil
}

func (c *coexist) layers(tr *tracer, w *window, m metricSet) {
	ops := float64(c.windowOps)
	m.put("sim.build_ms", float64(tr.totalNs(spSimBuild))/1e6, "ms")
	m.put("sim.learn_ms", float64(tr.totalNs(spSimLearn))/1e6, "ms")
	m.put("planner.plan_ms", float64(tr.totalNs(spPlannerPlan))/1e6, "ms")
	m.put("des.events_per_op", float64(c.windowEvents)/ops, "count")
	m.put("des.self_ns_per_event", float64(c.quietSelfNs)/float64(c.quietEvents), "ns")
	m.put("node.send_us", tr.meanUs(spNodeSend), "us")
	m.put("netserver.handle_us", tr.meanUs(spHandle), "us")
	m.put("medium.lockons_per_op", float64(c.windowLock)/ops, "count")
	m.put("radio.decoder_drops_per_op", float64(c.windowDrops)/ops, "count")
	m.put("medium.delivery_ratio", float64(c.windowDeliv)/float64(c.windowLock), "ratio")
	for _, op := range c.n.Operators {
		m.put(fmt.Sprintf("sim.prr.op%d", op.ID), c.n.Col.Network(op.ID).PRR(), "ratio")
	}
	replans, _, _ := c.ctrl.Replans()
	m.put("adaptive.replans", float64(replans), "count")
}

func (c *coexist) close() {}
