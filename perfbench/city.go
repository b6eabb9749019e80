package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"github.com/alphawan/alphawan/internal/des"
	"github.com/alphawan/alphawan/internal/lora"
	"github.com/alphawan/alphawan/internal/medium"
	"github.com/alphawan/alphawan/internal/phy"
	"github.com/alphawan/alphawan/internal/region"
	"github.com/alphawan/alphawan/internal/soa"
)

// city-soa: a metro deployment on the sharded struct-of-arrays core. Two
// operators interleave 1.2 km gateway grids over an area sized for 4000
// devices/km²; operator 0 carries 60% of the devices on 3-coloured
// sub-band plans with collision cancellation, operator 1 the rest on
// sequential plans. Each device takes its nearest own gateway's plan
// and the fastest data rate that link clears with 2 dB margin.
//
// Set-up generates that population; a request builds, seals and runs
// one soa.Core over it. An operation is one simulated transmission.

type cityScale struct {
	devices  int
	cell     float64  // shard cell edge, m
	window   des.Time // simulated traffic per run
	mean     des.Time // mean Poisson gap per device
	reduced  int      // devices of the once-per-run single-cell cross-check
	dutyMean des.Time // mean gap of the cross-check, short enough that the duty cycle binds
}

func citySizes(smoke bool) cityScale {
	if smoke {
		return cityScale{devices: 1500, cell: 300, window: des.Minute, mean: 2 * des.Minute,
			reduced: 300, dutyMean: 5 * des.Second}
	}
	return cityScale{devices: 50000, cell: 750, window: 10 * des.Minute, mean: 10 * des.Minute,
		reduced: 2000, dutyMean: 5 * des.Second}
}

const (
	cityDensity   = 0.004 // devices per m²
	cityGWSpacing = 1200.0
	cityDutyCycle = 0.01 // soa.Config's default
)

// cityGW and cityDevice are the generated inputs of one deployment.
type cityGW struct {
	pos  phy.Point
	net  medium.NetworkID
	plan int
}

type cityDevice struct {
	pos  phy.Point
	net  medium.NetworkID
	plan int
	dr   lora.DR
}

type cityInputs struct {
	seed  int64
	side  float64
	env   phy.Environment
	plans [][]region.Channel
	gws   []cityGW
	devs  []cityDevice
}

var citySyncs = [2]lora.SyncWord{0x34, 0x12}

// makeCity generates a deployment of n devices.
func makeCity(seed int64, n int) *cityInputs {
	in := &cityInputs{seed: seed, side: math.Sqrt(float64(n) / cityDensity), env: phy.Metro(seed)}
	band := region.Testbed
	for p := 0; p < band.Plans(); p++ {
		var chs []region.Channel
		for _, ci := range band.Plan(p) {
			chs = append(chs, band.Channel(ci))
		}
		in.plans = append(in.plans, chs)
	}
	k := int(in.side/cityGWSpacing + 0.5)
	if k < 1 {
		k = 1
	}
	pitch := in.side / float64(k)
	offs := [2]float64{pitch / 2, pitch/2 + pitch/4} // operator 1 interleaves
	gwPlan := func(net, ix, iy int) int {
		if net == 0 {
			return (ix + 2*iy) % len(in.plans) // adjacent gateways never share a sub-band
		}
		return (iy*k + ix) % len(in.plans)
	}
	for net := 0; net < 2; net++ {
		for iy := 0; iy < k; iy++ {
			for ix := 0; ix < k; ix++ {
				in.gws = append(in.gws, cityGW{
					pos: phy.Pt(offs[net]+float64(ix)*pitch, offs[net]+float64(iy)*pitch),
					net: medium.NetworkID(net), plan: gwPlan(net, ix, iy),
				})
			}
		}
	}
	nearest := func(v, off float64) int {
		i := int(math.Round((v - off) / pitch))
		return min(max(i, 0), k-1)
	}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		pos := phy.Pt(rng.Float64()*in.side, rng.Float64()*in.side)
		net := 1
		if i%5 < 3 {
			net = 0
		}
		ix, iy := nearest(pos.X, offs[net]), nearest(pos.Y, offs[net])
		gw := phy.Pt(offs[net]+float64(ix)*pitch, offs[net]+float64(iy)*pitch)
		snr := in.env.SNRdB(phy.Link{TXPowerDBm: 14, TXPos: pos, RXPos: gw, RXAntenna: phy.Omni(3)})
		dr, _ := phy.MaxDR(snr, 2)
		in.devs = append(in.devs, cityDevice{pos: pos, net: medium.NetworkID(net), plan: gwPlan(net, ix, iy), dr: dr})
	}
	return in
}

// core builds and seals a soa.Core over the inputs.
func (in *cityInputs) core(cell float64, mean des.Time, tr *tracer, parent *active, req int64) *soa.Core {
	var sp active
	if tr != nil {
		sp = tr.begin(spSoaBuild, parent, req)
	}
	c := soa.New(soa.Config{
		Seed: in.seed, Env: in.env, Width: in.side, Height: in.side,
		CellSize: cell, MeanInterval: mean, ResolveCollisions: true,
	})
	for _, g := range in.gws {
		c.AddGateway(g.pos, phy.Omni(3), g.net, citySyncs[g.net], in.plans[g.plan], 16)
	}
	for _, d := range in.devs {
		c.AddDevice(d.pos, d.net, citySyncs[d.net], in.plans[d.plan], d.dr, 14)
	}
	if tr != nil {
		tr.end(&sp)
		sp = tr.begin(spSoaSeal, parent, req)
	}
	c.Seal()
	if tr != nil {
		tr.end(&sp)
	}
	return c
}

// maxSends bounds how many transmissions network net's devices can
// start in [0, until] at a 1% duty cycle: a device whose packet is on
// air for a must stay silent until a/dc after its previous start. The
// core exposes no per-device counters, so this per-network sum is the
// check each device's duty cycle gets.
func (in *cityInputs) maxSends(net medium.NetworkID, until des.Time) int {
	total := 0
	for _, d := range in.devs {
		if d.net != net {
			continue
		}
		air := des.FromDuration(lora.DefaultParams(d.dr).Airtime(soa.LoRaWANOverhead + 10))
		gap := float64(air) / cityDutyCycle * (1 - 1e-6) // slack for the core's µs rounding
		total += int(float64(until)/gap) + 1
	}
	return total
}

type city struct {
	sc  cityScale
	in  *cityInputs
	req int64

	last     *soa.RunStats
	runs     int
	bytesDev float64
}

// setupCity generates the population and runs the city once, so the
// timed runs start warm and each can be compared with the first.
func setupCity(cfg config, tr *tracer) (instance, error) {
	sc := citySizes(cfg.smoke)
	c := &city{sc: sc, in: makeCity(cfg.seed, sc.devices)}
	c.last = c.in.core(sc.cell, sc.mean, nil, nil, 0).Run(sc.window)
	return c, nil
}

func (c *city) run(w *window, tr *tracer, seconds float64) error {
	start := time.Now()
	for time.Since(start).Seconds() < seconds {
		c.req++
		var ms0 runtime.MemStats
		var sp active
		if tr != nil {
			runtime.ReadMemStats(&ms0)
			sp = tr.begin(spCityRequest, nil, c.req)
		}
		t0 := time.Now()
		core := c.in.core(c.sc.cell, c.sc.mean, tr, &sp, c.req)
		var rs active
		if tr != nil {
			rs = tr.begin(spSoaRun, &sp, c.req)
		}
		st := core.Run(c.sc.window)
		if tr != nil {
			tr.end(&rs)
		}
		w.latencies = append(w.latencies, msSince(t0))
		if tr != nil {
			tr.end(&sp)
			var ms1 runtime.MemStats
			runtime.ReadMemStats(&ms1)
			c.bytesDev = float64(ms1.TotalAlloc-ms0.TotalAlloc) / float64(st.Devices)
		}
		if c.last != nil && !sameRunStats(c.last, st) {
			return fmt.Errorf("run %d of the same city gave different results", c.runs+1)
		}
		c.last = st
		c.runs++
		w.ops += st.TotalTx
		w.markRound(w.ops)
	}
	return nil
}

// sameRunStats compares everything a run reports except its cell count.
func sameRunStats(a, b *soa.RunStats) bool {
	if a.Devices != b.Devices || a.Gateways != b.Gateways || a.Epochs != b.Epochs || a.TotalTx != b.TotalTx {
		return false
	}
	ids := a.Networks()
	if len(ids) != len(b.Networks()) {
		return false
	}
	for _, id := range ids {
		if a.Network(id) != b.Network(id) {
			return false
		}
	}
	return true
}

func (c *city) check() error {
	if c.last == nil {
		return fmt.Errorf("no run completed")
	}
	if err := c.in.checkStats(c.last, c.sc.window); err != nil {
		return err
	}
	// A reduced population at a short send interval, where the duty
	// cycle binds, sharded and as one cell: the core promises identical
	// results for any grid.
	red := makeCity(c.in.seed, c.sc.reduced)
	sharded := red.core(c.sc.cell, c.sc.dutyMean, nil, nil, 0).Run(c.sc.window)
	single := red.core(2*red.side, c.sc.dutyMean, nil, nil, 0).Run(c.sc.window)
	if single.Cells != 1 {
		return fmt.Errorf("single-cell cross-check ran on %d cells", single.Cells)
	}
	if !sameRunStats(sharded, single) {
		return fmt.Errorf("sharded run of %d devices differs from the single-cell run", c.sc.reduced)
	}
	return red.checkStats(sharded, c.sc.window)
}

// checkStats checks outcome conservation and the duty-cycle bound of
// every network of a run.
func (in *cityInputs) checkStats(st *soa.RunStats, until des.Time) error {
	for _, id := range st.Networks() {
		s := st.Network(id)
		lost := 0
		for _, l := range s.Losses {
			lost += l
		}
		if s.Sent != s.Received+lost {
			return fmt.Errorf("network %d: sent %d != received %d + lost %d", id, s.Sent, s.Received, lost)
		}
		if bound := in.maxSends(id, until); s.Sent > bound {
			return fmt.Errorf("network %d: %d transmissions exceed the 1%% duty-cycle bound %d", id, s.Sent, bound)
		}
	}
	if st.TotalTx == 0 {
		return fmt.Errorf("no transmissions")
	}
	return nil
}

func (c *city) layers(tr *tracer, w *window, m metricSet) {
	st := c.last
	n := float64(tr.count(spSoaRun))
	m.put("soa.build_ms", float64(tr.totalNs(spSoaBuild))/n/1e6, "ms")
	m.put("soa.seal_ms", float64(tr.totalNs(spSoaSeal))/n/1e6, "ms")
	m.put("soa.run_ms", float64(tr.totalNs(spSoaRun))/n/1e6, "ms")
	m.put("soa.us_per_tx", float64(tr.totalNs(spSoaRun))/n/1e3/float64(st.TotalTx), "us")
	m.put("soa.bytes_per_device", c.bytesDev, "B")
	m.put("soa.tx", float64(st.TotalTx), "count")
	m.put("soa.epochs", float64(st.Epochs), "count")
	m.put("soa.cells", float64(st.Cells), "count")
	m.put("soa.prr", st.Network(0).PRR(), "ratio")
}

func (c *city) close() {}
