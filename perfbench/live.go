package main

import (
	"bufio"
	"encoding/base64"
	"encoding/binary"
	"fmt"
	"math/rand"
	"net"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/alphawan/alphawan/internal/adr"
	"github.com/alphawan/alphawan/internal/des"
	"github.com/alphawan/alphawan/internal/frame"
	"github.com/alphawan/alphawan/internal/lora"
	"github.com/alphawan/alphawan/internal/netserver"
	"github.com/alphawan/alphawan/internal/region"
	"github.com/alphawan/alphawan/internal/udpfwd"
)

// live-ingest: real UDP over the loopback interface into a
// udpfwd.BatchBridge, then a netserver wired the way alphawan-server
// wires it (ADR on, RX1 anchors noted per copy, MAC-command downlinks
// through the PULL path). An open-loop generator offers a fixed rate of
// gateway copies, well below saturation: 10-byte payloads, 1–8 rxpks
// per PUSH_DATA datagram, every frame heard by 2–3 gateway EUIs. A
// request is one frame, timed from when its first copy was due to be
// sent until the server served it. An operation is one served frame.

type liveScale struct {
	devices  int
	gateways int
	copies   int           // offered gateway copies per second
	round    time.Duration // length of one round of the traffic template
	warm     int           // rounds offered during set-up
}

func liveSizes(smoke bool) liveScale {
	if smoke {
		return liveScale{devices: 400, gateways: 4, copies: 4000, round: 100 * time.Millisecond, warm: 1}
	}
	return liveScale{devices: 20000, gateways: 16, copies: 50000, round: 100 * time.Millisecond, warm: 1}
}

// liveDatagram is one PUSH_DATA of the round template: the gateway that
// sends it, the round's frames it carries, and when it is due, as an
// offset into the round.
type liveDatagram struct {
	gw     int
	frames []int32
	due    time.Duration
}

type live struct {
	sc     liveScale
	seed   int64
	frames int // per round
	tmpl   []liveDatagram
	// frameDue is each round frame's offset into the round: when the
	// first datagram carrying it is due.
	frameDue []time.Duration
	// frameAt is each round frame's on-air time, the tmst its copies carry.
	frameAt []time.Duration
	datr    [lora.NumDRs]string
	// lsnr is the best copy's SNR per data rate: 1 dB above the rate's
	// demodulation floor plus ADR's installation margin, inside ADR's
	// 3 dB step, as in a network whose ADR has converged. ADR then runs
	// on every frame but changes nothing, so the load stays stationary.
	lsnr [lora.NumDRs]float64

	srv    *netserver.Server
	bridge *udpfwd.BatchBridge
	conn   *net.UDPConn
	send   *udpfwd.MultiSender
	acks   sync.WaitGroup
	encs   []*frame.Encoder
	epoch  time.Time
	snmp0  int64

	// next is the global index of the next round's first frame.
	next int64
	// cur holds the frames of the offer in progress; the bridge workers
	// stamp them served.
	cur atomic.Pointer[liveFrames]

	offeredFrames, offeredCopies int64
	handled                      atomic.Int64 // copies the handler finished
	windowCopies                 int64
	badPayload, doubleServed     atomic.Int64

	tr      atomic.Pointer[tracer]
	genLag  []float64 // ms, one per datagram of the traced window
	lastLat []float64
	seen    lastSeen
}

// liveFrames are the frames of one offer: due and served times in ns
// since the epoch (0 = not served), indexed from base.
type liveFrames struct {
	base     int64
	dueNs    []int64
	servedNs []atomic.Int64
	served   atomic.Int64
}

// lastSeen remembers, per device, the gateway copy that heard it last:
// the anchor of its RX1 downlink.
type lastSeen struct {
	mu  sync.Mutex
	gws map[frame.DevAddr]udpfwd.UplinkFrame
}

func (l *lastSeen) note(addr frame.DevAddr, up *udpfwd.UplinkFrame) {
	u := *up
	u.Raw = nil // the bridge's scratch buffer
	l.mu.Lock()
	l.gws[addr] = u
	l.mu.Unlock()
}

func (l *lastSeen) get(addr frame.DevAddr) (udpfwd.UplinkFrame, bool) {
	l.mu.Lock()
	u, ok := l.gws[addr]
	l.mu.Unlock()
	return u, ok
}

const liveAddrBase = 0x02000000

func liveAddr(d int) frame.DevAddr { return frame.DevAddr(liveAddrBase | uint32(d+1)) }

// liveKeys derives device d's session keys from the seed.
func liveKeys(seed int64, d int) (nwk, app frame.AESKey, err error) {
	var appKey frame.AESKey
	binary.LittleEndian.PutUint64(appKey[:8], uint64(seed))
	appKey[15] = 0x2b
	return frame.DeriveSessionKeys(appKey, [3]byte{0x01}, [3]byte{0x13}, uint16(d))
}

func setupLive(cfg config, tr *tracer) (instance, error) {
	sc := liveSizes(cfg.smoke)
	l := &live{sc: sc, seed: cfg.seed, epoch: time.Now(), seen: lastSeen{gws: map[frame.DevAddr]udpfwd.UplinkFrame{}}}
	for dr := range l.datr {
		l.datr[dr] = udpfwd.DatrString(lora.DR(dr))
		l.lsnr[dr] = lora.DemodFloorSNR(lora.DR(dr).SF()) + adr.DefaultInstallationMargin + 1
	}
	l.makeTemplate(rand.New(rand.NewSource(cfg.seed)))

	l.srv = netserver.New()
	l.srv.ADREnabled = true
	l.encs = make([]*frame.Encoder, sc.devices)
	for d := 0; d < sc.devices; d++ {
		nwk, app, err := liveKeys(cfg.seed, d)
		if err != nil {
			return nil, fmt.Errorf("derive keys: %w", err)
		}
		l.srv.Register(liveAddr(d), nwk, app, lora.DR(d%lora.NumDRs), 0)
		l.encs[d] = frame.NewEncoder(nwk, &app)
	}
	l.srv.Served.Subscribe(l.onServed)

	var err error
	l.bridge, err = udpfwd.NewBatchBridge("127.0.0.1:0", udpfwd.Options{
		Workers: runtime.NumCPU(),
		Handler: l.handle,
	})
	if err != nil {
		return nil, fmt.Errorf("bridge: %w", err)
	}
	l.srv.Commands.Subscribe(l.downlink)
	if l.conn, err = net.DialUDP("udp", nil, l.bridge.Addr()); err != nil {
		l.bridge.Close()
		return nil, fmt.Errorf("generator socket: %w", err)
	}
	// The acks of ~20k datagrams/s must not overflow the default buffer
	// while the drain goroutine waits for a CPU.
	if err := l.conn.SetReadBuffer(4 << 20); err != nil {
		l.close()
		return nil, fmt.Errorf("generator socket: %w", err)
	}
	l.send = udpfwd.NewMultiSender(l.conn)
	rx := udpfwd.NewMultiReceiver(l.conn)
	l.acks.Add(1)
	go func() {
		// Drain PUSH_ACKs and downlinks until the socket closes.
		defer l.acks.Done()
		for {
			if _, err := rx.Recv(); err != nil {
				return
			}
		}
	}()
	// Every gateway opens its downlink path, as a forwarder does.
	for g := 0; g < sc.gateways; g++ {
		pull := make([]byte, 12)
		pull[0], pull[3] = 2, byte(udpfwd.PullData)
		binary.BigEndian.PutUint64(pull[4:], uint64(g+1))
		if _, err := l.conn.Write(pull); err != nil {
			l.close()
			return nil, fmt.Errorf("pull data: %w", err)
		}
	}
	l.snmp0, _ = udpRcvbufErrors()
	w := &window{}
	if err := l.offer(w, sc.warm); err != nil {
		l.close()
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	if w.failed > 0 {
		l.close()
		return nil, fmt.Errorf("warm-up: %d of %d frames not served", w.failed, w.ops+w.failed)
	}
	return l, nil
}

// makeTemplate lays out one round of traffic: frames evenly spaced, each
// heard by 2–3 distinct gateways, every gateway batching what it hears
// into datagrams of 1–8 rxpks. A batch goes out when it is full, due at
// its last frame's time; batches still open at the round's end go out
// then. Rounds repeat the template with fresh frames.
func (l *live) makeTemplate(rng *rand.Rand) {
	sc := l.sc
	l.frames = int(float64(sc.copies)*sc.round.Seconds()/2.5 + 0.5)
	open := make([][]int32, sc.gateways)
	want := make([]int, sc.gateways)
	for g := range want {
		want[g] = 1 + rng.Intn(8)
	}
	l.frameAt = make([]time.Duration, l.frames)
	for i := 0; i < l.frames; i++ {
		at := time.Duration(i) * sc.round / time.Duration(l.frames)
		l.frameAt[i] = at
		gws := rng.Perm(sc.gateways)[:2+rng.Intn(2)]
		sort.Ints(gws)
		for _, g := range gws {
			open[g] = append(open[g], int32(i))
			if len(open[g]) == want[g] {
				l.tmpl = append(l.tmpl, liveDatagram{gw: g, frames: open[g], due: at})
				open[g], want[g] = nil, 1+rng.Intn(8)
			}
		}
	}
	for g, fs := range open {
		if len(fs) > 0 {
			l.tmpl = append(l.tmpl, liveDatagram{gw: g, frames: fs, due: l.frameAt[fs[len(fs)-1]]})
		}
	}
	sort.SliceStable(l.tmpl, func(a, b int) bool { return l.tmpl[a].due < l.tmpl[b].due })
	l.frameDue = make([]time.Duration, l.frames)
	for i := range l.frameDue {
		l.frameDue[i] = -1
	}
	for _, dg := range l.tmpl {
		for _, f := range dg.frames {
			if l.frameDue[f] < 0 {
				l.frameDue[f] = dg.due
			}
		}
	}
}

// handle is the bridge handler, as alphawan-server has it: note the RX1
// anchor of the device, then hand the copy to the server.
func (l *live) handle(up *udpfwd.UplinkFrame) {
	meta := netserver.UplinkMeta{
		Gateway: int(up.EUI), Freq: region.Hz(up.FreqHz), DR: up.DR,
		RSSIdBm: float64(up.RSSIdBm), SNRdB: up.SNRdB, At: des.Time(up.Tmst),
	}
	if len(up.Raw) >= 5 {
		addr := frame.DevAddr(uint32(up.Raw[1]) | uint32(up.Raw[2])<<8 |
			uint32(up.Raw[3])<<16 | uint32(up.Raw[4])<<24)
		l.seen.note(addr, up)
	}
	if tr := l.tr.Load(); tr != nil {
		sp := tr.begin(spHandle, nil, 0)
		l.srv.HandleUplink(up.Raw, meta)
		tr.end(&sp)
	} else {
		l.srv.HandleUplink(up.Raw, meta)
	}
	l.handled.Add(1)
}

// downlink sends a MAC-command batch as an RX1 downlink through the
// gateway that last heard the device.
func (l *live) downlink(c netserver.Command) {
	up, ok := l.seen.get(c.Dev.Addr)
	if !ok {
		return
	}
	raw, err := l.srv.BuildCommandDownlink(c.Dev, c.Cmds)
	if err != nil {
		return
	}
	l.bridge.SendDownlink(up.EUI, udpfwd.TXPK{
		Tmst: up.Tmst + uint32(netserver.RX1Delay/des.Microsecond),
		Freq: float64(up.FreqHz) / 1e6, RFCh: up.RFCh, Powe: 14, Modu: "LORA",
		Datr: udpfwd.DatrString(up.DR), CodR: "4/5", Size: len(raw), Data: udpfwd.EncodeData(raw),
	})
}

// payload is frame gi's plaintext: its index and a seeded check word.
func (l *live) payload(dst []byte, gi int64) []byte {
	dst = binary.LittleEndian.AppendUint64(dst[:0], uint64(gi))
	return binary.LittleEndian.AppendUint16(dst, uint16(des.StreamSeed(l.seed, gi)))
}

// onServed runs on the bridge workers for every frame the server
// delivers: check the payload and stamp the frame served.
func (l *live) onServed(d netserver.Data) {
	now := int64(time.Since(l.epoch))
	if len(d.Payload) != 10 {
		l.badPayload.Add(1)
		return
	}
	gi := int64(binary.LittleEndian.Uint64(d.Payload))
	var want [10]byte
	if string(l.payload(want[:0], gi)) != string(d.Payload) || d.Dev.Addr != liveAddr(int(gi%int64(l.sc.devices))) {
		l.badPayload.Add(1)
		return
	}
	fs := l.cur.Load()
	i := gi - fs.base
	if i < 0 || i >= int64(len(fs.servedNs)) {
		l.badPayload.Add(1)
		return
	}
	if !fs.servedNs[i].CompareAndSwap(0, now) {
		l.doubleServed.Add(1)
		return
	}
	fs.served.Add(1)
}

// encoded is one frame's base64 PHYPayload, shared by its copies.
type encoded struct {
	data []byte
	size int
	dr   lora.DR
	ch   region.Channel
}

// offer sends rounds of traffic open-loop, then waits until every frame
// is served or a two-second grace has passed. Frames still unserved
// count as failed; served ones as operations with their latency.
func (l *live) offer(w *window, rounds int) error {
	tr := l.tr.Load()
	n := int64(rounds * l.frames)
	fs := &liveFrames{base: l.next, dueNs: make([]int64, n), servedNs: make([]atomic.Int64, n)}
	l.cur.Store(fs)
	copies0 := l.offeredCopies

	enc := make([]encoded, l.frames)
	var (
		raw, pay [64]byte
		bufs     [][]byte
		spare    [][]byte
		fr       frame.Frame
		fport    uint8 = 1
		// sp spans the generator's work on one batch, from building its
		// first datagram to the send returning.
		sp active
	)
	flush := func() error {
		if len(bufs) == 0 {
			return nil
		}
		err := l.send.Send(bufs)
		if tr != nil {
			tr.end(&sp)
		}
		spare = append(spare, bufs...)
		bufs = bufs[:0]
		return err
	}
	t0 := time.Now().Add(time.Millisecond)
	off := int64(t0.Sub(l.epoch))
	for r := 0; r < rounds; r++ {
		if r > 0 {
			w.markRound(w.ops + fs.served.Load())
		}
		first := l.next + int64(r*l.frames)
		roundAt := time.Duration(r) * l.sc.round
		for i := range enc {
			enc[i].data = enc[i].data[:0]
			fs.dueNs[int64(r*l.frames+i)] = off + int64(roundAt+l.frameDue[i])
		}
		for k := range l.tmpl {
			dg := &l.tmpl[k]
			due := t0.Add(roundAt + dg.due)
			if wait := time.Until(due); wait > 0 {
				if err := flush(); err != nil {
					return fmt.Errorf("send: %w", err)
				}
				time.Sleep(wait)
			}
			if tr != nil {
				l.genLag = append(l.genLag, float64(time.Since(due))/float64(time.Millisecond))
				if len(bufs) == 0 {
					sp = tr.begin(spGenSend, nil, 0)
				}
			}
			var buf []byte
			if len(spare) > 0 {
				buf, spare = spare[len(spare)-1][:0], spare[:len(spare)-1]
			}
			buf = append(buf, 2, byte(k>>8), byte(k), byte(udpfwd.PushData))
			buf = binary.BigEndian.AppendUint64(buf, uint64(dg.gw+1))
			buf = append(buf, `{"rxpk":[`...)
			for c, f := range dg.frames {
				e := &enc[f]
				gi := first + int64(f)
				if len(e.data) == 0 {
					d := int(gi % int64(l.sc.devices))
					fr = frame.Frame{
						MType: frame.UnconfirmedDataUp, DevAddr: liveAddr(d), ADR: true,
						FCnt: uint32(gi / int64(l.sc.devices)), FPort: &fport,
						Payload: l.payload(pay[:0], gi),
					}
					b, err := l.encs[d].EncodeTo(raw[:0], &fr)
					if err != nil {
						return fmt.Errorf("encode frame %d: %w", gi, err)
					}
					e.data = base64.StdEncoding.AppendEncode(e.data, b)
					e.size = len(b)
					e.dr = lora.DR(d % lora.NumDRs)
					e.ch = region.Testbed.Channel(int(gi % int64(region.Testbed.Channels)))
				}
				if c > 0 {
					buf = append(buf, ',')
				}
				tmst := uint32((off + int64(roundAt+l.frameAt[f])) / int64(time.Microsecond))
				buf = append(buf, `{"tmst":`...)
				buf = strconv.AppendUint(buf, uint64(tmst), 10)
				buf = append(buf, `,"freq":`...)
				buf = strconv.AppendFloat(buf, float64(e.ch.Center)/1e6, 'f', -1, 64)
				buf = append(buf, `,"chan":`...)
				buf = strconv.AppendInt(buf, int64(dg.gw%8), 10)
				buf = append(buf, `,"rfch":0,"stat":1,"modu":"LORA","datr":"`...)
				buf = append(buf, l.datr[e.dr]...)
				buf = append(buf, `","codr":"4/5","rssi":`...)
				buf = strconv.AppendInt(buf, int64(-60-dg.gw), 10)
				buf = append(buf, `,"lsnr":`...)
				buf = strconv.AppendFloat(buf, l.lsnr[e.dr]-float64(c%3)/2, 'f', 1, 64)
				buf = append(buf, `,"size":`...)
				buf = strconv.AppendInt(buf, int64(e.size), 10)
				buf = append(buf, `,"data":"`...)
				buf = append(buf, e.data...)
				buf = append(buf, `"}`...)
				l.offeredCopies++
			}
			buf = append(buf, "]}"...)
			bufs = append(bufs, buf)
			if len(bufs) == 16 {
				if err := flush(); err != nil {
					return fmt.Errorf("send: %w", err)
				}
			}
		}
	}
	if err := flush(); err != nil {
		return fmt.Errorf("send: %w", err)
	}
	l.next += n
	l.offeredFrames += n
	l.windowCopies = l.offeredCopies - copies0
	deadline := t0.Add(time.Duration(rounds)*l.sc.round + 2*time.Second)
	// The window ends when every copy has been handled, so no handler
	// span is still open when the trace is read.
	for (fs.served.Load() < n || l.handled.Load() < l.offeredCopies) && time.Now().Before(deadline) {
		time.Sleep(200 * time.Microsecond)
	}
	got := fs.served.Load()
	w.ops += got
	w.failed += n - got
	lat := make([]float64, 0, got)
	for i := range fs.servedNs {
		if s := fs.servedNs[i].Load(); s != 0 {
			lat = append(lat, float64(s-fs.dueNs[i])/float64(time.Millisecond))
		}
	}
	w.latencies = append(w.latencies, lat...)
	l.lastLat = lat
	return nil
}

func (l *live) run(w *window, tr *tracer, seconds float64) error {
	l.tr.Store(tr)
	defer l.tr.Store(nil)
	rounds := int(seconds/l.sc.round.Seconds() + 0.999999)
	return l.offer(w, rounds)
}

// udpRcvbufErrors reads the kernel's count of UDP datagrams dropped for
// a full receive buffer (network-namespace wide).
func udpRcvbufErrors() (int64, error) {
	f, err := os.Open("/proc/net/snmp")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	var head []string
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 || fields[0] != "Udp:" {
			continue
		}
		if head == nil {
			head = fields
			continue
		}
		for i, h := range head {
			if h == "RcvbufErrors" && i < len(fields) {
				return strconv.ParseInt(fields[i], 10, 64)
			}
		}
	}
	return 0, fmt.Errorf("no Udp RcvbufErrors in /proc/net/snmp")
}

func (l *live) check() error {
	st := l.srv.Stats()
	bst := l.bridge.Stats()
	if err := l.checkCounters(st, bst); err != nil {
		return fmt.Errorf("%w (server %+v, bridge %+v)", err, st, bst)
	}
	if n, err := udpRcvbufErrors(); err == nil && n != l.snmp0 {
		return fmt.Errorf("kernel dropped %d UDP datagrams for a full receive buffer", n-l.snmp0)
	}
	return nil
}

func (l *live) checkCounters(st netserver.ServerStats, bst udpfwd.BridgeStats) error {
	switch {
	case l.badPayload.Load() > 0:
		return fmt.Errorf("%d served frames carried a payload the generator did not encrypt", l.badPayload.Load())
	case l.doubleServed.Load() > 0:
		return fmt.Errorf("%d frames served twice", l.doubleServed.Load())
	case int64(st.Delivered) != l.offeredFrames:
		return fmt.Errorf("server delivered %d frames, generator offered %d", st.Delivered, l.offeredFrames)
	case int64(st.Uplinks) != l.offeredCopies:
		return fmt.Errorf("server handled %d copies, generator offered %d", st.Uplinks, l.offeredCopies)
	case st.Duplicates != st.Uplinks-st.Delivered:
		return fmt.Errorf("duplicates %d != copies %d - frames %d", st.Duplicates, st.Uplinks, st.Delivered)
	case st.BadMIC != 0 || st.Replays != 0 || st.Unknown != 0:
		return fmt.Errorf("bad MIC %d, replays %d, unknown devices %d", st.BadMIC, st.Replays, st.Unknown)
	case bst.ParseErrors != 0 || bst.OverloadDrops != 0:
		return fmt.Errorf("parse errors %d, overload drops %d", bst.ParseErrors, bst.OverloadDrops)
	}
	return nil
}

func (l *live) layers(tr *tracer, w *window, m metricSet) {
	st := l.srv.Stats()
	bst := l.bridge.Stats()
	copies := float64(l.windowCopies)
	bridgeNs := float64(w.cpu()) - float64(tr.totalNs(spHandle)) - float64(tr.totalNs(spGenSend))
	m.put("udpfwd.bridge_us_per_copy", bridgeNs/copies/1e3, "us")
	m.put("udpfwd.fallback_ratio", float64(bst.Fallbacks)/float64(bst.Datagrams), "ratio")
	m.put("udpfwd.overload_drops", float64(bst.OverloadDrops), "count")
	m.put("netserver.dup_ratio", float64(st.Duplicates)/float64(st.Uplinks), "ratio")
	m.put("netserver.handle_us", tr.meanUs(spHandle), "us")
	m.put("gen.send_us", float64(tr.totalNs(spGenSend))/float64(len(l.genLag))/1e3, "us")
	m.put("gen.lag_ms", median(l.genLag), "ms")
	lat := l.lastLat
	m.put("live.p99_ms", percentile(lat, 99), "ms")
	m.put("live.max_ms", percentile(lat, 100), "ms")
}

func (l *live) close() {
	if l.bridge != nil {
		l.bridge.DrainUplinks()
		l.bridge.Close()
	}
	if l.conn != nil {
		l.conn.Close()
		l.acks.Wait()
	}
}
