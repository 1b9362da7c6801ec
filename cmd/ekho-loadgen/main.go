// Command ekho-loadgen load-tests the hub's batched wire path over live
// kernel UDP. It hosts an ekho hub on a real socket in-process (so the
// dispatch-latency histogram and shed counters are readable), launches a
// fleet of synthetic player sessions on pooled UDP client sockets —
// every session echoes attenuated chat audio with piggybacked playback
// records, exactly like a real ekho-client — and ramps the session count
// in stages until the p99 dispatch latency or the shed rate breaches its
// threshold. The last sustained stage becomes the capacity baseline.
//
// The run also times the decode→dispatch→process path alone on an
// in-process hub, yielding ns/packet and allocs/packet without sockets
// or DSP. Everything is written as JSON (default BENCH_hub.json), the
// hub perf baseline future PRs diff against:
//
//	ekho-loadgen -out BENCH_hub.json
//	ekho-loadgen -start 4 -step 4 -max-sessions 8 -stage 500ms \
//	    -compare-packets 50000 -out BENCH_hub.json   # CI smoke
//
// All traffic crosses the kernel loopback (real syscalls, real socket
// buffers); only the stats plumbing is in-process. Client work shares
// the machine with the hub, so allocs/packet is process-wide and
// sessions/core is a conservative lower bound.
//
// -wire ramps the fleet once per listed framing (v2, rtp): the report's
// top-level ramp/stages stay the first framing's results (the stable
// baseline diff surface) and every framing lands under "ramps" with its
// wire tag. -admin ADDR serves the hub's /metrics and /sessions
// endpoints during the ramp, so CI can assert the observability plane
// answers under load.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ekho"
	"ekho/internal/audio"
	"ekho/internal/codec"
	"ekho/internal/hub"
	"ekho/internal/rtp"
	"ekho/internal/transport"
)

const frameSec = float64(ekho.FrameSamples) / ekho.SampleRate

// batchLen sizes the client-side receive batches and their reusable
// chat-buffer pools (matches the hub's internal arena batch).
const batchLen = 64

func main() {
	listen := flag.String("listen", "127.0.0.1:0", "UDP address the in-process hub listens on")
	start := flag.Int("start", 8, "sessions in the first ramp stage")
	step := flag.Int("step", 8, "sessions added per stage")
	maxSessions := flag.Int("max-sessions", 256, "stop ramping at this many sessions")
	stage := flag.Duration("stage", 2*time.Second, "measured duration of each stage")
	settle := flag.Duration("settle", 500*time.Millisecond, "unmeasured settle time after adding sessions")
	maxP99 := flag.Duration("max-p99", 10*time.Millisecond, "p99 dispatch latency breach threshold")
	maxShed := flag.Float64("max-shed", 0.01, "shed-rate breach threshold (fraction of inbound packets)")
	pairs := flag.Int("sockets", 8, "client socket pairs (sessions are multiplexed across them)")
	shards := flag.Int("shards", 8, "hub shards")
	comparePackets := flag.Int("compare-packets", 200000, "packets in the in-process dispatch measurement (0 = skip)")
	out := flag.String("out", "BENCH_hub.json", "output JSON path (empty = stdout only)")
	wireList := flag.String("wire", "v2,rtp", "comma-separated wire framings to ramp (v2, rtp); the first is the baseline")
	admin := flag.String("admin", "", "serve the hub's /metrics and /sessions on this address during the ramp (empty = off)")
	verbose := flag.Bool("v", false, "log hub progress lines")
	flag.Parse()
	log.SetFlags(log.Ltime | log.Lmicroseconds)

	var wires []transport.Wire
	for _, name := range strings.Split(*wireList, ",") {
		w, ok := transport.ParseWire(strings.TrimSpace(name))
		if !ok {
			log.Fatalf("unknown -wire entry %q (want v2 or rtp)", name)
		}
		wires = append(wires, w)
	}

	report := Report{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		Host: Host{
			GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
			CPUs: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0),
		},
		Config: RunConfig{
			Start: *start, Step: *step, MaxSessions: *maxSessions,
			StageMS:     float64(*stage) / float64(time.Millisecond),
			MaxP99MS:    float64(*maxP99) / float64(time.Millisecond),
			MaxShedRate: *maxShed, SocketPairs: *pairs, Shards: *shards,
		},
	}

	if *comparePackets > 0 {
		log.Printf("timing in-process dispatch over %d packets...", *comparePackets)
		cmp, err := runCompare(*comparePackets, *shards)
		if err != nil {
			log.Fatalf("compare: %v", err)
		}
		report.Compare = cmp
		log.Printf("dispatch %.0f ns/pkt, %.3f allocs/pkt", cmp.BatchedNs, cmp.BatchedAllocsPerPacket)
	}

	for i, w := range wires {
		log.Printf("ramping over %s wire...", w)
		wr := WireRamp{Wire: w.String()}
		ramp, err := runRamp(rampConfig{
			listen: *listen, start: *start, step: *step, max: *maxSessions,
			stage: *stage, settle: *settle, maxP99: *maxP99, maxShed: *maxShed,
			pairs: *pairs, shards: *shards, wire: w, admin: *admin,
			verbose: *verbose,
		}, &wr.Stages)
		if err != nil {
			log.Fatalf("ramp (%s): %v", w, err)
		}
		wr.Ramp = ramp
		report.Ramps = append(report.Ramps, wr)
		if i == 0 {
			report.Ramp = ramp
			report.Stages = wr.Stages
		}
		log.Printf("[%s] sustained %d sessions (%.1f/core): p99 dispatch %.3f ms, %.0f pkt/s, shed %.4f, allocs/pkt %.3f [%s]",
			w, ramp.Sessions, ramp.SessionsPerCore, ramp.P99DispatchMS, ramp.PacketsPerSec,
			ramp.ShedRate, ramp.AllocsPerPacket, ramp.Stopped)
	}

	blob, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		log.Fatalf("marshal: %v", err)
	}
	blob = append(blob, '\n')
	if *out != "" {
		if err := os.WriteFile(*out, blob, 0o644); err != nil {
			log.Fatalf("write %s: %v", *out, err)
		}
		log.Printf("wrote %s", *out)
	}
	os.Stdout.Write(blob)
}

// Report is the BENCH_hub.json schema. Ramp/Stages hold the first
// listed wire's run (historically v2 — the surface older baselines
// diff against); Ramps carries every wire's run tagged by framing.
type Report struct {
	GeneratedAt string        `json:"generated_at"`
	Host        Host          `json:"host"`
	Config      RunConfig     `json:"config"`
	Compare     *Compare      `json:"compare,omitempty"`
	Ramp        StageResult   `json:"ramp"`
	Stages      []StageResult `json:"stages"`
	Ramps       []WireRamp    `json:"ramps,omitempty"`
}

// WireRamp is one full ramp over a single wire framing.
type WireRamp struct {
	Wire   string        `json:"wire"`
	Ramp   StageResult   `json:"ramp"`
	Stages []StageResult `json:"stages"`
}

// Host describes the machine the baseline was taken on.
type Host struct {
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	CPUs       int    `json:"cpus"`
	GoMaxProcs int    `json:"gomaxprocs"`
}

// RunConfig echoes the ramp parameters for reproducibility.
type RunConfig struct {
	Start       int     `json:"start_sessions"`
	Step        int     `json:"step_sessions"`
	MaxSessions int     `json:"max_sessions"`
	StageMS     float64 `json:"stage_ms"`
	MaxP99MS    float64 `json:"max_p99_ms"`
	MaxShedRate float64 `json:"max_shed_rate"`
	SocketPairs int     `json:"socket_pairs"`
	Shards      int     `json:"shards"`
}

// Compare holds the in-process dispatch measurement. Its JSON keys keep
// the names of the retired per-packet comparison, so older baselines
// still diff field by field.
type Compare struct {
	Packets                int     `json:"packets_per_path"`
	BatchedNs              float64 `json:"batched_ns_per_packet"`
	BatchedAllocsPerPacket float64 `json:"batched_allocs_per_packet"`
}

// StageResult is one measured ramp stage. AllocsPerPacket is
// process-wide (hub + synthetic clients), so it upper-bounds the hub's
// own rate; the hub-only guarantee is locked in by the AllocsPerRun
// tests in internal/hub and internal/transport.
type StageResult struct {
	Sessions        int     `json:"sessions"`
	SessionsPerCore float64 `json:"sessions_per_core"`
	P99DispatchMS   float64 `json:"p99_dispatch_ms"`
	PacketsPerSec   float64 `json:"packets_per_sec"`
	AllocsPerPacket float64 `json:"allocs_per_packet"`
	ShedRate        float64 `json:"shed_rate"`
	// Stopped says why the ramp ended at this stage: "p99-breach",
	// "shed-breach" or "max-sessions". Empty on intermediate stages.
	Stopped string `json:"stopped,omitempty"`
}

type rampConfig struct {
	listen        string
	start, step   int
	max           int
	stage, settle time.Duration
	maxP99        time.Duration
	maxShed       float64
	pairs, shards int
	wire          transport.Wire
	admin         string
	verbose       bool
}

// runRamp hosts the hub on live UDP, ramps the synthetic fleet and
// returns the last sustained stage (with Stopped set to the exit
// reason). Every measured stage is appended to stages.
func runRamp(cfg rampConfig, stages *[]StageResult) (StageResult, error) {
	conn, err := transport.Listen(cfg.listen)
	if err != nil {
		return StageResult{}, err
	}
	conn.SetDecoder(rtp.NewCodec()) // accept either framing, like ekho-server
	var ready atomic.Int64
	var logf hub.Logf
	if cfg.verbose {
		logf = log.Printf
	}
	h := hub.New(hub.Config{
		Capacity:       cfg.max,
		Shards:         cfg.shards,
		IdleTimeout:    -1, // the ramp owns session lifetime
		Codec:          codec.Lossless,
		Logf:           logf,
		OnSessionReady: func(id uint32) { ready.Add(1) },
	}, conn)
	serveErr := make(chan error, 1)
	go func() { serveErr <- h.Serve() }()
	defer h.Close()

	if cfg.admin != "" {
		mux := http.NewServeMux()
		h.RegisterAdmin(mux)
		srv := &http.Server{Addr: cfg.admin, Handler: mux}
		go func() {
			if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				log.Printf("admin server: %v", err)
			}
		}()
		defer srv.Close()
	}

	fleet, err := newFleet(cfg.pairs, conn.LocalAddr(), cfg.wire)
	if err != nil {
		return StageResult{}, err
	}
	defer fleet.close()

	last := StageResult{Stopped: "max-sessions"}
	target := 0
	for target < cfg.max {
		target += cfg.step
		if target > cfg.max {
			target = cfg.max
		}
		if last.Sessions == 0 && cfg.start > 0 {
			target = cfg.start
		}
		fleet.grow(target)
		if !waitReady(&ready, h, int64(target), 10*time.Second) {
			// Some sessions never came up (rejected or lost hellos):
			// measure what is actually streaming rather than aborting.
			log.Printf("stage %d: only %d/%d sessions ready (rejected %d)",
				target, ready.Load(), target, h.Stats().Rejected)
		}
		time.Sleep(cfg.settle)

		res := measureStage(h, int(ready.Load()), cfg.stage)
		*stages = append(*stages, res)
		log.Printf("stage %4d sessions: p99 %.3f ms, %.0f pkt/s, shed %.4f, allocs/pkt %.2f",
			res.Sessions, res.P99DispatchMS, res.PacketsPerSec, res.ShedRate, res.AllocsPerPacket)

		if res.P99DispatchMS > float64(cfg.maxP99)/float64(time.Millisecond) {
			res.Stopped = "p99-breach"
			if last.Sessions == 0 {
				last = res // breached on the very first stage
			} else {
				last.Stopped = res.Stopped
			}
			(*stages)[len(*stages)-1] = res
			break
		}
		if res.ShedRate > cfg.maxShed {
			res.Stopped = "shed-breach"
			if last.Sessions == 0 {
				last = res
			} else {
				last.Stopped = res.Stopped
			}
			(*stages)[len(*stages)-1] = res
			break
		}
		res.Stopped = ""
		last = res
		last.Stopped = "max-sessions"
		select {
		case err := <-serveErr:
			return StageResult{}, fmt.Errorf("hub exited mid-ramp: %w", err)
		default:
		}
	}
	return last, nil
}

// waitReady blocks until `want` sessions are streaming, or some were
// rejected, or the timeout expires.
func waitReady(ready *atomic.Int64, h *hub.Hub, want int64, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if ready.Load() >= want {
			return true
		}
		if ready.Load()+h.Stats().Rejected >= want {
			return false
		}
		time.Sleep(5 * time.Millisecond)
	}
	return ready.Load() >= want
}

// measureStage samples hub counters, the dispatch-latency histogram and
// process mallocs across one stage window.
func measureStage(h *hub.Hub, sessions int, d time.Duration) StageResult {
	var m0, m1 runtime.MemStats
	h0 := h.DispatchLatency()
	s0 := h.Stats()
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	time.Sleep(d)
	elapsed := time.Since(t0)
	runtime.ReadMemStats(&m1)
	hist := h.DispatchLatency().Sub(h0)
	s1 := h.Stats()

	pktsIn := s1.PacketsIn - s0.PacketsIn
	res := StageResult{
		Sessions:        sessions,
		SessionsPerCore: float64(sessions) / float64(runtime.NumCPU()),
		P99DispatchMS:   float64(hist.Quantile(0.99)) / float64(time.Millisecond),
		PacketsPerSec:   float64(pktsIn) / elapsed.Seconds(),
	}
	if pktsIn > 0 {
		res.AllocsPerPacket = float64(m1.Mallocs-m0.Mallocs) / float64(pktsIn)
		res.ShedRate = float64(s1.Shed-s0.Shed) / float64(pktsIn)
	}
	return res
}

// fleet multiplexes synthetic sessions over a pool of UDP socket pairs.
// Session i lives on pair i%len(pairs): its screen hello comes from the
// pair's screen socket and its controller hello from the ctrl socket, so
// the hub's replies demux by session id on shared sockets — the fan-in
// shape a real deployment's NAT'd clients produce.
type fleet struct {
	pairs []*sockPair
	next  uint32 // next session id to start (count started so far)
}

func newFleet(n int, server net.Addr, wire transport.Wire) (*fleet, error) {
	f := &fleet{}
	for i := 0; i < n; i++ {
		p, err := newSockPair(server, wire)
		if err != nil {
			f.close()
			return nil, err
		}
		f.pairs = append(f.pairs, p)
		p.start()
	}
	return f, nil
}

// grow starts sessions until `target` are running.
func (f *fleet) grow(target int) {
	for int(f.next) < target {
		f.next++
		id := f.next
		f.pairs[int(id)%len(f.pairs)].addSession(id)
	}
}

func (f *fleet) close() {
	for _, p := range f.pairs {
		p.close()
	}
	for _, p := range f.pairs {
		p.wg.Wait()
	}
}

// lgSession is one synthetic player's state: the screen loop overhears
// playback through an attenuated air path delayFrames later and echoes
// it as chat; the ctrl loop logs accessory playback records on a
// per-session offset clock (Ekho must work without clock sync).
type lgSession struct {
	id          uint32
	delayFrames int
	offset      float64
	enc         *codec.Encoder

	mu      sync.Mutex
	pending []transport.PlaybackRecord
	spare   []transport.PlaybackRecord
}

// sockPair is one pooled client socket pair plus the receive loops that
// serve every session multiplexed onto it. wenc picks the wire framing
// the pair speaks toward the hub (the hub replies in kind).
type sockPair struct {
	server net.Addr
	screen *transport.Conn
	ctrl   *transport.Conn
	wenc   transport.WireEncoder

	mu       sync.RWMutex
	sessions map[uint32]*lgSession

	wg sync.WaitGroup
}

func newSockPair(server net.Addr, wire transport.Wire) (*sockPair, error) {
	screen, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ctrl, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		screen.Close()
		return nil, err
	}
	// One stateful sniffing codec per receive loop (codecs are not
	// concurrency-safe across loops).
	screen.SetDecoder(rtp.NewCodec())
	ctrl.SetDecoder(rtp.NewCodec())
	var wenc transport.WireEncoder = transport.V2{}
	if wire == transport.WireRTP {
		wenc = rtp.Encoder{}
	}
	return &sockPair{
		server: server, screen: screen, ctrl: ctrl, wenc: wenc,
		sessions: make(map[uint32]*lgSession),
	}, nil
}

func (p *sockPair) start() {
	p.wg.Add(2)
	go func() { defer p.wg.Done(); p.screenLoop() }()
	go func() { defer p.wg.Done(); p.ctrlLoop() }()
}

func (p *sockPair) close() {
	p.screen.Close()
	p.ctrl.Close()
}

func (p *sockPair) addSession(id uint32) {
	s := &lgSession{
		id:          id,
		delayFrames: 4 + int(id%9), // 80-240 ms air delay, like the loopback fleet
		offset:      float64(id),   // deliberately unsynchronized clocks
		enc:         codec.NewEncoder(codec.Lossless),
	}
	p.mu.Lock()
	p.sessions[id] = s
	p.mu.Unlock()
	_ = p.screen.SendTo(p.wenc.AppendHello(nil, transport.Hello{Session: id, Role: transport.RoleScreen}), p.server)
	_ = p.ctrl.SendTo(p.wenc.AppendHello(nil, transport.Hello{Session: id, Role: transport.RoleController}), p.server)
}

func (p *sockPair) lookup(id uint32) *lgSession {
	p.mu.RLock()
	s := p.sessions[id]
	p.mu.RUnlock()
	return s
}

// ctrlLoop plays the accessory stream: every content-bearing frame
// yields a playback record on the session's local clock.
func (p *sockPair) ctrlLoop() {
	msgs := make([]transport.Message, batchLen)
	for {
		n, err := p.ctrl.RecvBatch(time.Now().Add(time.Second), msgs)
		if err != nil && n == 0 {
			if isTimeout(err) {
				continue
			}
			return
		}
		for i := range msgs[:n] {
			md := msgs[i].Media
			if msgs[i].Type != transport.TypeMedia || md.ContentStart < 0 {
				continue
			}
			s := p.lookup(msgs[i].Session)
			if s == nil {
				continue
			}
			at := s.offset + float64(md.Seq)*frameSec + float64(md.ContentOff)/ekho.SampleRate
			s.mu.Lock()
			s.pending = append(s.pending, transport.PlaybackRecord{
				ContentStart: md.ContentStart,
				LocalMicros:  int64(at * 1e6),
				N:            uint16(len(md.Samples)) - md.ContentOff,
			})
			s.mu.Unlock()
		}
	}
}

// screenLoop overhears screen playback: each frame is attenuated,
// encoded and echoed as chat with the session's pending playback records
// piggybacked, then the whole batch leaves in one SendBatch. Chat
// buffers are pooled per batch slot (each received frame produces at
// most one chat), so the loop is allocation-free in steady state.
func (p *sockPair) screenLoop() {
	const atten = 0.1
	msgs := make([]transport.Message, batchLen)
	chatBufs := make([][]byte, batchLen)
	outBufs := make([]transport.Packet, 0, batchLen)
	var mic []float64
	var encBuf []byte
	for {
		n, err := p.screen.RecvBatch(time.Now().Add(time.Second), msgs)
		if err != nil && n == 0 {
			if isTimeout(err) {
				continue
			}
			return
		}
		outBufs = outBufs[:0]
		for i := range msgs[:n] {
			if msgs[i].Type != transport.TypeMedia {
				continue
			}
			md := msgs[i].Media
			s := p.lookup(msgs[i].Session)
			if s == nil {
				continue
			}
			if cap(mic) < len(md.Samples) {
				mic = make([]float64, len(md.Samples))
			}
			buf := mic[:len(md.Samples)]
			for j, v := range md.Samples {
				buf[j] = audio.Int16ToFloat(v) * atten
			}
			pkt, err := s.enc.EncodeTo(encBuf[:0], buf)
			if err != nil {
				continue
			}
			encBuf = pkt
			adc := int64((s.offset + (float64(md.Seq)+float64(s.delayFrames))*frameSec) * 1e6)
			s.mu.Lock()
			recs := s.pending
			s.pending = s.spare[:0]
			s.spare = recs
			s.mu.Unlock()
			b, err := p.wenc.AppendChat(chatBufs[i][:0], transport.Chat{
				Seq: md.Seq, Session: s.id, ADCMicros: adc, Records: recs, Encoded: pkt})
			if err != nil {
				continue
			}
			chatBufs[i] = b
			outBufs = append(outBufs, transport.Packet{Buf: b, To: p.server})
		}
		if len(outBufs) > 0 {
			_, _ = p.screen.SendBatch(outBufs)
		}
	}
}

func isTimeout(err error) bool {
	if errors.Is(err, os.ErrDeadlineExceeded) {
		return true
	}
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// runCompare measures the decode→dispatch→process cost per packet
// against an in-process hub whose sessions treat media as a routing
// no-op — so the figure is pure wire-path overhead, not DSP.
// SessionInfos round-trips through every shard worker's queue, making it
// a processing barrier: the timed window includes full drain, so it
// measures throughput, not enqueue rate.
func runCompare(packets, shards int) (*Compare, error) {
	const sessions = 64
	mem := hub.NewMemNet()
	conn := mem.Endpoint("hub")
	h := hub.New(hub.Config{
		TickEvery: -1, IdleTimeout: -1, Capacity: sessions, Shards: shards,
	}, conn)
	serveErr := make(chan error, 1)
	go func() { serveErr <- h.Serve() }()
	defer h.Close()

	from := mem.Endpoint("loadgen").LocalAddr()
	samples := make([]int16, ekho.FrameSamples)
	for i := range samples {
		samples[i] = int16(i)
	}
	hellos := make([]transport.Message, sessions)
	raw := make([][]byte, sessions)
	for i := range raw {
		id := uint32(i + 1)
		hellos[i] = transport.Message{
			Type:    transport.TypeHello,
			Session: id,
			Hello:   transport.Hello{Session: id, Role: transport.RoleScreen},
			From:    from,
		}
		b, err := transport.EncodeMedia(transport.Media{
			Seq: uint32(i), Session: id, ContentStart: int64(i) * ekho.FrameSamples, Samples: samples})
		if err != nil {
			return nil, err
		}
		raw[i] = b
	}
	h.DispatchBatch(hellos)
	deadline := time.Now().Add(10 * time.Second)
	for h.Stats().Admitted < sessions {
		if time.Now().After(deadline) {
			return nil, errors.New("compare: sessions never admitted")
		}
		time.Sleep(time.Millisecond)
	}

	msgs := make([]transport.Message, batchLen)
	batched := func(n int) {
		for i := 0; i < n; i += batchLen {
			k := batchLen
			if rem := n - i; rem < k {
				k = rem
			}
			for j := 0; j < k; j++ {
				if err := transport.DecodeInto(&msgs[j], raw[(i+j)%sessions]); err != nil {
					panic(err)
				}
			}
			h.DispatchBatch(msgs[:k])
		}
		h.SessionInfos() // barrier: every worker has drained its queue
	}

	batched(packets / 10) // warm up

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	batched(packets)
	batchNs := float64(time.Since(t0)) / float64(packets)
	runtime.ReadMemStats(&m1)

	select {
	case err := <-serveErr:
		return nil, fmt.Errorf("compare hub exited: %w", err)
	default:
	}
	return &Compare{
		Packets:                packets,
		BatchedNs:              batchNs,
		BatchedAllocsPerPacket: float64(m1.Mallocs-m0.Mallocs) / float64(packets),
	}, nil
}
