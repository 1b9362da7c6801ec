package main

import (
	"bufio"
	"errors"
	"fmt"
	"math"
	"net"
	"os"
	"runtime"
	"time"

	"ekho"
	"ekho/internal/audio"
	"ekho/internal/codec"
	"ekho/internal/compensator"
	"ekho/internal/estimator"
	"ekho/internal/gamesynth"
	"ekho/internal/hub"
	"ekho/internal/jitterbuf"
	"ekho/internal/pn"
	"ekho/internal/rtp"
	"ekho/internal/serverpipe"
	"ekho/internal/transport"
)

// Traced-run sizes: the hub pass streams every slot of the workload for
// hubFrames ticks; the pipeline passes stream pipeSessions sessions for
// pipeFrames ticks (long enough for the first correction and the
// measurements after it); the allocation pass probes allocFrames ticks
// of one session after allocWarm ticks of warm-up.
const (
	hubFrames    = 300
	pipeSessions = 4
	pipeFrames   = 750
	allocWarm    = 300
	allocFrames  = 300
)

// batchLen sizes the hub pass's endpoint drains (the hub's arena batch).
const batchLen = 64

// chatReorderWindow mirrors the hub's per-session chat resequencer.
const chatReorderWindow = 4

// tracedResult is the traced run's per-layer ledger.
type tracedResult struct {
	problems []string

	// layers aggregates spans by name (self time, counts, allocations).
	layers map[string]*layerStat
	spans  int
	// overheadFrac is (traced − untraced) / untraced wall time of the
	// pipeline pass.
	overheadFrac float64
	// spanCostNS is the measured cost of one empty span; estFrac is
	// that cost times the traced passes' spans over their untraced time.
	spanCostNS float64
	estFrac    float64
	// dump holds the spans kept for writing out: the hub pass and the
	// first traced pipeline pass.
	dump [][]span

	hubDispatchNS  float64 // per chat packet, DispatchBatch through the barrier
	hubTickUS      float64 // per session, Tick through the barrier
	admitMS        float64 // median Hello → OnSessionReady
	admitKB        float64 // median heap bytes allocated per admission
	admitAllocs    float64 // median heap objects allocated per admission
	admissions     int
	pipeNewMS      float64 // median serverpipe.New
	bytesUp        float64 // mean chat datagram size
	bytesDown      float64 // mean media datagram size
	injected       int
	matched        int
	expired        int
	conceals       int
	detections     int
	actions        int
	reorder        jitterbuf.ReorderStats
	parityFrames   int
	parityEvents   int
	paritySessions int
}

// parityError reports a composed pipeline diverging from
// serverpipe.Pipeline: a failed output check, not a harness error.
type parityError string

func (e parityError) Error() string { return "parity: " + string(e) }

// check turns a parity failure into a failed check and passes any other
// error through.
func (t *tracedResult) check(err error) error {
	var pe parityError
	if errors.As(err, &pe) {
		t.problems = append(t.problems, pe.Error())
		return nil
	}
	return err
}

// layer names: one span kind per public entry point the run calls.
const (
	lScreen = iota
	lAccessory
	lInject
	lChat
	lResolve
	lRecord
	lConceal
	lDecode
	lFeed
	lOffer
	lReorder
	lTransportEnc
	lTransportDec
	lRTPEnc
	lRTPDec
	lHubTick
	lHubDispatch
	lHubAdmit
	nLayers
)

var layerNames = [nLayers]string{
	lScreen:       "serverpipe.screen",
	lAccessory:    "serverpipe.accessory",
	lInject:       "pn.inject",
	lChat:         "serverpipe.chat",
	lResolve:      "serverpipe.resolve",
	lRecord:       "serverpipe.record",
	lConceal:      "codec.conceal",
	lDecode:       "codec.decode",
	lFeed:         "estimator.feed",
	lOffer:        "compensator.offer",
	lReorder:      "jitterbuf.reorder",
	lTransportEnc: "transport.encode",
	lTransportDec: "transport.decode",
	lRTPEnc:       "rtp.encode",
	lRTPDec:       "rtp.decode",
	lHubTick:      "hub.tick",
	lHubDispatch:  "hub.dispatch",
	lHubAdmit:     "hub.admit",
}

// span is one timed call into a layer. Spans of one request share its
// (session, seq) id; parent is the enclosing span's index (-1 = root).
type span struct {
	layer      uint8
	parent     int32
	start, end int64 // ns; allocation mode: heap objects
	bytes      int64 // allocation mode: heap bytes across the call
	sess, seq  uint32
}

// tracer keeps spans in memory. Off, it records nothing. In allocation
// mode each span reads runtime.MemStats instead of the clock (too slow
// to time with, so it is a pass of its own).
type tracer struct {
	on, allocs bool
	spans      []span
	stack      []int32
	sess, seq  uint32
	ms         runtime.MemStats
}

func (t *tracer) begin(layer uint8) int32 {
	if !t.on {
		return -1
	}
	parent := int32(-1)
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{layer: layer, parent: parent, sess: t.sess, seq: t.seq})
	t.stack = append(t.stack, id)
	if t.allocs {
		runtime.ReadMemStats(&t.ms)
		t.spans[id].start, t.spans[id].bytes = int64(t.ms.Mallocs), int64(t.ms.TotalAlloc)
	} else {
		t.spans[id].start = now()
	}
	return id
}

func (t *tracer) end(id int32) {
	if id < 0 {
		return
	}
	if t.allocs {
		runtime.ReadMemStats(&t.ms)
		t.spans[id].end = int64(t.ms.Mallocs)
		t.spans[id].bytes = int64(t.ms.TotalAlloc) - t.spans[id].bytes
	} else {
		t.spans[id].end = now()
	}
	t.stack = t.stack[:len(t.stack)-1]
}

// layerStat aggregates one layer's spans.
type layerStat struct {
	count       int
	selfNS      float64
	inclusiveNS float64
	allocCalls  int
	selfAllocs  float64
	selfBytes   float64
}

// selfTimes folds spans into per-layer self figures: a span's self
// value is its own minus what its child spans cover.
func selfTimes(spans []span, into map[string]*layerStat, allocs bool) {
	child := make([]int64, len(spans))
	childBytes := make([]int64, len(spans))
	for _, s := range spans {
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
			if allocs {
				childBytes[s.parent] += s.bytes
			}
		}
	}
	for i, s := range spans {
		name := layerNames[s.layer]
		st := into[name]
		if st == nil {
			st = &layerStat{}
			into[name] = st
		}
		if allocs {
			st.allocCalls++
			st.selfAllocs += float64(s.end - s.start - child[i])
			st.selfBytes += float64(s.bytes - childBytes[i])
			continue
		}
		st.count++
		st.inclusiveNS += float64(s.end - s.start)
		st.selfNS += float64(s.end - s.start - child[i])
	}
}

// event is one pipeline EventSink callback with its arguments as raw
// bits, so two logs compare bit for bit.
type event struct {
	kind uint8
	i    int64
	f    [4]uint64
}

// eventLog records every EventSink callback.
type eventLog struct {
	ev                                         []event
	injected, matched, expired, conceals, meas int
	actions                                    int
}

func (l *eventLog) add(kind uint8, i int64, fs ...float64) {
	e := event{kind: kind, i: i}
	for k, f := range fs {
		e.f[k] = math.Float64bits(f)
	}
	l.ev = append(l.ev, e)
}

func (l *eventLog) MarkerInjected(c int64) { l.injected++; l.add(1, c) }
func (l *eventLog) MarkerMatched(c int64, t float64) {
	l.matched++
	l.add(2, c, t)
}
func (l *eventLog) MarkerExpired(c int64) { l.expired++; l.add(3, c) }
func (l *eventLog) ChatGapConcealed(seq uint32, t float64) {
	l.conceals++
	l.add(4, int64(seq), t)
}
func (l *eventLog) ISDMeasurement(now float64, m estimator.Measurement) {
	l.meas++
	l.add(5, 0, now, m.ISDSeconds, m.DetectionTime, m.MarkerTime)
}
func (l *eventLog) CompensationAction(now float64, a compensator.Action) {
	l.actions++
	l.add(6, int64(a.Stream)<<48|int64(a.InsertFrames)<<32|int64(a.SkipFrames)<<16, now,
		float64(a.InsertSamples), float64(a.SkipSamples))
}
func (l *eventLog) ResampleApplied(now float64, r compensator.Resample) {
	l.add(7, int64(r.Stream), now, r.PPM)
}

// composed is one session's server core assembled from serverpipe's
// exported parts and the layer packages, call for call as
// serverpipe.Pipeline runs its level-only loop, with a span around each
// layer call.
type composed struct {
	t         *tracer
	screen    *serverpipe.Stream
	accessory *serverpipe.Stream
	injector  *pn.Injector
	est       *estimator.Streamer
	comp      *compensator.Compensator
	dec       *codec.Decoder
	ledger    serverpipe.MarkerLedger
	book      serverpipe.RecordBook
	seqr      serverpipe.ChatSequencer
	sink      serverpipe.EventSink

	codecDelaySec float64
	lastChatEnd   float64
	frames        int
	chatBuf       []float64
}

func newComposed(cfg serverpipe.Config, t *tracer) *composed {
	cfg = cfg.Normalized()
	c := &composed{
		t:             t,
		screen:        serverpipe.NewStream(cfg.Game),
		accessory:     serverpipe.NewStream(cfg.Game),
		injector:      pn.NewInjector(cfg.Seq, cfg.MarkerC),
		est:           estimator.NewStreamer(estimator.Config{Seq: cfg.Seq, Detector: cfg.Detector}),
		comp:          compensator.New(cfg.Compensator),
		dec:           codec.NewDecoder(cfg.Codec),
		seqr:          serverpipe.NewChatSequencer(cfg.ChatStartsAtZero),
		sink:          cfg.Sink,
		codecDelaySec: float64(cfg.Codec.Delay()) / audio.SampleRate,
	}
	if cfg.InjectorLogLimit > 0 {
		c.injector.SetLogLimit(cfg.InjectorLogLimit)
	}
	return c
}

func (c *composed) now() float64 {
	return float64(c.frames) * (float64(audio.FrameSamples) / audio.SampleRate)
}

func (c *composed) nextScreen(dst []float64) serverpipe.FrameInfo {
	sp := c.t.begin(lScreen)
	fi := c.screen.Next(dst)
	before := c.injector.InjectionCount()
	ip := c.t.begin(lInject)
	c.injector.ProcessFrame(dst)
	c.t.end(ip)
	if c.injector.InjectionCount() > before {
		mc := fi.ContentStart
		if mc < 0 {
			mc = c.screen.NextContent()
		}
		c.ledger.Add(mc)
		c.sink.MarkerInjected(mc)
	}
	c.frames++
	c.t.end(sp)
	return fi
}

func (c *composed) nextAccessory(dst []float64) serverpipe.FrameInfo {
	sp := c.t.begin(lAccessory)
	fi := c.accessory.Next(dst)
	c.t.end(sp)
	return fi
}

func (c *composed) offerRecord(r serverpipe.Record) {
	sp := c.t.begin(lRecord)
	c.book.Add(r)
	c.t.end(sp)
}

func (c *composed) offerChat(seq uint32, adcLocal float64, encoded []byte) {
	sp := c.t.begin(lChat)
	rp := c.t.begin(lResolve)
	c.ledger.Resolve(&c.book, c.est, c.sink)
	c.book.Evict(c.ledger.MinPending())
	c.t.end(rp)
	lost, fresh := c.seqr.Offer(seq)
	for i := lost; i > 0; i-- {
		cp := c.t.begin(lConceal)
		c.chatBuf = c.dec.ConcealTo(c.chatBuf[:0])
		c.t.end(cp)
		c.sink.ChatGapConcealed(seq-uint32(i), c.lastChatEnd)
		c.feed(c.chatBuf, c.lastChatEnd)
	}
	if fresh {
		dp := c.t.begin(lDecode)
		decoded, err := c.dec.DecodeTo(c.chatBuf[:0], encoded)
		if err != nil {
			decoded = c.dec.ConcealTo(c.chatBuf[:0])
		}
		c.t.end(dp)
		c.chatBuf = decoded
		c.feed(decoded, adcLocal-c.codecDelaySec)
	}
	c.t.end(sp)
}

func (c *composed) feed(samples []float64, startLocal float64) {
	fp := c.t.begin(lFeed)
	ms := c.est.AddChat(samples, startLocal)
	c.t.end(fp)
	c.lastChatEnd = startLocal + float64(len(samples))/audio.SampleRate
	if len(ms) == 0 {
		return
	}
	now := c.now()
	for _, m := range ms {
		c.sink.ISDMeasurement(now, m)
		op := c.t.begin(lOffer)
		act := c.comp.Offer(now, m.ISDSeconds)
		c.t.end(op)
		if act == nil {
			continue
		}
		c.sink.CompensationAction(now, *act)
		if act.Stream == compensator.ScreenStream {
			c.screen.Apply(*act)
		} else {
			c.accessory.Apply(*act)
		}
	}
}

// wirePath frames and parses datagrams the way the hub and a player do,
// with a span per call: encode with the session's framing, decode with a
// sniffing codec.
type wirePath struct {
	t *tracer
	// One sniffing codec per receiving socket: the player's screen and
	// controller sockets and the hub's.
	decScr, decAcc, decUp *rtp.Codec
	up                    [2]float64 // chat bytes, datagrams
	down                  [2]float64 // media bytes, datagrams
	scratch               []byte
}

func (w *wirePath) encLayer(e transport.WireEncoder) uint8 {
	if e.Wire() == transport.WireRTP {
		return lRTPEnc
	}
	return lTransportEnc
}

func (w *wirePath) decode(dec *rtp.Codec, msg *transport.Message, b []byte, rtpFramed bool) error {
	layer := uint8(lTransportDec)
	if rtpFramed {
		layer = lRTPDec
	}
	sp := w.t.begin(layer)
	err := dec.DecodeInto(msg, b)
	w.t.end(sp)
	return err
}

func (w *wirePath) media(e transport.WireEncoder, dst []byte, m transport.Media) ([]byte, error) {
	sp := w.t.begin(w.encLayer(e))
	b, err := e.AppendMedia(dst, m)
	w.t.end(sp)
	w.down[0] += float64(len(b))
	w.down[1]++
	return b, err
}

func (w *wirePath) chat(e transport.WireEncoder, c transport.Chat) ([]byte, error) {
	sp := w.t.begin(w.encLayer(e))
	b, err := e.AppendChat(w.scratch[:0], c)
	w.t.end(sp)
	w.scratch = b
	w.up[0] += float64(len(b))
	w.up[1]++
	return append([]byte(nil), b...), err
}

// runTraced is the in-process traced run on the workload's seeded
// inputs: a hub pass on hub.NewMemNet timing admission, Tick and
// DispatchBatch, then pipeline passes that drive a composed session and
// serverpipe.Pipeline side by side and require identical frames, events,
// measurements and actions.
func runTraced(wl *workload, seed int64) (*tracedResult, error) {
	tr := &tracedResult{layers: make(map[string]*layerStat)}
	if err := hubPass(wl, seed, tr); err != nil {
		return nil, err
	}
	game, seq := serverInputs()
	base := sessionBase(seed)

	// Untraced and traced pipeline passes in ABBA order, so drift in
	// machine speed cancels out of the overhead figure.
	var dur [2]int64
	pipeSpans := 0
	for i, on := range []bool{false, true, true, false} {
		t := &tracer{on: on, spans: make([]span, 0, 1<<16), stack: make([]int32, 0, 16)}
		var rec *tracedResult
		if i == 1 {
			rec = tr
		}
		t0 := now()
		if err := pipelinePass(wl, seed, base, game, seq, t, pipeFrames, rec, nil); err != nil {
			if err = tr.check(err); err != nil {
				return nil, err
			}
			return tr, nil
		}
		if on {
			dur[1] += now() - t0
			selfTimes(t.spans, tr.layers, false)
			tr.spans += len(t.spans)
			pipeSpans += len(t.spans)
			if rec != nil {
				tr.dump = append(tr.dump, t.spans)
			}
		} else {
			dur[0] += now() - t0
		}
	}
	tr.overheadFrac = float64(dur[1]-dur[0]) / float64(dur[0])
	tr.spanCostNS = spanCost()
	tr.estFrac = tr.spanCostNS * float64(pipeSpans) / float64(dur[0])

	probe := &tracer{allocs: true, spans: make([]span, 0, 1<<15), stack: make([]int32, 0, 16)}
	if err := pipelinePass(wl, seed, base, game, seq, probe, allocWarm+allocFrames, nil, func(frame int) bool {
		return frame >= allocWarm
	}); err != nil {
		if err = tr.check(err); err != nil {
			return nil, err
		}
		return tr, nil
	}
	selfTimes(probe.spans, tr.layers, true)
	return tr, nil
}

// serverInputs returns what every hub session streams with the server
// role's configuration: corpus clip 0 and the default PN marker seed.
func serverInputs() (*audio.Buffer, *ekho.MarkerSequence) {
	return gamesynth.Generate(gamesynth.Catalog()[0], gamesynth.ClipSeconds), ekho.NewMarkerSequence(4242)
}

// spanCost times an empty span: the per-call cost tracing adds.
func spanCost() float64 {
	const n = 1 << 16
	t := &tracer{on: true, spans: make([]span, 0, n), stack: make([]int32, 0, 1)}
	t0 := now()
	for i := 0; i < n; i++ {
		t.end(t.begin(lScreen))
	}
	return float64(now()-t0) / n
}

// pipelinePass streams pipeSessions sessions through the wire path, the
// player echo (with the workload's seeded impairment), the hub's chat
// resequencer and both pipelines. The reference pipeline's frames feed
// the player, so both cores see identical inputs; any divergence in
// frames or events is a parity failure. With tr set the pass's counts
// are recorded; probeAt, when set, turns the tracer on only for the
// frames it accepts.
func pipelinePass(wl *workload, seed int64, base uint32, game *audio.Buffer, seq *ekho.MarkerSequence,
	t *tracer, frames int, tr *tracedResult, probeAt func(int) bool) error {
	sessions := pipeSessions
	if probeAt != nil {
		sessions = 1
	}
	var newMS []float64
	for k := 0; k < sessions; k++ {
		id := base + uint32(wl.slots+k)
		ps := newPsess(wl, id, 0)
		refLog, compLog := &eventLog{}, &eventLog{}
		cfg := serverpipe.Config{Game: game, Seq: seq, MarkerC: ekho.DefaultMarkerVolume, Codec: wl.profile, Detector: ekho.DetectorTwoStage}
		cfg.Sink = refLog
		t0 := now()
		ref := serverpipe.New(cfg)
		newMS = append(newMS, float64(now()-t0)/1e6)
		cfg.Sink = compLog
		comp := newComposed(cfg, t)
		wp := &wirePath{t: t, decScr: rtp.NewCodec(), decAcc: rtp.NewCodec(), decUp: rtp.NewCodec()}
		reorder := jitterbuf.NewReorder(chatReorderWindow)
		hold := make([]transport.Chat, chatReorderWindow)

		deliver := func(c *transport.Chat) {
			for _, r := range c.Records {
				rec := serverpipe.Record{ContentStart: r.ContentStart, N: int(r.N), LocalTime: float64(r.LocalMicros) / 1e6}
				ref.OfferRecord(rec)
				comp.offerRecord(rec)
			}
			adc := float64(c.ADCMicros) / 1e6
			ref.OfferChat(c.Seq, adc, c.Encoded)
			comp.offerChat(c.Seq, adc, c.Encoded)
		}

		refBuf := make([]float64, audio.FrameSamples)
		compBuf := make([]float64, audio.FrameSamples)
		pcm := make([]int16, audio.FrameSamples)
		var pkt []byte
		var msg transport.Message
		rtpFramed := ps.wenc.Wire() == transport.WireRTP
		for f := 0; f < frames; f++ {
			if probeAt != nil {
				t.on = probeAt(f)
			}
			t.sess, t.seq = id, uint32(f)
			// Downlink: both cores produce the frame pair; the reference
			// frames travel the wire to the player.
			var media [2]transport.Media
			for st := 0; st < 2; st++ {
				var fr, fc serverpipe.FrameInfo
				if st == 0 {
					fr, fc = ref.NextScreenFrame(refBuf), comp.nextScreen(compBuf)
				} else {
					fr, fc = ref.NextAccessoryFrame(refBuf), comp.nextAccessory(compBuf)
				}
				if fr != fc || !sameBits(refBuf, compBuf) {
					return parityError(fmt.Sprintf("session %d frame %d stream %d: composed output differs from serverpipe.Pipeline", id, f, st))
				}
				for i, v := range refBuf {
					pcm[i] = audio.FloatToInt16(v)
				}
				var err error
				pkt, err = wp.media(ps.wenc, pkt[:0], transport.Media{
					Seq: fr.Seq, Session: id, ContentStart: fr.ContentStart, ContentOff: uint16(fr.ContentOff), Samples: pcm})
				if err != nil {
					return err
				}
				dec := wp.decScr
				if st == 1 {
					dec = wp.decAcc
				}
				if err := wp.decode(dec, &msg, pkt, rtpFramed); err != nil {
					return fmt.Errorf("media decode: %w", err)
				}
				media[st] = msg.Media
				media[st].Samples = append([]int16(nil), msg.Media.Samples...)
			}
			// Player: log the accessory record, echo the screen frame.
			if a := media[1]; a.ContentStart >= 0 {
				local := ps.offset + float64(a.Seq)*frameSec + float64(a.ContentOff)/sampleRate
				ps.pending = append(ps.pending, transport.PlaybackRecord{
					ContentStart: a.ContentStart, LocalMicros: int64(local * 1e6), N: uint16(len(a.Samples)) - a.ContentOff})
			}
			chat := ps.echoChatWith(&media[0], wp)
			if chat == nil {
				return fmt.Errorf("echo: session %d frame %d: encode failed", id, f)
			}
			// Uplink: impairment, wire decode, resequencing, both cores.
			for _, d := range ps.impair(wl.impair, seed, media[0].Seq, chat) {
				if err := wp.decode(wp.decUp, &msg, d, rtpFramed); err != nil {
					return fmt.Errorf("chat decode: %w", err)
				}
				c := &msg.Chat
				rp := t.begin(lReorder)
				v, slot := reorder.Offer(c.Seq)
				t.end(rp)
				if v == jitterbuf.RDeliver {
					deliver(c)
				} else if v == jitterbuf.RHold {
					hold[slot] = transport.Chat{Seq: c.Seq, Session: c.Session, ADCMicros: c.ADCMicros,
						Records: append([]transport.PlaybackRecord(nil), c.Records...), Encoded: append([]byte(nil), c.Encoded...)}
				}
				for {
					rp := t.begin(lReorder)
					slot, sq, ok := reorder.Pop()
					t.end(rp)
					if !ok {
						break
					}
					h := hold[slot]
					h.Seq = sq
					deliver(&h)
				}
			}
		}
		if len(refLog.ev) != len(compLog.ev) {
			return parityError(fmt.Sprintf("session %d: %d reference events vs %d composed", id, len(refLog.ev), len(compLog.ev)))
		}
		for i := range refLog.ev {
			if refLog.ev[i] != compLog.ev[i] {
				return parityError(fmt.Sprintf("session %d event %d differs (kind %d vs %d)", id, i, refLog.ev[i].kind, compLog.ev[i].kind))
			}
		}
		if tr == nil {
			continue
		}
		tr.paritySessions++
		tr.parityFrames += frames
		tr.parityEvents += len(refLog.ev)
		tr.injected += compLog.injected
		tr.matched += compLog.matched
		tr.expired += compLog.expired
		tr.conceals += compLog.conceals
		tr.detections += compLog.meas
		tr.actions += compLog.actions
		rs := reorder.Stats()
		tr.reorder.Held += rs.Held
		tr.reorder.Late += rs.Late
		tr.reorder.Duplicates += rs.Duplicates
		tr.reorder.Flushed += rs.Flushed + rs.Overflows
		tr.bytesUp = wp.up[0] / wp.up[1]
		tr.bytesDown = wp.down[0] / wp.down[1]
	}
	if tr != nil {
		tr.pipeNewMS = median(newMS)
	}
	return nil
}

// echoChatWith is echoChat with the chat's wire encoding timed.
func (s *psess) echoChatWith(md *transport.Media, wp *wirePath) []byte {
	mic := make([]float64, len(md.Samples))
	for j, v := range md.Samples {
		mic[j] = audio.Int16ToFloat(v) * echoAtten
	}
	enc, err := s.enc.EncodeTo(nil, mic)
	if err != nil {
		return nil
	}
	adc := int64((s.offset + float64(int64(md.Seq)+int64(s.delay))*frameSec) * 1e6)
	recs := s.pending
	s.pending = nil
	b, err := wp.chat(s.wenc, transport.Chat{Seq: md.Seq, Session: s.id, ADCMicros: adc, Records: recs, Encoded: enc})
	if err != nil {
		return nil
	}
	return b
}

func sameBits(a, b []float64) bool {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// hubPass hosts a hub on hub.NewMemNet with a manual clock and drives
// every slot of the workload through admission, Tick and DispatchBatch,
// each closed by a SessionInfos barrier so the span covers the shard
// workers' processing. Churn workloads bye and re-admit sessions on
// their seeded schedule.
func hubPass(wl *workload, seed int64, tr *tracedResult) error {
	mem := hub.NewMemNet()
	ready := make(chan uint32, 4*wl.slots)
	h := hub.New(hub.Config{
		Capacity: 64, Shards: 8, TickEvery: -1, IdleTimeout: -1,
		MarkerC: ekho.DefaultMarkerVolume, Detector: ekho.DetectorTwoStage, Codec: wl.profile,
		OnSessionReady: func(id uint32) { ready <- id },
	}, mem.Endpoint("hub"))
	serveErr := make(chan error, 1)
	go func() { serveErr <- h.Serve() }()
	defer func() {
		h.Close()
		<-serveErr
	}()
	type decoderSetter interface{ SetDecoder(transport.Decoder) }
	scrEP, ctlEP := mem.Endpoint("screen"), mem.Endpoint("ctrl")
	scrEP.(decoderSetter).SetDecoder(rtp.NewCodec())
	ctlEP.(decoderSetter).SetDecoder(rtp.NewCodec())
	hubDec := rtp.NewCodec() // the hub socket's sniffing decoder

	t := &tracer{on: true, spans: make([]span, 0, 1<<12), stack: make([]int32, 0, 16)}
	control := func(b []byte, from net.Addr) error {
		msgs := make([]transport.Message, 1)
		if err := hubDec.DecodeInto(&msgs[0], b); err != nil {
			return err
		}
		msgs[0].From = from
		h.DispatchBatch(msgs)
		return nil
	}
	var admitMS, admitKB, admitAllocs []float64
	var ms0, ms1 runtime.MemStats
	admit := func(s *psess) error {
		runtime.ReadMemStats(&ms0)
		sp := t.begin(lHubAdmit)
		if err := control(s.wenc.AppendHello(nil, transport.Hello{Session: s.id, Role: transport.RoleScreen}), scrEP.LocalAddr()); err != nil {
			return err
		}
		if err := control(s.wenc.AppendHello(nil, transport.Hello{Session: s.id, Role: transport.RoleController}), ctlEP.LocalAddr()); err != nil {
			return err
		}
		select {
		case <-ready:
		case <-time.After(10 * time.Second):
			return fmt.Errorf("hub pass: session %d never became ready", s.id)
		}
		t.end(sp)
		runtime.ReadMemStats(&ms1)
		sp0 := t.spans[sp]
		admitMS = append(admitMS, float64(sp0.end-sp0.start)/1e6)
		admitKB = append(admitKB, float64(ms1.TotalAlloc-ms0.TotalAlloc)/1024)
		admitAllocs = append(admitAllocs, float64(ms1.Mallocs-ms0.Mallocs))
		return nil
	}

	base := sessionBase(seed)
	live := make(map[uint32]*psess)
	slots := make([]*psess, 0, wl.slots)
	lifeEnd := make(map[uint32]int)
	nextID := base + 2*uint32(wl.slots)
	for i := 0; i < wl.slots; i++ {
		s := newPsess(wl, base+uint32(wl.slots+i), 0)
		if err := admit(s); err != nil {
			return err
		}
		live[s.id] = s
		slots = append(slots, s)
		lifeEnd[s.id] = int(lifeNS(seed, s.id) / frameNS)
	}

	msgs := make([]transport.Message, batchLen)
	var out []transport.Message
	var dispatched int
	var tickNS, dispatchNS int64
	ticks := 0
	for f := 0; f < hubFrames; f++ {
		sp := t.begin(lHubTick)
		h.Tick()
		h.SessionInfos()
		t.end(sp)
		tickNS += t.spans[sp].end - t.spans[sp].start
		ticks++

		// Drain both endpoints: the accessory first, so its records ride
		// this tick's chat, then the screen, echoed as chat.
		for _, ep := range []hub.Conn{ctlEP, scrEP} {
			got := 0
			for got < len(live) {
				n, err := ep.(hub.BatchConn).RecvBatch(time.Now().Add(time.Second), msgs)
				if n == 0 {
					return fmt.Errorf("hub pass: tick %d: %d/%d frames arrived: %v", f, got, len(live), err)
				}
				for i := range msgs[:n] {
					m := &msgs[i]
					s := live[m.Session]
					if s == nil || m.Type != transport.TypeMedia {
						continue // e.g. a frame for a session whose bye is in flight
					}
					got++
					if ep == ctlEP {
						if a := m.Media; a.ContentStart >= 0 {
							local := s.offset + float64(a.Seq)*frameSec + float64(a.ContentOff)/sampleRate
							s.pending = append(s.pending, transport.PlaybackRecord{
								ContentStart: a.ContentStart, LocalMicros: int64(local * 1e6), N: uint16(len(a.Samples)) - a.ContentOff})
						}
						continue
					}
					b := s.echoChat(&m.Media)
					if b == nil {
						return fmt.Errorf("hub pass: echo encode failed")
					}
					for _, d := range s.impair(wl.impair, seed, m.Media.Seq, b) {
						out = append(out, transport.Message{})
						if err := hubDec.DecodeInto(&out[len(out)-1], d); err != nil {
							return err
						}
					}
				}
			}
		}
		if len(out) > 0 {
			sp := t.begin(lHubDispatch)
			h.DispatchBatch(out)
			h.SessionInfos()
			t.end(sp)
			dispatchNS += t.spans[sp].end - t.spans[sp].start
			dispatched += len(out)
			out = out[:0]
		}

		if !wl.churn {
			continue
		}
		for i, s := range slots {
			id := s.id
			if f+1 < lifeEnd[id] {
				continue
			}
			if err := control(s.wenc.AppendBye(nil, transport.Bye{Session: id}), ctlEP.LocalAddr()); err != nil {
				return err
			}
			delete(live, id)
			ns := newPsess(wl, nextID, 0)
			nextID++
			if err := admit(ns); err != nil {
				return err
			}
			live[ns.id] = ns
			slots[i] = ns
			lifeEnd[ns.id] = f + 1 + int(lifeNS(seed, ns.id)/frameNS)
		}
	}
	h.SessionInfos()
	select {
	case err := <-serveErr:
		return fmt.Errorf("hub pass: hub exited: %v", err)
	default:
	}
	// The first admission generates the shared game clip; medians keep
	// the steady-state figure.
	tr.admitMS, tr.admitKB, tr.admitAllocs = median(admitMS), median(admitKB), median(admitAllocs)
	tr.admissions = len(admitMS)
	if dispatched > 0 {
		tr.hubDispatchNS = float64(dispatchNS) / float64(dispatched)
	}
	tr.hubTickUS = float64(tickNS) / 1e3 / float64(ticks*wl.slots)
	selfTimes(t.spans, tr.layers, false)
	tr.spans += len(t.spans)
	tr.dump = append(tr.dump, t.spans)
	return nil
}

// writeSpans writes the kept spans, one per line: pass, layer, start
// and end (ns on the generator clock), parent index, session, seq.
func writeSpans(path string, passes [][]span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "pass\tlayer\tstart_ns\tend_ns\tparent\tsession\tseq")
	for p, spans := range passes {
		for _, s := range spans {
			fmt.Fprintf(w, "%d\t%s\t%d\t%d\t%d\t%d\t%d\n", p, layerNames[s.layer], s.start, s.end, s.parent, s.sess, s.seq)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// perLayer reports the traced run's ledger and the live run's outside
// readings.
func perLayer(l *liveResult, t *tracedResult, r *report) {
	fmt.Printf("traced run: %d spans; pipeline parity held over %d sessions, %d frames, %d events\n",
		t.spans, t.paritySessions, t.parityFrames, t.parityEvents)
	fmt.Printf("tracing overhead: traced passes ran %+.2f%% vs untraced (ABBA order); one span costs %.0f ns, %.2f%% of the untraced passes\n",
		100*t.overheadFrac, t.spanCostNS, 100*t.estFrac)
	fmt.Println("hub.* spans are inclusive: each closes on a SessionInfos barrier, so it covers the shard workers' pipeline work")
	fmt.Printf("%-22s %9s %12s %12s %12s %10s\n", "layer", "calls", "self_ns/call", "incl_ns/call", "allocs/call", "B/call")
	for _, name := range sortedKeys(t.layers) {
		st := t.layers[name]
		fmt.Printf("%-22s %9d %12.0f %12.0f %12.2f %10.0f\n", name, st.count,
			per(st.selfNS, st.count), per(st.inclusiveNS, st.count),
			per(st.selfAllocs, st.allocCalls), per(st.selfBytes, st.allocCalls))
	}
	self := func(name string, scale float64) (float64, int) {
		st := t.layers[name]
		if st == nil {
			return 0, 0
		}
		return per(st.selfNS, st.count) / scale, st.count
	}
	put := func(name string, layer string, scale float64, unit string) {
		v, n := self(layer, scale)
		r.put(name, v, unit, n)
	}
	allocs := func(name, layer string) {
		st := t.layers[layer]
		if st == nil {
			r.put(name, 0, "count", 0)
			return
		}
		r.put(name, per(st.selfAllocs, st.allocCalls), "count", st.allocCalls)
	}

	put("codec.decode_us_per_frame", "codec.decode", 1e3, "us")
	put("codec.conceal_us_per_frame", "codec.conceal", 1e3, "us")
	put("estimator.feed_us_per_frame", "estimator.feed", 1e3, "us")
	r.put("estimator.detections", float64(t.detections), "count", t.paritySessions)
	put("pn.inject_us_per_frame", "pn.inject", 1e3, "us")
	put("serverpipe.screen_us_per_frame", "serverpipe.screen", 1e3, "us")
	put("serverpipe.accessory_us_per_frame", "serverpipe.accessory", 1e3, "us")
	put("serverpipe.chat_us_per_frame", "serverpipe.chat", 1e3, "us")
	put("serverpipe.resolve_ns", "serverpipe.resolve", 1, "ns")
	put("serverpipe.record_ns", "serverpipe.record", 1, "ns")
	r.put("serverpipe.markers_injected", float64(t.injected), "count", t.paritySessions)
	r.put("serverpipe.markers_matched", float64(t.matched), "count", t.paritySessions)
	r.put("serverpipe.markers_expired", float64(t.expired), "count", t.paritySessions)
	r.put("serverpipe.match_ratio", per(float64(t.matched), t.injected), "ratio", t.injected)
	r.put("serverpipe.conceals", float64(t.conceals), "count", t.paritySessions)
	r.put("serverpipe.new_ms", t.pipeNewMS, "ms", t.paritySessions)
	allocs("serverpipe.chat_allocs_per_call", "serverpipe.chat")
	allocs("serverpipe.screen_allocs_per_call", "serverpipe.screen")
	allocs("estimator.feed_allocs_per_call", "estimator.feed")
	allocs("codec.decode_allocs_per_call", "codec.decode")
	put("transport.encode_ns_per_pkt", "transport.encode", 1, "ns")
	put("transport.decode_ns_per_pkt", "transport.decode", 1, "ns")
	put("rtp.encode_ns_per_pkt", "rtp.encode", 1, "ns")
	put("rtp.decode_ns_per_pkt", "rtp.decode", 1, "ns")
	r.put("transport.bytes_per_pkt_up", t.bytesUp, "B", t.paritySessions*pipeFrames)
	r.put("transport.bytes_per_pkt_down", t.bytesDown, "B", 2*t.paritySessions*pipeFrames)
	put("jitterbuf.reorder_ns_per_pkt", "jitterbuf.reorder", 1, "ns")
	r.put("jitterbuf.held", float64(t.reorder.Held), "count", t.paritySessions)
	r.put("jitterbuf.late", float64(t.reorder.Late), "count", t.paritySessions)
	r.put("jitterbuf.dups", float64(t.reorder.Duplicates), "count", t.paritySessions)
	r.put("jitterbuf.flushed", float64(t.reorder.Flushed), "count", t.paritySessions)
	put("compensator.offer_ns", "compensator.offer", 1, "ns")
	r.put("compensator.actions", float64(t.actions), "count", t.paritySessions)
	r.put("hub.dispatch_ns_per_pkt", t.hubDispatchNS, "ns", hubFrames)
	r.put("hub.tick_us_per_session", t.hubTickUS, "us", hubFrames)
	r.put("hub.admit_ms", t.admitMS, "ms", t.admissions)
	r.put("hub.admit_kb", t.admitKB, "KiB", t.admissions)
	r.put("hub.admit_allocs", t.admitAllocs, "count", t.admissions)
	r.put("trace.overhead_frac", t.overheadFrac, "ratio", 4)
	r.put("trace.spans", float64(t.spans), "count", 1)
	r.put("trace.span_cost_ns", t.spanCostNS, "ns", 1<<16)

	// Live-run readings (tracing off, from outside the server).
	p90, windows, _ := windowedPercentile(l.late, lateWindowNS, 0.9)
	r.put("live.frame_late_ms_p90", p90, "ms", windows)
	p99, windows, _ := windowedPercentile(l.late, lateWindowNS, 0.99)
	r.put("live.frame_late_ms_p99", p99, "ms", windows)
	r.put("kernel.rcvbuf_drops", float64(l.rcvbufDrops), "count", 1)
	r.put("hub.dispatch_p99_ms", l.dispatchP99MS, "ms", 1)
	r.put("hub.shed_frac", l.shedFrac, "ratio", 1)
	r.put("hub.ctrl_dropped", l.ctrlDropped, "count", 1)
	r.put("server.allocs_per_session_frame", l.allocsPerSF, "count", 1)
	r.put("server.gc_cycles", l.gcCycles, "count", 1)
	r.put("gen.cpu_frac", l.genCPUFrac, "ratio", 1)
	if v, ok := percentile(l.lagMS, 0.99); ok {
		r.put("gen.lag_ms_p99", v, "ms", len(l.lagMS))
	} else {
		r.put("gen.lag_ms_p99", 0, "ms", len(l.lagMS))
	}
}

// per divides, returning 0 for an empty base.
func per(x float64, n int) float64 {
	if n == 0 {
		return 0
	}
	return x / float64(n)
}
