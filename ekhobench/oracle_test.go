package main

import (
	"encoding/binary"
	"math"
	"syscall"
	"testing"
	"time"

	"ekho/internal/codec"
	"ekho/internal/hub"
	"ekho/internal/rtp"
	"ekho/internal/transport"
)

// screenLog returns n contiguous screen frames starting at seq 0.
func screenLog(n int) []frameRec {
	fs := make([]frameRec, n)
	for k := range fs {
		fs[k] = frameRec{seq: uint32(k), cs: int64(k) * frameSamples}
	}
	return fs
}

func near(a, b float64) bool { return math.Abs(a-b) < 1e-12 }

func TestTrueISDAirDelayOnly(t *testing.T) {
	// Both streams carry the same content at the same seq, so the true
	// ISD is the air delay: 4 frames = 80 ms.
	pts := trueISD(screenLog(10), screenLog(10), 4)
	if len(pts) != 10 {
		t.Fatalf("got %d points, want 10", len(pts))
	}
	for _, p := range pts {
		if !near(p.isd, 0.080) {
			t.Fatalf("ISD %v, want 0.080", p.isd)
		}
	}
}

func TestTrueISDCompensationInsert(t *testing.T) {
	// A whole-frame insert of 4 gap frames on the accessory stream
	// cancels a 4-frame air delay: gap frames carry no content and yield
	// no point; content after the insert is in sync.
	acc := screenLog(10)
	for k := 10; k < 14; k++ {
		acc = append(acc, frameRec{seq: uint32(k), cs: -1})
	}
	for k := 14; k < 20; k++ {
		acc = append(acc, frameRec{seq: uint32(k), cs: int64(k-4) * frameSamples})
	}
	pts := trueISD(screenLog(30), acc, 4)
	if len(pts) != 16 {
		t.Fatalf("got %d points, want 16 (gap frames excluded)", len(pts))
	}
	if !near(pts[9].isd, 0.080) || !near(pts[10].isd, 0) || !near(pts[15].isd, 0) {
		t.Fatalf("ISD before/after insert = %v / %v, want 0.080 / 0", pts[9].isd, pts[10].isd)
	}
	if i := convergeIndex(pts, syncTolSec); i != 10 {
		t.Fatalf("convergeIndex = %d, want 10", i)
	}
}

func TestTrueISDPartialContentOff(t *testing.T) {
	// A 2.5-frame insert: two all-gap frames, then a partial frame whose
	// content starts 480 samples in. 80 ms − 50 ms = 30 ms remain.
	acc := screenLog(10)
	acc = append(acc,
		frameRec{seq: 10, cs: -1},
		frameRec{seq: 11, cs: -1},
		frameRec{seq: 12, cs: 10 * frameSamples, co: 480},
		frameRec{seq: 13, cs: 10*frameSamples + 480},
	)
	pts := trueISD(screenLog(30), acc, 4)
	if len(pts) != 12 {
		t.Fatalf("got %d points, want 12", len(pts))
	}
	for _, p := range pts[10:] {
		if !near(p.isd, 0.030) {
			t.Fatalf("ISD after partial insert %v, want 0.030", p.isd)
		}
	}
	// The same content heard from a partial screen frame: the screen
	// skipped nothing but started its content 480 samples into seq 3.
	scr := []frameRec{{seq: 3, cs: 0, co: 480}, {seq: 4, cs: 480}}
	pts = trueISD(scr, []frameRec{{seq: 0, cs: 0}}, 0)
	if len(pts) != 1 || !near(pts[0].isd, 3*frameSec+0.010) {
		t.Fatalf("partial screen frame: %+v, want ISD 0.070", pts)
	}
}

func TestTrueISDLostScreenFrameAndFuture(t *testing.T) {
	scr := screenLog(10)
	scr = append(scr[:5], scr[6:]...) // seq 5 lost
	acc := screenLog(12)              // seqs 10, 11 not yet heard on screen
	pts := trueISD(scr, acc, 4)
	if len(pts) != 10 {
		t.Fatalf("got %d points, want 10 (content beyond the screen excluded)", len(pts))
	}
	if !near(pts[5].isd, 0.080) {
		t.Fatalf("ISD across a lost screen frame = %v, want 0.080", pts[5].isd)
	}
}

func TestConvergeIndexOutOfSyncAtEnd(t *testing.T) {
	pts := []isdPoint{{isd: 0}, {isd: 0.02}}
	if i := convergeIndex(pts, syncTolSec); i != -1 {
		t.Fatalf("convergeIndex = %d, want -1", i)
	}
}

func TestLatenessAnchorChargesStall(t *testing.T) {
	const anchor = int64(1e9)
	ms := int64(1e6)
	var fs []frameRec
	for k := 0; k < 5; k++ {
		fs = append(fs, frameRec{seq: uint32(k), at: anchor + int64(k)*frameNS})
	}
	// Frames 5-8 queue behind a stall and arrive together with 8;
	// frame 9 never arrives.
	for k := 5; k < 9; k++ {
		fs = append(fs, frameRec{seq: uint32(k), at: anchor + 8*frameNS + ms})
	}
	late, due, missed := lateness(fs, anchor+9*frameNS+missLimitNS)
	if due != 10 || missed != 2 {
		t.Fatalf("due %d missed %d, want 10 and 2 (seq 5 at 61 ms, seq 9 absent)", due, missed)
	}
	want := []float64{0, 0, 0, 0, 0, 41, 21, 1}
	if len(late) != len(want) {
		t.Fatalf("got %d lateness samples, want %d", len(late), len(want))
	}
	for i, w := range want {
		if math.Abs(late[i]-w) > 1e-9 {
			t.Fatalf("lateness[%d] = %v ms, want %v", i, late[i], w)
		}
	}
}

func TestLatenessDroppedTickShiftsLaterFrames(t *testing.T) {
	const anchor = int64(5e9)
	var fs []frameRec
	for k := 0; k < 10; k++ {
		at := anchor + int64(k)*frameNS
		if k >= 5 {
			at += frameNS // one tick never sent: every later frame is 20 ms late
		}
		fs = append(fs, frameRec{seq: uint32(k), at: at})
	}
	late, due, missed := lateness(fs, anchor+9*frameNS+missLimitNS)
	if due != 10 || missed != 0 {
		t.Fatalf("due %d missed %d, want 10 and 0", due, missed)
	}
	if late[4] != 0 || late[5] != 20 || late[9] != 20 {
		t.Fatalf("lateness around the dropped tick: %v %v %v, want 0 20 20", late[4], late[5], late[9])
	}
	// Windowed per 100 ms of arrival, the slip is charged only in the
	// window where it happens and reported as one tick.
	js, slip := jitter(fs, anchor+10*frameNS+missLimitNS, 100*int64(1e6))
	if slip != 1 || len(js) != 10 {
		t.Fatalf("jitter: slip %d over %d samples, want 1 over 10", slip, len(js))
	}
	for _, j := range js {
		if j.ms != 0 && !(j.due < anchor+6*frameNS && j.ms == 20) {
			t.Fatalf("jitter charged %v ms to the frame arriving at %d", j.ms, j.due-anchor)
		}
	}
}

func TestImpairmentDeterministicPerSeed(t *testing.T) {
	im := impairment{loss: 0.01, swap: 0.02, dup: 0.005}
	var counts [4]int
	differ := 0
	for id := uint32(1); id <= 40; id++ {
		for seq := uint32(0); seq < 1000; seq++ {
			v := im.decide(7, id, seq)
			if v != im.decide(7, id, seq) {
				t.Fatal("verdict changed between calls")
			}
			if v != im.decide(8, id, seq) {
				differ++
			}
			counts[v]++
		}
	}
	n := 40000.0
	for v, want := range map[verdict]float64{drop: 0.01, swapNext: 0.02, duplicate: 0.005} {
		if got := float64(counts[v]) / n; math.Abs(got-want) > want/4 {
			t.Errorf("verdict %d rate %.4f, want about %.4f", v, got, want)
		}
	}
	if differ == 0 {
		t.Error("a second seed gave identical impairment")
	}
	if lifeNS(7, 9) != lifeNS(7, 9) || sessionBase(7) == sessionBase(8) {
		t.Error("churn schedule or session ids not a pure function of the seed")
	}
}

func TestImpairApplySwapAndDuplicate(t *testing.T) {
	// Find a swap and a duplicate verdict, then check the datagrams sent.
	im := impairment{loss: 0.01, swap: 0.02, dup: 0.005}
	s := &psess{id: 3}
	var swapSeq, dupSeq uint32
	for seq := uint32(0); swapSeq == 0 || dupSeq == 0; seq++ {
		switch im.decide(1, s.id, seq) {
		case swapNext:
			if swapSeq == 0 && im.decide(1, s.id, seq+1) == pass {
				swapSeq = seq
			}
		case duplicate:
			if dupSeq == 0 {
				dupSeq = seq
			}
		}
	}
	if out := s.impair(im, 1, swapSeq, []byte{1}); len(out) != 0 {
		t.Fatalf("swapped chat sent at once: %v", out)
	}
	out := s.impair(im, 1, swapSeq+1, []byte{2})
	if len(out) != 2 || out[0][0] != 2 || out[1][0] != 1 {
		t.Fatalf("swap: sent %v, want [2] then [1]", out)
	}
	if out := s.impair(im, 1, dupSeq, []byte{9}); len(out) != 2 || out[0][0] != 9 || out[1][0] != 9 {
		t.Fatalf("duplicate: sent %v, want the chat twice", out)
	}
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	xs := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(n - i)
		}
		return out
	}
	cases := []struct {
		n  int
		q  float64
		ok bool
	}{
		{19, 0.5, false}, {20, 0.5, true},
		{99, 0.9, false}, {100, 0.9, true},
		{999, 0.99, false}, {1000, 0.99, true},
		{0, 0.5, false},
	}
	for _, c := range cases {
		v, ok := percentile(xs(c.n), c.q)
		if ok != c.ok {
			t.Errorf("percentile(n=%d, q=%v) ok=%v, want %v", c.n, c.q, ok, c.ok)
		}
		if ok && v != math.Ceil(c.q*float64(c.n)) {
			t.Errorf("percentile(n=%d, q=%v) = %v, want nearest rank %v", c.n, c.q, v, math.Ceil(c.q*float64(c.n)))
		}
	}
}

func TestWindowedPercentileSkipsThinWindows(t *testing.T) {
	var ss []lateSample
	for w := int64(0); w < 3; w++ {
		for i := 0; i < 20; i++ {
			ss = append(ss, lateSample{due: w * 1000, ms: float64(w + 1)})
		}
	}
	ss = append(ss, lateSample{due: 3000, ms: 100}) // one-sample window
	v, windows, ok := windowedPercentile(ss, 1000, 0.5)
	if !ok || windows != 3 || v != 2 {
		t.Fatalf("got %v over %d windows (ok %v), want 2 over 3", v, windows, ok)
	}
	if _, _, ok := windowedPercentile(ss[:5], 1000, 0.5); ok {
		t.Fatal("reported a percentile with fewer than ten samples beyond it")
	}
}

func TestKernelStamp(t *testing.T) {
	oob := make([]byte, 32)
	binary.LittleEndian.PutUint64(oob, 32)
	binary.LittleEndian.PutUint32(oob[8:], uint32(syscall.SOL_SOCKET))
	binary.LittleEndian.PutUint32(oob[12:], uint32(syscall.SO_TIMESTAMPNS))
	binary.LittleEndian.PutUint64(oob[16:], 12)
	binary.LittleEndian.PutUint64(oob[24:], 345)
	at, ok := kernelStamp(oob)
	if !ok || at != 12*1e9+345-originWall {
		t.Fatalf("kernelStamp = %d, %v", at, ok)
	}
	if _, ok := kernelStamp(oob[:10]); ok {
		t.Fatal("parsed a truncated control message")
	}
}

func TestComposedPipelineParityUnderImpairment(t *testing.T) {
	if testing.Short() {
		t.Skip("streams four sessions through both pipelines")
	}
	// The lossy workload exercises concealment, resequencing and
	// duplicates; the composed pipeline must match serverpipe.Pipeline
	// bit for bit on every frame and event.
	wl := findWorkload("raw-rtp-lossy")
	game, seq := serverInputs()
	tr := &tracedResult{layers: map[string]*layerStat{}}
	if err := pipelinePass(wl, 3, sessionBase(3), game, seq, &tracer{}, 400, tr, nil); err != nil {
		t.Fatal(err)
	}
	if tr.paritySessions != pipeSessions || tr.conceals == 0 || tr.reorder.Held == 0 {
		t.Fatalf("parity run too weak: %d sessions, %d conceals, %d held", tr.paritySessions, tr.conceals, tr.reorder.Held)
	}
}

func TestPlayerAgainstLiveHub(t *testing.T) {
	if testing.Short() {
		t.Skip("streams two sessions over loopback UDP for two seconds")
	}
	// The player's two receive loops, the scheduler's hellos and byes
	// and the final scoring share session state; run them against a real
	// hub socket (under -race in CI-style runs).
	conn, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	conn.SetDecoder(rtp.NewCodec())
	h := hub.New(hub.Config{Codec: codec.Lossless, IdleTimeout: -1}, conn)
	served := make(chan error, 1)
	go func() { served <- h.Serve() }()
	defer func() {
		h.Close()
		<-served
	}()

	wl := findWorkload("churn-raw")
	p, err := newPlayer(wl, 1, conn.LocalAddr())
	if err != nil {
		t.Fatal(err)
	}
	ss := []*psess{p.join(2, now()), p.join(3, now())}
	if err := awaitJoined(p, ss); err != nil {
		p.close()
		t.Fatal(err)
	}
	time.Sleep(2 * time.Second)
	p.bye(ss[0])
	time.Sleep(100 * time.Millisecond)
	p.close()

	res := &liveResult{}
	for _, s := range ss {
		cut := now()
		if s.ended.Load() {
			cut = s.byeAt
		}
		scoreSession(wl, s, cut, res)
	}
	if res.joins != 2 || res.joinsFailed != 0 || len(res.joinMS) != 2 {
		t.Fatalf("joins %d failed %d samples %d, want 2, 0, 2", res.joins, res.joinsFailed, len(res.joinMS))
	}
	if res.framesDue < 150 || res.framesMissed > res.framesDue/10 || res.insyncFrames == 0 {
		t.Fatalf("frames due %d missed %d, ISD points %d", res.framesDue, res.framesMissed, res.insyncFrames)
	}
	if p.chats.Load() == 0 {
		t.Fatal("no chat echoed")
	}
}
