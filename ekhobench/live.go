package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// setupTrials is how many times a run launches a server and brings up
// the first cohort; setup_s is their median and the last server carries
// the measured window. Each trial also contributes one join wave.
const setupTrials = 9

// joinTimeout is how long a scheduled join may take before it counts as
// failed.
const joinTimeout = 2 * time.Second

// checkMinNS is how long a session must have streamed before its final
// ISD and marker matches are checked (a churned session lives ≥ 5 s).
const checkMinNS = 4500 * int64(time.Millisecond)

// isdAgreeMS bounds |isd_last_ms − oracle| for sessions whose true ISD
// has held long enough for the server to measure it.
const isdAgreeMS = 1.0

// isdHeldNS is how long the final true ISD must have held before the
// server's last measurement is expected to reflect it (a marker spans
// 1 s and the estimator holds detections back before finalizing). A
// session whose ISD moved more recently must instead match the true ISD
// somewhere in the last isdRecentNS.
const (
	isdHeldNS   = 4 * int64(time.Second)
	isdRecentNS = 6 * int64(time.Second)
)

// liveResult is everything one live run measured.
type liveResult struct {
	setupS       []float64
	joinMS       []float64
	joins        int
	joinsFailed  int
	helloRetries int

	insyncFrames, insyncOK  int
	convergeS               []float64
	late                    []lateSample
	framesDue, framesMissed int
	slipTicks               int

	chatsSent, chatsLost int64
	sendErrs             int64

	sessionsStream int
	cpuMSPerSessS  float64
	cpuWindows     int
	rssMB          float64

	// Per-layer readings of the live run (all from outside the server
	// except the server's own allocation report).
	rcvbufDrops   int64
	dispatchP99MS float64
	shedFrac      float64
	ctrlDropped   float64
	allocsPerSF   float64
	gcCycles      float64
	genCPUFrac    float64
	lagMS         []float64
	sessions      int
	isdCompared   int

	problems []string
}

func (r *liveResult) failf(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// runLive measures one workload against a hub in its own server process
// over kernel loopback UDP.
func runLive(wl *workload, seed int64, seconds int) (*liveResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	logf, err := os.Create(filepath.Join(filepath.Dir(exe), "server-"+wl.name+".log"))
	if err != nil {
		return nil, err
	}
	defer logf.Close()

	res := &liveResult{}
	base := sessionBase(seed)
	var (
		c      *child
		p      *player
		cohort []*psess
	)
	// On an error path the current server and player are torn down here;
	// the normal path stops them itself and clears c.
	defer func() {
		if c != nil {
			p.close()
			c.kill()
		}
	}()
	for trial := 0; trial < setupTrials; trial++ {
		if c != nil {
			p.close()
			err := c.stop()
			c = nil
			if err != nil {
				return nil, fmt.Errorf("setup trial %d: %w", trial, err)
			}
		}
		c, p, cohort, err = setupTrial(wl, seed, base, exe, logf, res)
		if err != nil {
			return nil, fmt.Errorf("setup trial %d: %w", trial, err)
		}
	}
	res.sessionsStream = wl.slots

	// Measured window.
	m0, err := scrapeMetrics(c.admin)
	if err != nil {
		return nil, err
	}
	mal0, gc0, err := c.mem()
	if err != nil {
		return nil, err
	}
	drops0, _ := udpRcvbufErrors()
	gen0 := selfCPU()
	w0 := now()
	end := w0 + int64(seconds)*int64(time.Second)
	stopCPU := make(chan struct{})
	cpuDone := make(chan []cpuSample, 1)
	go func() { cpuDone <- sampleCPU(c.pid, stopCPU) }()
	if wl.churn {
		churn(p, c, cohort, seed, base+2*uint32(wl.slots), end)
	} else {
		time.Sleep(time.Duration(end - now()))
	}
	close(stopCPU)
	cpu := <-cpuDone
	w1 := now()
	gen1 := selfCPU()
	drops1, _ := udpRcvbufErrors()
	m1, err := scrapeMetrics(c.admin)
	if err != nil {
		return nil, err
	}
	mal1, gc1, err := c.mem()
	if err != nil {
		return nil, err
	}
	hwm, err := procHWM(c.pid)
	if err != nil {
		return nil, err
	}
	infos, err := scrapeSessions(c.admin)
	if err != nil {
		return nil, err
	}
	infoAt := now()
	for _, s := range p.sessions() {
		if s.ended.Load() {
			continue
		}
		for i := range infos {
			if infos[i].ID == s.id {
				s.info, s.infoAt = &infos[i], infoAt
			}
		}
	}

	// Stop echoing, let in-flight chats land, then read the server's
	// inbound total.
	p.echo.Store(false)
	time.Sleep(300 * time.Millisecond)
	mEnd, err := scrapeMetrics(c.admin)
	if err != nil {
		return nil, err
	}
	p.close()
	stopErr := c.stop()
	c = nil
	if stopErr != nil {
		return nil, stopErr
	}

	win := float64(w1-w0) / 1e9
	var rates []float64
	for i := 1; i < len(cpu); i++ {
		dt := float64(cpu[i].at-cpu[i-1].at) / 1e9
		if dt >= cpuWindow.Seconds()/2 {
			rates = append(rates, float64(cpu[i].cpu-cpu[i-1].cpu)/1e6/(float64(wl.slots)*dt))
		}
	}
	if len(rates) == 0 {
		return nil, fmt.Errorf("no server CPU samples over the %.1f s window", win)
	}
	res.cpuMSPerSessS = median(rates)
	res.cpuWindows = len(rates)
	res.rssMB = float64(hwm) / (1 << 20)
	res.rcvbufDrops = drops1 - drops0
	res.dispatchP99MS = m1["ekho_dispatch_p99_ms"]
	if in := m1["ekho_packets_in_total"] - m0["ekho_packets_in_total"]; in > 0 {
		res.shedFrac = (m1["ekho_packets_shed_total"] - m0["ekho_packets_shed_total"]) / in
	}
	res.ctrlDropped = m1["ekho_ctrl_dropped_total"] - m0["ekho_ctrl_dropped_total"]
	res.gcCycles = float64(gc1 - gc0)
	res.genCPUFrac = float64(gen1-gen0) / 1e9 / win
	res.lagMS = p.lag

	res.chatsSent = p.chats.Load()
	res.sendErrs = p.sendErrs.Load()
	if lost := res.chatsSent + p.ctrl.Load() - int64(mEnd["ekho_packets_in_total"]); lost > 0 {
		res.chatsLost = lost
	}

	windowFrames := 0
	for _, s := range p.sessions() {
		cut := w1
		if s.ended.Load() {
			cut = s.byeAt
		}
		scoreSession(wl, s, cut, res)
		for _, f := range s.acc {
			if f.at >= w0 && f.at <= w1 {
				windowFrames++
			}
		}
	}
	if windowFrames > 0 {
		res.allocsPerSF = float64(mal1-mal0) / float64(windowFrames)
	}
	return res, nil
}

// joinSpacingNS spaces the hellos of a join wave by 0.618 of a tick,
// so consecutive joins sample the server's 20 ms tick phase evenly.
const joinSpacingNS = frameNS * 618034 / 1000000

// cpuWindow is the width of the windows server CPU is sampled over; the
// median window is reported, so a second in which the host ran slow
// moves the figure by one window's worth.
const cpuWindow = 2 * time.Second

// cpuSample is a server's cumulative CPU time at one instant.
type cpuSample struct {
	at  int64
	cpu time.Duration
}

// sampleCPU reads the server's CPU time now, every cpuWindow, and once
// more when stop closes.
func sampleCPU(pid int, stop <-chan struct{}) []cpuSample {
	var out []cpuSample
	read := func() {
		if c, err := procCPU(pid); err == nil {
			out = append(out, cpuSample{at: now(), cpu: c})
		}
	}
	read()
	t := time.NewTicker(cpuWindow)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			read()
		case <-stop:
			read()
			return out
		}
	}
}

// setupTrial launches a server role and brings up the first cohort,
// recording setup time. The cohort then leaves and a second cohort (the
// one a measured window streams) joins the now-warm hub in a wave of
// evenly phased hellos, whose join latencies are recorded.
func setupTrial(wl *workload, seed int64, base uint32, exe string, logw io.Writer, res *liveResult) (*child, *player, []*psess, error) {
	launch := now()
	c, err := startChild(exe, wl.profileFlag, logw)
	if err != nil {
		return nil, nil, nil, err
	}
	p, err := newPlayer(wl, seed, c.udp)
	if err != nil {
		c.kill()
		return nil, nil, nil, err
	}
	fail := func(err error) (*child, *player, []*psess, error) {
		p.close()
		c.kill()
		return nil, nil, nil, err
	}
	sched := now()
	first := make([]*psess, wl.slots)
	for i := range first {
		first[i] = p.join(base+uint32(i), sched)
		first[i].warmup = true
	}
	if err := awaitJoined(p, first); err != nil {
		return fail(fmt.Errorf("first cohort: %w", err))
	}
	last := int64(0)
	for _, s := range first {
		last = max(last, s.joinedAt())
		p.bye(s)
	}
	res.setupS = append(res.setupS, float64(last-launch)/1e9)

	wave := make([]*psess, wl.slots)
	t0 := now()
	for i := range wave {
		at := t0 + int64(i)*joinSpacingNS
		if d := at - now(); d > 0 {
			time.Sleep(time.Duration(d))
		}
		wave[i] = p.join(base+uint32(wl.slots+i), at)
		wave[i].cohort = true
	}
	if err := awaitJoined(p, wave); err != nil {
		return fail(fmt.Errorf("join wave: %w", err))
	}
	for _, s := range wave {
		res.joins++
		res.helloRetries += s.retries
		if d := s.joinedAt() - s.sched; d > int64(joinTimeout) {
			res.joinsFailed++
		} else {
			res.joinMS = append(res.joinMS, float64(d)/1e6)
		}
	}
	return c, p, wave, nil
}

// awaitJoined waits until every session has media on both endpoints,
// resending the hellos of sessions left waiting.
func awaitJoined(p *player, ss []*psess) error {
	deadline := now() + int64(10*time.Second)
	for {
		for _, s := range ss {
			if s.busy.Load() {
				return fmt.Errorf("session %d refused busy", s.id)
			}
		}
		waiting := p.retryHellos(ss)
		if waiting == 0 {
			return nil
		}
		if now() > deadline {
			return fmt.Errorf("%d/%d sessions not streaming after 10 s", waiting, len(ss))
		}
		time.Sleep(time.Millisecond)
	}
}

// churn runs the churn schedule until end: every slot's session streams
// for its seeded lifetime, is snapshotted on /sessions, sends Bye, and
// the slot re-joins at once under a fresh id. Hellos leave at their
// scheduled time; join latency is charged from it.
func churn(p *player, c *child, cohort []*psess, seed int64, nextID uint32, end int64) {
	type slot struct {
		s     *psess
		byeAt int64
	}
	slots := make([]slot, len(cohort))
	for i, s := range cohort {
		slots[i] = slot{s: s, byeAt: s.sched + lifeNS(seed, s.id)}
	}
	joining := make([]*psess, 0, len(cohort))
	for {
		t := int64(math.MaxInt64)
		for _, sl := range slots {
			t = min(t, sl.byeAt)
		}
		// Wake at the next bye, at the window's end, or to retry hellos.
		wake := min(t, end)
		if len(joining) > 0 {
			wake = min(wake, now()+helloRetryNS/5)
		}
		if d := wake - now(); d > 0 {
			time.Sleep(time.Duration(d))
		}
		if len(joining) > 0 && p.retryHellos(joining) == 0 {
			joining = joining[:0]
		}
		if now() >= end {
			return
		}
		if now() < t {
			continue
		}
		infos, _ := scrapeSessions(c.admin)
		infoAt := now()
		for i := range slots {
			sl := &slots[i]
			if sl.byeAt > t {
				continue
			}
			for k := range infos {
				if infos[k].ID == sl.s.id {
					sl.s.info, sl.s.infoAt = &infos[k], infoAt
				}
			}
			p.bye(sl.s)
			ns := p.join(nextID, sl.byeAt)
			joining = append(joining, ns)
			nextID++
			sl.s = ns
			sl.byeAt = ns.sched + lifeNS(seed, ns.id)
		}
	}
}

// scoreSession runs the oracle and the cadence checks over one session
// of the measured server, up to cut.
func scoreSession(wl *workload, s *psess, cut int64, res *liveResult) {
	if s.warmup {
		return
	}
	scr := framesUntil(s.scr, cut)
	acc := framesUntil(s.acc, cut)
	res.sessions++

	// Churned joins are scored here; the join wave's were scored at
	// setup.
	if !s.cohort {
		res.joins++
		res.helloRetries += s.retries
		j := s.joinedAt()
		if j == 0 || j-s.sched > int64(joinTimeout) || s.busy.Load() {
			res.joinsFailed++
		} else {
			res.joinMS = append(res.joinMS, float64(j-s.sched)/1e6)
		}
	}
	if len(acc) == 0 {
		return
	}

	for _, st := range [][]frameRec{scr, acc} {
		_, due, missed := lateness(st, cut)
		js, slip := jitter(st, cut, lateWindowNS)
		res.late = append(res.late, js...)
		res.slipTicks += slip
		res.framesDue += due
		res.framesMissed += missed
	}

	pts := trueISD(scr, acc, s.delay)
	for _, pt := range pts {
		res.insyncFrames++
		if math.Abs(pt.isd) <= syncTolSec {
			res.insyncOK++
		}
	}
	if i := convergeIndex(pts, syncTolSec); i >= 0 {
		res.convergeS = append(res.convergeS, float64(pts[i].at-acc[0].at)/1e9)
	}

	streamed := cut - acc[0].at
	if streamed < checkMinNS || len(pts) == 0 {
		return
	}
	final := pts[len(pts)-1].isd
	if !wl.impaired() && math.Abs(final) > syncTolSec {
		res.failf("session %d ended out of sync: true ISD %+.2f ms", s.id, final*1e3)
	}
	if s.info == nil {
		res.failf("session %d: no /sessions snapshot", s.id)
		return
	}
	if s.info.Matched == 0 {
		res.failf("session %d ended with zero matched markers (%d injected)", s.id, s.info.Injected)
	}
	// Compare the server's last measurement with the oracle at the
	// snapshot when the true ISD had held long enough to be measured.
	at := sort.Search(len(pts), func(i int) bool { return pts[i].at > s.infoAt })
	if at == 0 || s.info.Measurements == 0 {
		return
	}
	held := pts[:at]
	truth := held[len(held)-1].isd * 1e3
	res.isdCompared++
	if held[len(held)-1].at-heldSince(held, 1e-4) >= isdHeldNS {
		if d := math.Abs(s.info.ISDLastMS - truth); d > isdAgreeMS {
			res.failf("session %d: /sessions isd_last_ms %+.2f disagrees with true ISD %+.2f ms", s.id, s.info.ISDLastMS, truth)
		}
		return
	}
	for i := len(held) - 1; i >= 0 && held[i].at >= s.infoAt-isdRecentNS; i-- {
		if math.Abs(s.info.ISDLastMS-held[i].isd*1e3) <= isdAgreeMS {
			return
		}
	}
	res.failf("session %d: /sessions isd_last_ms %+.2f matches no true ISD of the last %d s (now %+.2f ms)",
		s.id, s.info.ISDLastMS, isdRecentNS/int64(time.Second), truth)
}

// framesUntil returns the frames that arrived by cut.
func framesUntil(fs []frameRec, cut int64) []frameRec {
	out := fs[:0:0]
	for _, f := range fs {
		if f.at <= cut {
			out = append(out, f)
		}
	}
	return out
}
