package main

import (
	"encoding/binary"
	"errors"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"ekho/internal/audio"
	"ekho/internal/codec"
	"ekho/internal/rtp"
	"ekho/internal/transport"
)

// origin is the generator's clock zero; every stamp is monotonic ns
// since it.
var origin = time.Now()

func now() int64 { return int64(time.Since(origin)) }

// echoAtten is the overheard air path's gain (the echo model's 0.1).
const echoAtten = 0.1

// player is the synthetic player fleet: every session's screen shares
// one UDP socket and every controller another, as NAT'd clients fan in.
// The screen loop overhears screen playback and echoes it as chat with
// the session's pending playback records piggybacked (the echo model of
// ekho-loadgen and hub.RunLoopback); the controller loop plays the
// accessory stream and logs a playback record per content-bearing frame.
// Both loops log every media frame they receive for the oracle.
type player struct {
	wl     *workload
	seed   int64
	server net.Addr
	scr    *net.UDPConn
	ctl    *net.UDPConn

	// echo gates chat sending; cleared when the measured window ends.
	echo atomic.Bool
	// chats counts chat datagrams put on the wire (duplicates included,
	// deliberate impairment drops excluded); ctrl counts hellos and
	// byes.
	chats atomic.Int64
	ctrl  atomic.Int64

	mu   sync.RWMutex
	sess map[uint32]*psess

	// lag holds media arrival → chat sent per chat, in ms (screen loop
	// only; read after close).
	lag []float64
	// sendErrs counts failed datagram sends.
	sendErrs atomic.Int64

	wg sync.WaitGroup
}

// psess is one synthetic session.
type psess struct {
	id     uint32
	wenc   transport.WireEncoder
	delay  int
	offset float64
	enc    *codec.Encoder

	sched   int64 // scheduled hello, ns
	helloAt int64 // last hello sent, ns
	retries int   // hellos resent for want of media
	cohort  bool  // joined in the setup wave (join scored there)
	warmup  bool  // first cohort: brings the hub up, then leaves unscored
	byeAt   int64 // ns the bye left (0 while live); written before ended

	firstScr atomic.Int64
	firstAcc atomic.Int64
	busy     atomic.Bool
	ended    atomic.Bool

	// Screen loop state.
	scr  []frameRec
	held []byte   // chat delayed by a swap, sent after the next one
	out  [][]byte // impair's result scratch
	mic  []float64
	pkt  []byte

	// Controller loop state.
	acc []frameRec

	mu      sync.Mutex
	pending []transport.PlaybackRecord
	spare   []transport.PlaybackRecord

	// info is the server's last /sessions view of the session, taken at
	// infoAt (before its bye, or when the window closed).
	info   *sessionInfo
	infoAt int64
}

// joinedAt is when the session had media on both endpoints (0 = not
// yet).
func (s *psess) joinedAt() int64 {
	a, b := s.firstScr.Load(), s.firstAcc.Load()
	if a == 0 || b == 0 {
		return 0
	}
	return max(a, b)
}

func newPlayer(wl *workload, seed int64, server net.Addr) (*player, error) {
	loop := &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)}
	scr, err := net.ListenUDP("udp", loop)
	if err != nil {
		return nil, err
	}
	ctl, err := net.ListenUDP("udp", loop)
	if err != nil {
		scr.Close()
		return nil, err
	}
	p := &player{wl: wl, seed: seed, server: server, scr: scr, ctl: ctl, sess: make(map[uint32]*psess)}
	p.echo.Store(true)
	p.wg.Add(2)
	go func() { defer p.wg.Done(); p.screenLoop() }()
	go func() { defer p.wg.Done(); p.ctrlLoop() }()
	return p, nil
}

// send puts one datagram on the wire from conn and reports success.
func (p *player) send(conn *net.UDPConn, b []byte) bool {
	if _, err := conn.WriteTo(b, p.server); err != nil {
		p.sendErrs.Add(1)
		return false
	}
	return true
}

// recvLoop reads datagrams one at a time until conn closes and decodes
// each with a sniffing codec (sessions of either framing share the
// socket). Each datagram is stamped with the time the kernel queued it
// on the socket (SO_TIMESTAMPNS), so the generator's own scheduling
// delay stays out of arrival times; without a kernel stamp the read time
// is used.
func recvLoop(conn *net.UDPConn, handle func(m *transport.Message, at int64)) {
	if rc, err := conn.SyscallConn(); err == nil {
		_ = rc.Control(func(fd uintptr) {
			_ = syscall.SetsockoptInt(int(fd), syscall.SOL_SOCKET, syscall.SO_TIMESTAMPNS, 1)
		})
	}
	dec := rtp.NewCodec()
	buf := make([]byte, transport.MaxDatagram)
	oob := make([]byte, 128)
	var msg transport.Message
	for {
		n, oobn, _, _, err := conn.ReadMsgUDP(buf, oob)
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return
			}
			continue
		}
		at, ok := kernelStamp(oob[:oobn])
		if !ok {
			at = now()
		}
		if dec.DecodeInto(&msg, buf[:n]) != nil {
			continue
		}
		handle(&msg, at)
	}
}

// originWall is origin on the wall clock, which kernel socket stamps
// use.
var originWall = origin.UnixNano()

// kernelStamp extracts an SCM_TIMESTAMPNS control message and converts
// it to the generator's clock.
func kernelStamp(oob []byte) (int64, bool) {
	const hdr = 16 // cmsghdr: len uint64, level int32, type int32
	for len(oob) >= hdr {
		l := int(binary.LittleEndian.Uint64(oob))
		level := int32(binary.LittleEndian.Uint32(oob[8:]))
		typ := int32(binary.LittleEndian.Uint32(oob[12:]))
		if l < hdr || l > len(oob) {
			return 0, false
		}
		if level == syscall.SOL_SOCKET && typ == syscall.SO_TIMESTAMPNS && l >= hdr+16 {
			sec := int64(binary.LittleEndian.Uint64(oob[hdr:]))
			nsec := int64(binary.LittleEndian.Uint64(oob[hdr+8:]))
			return sec*1e9 + nsec - originWall, true
		}
		oob = oob[(l+7)&^7:]
	}
	return 0, false
}

// close stops both loops and waits for them.
func (p *player) close() {
	p.scr.Close()
	p.ctl.Close()
	p.wg.Wait()
}

// join registers session id and sends its two hellos. sched is the
// hello's scheduled time, from which join latency is charged.
func (p *player) join(id uint32, sched int64) *psess {
	s := newPsess(p.wl, id, sched)
	p.mu.Lock()
	p.sess[id] = s
	p.mu.Unlock()
	p.hello(s)
	return s
}

// helloRetryNS is how long a session waits for media before sending
// its hellos again: a hello is one UDP datagram, and the server's socket
// drops datagrams when its receive buffer is full.
const helloRetryNS = 250 * int64(time.Millisecond)

// hello sends session s's screen and controller hellos.
func (p *player) hello(s *psess) {
	s.helloAt = now()
	if p.send(p.scr, s.wenc.AppendHello(nil, transport.Hello{Session: s.id, Role: transport.RoleScreen})) {
		p.ctrl.Add(1)
	}
	if p.send(p.ctl, s.wenc.AppendHello(nil, transport.Hello{Session: s.id, Role: transport.RoleController})) {
		p.ctrl.Add(1)
	}
}

// retryHellos resends the hellos of every session in ss still waiting
// for media after helloRetryNS. It reports how many are still waiting.
func (p *player) retryHellos(ss []*psess) (waiting int) {
	t := now()
	for _, s := range ss {
		if s.joinedAt() > 0 || s.busy.Load() || s.ended.Load() {
			continue
		}
		waiting++
		if t-s.helloAt >= helloRetryNS {
			p.hello(s)
			s.retries++
		}
	}
	return waiting
}

// newPsess returns session id's player state under the echo model.
func newPsess(wl *workload, id uint32, sched int64) *psess {
	var wenc transport.WireEncoder = transport.V2{}
	if wl.wireFor(id) == transport.WireRTP {
		wenc = rtp.Encoder{}
	}
	return &psess{
		id:     id,
		wenc:   wenc,
		delay:  airDelayFrames(id),
		offset: float64(id), // deliberately unsynchronized clocks
		enc:    codec.NewEncoder(wl.profile),
		sched:  sched,
	}
}

// bye ends session s from its controller.
func (p *player) bye(s *psess) {
	s.byeAt = now()
	s.ended.Store(true)
	if p.send(p.ctl, s.wenc.AppendBye(nil, transport.Bye{Session: s.id})) {
		p.ctrl.Add(1)
	}
}

func (p *player) lookup(id uint32) *psess {
	p.mu.RLock()
	s := p.sess[id]
	p.mu.RUnlock()
	if s == nil || s.ended.Load() {
		return nil
	}
	return s
}

// sessions returns every session the player has run.
func (p *player) sessions() []*psess {
	p.mu.RLock()
	defer p.mu.RUnlock()
	out := make([]*psess, 0, len(p.sess))
	for _, s := range p.sess {
		out = append(out, s)
	}
	return out
}

// ctrlLoop plays the accessory stream.
func (p *player) ctrlLoop() {
	recvLoop(p.ctl, func(m *transport.Message, at int64) {
		s := p.lookup(m.Session)
		if s == nil {
			return
		}
		if m.Type == transport.TypeBusy {
			s.busy.Store(true)
			return
		}
		if m.Type != transport.TypeMedia {
			return
		}
		md := &m.Media
		s.acc = append(s.acc, frameRec{seq: md.Seq, cs: md.ContentStart, co: md.ContentOff, at: at})
		s.firstAcc.CompareAndSwap(0, at)
		if md.ContentStart < 0 {
			return
		}
		local := s.offset + float64(md.Seq)*frameSec + float64(md.ContentOff)/sampleRate
		s.mu.Lock()
		s.pending = append(s.pending, transport.PlaybackRecord{
			ContentStart: md.ContentStart,
			LocalMicros:  int64(local * 1e6),
			N:            uint16(len(md.Samples)) - md.ContentOff,
		})
		s.mu.Unlock()
	})
}

// screenLoop overhears screen playback and echoes each frame as chat at
// once; the workload's seeded impairment decides per (session, seq)
// whether a chat is dropped, swapped with its successor or duplicated.
func (p *player) screenLoop() {
	recvLoop(p.scr, func(m *transport.Message, at int64) {
		s := p.lookup(m.Session)
		if s == nil {
			return
		}
		if m.Type == transport.TypeBusy {
			s.busy.Store(true)
			return
		}
		if m.Type != transport.TypeMedia {
			return
		}
		md := &m.Media
		s.scr = append(s.scr, frameRec{seq: md.Seq, cs: md.ContentStart, co: md.ContentOff, at: at})
		s.firstScr.CompareAndSwap(0, at)
		if !p.echo.Load() {
			return
		}
		b := s.echoChat(md)
		if b == nil {
			return
		}
		sent := 0
		for _, d := range s.impair(p.wl.impair, p.seed, md.Seq, b) {
			if p.send(p.scr, d) {
				sent++
			}
		}
		p.chats.Add(int64(sent))
		lag := float64(now()-at) / 1e6
		for i := 0; i < sent; i++ {
			p.lag = append(p.lag, lag)
		}
	})
}

// echoChat builds the chat datagram a player's headset would send for
// one overheard screen frame: the frame attenuated and encoded, stamped
// with its capture time delayFrames later on the session clock, carrying
// the pending playback records. The buffer is fresh per chat (a swap may
// hold it past the batch).
func (s *psess) echoChat(md *transport.Media) []byte {
	if cap(s.mic) < len(md.Samples) {
		s.mic = make([]float64, len(md.Samples))
	}
	mic := s.mic[:len(md.Samples)]
	for j, v := range md.Samples {
		mic[j] = audio.Int16ToFloat(v) * echoAtten
	}
	pkt, err := s.enc.EncodeTo(s.pkt[:0], mic)
	if err != nil {
		return nil
	}
	s.pkt = pkt
	adc := int64((s.offset + float64(int64(md.Seq)+int64(s.delay))*frameSec) * 1e6)
	s.mu.Lock()
	recs := s.pending
	s.pending = s.spare[:0]
	s.spare = recs
	s.mu.Unlock()
	b, err := s.wenc.AppendChat(nil, transport.Chat{
		Seq: md.Seq, Session: s.id, ADCMicros: adc, Records: recs, Encoded: pkt})
	if err != nil {
		return nil
	}
	return b
}

// impair applies the seeded uplink fault model to chat seq and returns
// the datagrams to send now, in order: none for a drop, the chat twice
// for a duplicate, and a chat held by an earlier swap after its
// successor.
func (s *psess) impair(im impairment, seed int64, seq uint32, b []byte) [][]byte {
	out := s.out[:0]
	switch im.decide(seed, s.id, seq) {
	case drop:
		b = nil
	case swapNext:
		if s.held == nil {
			s.held = b
			return out
		}
	case duplicate:
		out = append(out, b)
	}
	if b != nil {
		out = append(out, b)
	}
	if s.held != nil {
		out = append(out, s.held)
		s.held = nil
	}
	s.out = out
	return out
}

func isTimeout(err error) bool {
	if errors.Is(err, os.ErrDeadlineExceeded) {
		return true
	}
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}
