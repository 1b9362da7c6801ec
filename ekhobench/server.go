package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"ekho"
	"ekho/internal/codec"
	"ekho/internal/hub"
	"ekho/internal/rtp"
	"ekho/internal/transport"
)

// serverRole is the benchmark's re-exec'd child: an Ekho hub built the
// way cmd/ekho-server builds it (sniffing v2+RTP decoder, 64-session
// capacity, 8 shards, 20 ms ticker, 30 s idle reaping, paper marker
// volume and compensator defaults, two-stage detector, clip 0, /metrics
// and /sessions on loopback). Only the chat uplink codec profile is a
// parameter. It prints "ready <udp> <admin>" once serving and a "mem"
// line on SIGUSR1, and exits when stdin closes.
func serverRole(profile codec.Profile) error {
	log.SetFlags(log.Ltime | log.Lmicroseconds)
	conn, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	conn.SetDecoder(rtp.NewCodec())
	h := hub.New(hub.Config{
		Capacity:    64,
		Shards:      8,
		IdleTimeout: 30 * time.Second,
		MarkerC:     ekho.DefaultMarkerVolume,
		Detector:    ekho.DetectorTwoStage,
		Codec:       profile,
		Logf:        log.Printf,
	}, conn)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		conn.Close()
		return err
	}
	mux := http.NewServeMux()
	h.RegisterAdmin(mux)
	srv := &http.Server{Handler: mux}
	go func() { _ = srv.Serve(ln) }()

	// SIGUSR1 would end the process before Notify, so register first.
	usr := make(chan os.Signal, 4)
	signal.Notify(usr, syscall.SIGUSR1)
	serveErr := make(chan error, 1)
	go func() { serveErr <- h.Serve() }()
	fmt.Printf("ready %s %s\n", conn.LocalAddr(), ln.Addr())
	stdinClosed := make(chan struct{})
	go func() {
		_, _ = io.Copy(io.Discard, os.Stdin)
		close(stdinClosed)
	}()
	for done := false; !done; {
		select {
		case <-usr:
			fmt.Printf("mem %s\n", memLine())
		case <-stdinClosed:
			h.Close()
		case err = <-serveErr:
			done = true
		}
	}
	_ = srv.Close()
	return err
}

// memLine reports the process's cumulative heap allocations and GC
// cycles.
func memLine() string {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return fmt.Sprintf("mallocs=%d gc=%d", ms.Mallocs, ms.NumGC)
}

// parseMem reads a "mallocs=N gc=M" payload.
func parseMem(s string) (mallocs, gc int64) {
	for _, kv := range strings.Fields(s) {
		k, v, ok := strings.Cut(kv, "=")
		if !ok {
			continue
		}
		n, _ := strconv.ParseInt(v, 10, 64)
		switch k {
		case "mallocs":
			mallocs = n
		case "gc":
			gc = n
		}
	}
	return mallocs, gc
}

// child is a running server role, seen from the generator.
type child struct {
	cmd   *exec.Cmd
	stdin io.WriteCloser
	lines chan string
	udp   *net.UDPAddr
	admin string
	pid   int
}

// startChild re-execs the benchmark binary as a server role and waits
// for its ready line. The server's log goes to logw.
func startChild(exe string, profile string, logw io.Writer) (*child, error) {
	cmd := exec.Command(exe, "--role", "server", "--codec", profile)
	cmd.Stderr = logw
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	c := &child{cmd: cmd, stdin: stdin, lines: make(chan string, 16), pid: cmd.Process.Pid}
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			c.lines <- sc.Text()
		}
		close(c.lines)
	}()
	select {
	case line, ok := <-c.lines:
		fs := strings.Fields(line)
		if !ok || len(fs) != 3 || fs[0] != "ready" {
			c.kill()
			return nil, fmt.Errorf("server role: unexpected start line %q", line)
		}
		if c.udp, err = net.ResolveUDPAddr("udp", fs[1]); err != nil {
			c.kill()
			return nil, err
		}
		c.admin = fs[2]
	case <-time.After(30 * time.Second):
		c.kill()
		return nil, errors.New("server role: no ready line within 30 s")
	}
	return c, nil
}

// mem asks the server for its allocation counters.
func (c *child) mem() (mallocs, gc int64, err error) {
	if err := c.cmd.Process.Signal(syscall.SIGUSR1); err != nil {
		return 0, 0, err
	}
	select {
	case line, ok := <-c.lines:
		if rest, found := strings.CutPrefix(line, "mem "); ok && found {
			m, g := parseMem(rest)
			return m, g, nil
		}
		return 0, 0, fmt.Errorf("server role: unexpected line %q", line)
	case <-time.After(5 * time.Second):
		return 0, 0, errors.New("server role: no mem line")
	}
}

// stop closes the server's stdin and waits for it to exit.
func (c *child) stop() error {
	_ = c.stdin.Close()
	deadline := time.After(10 * time.Second)
	for {
		select {
		case _, ok := <-c.lines:
			if !ok {
				if err := c.cmd.Wait(); err != nil {
					return fmt.Errorf("server role: %w", err)
				}
				return nil
			}
		case <-deadline:
			c.kill()
			return errors.New("server role: did not exit within 10 s")
		}
	}
}

// kill ends the server role at once and reaps it.
func (c *child) kill() {
	_ = c.cmd.Process.Kill()
	_ = c.cmd.Wait()
}
