// Command ekhobench is Ekho's player-side benchmark. It runs a hub in a
// server process of its own (this binary re-exec'd with --role server)
// and drives it over kernel loopback UDP from one generator process that
// acts as every player: it receives both media streams, echoes
// attenuated screen audio as chat with piggybacked playback records, and
// scores each session's true inter-stream delay (ISD) from what it
// received. The server is read only from outside: /proc, /metrics and
// /sessions.
//
//	ekhobench --workload paper-swb32 --seed 1 --seconds 30 --trace 0
//
// --trace 0 prints the end-to-end metrics. --trace 1 prints the
// per-layer ledger: the live run's outside readings plus a separate
// in-process traced run that times calls into each layer's public
// functions and checks a pipeline composed from serverpipe's parts
// against serverpipe.Pipeline bit for bit. Every metric line names its
// unit and sample count; the last line is one JSON object. The exit code
// is non-zero when any output check fails.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"ekho/internal/codec"
	"ekho/internal/transport"
)

// workload is one traffic mix.
type workload struct {
	name string
	why  string
	// slots is the number of concurrent sessions.
	slots int
	// wire is the framing every session speaks, unless alternate: then
	// odd ids speak RTP and even ids v2.
	wire      transport.Wire
	alternate bool
	// profile is the chat uplink codec; profileFlag names it for the
	// server role.
	profile     codec.Profile
	profileFlag string
	// impair is the seeded uplink fault model (zero = clean path).
	impair impairment
	// churn makes every session leave after its seeded lifetime and its
	// slot re-join under a fresh id.
	churn bool
}

func (wl *workload) wireFor(id uint32) transport.Wire {
	if wl.alternate {
		if id%2 == 1 {
			return transport.WireRTP
		}
		return transport.WireV2
	}
	return wl.wire
}

func (wl *workload) impaired() bool { return wl.impair != impairment{} }

var profiles = map[string]codec.Profile{
	"swb32": codec.SWB32,
	"raw":   codec.Lossless,
}

var workloads = []*workload{
	{
		name: "paper-swb32", slots: 24, wire: transport.WireV2,
		profile: codec.SWB32, profileFlag: "swb32",
		why: "production shape: 24 sessions, v2 framing, SWB 32 kbps uplink, clean path; codec decode dominates server cost",
	},
	{
		name: "raw-rtp-lossy", slots: 32, wire: transport.WireRTP,
		profile: codec.Lossless, profileFlag: "raw",
		impair: impairment{loss: 0.01, swap: 0.02, dup: 0.005},
		why:    "32 RTP sessions, 7.7 KB raw chats, seeded 1% loss/2% swap/0.5% dup: estimator, injection, rtp, jitterbuf and socket layer",
	},
	{
		name: "churn-raw", slots: 16, alternate: true,
		profile: codec.Lossless, profileFlag: "raw", churn: true,
		why: "16 slots whose sessions bye after 5-6 s and re-join under fresh ids, alternating v2/RTP: admission and teardown",
	},
}

func findWorkload(name string) *workload {
	for _, wl := range workloads {
		if wl.name == name {
			return wl
		}
	}
	return nil
}

func main() {
	role := flag.String("role", "generator", "process role: generator, or server (internal re-exec)")
	codecFlag := flag.String("codec", "swb32", "server role: chat uplink codec profile (swb32 or raw)")
	wlName := flag.String("workload", "paper-swb32", "workload: paper-swb32, raw-rtp-lossy or churn-raw")
	seed := flag.Int64("seed", 1, "workload seed: session ids, impairment and churn schedule derive from it")
	seconds := flag.Int("seconds", 30, "measured window, seconds")
	traced := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer ledger")
	flag.Parse()

	if *role == "server" {
		prof, ok := profiles[*codecFlag]
		if !ok {
			fmt.Fprintf(os.Stderr, "ekhobench: unknown -codec %q\n", *codecFlag)
			os.Exit(2)
		}
		if err := serverRole(prof); err != nil {
			fmt.Fprintln(os.Stderr, "ekhobench server:", err)
			os.Exit(1)
		}
		return
	}
	wl := findWorkload(*wlName)
	if wl == nil || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "ekhobench: bad arguments (workload %q, seconds %d, trace %d)\n", *wlName, *seconds, *traced)
		os.Exit(2)
	}

	// The generator keeps to one core, so the server always has the
	// other: player-side contention stays out of the server's cadence.
	runtime.GOMAXPROCS(1)
	printHost()
	live, err := runLive(wl, *seed, *seconds)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ekhobench:", err)
		os.Exit(1)
	}
	rep := &report{Correct: true}
	// The operations the player performs are joins: each is answered
	// with media on both endpoints or it fails. Late frames and chats
	// lost on the UDP path are quality, not failed operations; their
	// shares are the end-to-end metrics frames_ontime_frac and
	// chat_delivered_frac, and their raw counts print on count lines.
	rep.Attempted = int64(live.joins)
	rep.Failed = int64(live.joinsFailed)
	problems := live.problems
	if *traced == 0 {
		problems = append(problems, endToEnd(live, rep)...)
	} else {
		// The live server is gone; the in-process passes use every core.
		runtime.GOMAXPROCS(runtime.NumCPU())
		tr, err := runTraced(wl, *seed)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ekhobench: traced run:", err)
			os.Exit(1)
		}
		problems = append(problems, tr.problems...)
		perLayer(live, tr, rep)
		if exe, err := os.Executable(); err == nil {
			path := filepath.Join(filepath.Dir(exe), fmt.Sprintf("spans-%s-%d.tsv", wl.name, *seed))
			if err := writeSpans(path, tr.dump); err != nil {
				fmt.Fprintln(os.Stderr, "ekhobench: writing spans:", err)
			} else {
				fmt.Println("spans written to", path)
			}
		}
	}
	fmt.Printf("checks: %d sessions scored, %d compared with /sessions isd_last_ms\n", live.sessions, live.isdCompared)
	for _, p := range problems {
		fmt.Println("CHECK FAILED:", p)
	}
	rep.Correct = len(problems) == 0
	b, _ := json.Marshal(rep)
	fmt.Println(string(b))
	if !rep.Correct {
		os.Exit(1)
	}
}

// printHost states where the numbers come from.
func printHost() {
	fmt.Printf("host: nproc=%d gomaxprocs generator=%d server=%d net.core.rmem_default=%d net.core.rmem_max=%d %s/%s %s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.NumCPU(),
		sysctlInt("/proc/sys/net/core/rmem_default"), sysctlInt("/proc/sys/net/core/rmem_max"),
		runtime.GOOS, runtime.GOARCH, runtime.Version())
	fmt.Println("traffic: server and generator are separate processes on this host; every datagram crossed the loopback interface (127.0.0.1), not a real link")
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the final JSON line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// put records a metric and prints its line.
func (r *report) put(name string, v float64, unit string, samples int) {
	if r.Metrics == nil {
		r.Metrics = make(map[string]metric)
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
	fmt.Printf("metric %-36s %14.6g %-6s n=%d\n", name, v, unit, samples)
}

// putPct records a percentile, or a problem when too few samples lie
// beyond it.
func (r *report) putPct(name string, xs []float64, q float64, unit string, problems *[]string) {
	v, ok := percentile(xs, q)
	if !ok {
		*problems = append(*problems, fmt.Sprintf("%s: %d samples leave fewer than %d beyond p%g", name, len(xs), minBeyond, q*100))
		return
	}
	r.put(name, v, unit, len(xs))
}

// lateWindowNS is the width of the windows frame lateness percentiles
// are taken over before the median across windows is reported.
const lateWindowNS = 2 * int64(time.Second)

// endToEnd reports the user-visible metrics of a live run.
func endToEnd(l *liveResult, r *report) (problems []string) {
	r.put("setup_s", median(l.setupS), "s", len(l.setupS))
	if l.insyncFrames == 0 {
		problems = append(problems, "no accessory frame had a true ISD")
	} else {
		r.put("insync_frac", float64(l.insyncOK)/float64(l.insyncFrames), "ratio", l.insyncFrames)
	}
	r.putPct("converge_s_p50", l.convergeS, 0.5, "s", &problems)
	if v, windows, ok := windowedPercentile(l.late, lateWindowNS, 0.5); ok {
		r.put("frame_late_ms_p50", v, "ms", len(l.late))
		fmt.Printf("       (median over %d windows of %d s)\n", windows, lateWindowNS/1e9)
	} else {
		problems = append(problems, fmt.Sprintf("frame_late_ms_p50: no %d s window has enough frames", lateWindowNS/1e9))
	}
	// The tail percentiles swing with the host more than any bound
	// allows (see ekhobench/METRICS.md); they are printed, not gated.
	for _, q := range []struct {
		name string
		q    float64
	}{{"frame_late_ms_p90", 0.9}, {"frame_late_ms_p99", 0.99}} {
		if v, windows, ok := windowedPercentile(l.late, lateWindowNS, q.q); ok {
			fmt.Printf("info   %s %.4g ms (median over %d windows; not gated)\n", q.name, v, windows)
		}
	}
	if l.framesDue == 0 {
		problems = append(problems, "no frame was due")
	} else {
		r.put("frames_ontime_frac", 1-float64(l.framesMissed)/float64(l.framesDue), "ratio", l.framesDue)
	}
	fmt.Printf("count  frames_missed %d of %d due; schedules slipped %d ticks in all\n", l.framesMissed, l.framesDue, l.slipTicks)
	if l.chatsSent == 0 {
		problems = append(problems, "no chat was sent")
	} else {
		r.put("chat_delivered_frac", 1-float64(l.chatsLost)/float64(l.chatsSent), "ratio", int(l.chatsSent))
	}
	fmt.Printf("count  chats_lost %d of %d sent (control packets netted out); %d generator sends failed\n",
		l.chatsLost, l.chatsSent, l.sendErrs)
	r.put("server_cpu_ms_per_session_s", l.cpuMSPerSessS, "ms", l.cpuWindows)
	fmt.Printf("       (median over %d windows of %.0f s, %d sessions)\n", l.cpuWindows, cpuWindow.Seconds(), l.sessionsStream)
	r.put("server_rss_mb", l.rssMB, "MB", 1)
	r.putPct("join_ms_p50", l.joinMS, 0.5, "ms", &problems)
	r.putPct("join_ms_p90", l.joinMS, 0.9, "ms", &problems)
	fmt.Printf("count  joins_failed %d of %d attempted (%d hellos resent after %d ms without media)\n",
		l.joinsFailed, l.joins, l.helloRetries, helloRetryNS/1e6)
	return problems
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
