// Package chaos injects deterministic, seeded faults into the simulated
// cloud so the probe fleet can be soaked against real-network weather:
// latency spikes, connection resets, dropped responses, 5xx bursts, MQTT
// disconnects, and slow-loris reads.
//
// Determinism is the whole point, and it follows the same discipline as
// internal/faultinject: every fault decision is a pure function of (seed,
// probe key, per-key attempt number). The key is the probe's unique
// identity (cloud.ProbeIDHeader on HTTP, the CONNECT username on MQTT), so
// the decision for attempt n of probe k never depends on how hundreds of
// concurrent probers interleave — identical seed, identical fault
// schedule, identical probe report at any prober count.
package chaos

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	"firmres/internal/cloud"
	"firmres/internal/mqtt"
	"firmres/internal/obs"
)

// Config selects the fault modes and their rates. Rates are probabilities
// in [0, 1] evaluated independently per (key, attempt); the zero value
// injects nothing.
type Config struct {
	Seed int64

	// LatencyRate delays a response by Latency before serving it normally.
	// Keep Latency well under the prober's per-attempt timeout: an injected
	// delay must slow the probe down, not change its answer.
	LatencyRate float64
	Latency     time.Duration // default 15ms

	// ResetRate severs the connection with a TCP reset before responding.
	ResetRate float64

	// DropRate closes the connection without writing a response.
	DropRate float64

	// Err5xxRate marks a probe key 5xx-prone: its first Err5xxBurst
	// attempts answer 502, then the burst heals. Bursts shorter than the
	// retry policy's attempt count always recover.
	Err5xxRate  float64
	Err5xxBurst int // default 2

	// SlowLorisRate serves a trickle of junk bytes for SlowHold, one byte
	// per SlowChunkDelay. SlowHold MUST exceed the prober's per-attempt
	// timeout so the client always gives up first: a slow-loris response
	// that completes would be misread as a real answer.
	SlowLorisRate  float64
	SlowChunkDelay time.Duration // default 25ms
	SlowHold       time.Duration // default 10s, twice cloud.NewProber's attempt timeout; probe layers override

	// MQTT sessions reuse the rates above: ResetRate+Err5xxRate reject the
	// CONNECT (severed before CONNACK), DropRate+SlowLorisRate sever the
	// session before its first post-CONNECT packet is processed, and
	// LatencyRate delays the CONNACK by Latency.
}

// Modes names the selectable fault modes for ForModes and CLI flags.
func Modes() []string {
	return []string{"latency", "reset", "drop", "5xx", "slowloris"}
}

// ForModes builds a Config enabling the named modes at moderate default
// rates; "all" (or no names) enables every mode. Unknown names are
// reported.
func ForModes(seed int64, modes ...string) (Config, bool) {
	all := len(modes) == 0
	for _, m := range modes {
		if strings.TrimSpace(m) == "all" {
			all = true
		}
	}
	cfg := Config{Seed: seed}
	for _, m := range modes {
		m = strings.TrimSpace(m)
		if m == "all" || m == "" {
			continue
		}
		switch m {
		case "latency":
			cfg.LatencyRate = 0.30
		case "reset":
			cfg.ResetRate = 0.12
		case "drop":
			cfg.DropRate = 0.12
		case "5xx":
			cfg.Err5xxRate = 0.15
		case "slowloris":
			cfg.SlowLorisRate = 0.08
		default:
			return Config{}, false
		}
	}
	if all {
		cfg.LatencyRate = 0.30
		cfg.ResetRate = 0.12
		cfg.DropRate = 0.12
		cfg.Err5xxRate = 0.15
		cfg.SlowLorisRate = 0.08
	}
	return cfg, true
}

// Enabled reports whether any fault mode has a non-zero rate.
func (c Config) Enabled() bool {
	return c.LatencyRate > 0 || c.ResetRate > 0 || c.DropRate > 0 ||
		c.Err5xxRate > 0 || c.SlowLorisRate > 0
}

// Fingerprint canonically renders the config for cache keying: two configs
// with equal fingerprints produce identical fault schedules.
func (c Config) Fingerprint() string {
	c = c.withDefaults()
	var b strings.Builder
	fmt.Fprintf(&b, "seed=%d;", c.Seed)
	fmt.Fprintf(&b, "latency=%g/%d;", c.LatencyRate, int64(c.Latency))
	fmt.Fprintf(&b, "reset=%g;drop=%g;", c.ResetRate, c.DropRate)
	fmt.Fprintf(&b, "5xx=%g/%d;", c.Err5xxRate, c.Err5xxBurst)
	fmt.Fprintf(&b, "slowloris=%g/%d/%d;", c.SlowLorisRate, int64(c.SlowChunkDelay), int64(c.SlowHold))
	return b.String()
}

func (c Config) withDefaults() Config {
	if c.Latency <= 0 {
		c.Latency = 15 * time.Millisecond
	}
	if c.Err5xxBurst <= 0 {
		c.Err5xxBurst = 2
	}
	if c.SlowChunkDelay <= 0 {
		c.SlowChunkDelay = 25 * time.Millisecond
	}
	if c.SlowHold <= 0 {
		c.SlowHold = 10 * time.Second
	}
	return c
}

// Injector applies a Config. Safe for concurrent use: fault decisions are
// pure functions of (seed, key, attempt) and the only shared state is the
// per-key attempt counter.
type Injector struct {
	cfg Config
	met *obs.Metrics

	mu       sync.Mutex
	attempts map[uint64]int64
}

// Option configures an Injector.
type Option func(*Injector)

// WithMetrics counts injected faults as probe_chaos_trips_total{fault}.
func WithMetrics(met *obs.Metrics) Option {
	return func(inj *Injector) { inj.met = met }
}

// New builds an injector for the config.
func New(cfg Config, opts ...Option) *Injector {
	inj := &Injector{cfg: cfg.withDefaults(), attempts: make(map[uint64]int64)}
	for _, o := range opts {
		o(inj)
	}
	return inj
}

// fault is one decided disruption; the zero value is a healthy pass.
type fault struct {
	latency time.Duration
	kind    string // "", "reset", "drop", "5xx", "slowloris"
}

// decide computes the fault for the next attempt on key. The per-key
// attempt counter makes retries see a fresh (but still deterministic) roll,
// so bursts heal on schedule regardless of cross-probe interleaving.
func (inj *Injector) decide(key string) fault {
	h := fnv.New64a()
	_, _ = io.WriteString(h, key)
	hk := h.Sum64()
	inj.mu.Lock()
	n := inj.attempts[hk]
	inj.attempts[hk] = n + 1
	inj.mu.Unlock()

	rng := rand.New(rand.NewSource(mix(inj.cfg.Seed, hk, n)))
	var f fault
	if rng.Float64() < inj.cfg.LatencyRate {
		f.latency = inj.cfg.Latency
	}
	// 5xx bursts are a key-level property (attempt-independent roll): a
	// 5xx-prone key answers 502 for its first Err5xxBurst attempts, then
	// heals.
	if n < int64(inj.cfg.Err5xxBurst) {
		keyRng := rand.New(rand.NewSource(mix(inj.cfg.Seed, hk, -1)))
		if keyRng.Float64() < inj.cfg.Err5xxRate {
			f.kind = "5xx"
			return f
		}
	}
	u := rng.Float64()
	switch {
	case u < inj.cfg.ResetRate:
		f.kind = "reset"
	case u < inj.cfg.ResetRate+inj.cfg.DropRate:
		f.kind = "drop"
	case u < inj.cfg.ResetRate+inj.cfg.DropRate+inj.cfg.SlowLorisRate:
		f.kind = "slowloris"
	}
	return f
}

// mix folds seed, key hash, and attempt number into one rand seed
// (splitmix64 finalizer).
func mix(seed int64, h uint64, n int64) int64 {
	x := uint64(seed) ^ h ^ (uint64(n) * 0x9E3779B97F4A7C15)
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return int64(x)
}

func (inj *Injector) trip(kind string) {
	inj.met.Counter("probe_chaos_trips_total", "fault", kind).Inc()
}

// Handler wraps an HTTP handler with fault injection — the middleware the
// simulated cloud installs in front of its routes. Keys on the probe ID
// header when present, else on the request shape.
func (inj *Injector) Handler(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		key := r.Header.Get(cloud.ProbeIDHeader)
		if key != "" {
			key = "http:" + key
		} else {
			body, _ := io.ReadAll(io.LimitReader(r.Body, 1<<20))
			r.Body = io.NopCloser(bytes.NewReader(body))
			key = "http:" + r.Method + " " + r.URL.String() + " " + string(body)
		}
		f := inj.decide(key)
		if f.latency > 0 {
			inj.trip("latency")
			time.Sleep(f.latency)
		}
		switch f.kind {
		case "reset":
			inj.trip("reset")
			sever(w, true)
			return
		case "drop":
			inj.trip("drop")
			sever(w, false)
			return
		case "5xx":
			inj.trip("5xx")
			http.Error(w, "Bad Gateway", http.StatusBadGateway)
			return
		case "slowloris":
			inj.trip("slowloris")
			inj.slowLoris(w, r)
			return
		}
		next.ServeHTTP(w, r)
	})
}

// sever hijacks the connection and closes it — with SO_LINGER 0 for a hard
// TCP reset, or plainly for a silent drop. Falls back to a 502 when the
// server doesn't support hijacking.
func sever(w http.ResponseWriter, reset bool) {
	hj, ok := w.(http.Hijacker)
	if !ok {
		http.Error(w, "Bad Gateway", http.StatusBadGateway)
		return
	}
	conn, _, err := hj.Hijack()
	if err != nil {
		return
	}
	if reset {
		if tc, ok := conn.(*net.TCPConn); ok {
			_ = tc.SetLinger(0)
		}
	}
	_ = conn.Close()
}

// slowLoris answers 200 and trickles junk bytes until the client hangs up
// or SlowHold expires. SlowHold must exceed the prober's per-attempt
// timeout, so a prober never sees this response complete.
func (inj *Injector) slowLoris(w http.ResponseWriter, r *http.Request) {
	w.WriteHeader(http.StatusOK)
	fl, _ := w.(http.Flusher)
	start := time.Now()
	ticker := time.NewTicker(inj.cfg.SlowChunkDelay)
	defer ticker.Stop()
	for {
		select {
		case <-r.Context().Done():
			return // client gave up: free the handler goroutine
		case <-ticker.C:
			if time.Since(start) >= inj.cfg.SlowHold {
				// Hold expired with the client still reading: sever rather
				// than complete, so the junk body is never classified.
				sever(w, false)
				return
			}
			if _, err := w.Write([]byte(".")); err != nil {
				return
			}
			if fl != nil {
				fl.Flush()
			}
		}
	}
}

// Disrupt computes the MQTT session disruption — the hook installed as the
// broker's ChaosFunc. Keys on the CONNECT username (the probe ID) when
// present, else on the client ID.
func (inj *Injector) Disrupt(clientID, username string) mqtt.Disruption {
	key := "mqtt:" + username
	if username == "" {
		key = "mqtt:" + clientID
	}
	f := inj.decide(key)
	var d mqtt.Disruption
	if f.latency > 0 {
		inj.trip("latency")
		d.ConnectDelay = f.latency
	}
	switch f.kind {
	case "reset", "5xx":
		inj.trip("mqtt-reject")
		d.RejectConn = true
	case "drop", "slowloris":
		inj.trip("mqtt-drop")
		d.DropAfter = 1
	}
	return d
}
