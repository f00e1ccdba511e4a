// Package probe closes the paper's §V loop: it spins up a simulated
// flawed cloud from a device's spec, replays every reconstructed message
// against it concurrently over HTTP and MQTT, and classifies the outcome —
// §V-C validity from the response class, §V-D exploitability from an
// attacker-variant replay.
//
// The fan-out is fault-tolerant by construction: every probe runs under a
// per-attempt deadline, a jittered retry budget, and a shared per-cloud
// circuit breaker; a probe that exhausts all of that degrades to a typed
// errdefs classification instead of panicking or hanging the stage. Every
// message always ends in exactly one terminal class: granted, denied,
// invalid, or probe-failed.
//
// Determinism: outcomes land in input-indexed slots and are sorted with
// the same comparator the report layer sorts messages with, fault
// injection (see internal/cloud/chaos) is keyed on per-probe identities
// rather than arrival order, and the breaker delays rather than fails. An
// identical seed therefore yields a byte-identical probe report at any
// prober count.
package probe

import (
	"context"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"firmres/internal/cloud"
	"firmres/internal/cloud/chaos"
	"firmres/internal/errdefs"
	"firmres/internal/fields"
	"firmres/internal/image"
	"firmres/internal/obs"
	"firmres/internal/parallel"
)

// Terminal classifications. Every probed message ends in exactly one.
const (
	ClassGranted = "granted"      // valid, and the attacker variant was granted access
	ClassDenied  = "denied"       // valid, and the attacker variant was refused
	ClassInvalid = "invalid"      // the cloud did not understand the message (§V-C), or it was discarded
	ClassFailed  = "probe-failed" // the probe itself failed after retries, with a typed error kind
)

// Default knobs.
const (
	DefaultProbers        = 8
	DefaultAttemptTimeout = time.Second
)

// Options configures a probe run. The zero value of everything but SpecFor
// is usable.
type Options struct {
	// SpecFor resolves a device's simulated-cloud spec from its report
	// identity; nil spec means no cloud is known for the device.
	SpecFor func(device, version string) *cloud.Spec
	// Resolver names SpecFor for cache fingerprinting ("corpus", ...).
	Resolver string
	// Chaos enables seeded fault injection on the cloud side; nil probes a
	// healthy cloud.
	Chaos *chaos.Config
	// Probers bounds the concurrent probers per device (default 8).
	// Reports are identical at any count.
	Probers int
	// AttemptTimeout bounds one probe attempt on either transport
	// (default 1s).
	AttemptTimeout time.Duration
	// Retry is the per-probe backoff policy; the zero value applies
	// cloud.Backoff defaults.
	Retry cloud.Backoff
	// BreakerThreshold and BreakerCooldown configure the per-cloud circuit
	// breaker (defaults in cloud.Breaker).
	BreakerThreshold int
	BreakerCooldown  time.Duration
	// Metrics receives the probe counters; nil-safe.
	Metrics *obs.Metrics
}

func (o Options) withDefaults() Options {
	if o.Probers <= 0 {
		o.Probers = DefaultProbers
	}
	if o.AttemptTimeout <= 0 {
		o.AttemptTimeout = DefaultAttemptTimeout
	}
	return o
}

// Fingerprint canonically renders every report-affecting option — the
// probe half of the analysis-cache key. Probers and Metrics are excluded:
// reports are prober-count-invariant and metrics never change the report.
// So is a chaos config with no fault enabled: Device installs no chaos
// layer for it.
func (o Options) Fingerprint() string {
	o = o.withDefaults()
	var b strings.Builder
	fmt.Fprintf(&b, "resolver=%s;", o.Resolver)
	fmt.Fprintf(&b, "attempt-timeout=%d;", int64(o.AttemptTimeout))
	r := o.Retry
	fmt.Fprintf(&b, "retry=%d/%d/%d/%d/%g;",
		r.Attempts, int64(r.Base), int64(r.Max), int64(r.Budget), r.Jitter)
	fmt.Fprintf(&b, "breaker=%d/%d;", o.BreakerThreshold, int64(o.BreakerCooldown))
	if o.Chaos != nil && o.Chaos.Enabled() {
		fmt.Fprintf(&b, "chaos=%s;", o.Chaos.Fingerprint())
	}
	return b.String()
}

// Attempt is one replay outcome (the device-identity replay or the
// attacker variant).
type Attempt struct {
	Class   string // response class (cloud.RespOK, ...)
	Status  int    `json:",omitempty"` // HTTP status, 0 for MQTT
	Valid   bool   // the cloud understood the message (§V-C)
	Granted bool   // access was granted
}

// Outcome is the terminal result for one reconstructed message.
type Outcome struct {
	Function  string
	Context   string `json:",omitempty"`
	Transport string // "http" or "mqtt"
	Route     string `json:",omitempty"` // path, query route, or topic
	// Classification is the terminal class: granted / denied / invalid /
	// probe-failed.
	Classification string
	Validity       *Attempt `json:",omitempty"` // device-identity replay
	Attack         *Attempt `json:",omitempty"` // attacker-variant replay
	// Vulnerable marks a §V-D confirmation: the message is valid and its
	// attacker variant was granted access.
	Vulnerable bool `json:",omitempty"`
	// Leaks lists per-device material found in the granted attack response.
	Leaks []string `json:",omitempty"`
	// ErrorKind is the errdefs taxonomy slug of a probe-failed outcome
	// ("probe-exhausted", "breaker-open", "stage-timeout"). The raw error
	// text is deliberately not recorded: it embeds ephemeral addresses and
	// race-dependent transport detail, and the report must be
	// byte-identical per seed.
	ErrorKind string `json:",omitempty"`
}

// Report is the per-device exploitability report.
type Report struct {
	Probed     int            // messages probed (all of them, by construction)
	Vulnerable int            // messages confirmed exploitable
	Counts     map[string]int // terminal class -> count
	Outcomes   []Outcome
}

// Device replays every message against a cloud built from spec and returns
// the exploitability report. The error return is reserved for a cloud that
// failed to start (wrapping errdefs.ErrCloudUnavailable); everything after
// that degrades into per-message outcomes. A ctx that expires mid-run
// leaves the unprobed remainder classified probe-failed/stage-timeout, so
// the report is always terminally classified in full.
func Device(ctx context.Context, spec *cloud.Spec, msgs []*fields.Message, img *image.Image, opts Options) (*Report, error) {
	o := opts.withDefaults()
	c := cloud.New(spec)
	if o.Chaos != nil && o.Chaos.Enabled() {
		cc := *o.Chaos
		if cc.SlowHold <= 0 {
			// The slow-loris hold must outlast the per-attempt timeout so
			// the prober always gives up before the junk response completes.
			cc.SlowHold = 2 * o.AttemptTimeout
		}
		inj := chaos.New(cc, chaos.WithMetrics(o.Metrics))
		c.HTTPMiddleware = inj.Handler
		c.MQTTChaos = inj.Disrupt
	}
	if _, _, err := c.Start(); err != nil {
		return nil, fmt.Errorf("probe: %w: %w", errdefs.ErrCloudUnavailable, err)
	}
	defer c.Close()

	// The fleet owns its transport: it keeps one idle connection per
	// prober, so no prober re-dials between its exchanges, and sizes its
	// buffers to the traffic (a probe's request line plus body and a
	// cloud's answer are a few hundred bytes; a longer one is read or
	// written in several passes).
	tr := &http.Transport{
		MaxIdleConnsPerHost: o.Probers,
		ReadBufferSize:      1 << 10,
		WriteBufferSize:     1 << 10,
	}
	defer tr.CloseIdleConnections()
	prober := cloud.NewProber(c)
	prober.AttemptTimeout = o.AttemptTimeout
	prober.Client.Transport = tr
	prober.Retry = o.Retry
	prober.Metrics = o.Metrics
	prober.Breaker = &cloud.Breaker{
		Threshold: o.BreakerThreshold,
		Cooldown:  o.BreakerCooldown,
	}

	// Concurrent probes of the same MQTT topic could read each other's
	// broker decisions out of the shared access log; serialize per topic.
	topics := newKeyedMutex()

	outcomes := make([]Outcome, len(msgs))
	parallel.ForEach(ctx, o.Probers, len(msgs), func(i int) {
		outcomes[i] = probeMessage(ctx, prober, topics, spec, i, msgs[i], img, o)
	})
	// Cancellation stops the pool from claiming indices; make the
	// unclaimed remainder terminal instead of leaving zero outcomes.
	for i := range outcomes {
		if outcomes[i].Classification == "" {
			outcomes[i] = timedOutOutcome(msgs[i], o)
		}
	}
	return assemble(outcomes), nil
}

// probeMessage runs the validity replay and, when valid, the attack replay
// for one message, always returning a terminal outcome.
func probeMessage(ctx context.Context, prober *cloud.Prober, topics *keyedMutex, spec *cloud.Spec, idx int, msg *fields.Message, img *image.Image, o Options) Outcome {
	out := outcomeShell(msg)
	if msg == nil || msg.Discarded {
		out.Classification = ClassInvalid
		o.Metrics.Counter("probe_results_total", "class", ClassInvalid).Inc()
		return out
	}
	sp := obs.StartChild(ctx, "probe",
		obs.String("fn", out.Function), obs.String("route", out.Route))
	defer sp.End()
	if msg.Format == fields.FormatMQTT {
		unlock := topics.lock(msg.Topic)
		defer unlock()
	}

	// Validity replay: the message exactly as reconstructed (§V-C).
	vctx := cloud.WithProbeID(ctx, probeID(spec.DeviceID, idx, "valid"))
	vres, err := prober.ProbeContext(vctx, msg)
	if err != nil {
		return failOutcome(out, err, o, sp)
	}
	out.Validity = attemptOf(vres)
	if !vres.Valid {
		out.Classification = ClassInvalid
		sp.SetStatus("invalid")
		o.Metrics.Counter("probe_results_total", "class", ClassInvalid).Inc()
		return out
	}

	// Attack replay: the attacker variant decides exploitability (§V-D).
	atk := cloud.AttackerMessage(msg, img)
	actx := cloud.WithProbeID(ctx, probeID(spec.DeviceID, idx, "attack"))
	ares, err := prober.ProbeContext(actx, atk)
	if err != nil {
		return failOutcome(out, err, o, sp)
	}
	out.Attack = attemptOf(ares)
	if ares.Granted {
		out.Classification = ClassGranted
		out.Vulnerable = true
		out.Leaks = cloud.AuditResponse(ares.Body, spec.Identity)
		sp.SetStatus("granted")
		o.Metrics.Counter("probe_results_total", "class", ClassGranted).Inc()
		o.Metrics.Counter("probe_vulnerable_total").Inc()
		return out
	}
	out.Classification = ClassDenied
	o.Metrics.Counter("probe_results_total", "class", ClassDenied).Inc()
	return out
}

func outcomeShell(msg *fields.Message) Outcome {
	var out Outcome
	if msg == nil {
		return out
	}
	out.Function = msg.Function
	out.Context = msg.Context
	if msg.Format == fields.FormatMQTT {
		out.Transport = "mqtt"
		out.Route = msg.Topic
	} else {
		out.Transport = "http"
		out.Route = msg.Path
		if out.Route == "" {
			// Raw messages embed the route at the front of the body.
			body := msg.Body
			if i := strings.IndexAny(body, "{ \n"); i > 0 {
				body = body[:i]
			}
			out.Route = body
		}
	}
	return out
}

func failOutcome(out Outcome, err error, o Options, sp *obs.Span) Outcome {
	out.Classification = ClassFailed
	out.ErrorKind = errdefs.Kind(err)
	sp.SetStatus("failed: " + out.ErrorKind)
	o.Metrics.Counter("probe_results_total", "class", ClassFailed).Inc()
	o.Metrics.Counter("probe_failed_total", "kind", out.ErrorKind).Inc()
	return out
}

// timedOutOutcome terminally classifies a message the cancelled pool never
// claimed.
func timedOutOutcome(msg *fields.Message, o Options) Outcome {
	out := outcomeShell(msg)
	if msg == nil || msg.Discarded {
		out.Classification = ClassInvalid
		o.Metrics.Counter("probe_results_total", "class", ClassInvalid).Inc()
		return out
	}
	out.Classification = ClassFailed
	out.ErrorKind = errdefs.Kind(errdefs.ErrStageTimeout)
	o.Metrics.Counter("probe_results_total", "class", ClassFailed).Inc()
	o.Metrics.Counter("probe_failed_total", "kind", out.ErrorKind).Inc()
	return out
}

func attemptOf(r *cloud.ProbeResult) *Attempt {
	return &Attempt{Class: r.Class, Status: r.Status, Valid: r.Valid, Granted: r.Granted}
}

// probeID uniquely identifies one probe for chaos keying: retries of this
// probe share the identity (so bursts heal on schedule), while every other
// probe — including the sibling variant of the same message — rolls its
// own schedule.
func probeID(deviceID, idx int, variant string) string {
	return fmt.Sprintf("%d/%d/%s", deviceID, idx, variant)
}

// assemble sorts outcomes with the report layer's message comparator and
// tallies the summary.
func assemble(outcomes []Outcome) *Report {
	sort.Slice(outcomes, func(i, j int) bool {
		if outcomes[i].Function != outcomes[j].Function {
			return outcomes[i].Function < outcomes[j].Function
		}
		return outcomes[i].Context < outcomes[j].Context
	})
	rep := &Report{Probed: len(outcomes), Counts: map[string]int{}, Outcomes: outcomes}
	for i := range outcomes {
		rep.Counts[outcomes[i].Classification]++
		if outcomes[i].Vulnerable {
			rep.Vulnerable++
		}
	}
	return rep
}

// keyedMutex hands out one mutex per key.
type keyedMutex struct {
	mu sync.Mutex
	m  map[string]*sync.Mutex
}

func newKeyedMutex() *keyedMutex {
	return &keyedMutex{m: make(map[string]*sync.Mutex)}
}

func (km *keyedMutex) lock(key string) (unlock func()) {
	km.mu.Lock()
	l, ok := km.m[key]
	if !ok {
		l = &sync.Mutex{}
		km.m[key] = l
	}
	km.mu.Unlock()
	l.Lock()
	return l.Unlock
}
