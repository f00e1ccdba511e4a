package firmres

// FirmProbe: the §V replay loop as an opt-in pipeline stage. After the
// static analysis reconstructs a device's messages, WithProbe spins up a
// simulated flawed cloud from the device's spec, replays every message
// against it over HTTP and MQTT on a bounded prober fleet, and classifies
// each one — validity from the cloud's answer (§V-C), exploitability from
// an attacker-variant replay (§V-D). WithProbeChaos additionally injects
// seeded, deterministic faults (latency, resets, drops, 5xx bursts, MQTT
// disconnects, slow-loris) in front of the cloud so the fleet's fault
// tolerance is exercised end to end: identical seeds yield byte-identical
// probe reports at any prober count.

import (
	"fmt"
	"sync"
	"time"

	"firmres/internal/cloud"
	"firmres/internal/cloud/chaos"
	"firmres/internal/cloud/probe"
	"firmres/internal/corpus"
)

// Probe terminal classifications: every probed message ends in exactly one.
const (
	ProbeGranted = probe.ClassGranted // attacker variant granted: exploitable
	ProbeDenied  = probe.ClassDenied  // attacker variant refused
	ProbeInvalid = probe.ClassInvalid // cloud did not understand the message
	ProbeFailed  = probe.ClassFailed  // probe failed after retries (typed ErrorKind)
)

// ProbeAttempt is one replay outcome (device-identity or attacker
// variant): the response class ("Request OK", "Access Denied", ...), the
// HTTP status (0 for MQTT), whether the cloud understood the message
// (§V-C) and whether it granted access.
type ProbeAttempt = probe.Attempt

// ProbeOutcome is the terminal result for one reconstructed message; its
// Classification is one of ProbeGranted, ProbeDenied, ProbeInvalid and
// ProbeFailed.
type ProbeOutcome = probe.Outcome

// ProbeReport is the per-device exploitability report of the probe stage.
type ProbeReport = probe.Report

// validProbeReport makes every string rep holds valid UTF-8, in place, and
// returns it; an empty outcome list becomes nil.
func validProbeReport(rep *ProbeReport) *ProbeReport {
	if len(rep.Outcomes) == 0 {
		rep.Outcomes = nil
	}
	for i := range rep.Outcomes {
		o := &rep.Outcomes[i]
		o.Function, o.Context = validUTF8(o.Function), validUTF8(o.Context)
		o.Transport, o.Route = validUTF8(o.Transport), validUTF8(o.Route)
		o.Classification, o.ErrorKind = validUTF8(o.Classification), validUTF8(o.ErrorKind)
		o.Leaks = validUTF8s(o.Leaks)
		for _, a := range [2]*ProbeAttempt{o.Validity, o.Attack} {
			if a != nil {
				a.Class = validUTF8(a.Class)
			}
		}
	}
	return rep
}

// ensureProbe lazily installs the probe stage configuration with the corpus
// spec resolver, so the WithProbe* options compose in any order.
func ensureProbe(c *config) *probe.Options {
	if c.opts.Probe == nil {
		c.opts.Probe = &probe.Options{
			Resolver: "corpus",
			SpecFor:  corpusSpecFor,
		}
	}
	return c.opts.Probe
}

// corpusSpecs holds one simulated-cloud spec per Table I row, built on the
// row's first lookup and then shared by every analysis of that row, which
// only reads it (the probe stage, its cloud and its prober never write a
// spec). It is indexed by row, so identities read from images never add
// an entry.
var corpusSpecs [corpus.NumDevices]struct {
	once sync.Once
	spec *cloud.Spec
}

// corpusSpecFor resolves the shared, read-only simulated-cloud spec of a
// corpus device by its report identity.
func corpusSpecFor(device, version string) *cloud.Spec {
	id := corpus.IDByIdentity(device, version)
	if id == 0 {
		return nil
	}
	row := &corpusSpecs[id-1]
	row.once.Do(func() { row.spec = corpus.CloudSpec(corpus.Device(id)) })
	return row.spec
}

// WithProbe enables the probe-replay stage: every reconstructed message is
// replayed against a simulated cloud built from the device's corpus spec
// and terminally classified (see Report.Probe). Devices with no known spec
// degrade with a Report.Errors note instead of failing.
func WithProbe() Option {
	return func(c *config) { ensureProbe(c) }
}

// WithProbeChaos enables WithProbe and injects seeded deterministic faults
// in front of the simulated cloud. Modes: "latency", "reset", "drop",
// "5xx", "slowloris"; "all" (or no names) enables every mode. An unknown
// mode fails the analysis with a configuration error. Compose with
// WithProbeSeed in either order.
func WithProbeChaos(modes ...string) Option {
	return func(c *config) {
		po := ensureProbe(c)
		var seed int64
		if po.Chaos != nil {
			seed = po.Chaos.Seed
		}
		cfg, ok := chaos.ForModes(seed, modes...)
		if !ok {
			c.err = fmt.Errorf("firmres: unknown probe chaos mode in %v (have %v)", modes, chaos.Modes())
			return
		}
		po.Chaos = &cfg
	}
}

// ProbeChaosModes lists the selectable chaos fault modes.
func ProbeChaosModes() []string { return chaos.Modes() }

// WithProbeSeed enables WithProbe and pins the chaos fault schedule's seed:
// identical seeds produce byte-identical probe reports. Without
// WithProbeChaos no faults are injected, so the seed changes neither the
// report nor the cache key.
func WithProbeSeed(seed int64) Option {
	return func(c *config) {
		po := ensureProbe(c)
		if po.Chaos == nil {
			po.Chaos = &chaos.Config{}
		}
		po.Chaos.Seed = seed
	}
}

// WithProbeProbers enables WithProbe and bounds the concurrent probers per
// device (default 8). Reports are byte-identical at any count.
func WithProbeProbers(n int) Option {
	return func(c *config) { ensureProbe(c).Probers = n }
}

// WithProbeTimeout enables WithProbe and bounds one probe attempt on either
// transport (default 1s). The chaos layer's slow-loris hold auto-scales to
// stay above it.
func WithProbeTimeout(d time.Duration) Option {
	return func(c *config) { ensureProbe(c).AttemptTimeout = d }
}
