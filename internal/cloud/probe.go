package cloud

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"strings"
	"time"

	"firmres/internal/fields"
	"firmres/internal/formcheck"
	"firmres/internal/image"
	"firmres/internal/mqtt"
	"firmres/internal/obs"
	"firmres/internal/semantics"
	"firmres/internal/taint"
)

// ProbeIDHeader carries the probe's unique identity on HTTP attempts so the
// chaos layer can key its fault decisions on the probe, not on arrival
// order or request bytes (two probes may send identical bytes).
const ProbeIDHeader = "X-Firmres-Probe"

// probeIDKey carries the probe identity through a context.
type probeIDKey struct{}

// WithProbeID returns ctx carrying the probe's unique identity. HTTP
// attempts send it as the ProbeIDHeader; MQTT attempts send it as the
// CONNECT username (which the simulated clouds ignore for auth).
func WithProbeID(ctx context.Context, id string) context.Context {
	if id == "" {
		return ctx
	}
	return context.WithValue(ctx, probeIDKey{}, id)
}

// ProbeIDFromContext returns the probe identity, or "".
func ProbeIDFromContext(ctx context.Context) string {
	if ctx == nil {
		return ""
	}
	id, _ := ctx.Value(probeIDKey{}).(string)
	return id
}

// ProbeResult is the outcome of sending one reconstructed message.
type ProbeResult struct {
	Class   string // response class (RespOK, RespAccessDenied, ...)
	Status  int    // HTTP status (0 for MQTT)
	Body    string // response body
	Valid   bool   // the cloud understood the message (§V-C validity)
	Granted bool   // access was granted
}

// Prober sends reconstructed messages to a simulated cloud. One Prober may
// be shared by many goroutines probing concurrently.
type Prober struct {
	HTTPAddr string
	Cloud    *Cloud // for MQTT feedback and in-process experiments
	// Client sends HTTP attempts. It sets no timeout of its own: an
	// attempt's one bound is AttemptTimeout.
	Client *http.Client
	// AttemptTimeout bounds one attempt on either transport, as the
	// deadline of the context it runs under: an HTTP exchange, body
	// included, or an MQTT dial, publish and wait for the broker's
	// decision. Zero leaves an attempt bounded by its caller's context
	// alone.
	AttemptTimeout time.Duration
	// Retry is the per-probe retry policy; the zero value applies the
	// defaults. Its Budget caps the total time one Probe call may spend
	// across attempts.
	Retry Backoff
	// Breaker, when non-nil, is the per-cloud circuit breaker every attempt
	// runs through.
	Breaker *Breaker
	// Metrics receives probe_attempts_total and probe_retries_total;
	// nil-safe.
	Metrics *obs.Metrics
}

// NewProber targets a started cloud, with a five-second AttemptTimeout
// and the default retry policy; set the fields to change them.
func NewProber(c *Cloud) *Prober {
	return &Prober{
		HTTPAddr:       c.Addr(),
		Cloud:          c,
		Client:         new(http.Client),
		AttemptTimeout: 5 * time.Second,
	}
}

// attempt returns ctx bounded by the prober's AttemptTimeout, the one
// deadline an attempt runs under.
func (p *Prober) attempt(ctx context.Context) (context.Context, context.CancelFunc) {
	if p.AttemptTimeout <= 0 {
		return context.WithCancel(ctx)
	}
	return context.WithTimeout(ctx, p.AttemptTimeout)
}

// Probe sends a reconstructed message over the transport its delivery
// function implies and classifies the response, retrying transient
// transport failures under the configured backoff policy.
func (p *Prober) Probe(msg *fields.Message) (*ProbeResult, error) {
	return p.ProbeContext(context.Background(), msg)
}

// ProbeContext is Probe under a caller-supplied context: cancelling ctx
// aborts in-flight attempts and pending backoff sleeps. Total probe time is
// additionally capped by the retry policy's Budget.
func (p *Prober) ProbeContext(ctx context.Context, msg *fields.Message) (*ProbeResult, error) {
	if msg.Discarded {
		return &ProbeResult{Class: RespPathNotExist}, nil
	}
	var res *ProbeResult
	attempt := 0
	err := p.Retry.Do(ctx, func(ctx context.Context) error {
		attempt++
		p.Metrics.Counter("probe_attempts_total").Inc()
		if attempt > 1 {
			p.Metrics.Counter("probe_retries_total").Inc()
		}
		op := func(ctx context.Context) error {
			var err error
			if msg.Format == fields.FormatMQTT {
				res, err = p.probeMQTT(ctx, msg)
			} else {
				res, err = p.probeHTTP(ctx, msg)
			}
			return err
		}
		if p.Breaker != nil {
			return p.Breaker.Do(ctx, op)
		}
		return op(ctx)
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

func (p *Prober) probeHTTP(ctx context.Context, msg *fields.Message) (*ProbeResult, error) {
	ctx, cancel := p.attempt(ctx)
	defer cancel()
	path, body := msg.Path, msg.Body
	// Raw SSL/TCP messages embed the route at the front of the body; a
	// query-style body ("?m=camera&a=login&...") is itself the route.
	if path == "" && strings.HasPrefix(body, "?") {
		path, body = body, ""
	}
	if path == "" && strings.HasPrefix(body, "/") {
		if i := strings.IndexAny(body, "?{ \n"); i > 0 && body[i] == '?' {
			path, body = body[:i], body[i+1:]
		} else if i > 0 {
			path, body = body[:i], strings.TrimLeft(body[i:], " \n")
		} else {
			path, body = body, ""
		}
	}
	target, err := buildURL(p.HTTPAddr, path)
	if err != nil {
		return nil, Permanent(err)
	}
	contentType := "application/x-www-form-urlencoded"
	reqBody := body
	if strings.HasPrefix(strings.TrimSpace(body), "{") {
		contentType = "application/json"
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, target, strings.NewReader(reqBody))
	if err != nil {
		return nil, Permanent(fmt.Errorf("cloud: probe request: %w", err))
	}
	req.Header.Set("Content-Type", contentType)
	if id := ProbeIDFromContext(ctx); id != "" {
		req.Header.Set(ProbeIDHeader, id)
	}
	resp, err := p.Client.Do(req)
	if err != nil {
		return nil, fmt.Errorf("cloud: probe: %w", err)
	}
	defer resp.Body.Close()
	raw, err := readBody(resp.Body, resp.ContentLength, 1<<16)
	if err != nil {
		// A truncated or stalled body (drops, slow-loris) is transport
		// weather, not an answer: retry.
		return nil, fmt.Errorf("cloud: probe: read response: %w", err)
	}
	if resp.StatusCode >= 500 {
		// Server-side failures are transient by definition here: the
		// simulated clouds never emit 5xx except through fault injection,
		// and a real cloud's 5xx says nothing about access control.
		return nil, fmt.Errorf("cloud: probe: server error %d", resp.StatusCode)
	}
	res := &ProbeResult{
		Status: resp.StatusCode,
		Body:   strings.TrimSpace(string(raw)),
	}
	res.Class = classify(resp.StatusCode, res.Body)
	res.Valid = UnderstoodResponse(res.Class)
	res.Granted = resp.StatusCode == http.StatusOK
	return res, nil
}

// buildURL assembles the probe URL: query-style routes ("?m=camera&a=login")
// hang off "/", path routes keep their query suffix.
func buildURL(addr, path string) (string, error) {
	base := "http://" + addr
	switch {
	case path == "":
		return base + "/", nil
	case strings.HasPrefix(path, "?"):
		return base + "/" + path, nil
	case strings.HasPrefix(path, "/"):
		return base + path, nil
	default:
		return base + "/" + path, nil
	}
}

func classify(status int, body string) string {
	for _, class := range []string{
		RespOK, RespNoPermission, RespAccessDenied,
		RespBadRequest, RespNotSupported, RespPathNotExist,
	} {
		if strings.HasPrefix(body, class) {
			return class
		}
	}
	switch status {
	case http.StatusOK:
		return RespOK
	case http.StatusForbidden, http.StatusUnauthorized:
		return RespAccessDenied
	case http.StatusNotFound:
		return RespPathNotExist
	case http.StatusMethodNotAllowed:
		return RespNotSupported
	default:
		return RespBadRequest
	}
}

// probeMQTT connects as the device (client ID = first identifier-looking
// field), publishes, and reads the broker's authorization decision from the
// cloud's access log. The attempt's deadline bounds the dial, the publish
// and the wait.
func (p *Prober) probeMQTT(ctx context.Context, msg *fields.Message) (*ProbeResult, error) {
	if p.Cloud == nil {
		return nil, Permanent(fmt.Errorf("cloud: MQTT probe needs an in-process cloud"))
	}
	actx, cancel := p.attempt(ctx)
	defer cancel()
	deadline, _ := actx.Deadline() // the zero time, no deadline, when unbounded
	var timeout time.Duration
	if !deadline.IsZero() {
		if timeout = time.Until(deadline); timeout <= 0 {
			return nil, fmt.Errorf("cloud: mqtt probe: %w", context.DeadlineExceeded)
		}
	}
	clientID := mqttClientID(msg)
	secret := mqttPassword(msg)
	client, err := mqtt.DialTimeout(p.Cloud.MQTTAddr(), clientID, ProbeIDFromContext(ctx), secret, timeout)
	var refused *mqtt.ConnRefusedError
	if errors.As(err, &refused) {
		return &ProbeResult{Class: RespAccessDenied, Valid: true}, nil
	}
	if err != nil {
		return nil, err
	}
	defer client.Close()
	_ = client.SetDeadline(deadline)
	before := p.Cloud.accessCount()
	if err := client.Publish(msg.Topic, []byte(msg.Body)); err != nil {
		return nil, err
	}
	// Wait for the broker to process the publish. The broker records a
	// decision for every publish it processes — known topic or not — so a
	// silent deadline here means the publish was lost in transit (a severed
	// session, a draining broker): transport weather, retry.
	a, err := p.Cloud.awaitAccess(actx, before, "mqtt:"+msg.Topic)
	if err != nil {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("cloud: mqtt probe: %w", err)
		}
		return nil, fmt.Errorf("cloud: mqtt probe: no broker decision for topic %q", msg.Topic)
	}
	res := &ProbeResult{Class: a.Class, Granted: a.Granted}
	res.Valid = UnderstoodResponse(res.Class)
	return res, nil
}

// mqttClientID picks the device identifier field for the MQTT client ID.
func mqttClientID(msg *fields.Message) string {
	for _, f := range msg.Fields {
		if f.Semantics == semantics.LabelDevIdentifier && f.Value != "" {
			return f.Value
		}
	}
	for _, f := range msg.Fields {
		if f.Source == taint.LeafNVRAM && f.Value != "" {
			return f.Value
		}
	}
	return "probe-client"
}

// mqttPassword picks the Dev-Secret field, if the message carries one.
func mqttPassword(msg *fields.Message) string {
	for _, f := range msg.Fields {
		if f.Semantics == semantics.LabelDevSecret {
			return f.Value
		}
	}
	return ""
}

// AttackerMessage derives the attack variant of a reconstructed message:
// every value the threat model says an attacker cannot obtain — per-device
// secrets, binding tokens, the victim's credentials, and signatures derived
// from them — is replaced with an attacker-supplied value. Identifiers stay
// (discoverable via SNMP scans, brute force, or ownership transfer), and
// firmware-recoverable secrets stay (the hard-coded leak). A message with
// nothing to substitute is returned as is; otherwise the variant is a copy
// and msg is left untouched. Each substituted value is replaced in the
// body, path and topic, longer values first (ties by value), so a value
// that contains another is replaced whole and the variant is the same on
// every call.
func AttackerMessage(msg *fields.Message, img *image.Image) *fields.Message {
	var clone *fields.Message
	var subs []substitution
	for i := range msg.Fields {
		f := &msg.Fields[i]
		var substitute string
		switch f.Semantics {
		case semantics.LabelDevSecret:
			if formcheck.HardcodedSource(*f, img) {
				continue // recoverable from firmware: attacker has it
			}
			substitute = "ATTACKER-GUESS-SECRET"
		case semantics.LabelBindToken:
			if formcheck.HardcodedSource(*f, img) {
				continue
			}
			substitute = "ATTACKER-GUESS-TOKEN"
		case semantics.LabelUserCred:
			substitute = "attacker-credential"
		case semantics.LabelSignature:
			substitute = strings.Repeat("a", 64)
		default:
			continue
		}
		if f.Value == "" || f.Value == substitute {
			continue
		}
		if clone == nil {
			c := *msg
			c.Fields = append([]fields.Field(nil), msg.Fields...)
			clone = &c
		}
		clone.Fields[i].Value = substitute
		subs = addSubstitution(subs, f.Value, substitute)
	}
	if clone == nil {
		return msg
	}
	slices.SortFunc(subs, func(a, b substitution) int {
		if c := cmp.Compare(len(b.old), len(a.old)); c != 0 {
			return c
		}
		return strings.Compare(a.old, b.old)
	})
	for _, s := range subs {
		clone.Body = strings.ReplaceAll(clone.Body, s.old, s.sub)
		clone.Path = strings.ReplaceAll(clone.Path, s.old, s.sub)
		clone.Topic = strings.ReplaceAll(clone.Topic, s.old, s.sub)
	}
	return clone
}

// substitution replaces one secret value in an attacker variant.
type substitution struct{ old, sub string }

// addSubstitution records that old becomes sub; a value met again takes
// its latest substitute.
func addSubstitution(subs []substitution, old, sub string) []substitution {
	for i := range subs {
		if subs[i].old == old {
			subs[i].sub = sub
			return subs
		}
	}
	return append(subs, substitution{old, sub})
}
