package cloud

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"mime"
	"net"
	"net/http"
	"net/url"
	"slices"
	"strings"
	"sync"

	"firmres/internal/mqtt"
)

// Response classes observed by the prober. The paper classifies messages as
// valid when the cloud's answer shows the request was understood ("Request
// OK", "No Permission", "Access Denied") and invalid otherwise ("Bad
// Request", "Request Not Supported", "Path Not Exists").
const (
	RespOK           = "Request OK"
	RespNoPermission = "No Permission"
	RespAccessDenied = "Access Denied"
	RespBadRequest   = "Bad Request"
	RespNotSupported = "Request Not Supported"
	RespPathNotExist = "Path Not Exists"
)

// UnderstoodResponse reports whether a response class indicates the message
// was understood by the cloud (the §V-C validity criterion).
func UnderstoodResponse(class string) bool {
	switch class {
	case RespOK, RespNoPermission, RespAccessDenied:
		return true
	}
	return false
}

// Cloud hosts one device's vendor cloud: an HTTP service and an MQTT
// broker that apply the access-control policies of the device's spec.
type Cloud struct {
	// HTTPMiddleware, when non-nil, wraps the HTTP handler at Start — the
	// hook the chaos layer uses to inject faults in front of the real
	// routes. Set before Start.
	HTTPMiddleware func(http.Handler) http.Handler
	// MQTTChaos, when non-nil, is installed as the broker's per-session
	// disruption hook at Start. Set before Start.
	MQTTChaos mqtt.ChaosFunc

	// spec, replacer and identifiers are fixed at New, so the handlers
	// read them without a lock; a strings.Replacer is safe for concurrent
	// use.
	spec        *Spec
	replacer    *strings.Replacer // expands the response templates
	identifiers []string          // the spec's Identity.IdentifierValues

	httpLn   net.Listener
	httpSrv  *http.Server
	broker   *mqtt.Broker
	httpAddr string
	mqttAddr string

	mu        sync.Mutex
	accessLog []Access
	// logged, when non-nil, is closed and cleared when the next access is
	// recorded; awaitAccess makes it and waits on it.
	logged chan struct{}
}

// Access is one observed request, recorded for the experiment harness.
type Access struct {
	Endpoint string
	Class    string
	Granted  bool
}

// New builds the cloud of the device spec describes.
func New(spec *Spec) *Cloud {
	return &Cloud{
		spec:        spec,
		replacer:    responseReplacer(spec.Identity),
		identifiers: spec.Identity.IdentifierValues(),
	}
}

// Start launches the HTTP server and MQTT broker on ephemeral localhost
// ports and returns their addresses.
func (c *Cloud) Start() (httpAddr, mqttAddr string, err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", "", fmt.Errorf("cloud: http listen: %w", err)
	}
	c.httpLn = ln
	c.httpAddr = ln.Addr().String()
	mux := http.NewServeMux()
	mux.HandleFunc("/", c.handleHTTP)
	var handler http.Handler = mux
	if c.HTTPMiddleware != nil {
		handler = c.HTTPMiddleware(handler)
	}
	c.httpSrv = &http.Server{Handler: handler}
	go func() { _ = c.httpSrv.Serve(ln) }()

	c.broker = mqtt.NewBroker()
	c.broker.Auth = c.mqttAuth
	c.broker.OnPub = c.mqttPublish
	c.broker.Chaos = c.MQTTChaos
	c.mqttAddr, err = c.broker.Listen("127.0.0.1:0")
	if err != nil {
		c.httpSrv.Close()
		return "", "", fmt.Errorf("cloud: mqtt listen: %w", err)
	}
	return c.httpAddr, c.mqttAddr, nil
}

// Addr returns the HTTP address ("" before Start).
func (c *Cloud) Addr() string { return c.httpAddr }

// MQTTAddr returns the broker address ("" before Start).
func (c *Cloud) MQTTAddr() string { return c.mqttAddr }

// Close shuts both services down.
func (c *Cloud) Close() error {
	var first error
	if c.httpSrv != nil {
		if err := c.httpSrv.Close(); err != nil {
			first = err
		}
	}
	if c.broker != nil {
		if err := c.broker.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// AccessLog returns a copy of the observed requests.
func (c *Cloud) AccessLog() []Access {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Access(nil), c.accessLog...)
}

// record appends an access to the log and wakes every awaitAccess.
func (c *Cloud) record(a Access) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.accessLog = append(c.accessLog, a)
	if c.logged != nil {
		close(c.logged)
		c.logged = nil
	}
}

// accessCount returns the number of recorded accesses.
func (c *Cloud) accessCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.accessLog)
}

// awaitAccess returns the first access to endpoint recorded at index from
// or later, waiting for the cloud to record one until ctx ends.
func (c *Cloud) awaitAccess(ctx context.Context, from int, endpoint string) (Access, error) {
	for {
		c.mu.Lock()
		for _, a := range c.accessLog[from:] {
			if a.Endpoint == endpoint {
				c.mu.Unlock()
				return a, nil
			}
		}
		from = len(c.accessLog)
		if c.logged == nil {
			c.logged = make(chan struct{})
		}
		logged := c.logged
		c.mu.Unlock()
		select {
		case <-logged:
		case <-ctx.Done():
			return Access{}, ctx.Err()
		}
	}
}

// handleHTTP routes a request to its endpoint and applies the endpoint's
// policy.
func (c *Cloud) handleHTTP(w http.ResponseWriter, r *http.Request) {
	params := requestParams(r)
	ep := c.route(r.URL, params)
	if ep == nil {
		c.record(Access{Endpoint: r.URL.Path, Class: RespPathNotExist})
		http.Error(w, RespPathNotExist, http.StatusNotFound)
		return
	}
	method := ep.Method
	if method == "" {
		method = http.MethodPost
	}
	if r.Method != method {
		c.record(Access{Endpoint: ep.Path, Class: RespNotSupported})
		http.Error(w, RespNotSupported, http.StatusMethodNotAllowed)
		return
	}
	for _, p := range ep.Params {
		if _, ok := params[p]; !ok {
			c.record(Access{Endpoint: ep.Path, Class: RespBadRequest})
			http.Error(w, RespBadRequest+": missing "+p, http.StatusBadRequest)
			return
		}
	}
	if !c.authorize(ep, params) {
		c.record(Access{Endpoint: ep.Path, Class: RespAccessDenied})
		http.Error(w, RespAccessDenied, http.StatusForbidden)
		return
	}
	c.record(Access{Endpoint: ep.Path, Class: RespOK, Granted: true})
	w.WriteHeader(http.StatusOK)
	body := ep.Response
	if body == "" {
		body = RespOK
	}
	body = c.replacer.Replace(body)
	fmt.Fprint(w, body)
}

// responseReplacer substitutes identity placeholders into a response
// template (how vulnerable clouds leak per-device material).
func responseReplacer(id Identity) *strings.Replacer {
	return strings.NewReplacer(
		"{token}", id.BindToken,
		"{fixed_token}", id.FixedToken(),
		"{secret}", id.Secret,
		"{mac}", id.MAC,
		"{serial}", id.Serial,
		"{uid}", id.UID,
	)
}

// route matches a request to the first endpoint, in spec order, with its
// path: an exact path, or for query-style routes ("?m=camera&a=login") the
// query parameters named in the route.
func (c *Cloud) route(u *url.URL, params map[string]string) *Endpoint {
	for i := range c.spec.Endpoints {
		ep := &c.spec.Endpoints[i]
		if strings.HasPrefix(ep.Path, "?") {
			vals, err := url.ParseQuery(strings.TrimPrefix(ep.Path, "?"))
			if err != nil {
				continue
			}
			match := true
			for k, vs := range vals {
				if params[k] != vs[0] {
					match = false
					break
				}
			}
			if match && (u.Path == "/" || u.Path == "") {
				return ep
			}
			continue
		}
		path := ep.Path
		if i := strings.IndexByte(path, '?'); i >= 0 {
			path = path[:i]
		}
		if u.Path == path {
			return ep
		}
	}
	return nil
}

// authorize applies an endpoint's policy to the request parameters.
func (c *Cloud) authorize(ep *Endpoint, params map[string]string) bool {
	id := c.spec.Identity
	switch ep.Policy {
	case PolicyOpen:
		return true
	case PolicyIdentifierOnly:
		return c.matchesIdentifier(params)
	case PolicyFixedToken:
		return c.matchesIdentifier(params) && hasValue(params, id.FixedToken())
	case PolicyBindToken:
		return c.matchesIdentifier(params) && hasValue(params, id.BindToken)
	case PolicySignature:
		return c.matchesIdentifier(params) && hasValue(params, id.Signature())
	case PolicyFullCred:
		return c.matchesIdentifier(params) &&
			hasValue(params, id.Secret) &&
			hasValue(params, id.Username) && hasValue(params, id.Password)
	case PolicyVerifyCode:
		// The user-held verification code doubles as the account password in
		// the simulated identity record.
		return c.matchesIdentifier(params) && hasValue(params, id.Password)
	default:
		return false
	}
}

// matchesIdentifier checks that at least one parameter carries a known
// identifier of the device.
func (c *Cloud) matchesIdentifier(params map[string]string) bool {
	for _, want := range c.identifiers {
		if hasValue(params, want) {
			return true
		}
	}
	return false
}

func hasValue(params map[string]string, want string) bool {
	if want == "" {
		return false
	}
	for _, v := range params {
		if v == want {
			return true
		}
	}
	return false
}

// mqttAuth admits device connections: the client must present a known
// identifier as the client ID and, for a secure spec, the device secret as
// the password. A spec with a broken topic admits identifier-only
// connections (the CVE-2023-2586 pattern: certificates handed out for a
// serial number).
func (c *Cloud) mqttAuth(clientID, username, password string) uint8 {
	if !c.clientIsDevice(clientID) {
		return mqtt.ConnRefusedIdentifier
	}
	if password == c.spec.Identity.Secret {
		return mqtt.ConnAccepted
	}
	for _, t := range c.spec.Topics {
		if t.Policy.Broken() {
			return mqtt.ConnAccepted // broken broker: identifier suffices
		}
	}
	return mqtt.ConnRefusedBadAuth
}

// clientIsDevice reports whether clientID is one of the device's
// identifiers.
func (c *Cloud) clientIsDevice(clientID string) bool {
	return slices.Contains(c.identifiers, clientID)
}

// mqttPublish authorizes a publish against the first topic spec that
// matches it and records the decision.
func (c *Cloud) mqttPublish(clientID, topic string, payload []byte) bool {
	a := Access{Endpoint: "mqtt:" + topic, Class: RespPathNotExist}
	for _, t := range c.spec.Topics {
		if mqtt.TopicMatches(t.Topic, topic) {
			a.Granted = t.Policy.Broken() || c.clientIsDevice(clientID)
			a.Class = RespAccessDenied
			if a.Granted {
				a.Class = RespOK
			}
			break
		}
	}
	c.record(a)
	return a.Granted
}

// Request body limits: a JSON body is cut at jsonBodyLimit bytes, so a
// longer one does not parse; a form body longer than formBodyLimit
// contributes nothing, as http.Request.ParseForm refuses it.
const (
	jsonBodyLimit = 1 << 20
	formBodyLimit = 10 << 20
)

// requestParams collects a request's parameters, reading its body once
// and parsing its query and body straight into one map: body over query,
// and within each the first value of a key wins. A form body counts only
// when http.Request.ParseForm would accept it and the query together;
// otherwise the query's well-formed pairs stand alone, as they do beside
// a JSON body that does not parse.
func requestParams(r *http.Request) map[string]string {
	params := make(map[string]string)
	if strings.HasPrefix(r.Header.Get("Content-Type"), "application/json") {
		raw, _ := readBody(r.Body, r.ContentLength, jsonBodyLimit)
		addJSONParams(params, raw)
		addForm(params, r.URL.RawQuery)
		return params
	}
	if formBody(r) {
		raw, err := readBody(r.Body, r.ContentLength, formBodyLimit+1)
		if err == nil && len(raw) <= formBodyLimit &&
			addForm(params, string(raw)) && addForm(params, r.URL.RawQuery) {
			return params
		}
		clear(params)
	}
	addForm(params, r.URL.RawQuery)
	return params
}

// formBody reports whether http.Request.ParseForm would read r's body as
// a URL-encoded form.
func formBody(r *http.Request) bool {
	switch r.Method {
	case http.MethodPost, http.MethodPut, http.MethodPatch:
		ct, _, err := mime.ParseMediaType(r.Header.Get("Content-Type"))
		return err == nil && ct == "application/x-www-form-urlencoded"
	}
	return false
}

// addForm adds the pairs of a URL-encoded form to params, skipping a key
// params already holds, and reports whether url.ParseQuery would parse the
// whole form without error. A malformed pair is skipped, as
// url.ParseQuery skips it.
func addForm(params map[string]string, form string) bool {
	ok := true
	for form != "" {
		var pair string
		pair, form, _ = strings.Cut(form, "&")
		if strings.Contains(pair, ";") {
			ok = false
			continue
		}
		if pair == "" {
			continue
		}
		k, v, _ := strings.Cut(pair, "=")
		k, err := url.QueryUnescape(k)
		if err != nil {
			ok = false
			continue
		}
		v, err = url.QueryUnescape(v)
		if err != nil {
			ok = false
			continue
		}
		if _, seen := params[k]; !seen {
			params[k] = v
		}
	}
	return ok
}

// addJSONParams flattens a JSON object body into string params; a body
// that is not a JSON object adds nothing.
func addJSONParams(params map[string]string, body []byte) {
	var obj map[string]any
	if err := json.Unmarshal(body, &obj); err != nil {
		return
	}
	for k, v := range obj {
		switch t := v.(type) {
		case string:
			params[k] = t
		case float64:
			params[k] = strings.TrimRight(strings.TrimRight(fmt.Sprintf("%f", t), "0"), ".")
		case bool:
			params[k] = fmt.Sprintf("%v", t)
		}
	}
}

// readBody reads at most limit bytes of a body whose declared length is n
// (-1 when unknown). A declared length within limit and maxPresized is
// read into one buffer of exactly that size; any other body is read as
// it arrives, so a lying header cannot make the reader allocate ahead of
// the bytes.
func readBody(body io.Reader, n, limit int64) ([]byte, error) {
	if n < 0 || n > limit || n > maxPresized {
		return io.ReadAll(io.LimitReader(body, limit))
	}
	b := make([]byte, n)
	m, err := io.ReadFull(body, b)
	return b[:m], err
}

// maxPresized caps the buffer readBody sizes from a declared length.
const maxPresized = 64 << 10
