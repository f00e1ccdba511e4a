package cloud

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
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

// Cloud hosts the HTTP and MQTT services for a set of device specs.
type Cloud struct {
	// HTTPMiddleware, when non-nil, wraps the HTTP handler at Start — the
	// hook the chaos layer uses to inject faults in front of the real
	// routes. Set before Start.
	HTTPMiddleware func(http.Handler) http.Handler
	// MQTTChaos, when non-nil, is installed as the broker's per-session
	// disruption hook at Start. Set before Start.
	MQTTChaos mqtt.ChaosFunc

	mu    sync.Mutex
	specs map[int]*Spec
	// replacers expands each device's response templates; specs are fixed
	// at New and a strings.Replacer is safe for concurrent use.
	replacers map[int]*strings.Replacer

	httpLn   net.Listener
	httpSrv  *http.Server
	broker   *mqtt.Broker
	httpAddr string
	mqttAddr string

	accessLog []Access
}

// Access is one observed request, recorded for the experiment harness.
type Access struct {
	DeviceID int
	Endpoint string
	Class    string
	Granted  bool
}

// New builds a cloud for the given specs.
func New(specs ...*Spec) *Cloud {
	c := &Cloud{
		specs:     make(map[int]*Spec, len(specs)),
		replacers: make(map[int]*strings.Replacer, len(specs)),
	}
	for _, s := range specs {
		c.specs[s.DeviceID] = s
		c.replacers[s.DeviceID] = responseReplacer(s.Identity)
	}
	return c
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

func (c *Cloud) record(a Access) {
	c.mu.Lock()
	c.accessLog = append(c.accessLog, a)
	c.mu.Unlock()
}

// handleHTTP routes a request to the owning spec/endpoint and applies its
// policy.
func (c *Cloud) handleHTTP(w http.ResponseWriter, r *http.Request) {
	params := map[string]string{}
	for k, vs := range r.URL.Query() {
		if len(vs) > 0 {
			params[k] = vs[0]
		}
	}
	if strings.HasPrefix(r.Header.Get("Content-Type"), "application/json") {
		raw, _ := io.ReadAll(io.LimitReader(r.Body, 1<<20))
		for k, v := range parseJSONParams(raw) {
			params[k] = v
		}
	} else if err := r.ParseForm(); err == nil {
		for k, vs := range r.PostForm {
			if len(vs) > 0 {
				params[k] = vs[0]
			}
		}
	}

	spec, ep := c.route(r.URL, params)
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
		c.record(Access{DeviceID: spec.DeviceID, Endpoint: ep.Path, Class: RespNotSupported})
		http.Error(w, RespNotSupported, http.StatusMethodNotAllowed)
		return
	}
	for _, p := range ep.Params {
		if _, ok := params[p]; !ok {
			c.record(Access{DeviceID: spec.DeviceID, Endpoint: ep.Path, Class: RespBadRequest})
			http.Error(w, RespBadRequest+": missing "+p, http.StatusBadRequest)
			return
		}
	}
	if !c.authorize(spec, ep, params) {
		c.record(Access{DeviceID: spec.DeviceID, Endpoint: ep.Path, Class: RespAccessDenied})
		http.Error(w, RespAccessDenied, http.StatusForbidden)
		return
	}
	c.record(Access{DeviceID: spec.DeviceID, Endpoint: ep.Path, Class: RespOK, Granted: true})
	w.WriteHeader(http.StatusOK)
	body := ep.Response
	if body == "" {
		body = RespOK
	}
	body = c.replacers[spec.DeviceID].Replace(body)
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

// route matches a request to a spec and endpoint: by exact path, or for
// query-style routes ("?m=camera&a=login") by the query parameters named in
// the route.
func (c *Cloud) route(u *url.URL, params map[string]string) (*Spec, *Endpoint) {
	for _, spec := range c.specs {
		for i := range spec.Endpoints {
			ep := &spec.Endpoints[i]
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
					return spec, ep
				}
				continue
			}
			path := ep.Path
			if i := strings.IndexByte(path, '?'); i >= 0 {
				path = path[:i]
			}
			if u.Path == path {
				return spec, ep
			}
		}
	}
	return nil, nil
}

// authorize applies an endpoint's policy to the request parameters.
func (c *Cloud) authorize(spec *Spec, ep *Endpoint, params map[string]string) bool {
	id := spec.Identity
	switch ep.Policy {
	case PolicyOpen:
		return true
	case PolicyIdentifierOnly:
		return matchesIdentifier(id, params)
	case PolicyFixedToken:
		return matchesIdentifier(id, params) && hasValue(params, id.FixedToken())
	case PolicyBindToken:
		return matchesIdentifier(id, params) && hasValue(params, id.BindToken)
	case PolicySignature:
		return matchesIdentifier(id, params) && hasValue(params, id.Signature())
	case PolicyFullCred:
		return matchesIdentifier(id, params) &&
			hasValue(params, id.Secret) &&
			hasValue(params, id.Username) && hasValue(params, id.Password)
	case PolicyVerifyCode:
		// The user-held verification code doubles as the account password in
		// the simulated identity record.
		return matchesIdentifier(id, params) && hasValue(params, id.Password)
	default:
		return false
	}
}

// matchesIdentifier checks that at least one parameter carries a known
// identifier of the device.
func matchesIdentifier(id Identity, params map[string]string) bool {
	for _, want := range id.IdentifierValues() {
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
// identifier as the client ID and, for secure specs, the device secret as
// the password. A spec whose topics are all broken admits identifier-only
// connections (the CVE-2023-2586 pattern: certificates handed out for a
// serial number).
func (c *Cloud) mqttAuth(clientID, username, password string) uint8 {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, spec := range c.specs {
		id := spec.Identity
		known := false
		for _, v := range id.IdentifierValues() {
			if clientID == v {
				known = true
				break
			}
		}
		if !known {
			continue
		}
		if password == id.Secret {
			return mqtt.ConnAccepted
		}
		for _, t := range spec.Topics {
			if t.Policy.Broken() {
				return mqtt.ConnAccepted // broken broker: identifier suffices
			}
		}
		return mqtt.ConnRefusedBadAuth
	}
	return mqtt.ConnRefusedIdentifier
}

// mqttPublish authorizes a publish against the owning topic spec.
func (c *Cloud) mqttPublish(clientID, topic string, payload []byte) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, spec := range c.specs {
		for _, t := range spec.Topics {
			if !mqtt.TopicMatches(t.Topic, topic) {
				continue
			}
			granted := t.Policy.Broken() || c.clientIsDevice(spec, clientID)
			c.accessLog = append(c.accessLog, Access{
				DeviceID: spec.DeviceID, Endpoint: "mqtt:" + topic,
				Class:   map[bool]string{true: RespOK, false: RespAccessDenied}[granted],
				Granted: granted,
			})
			return granted
		}
	}
	c.accessLog = append(c.accessLog, Access{Endpoint: "mqtt:" + topic, Class: RespPathNotExist})
	return false
}

// parseJSONParams flattens a JSON object body into string params.
func parseJSONParams(body []byte) map[string]string {
	var obj map[string]any
	if err := json.Unmarshal(body, &obj); err != nil {
		return nil
	}
	out := make(map[string]string, len(obj))
	for k, v := range obj {
		switch t := v.(type) {
		case string:
			out[k] = t
		case float64:
			out[k] = strings.TrimRight(strings.TrimRight(fmt.Sprintf("%f", t), "0"), ".")
		case bool:
			out[k] = fmt.Sprintf("%v", t)
		}
	}
	return out
}

func (c *Cloud) clientIsDevice(spec *Spec, clientID string) bool {
	for _, v := range spec.Identity.IdentifierValues() {
		if clientID == v {
			return true
		}
	}
	return false
}
