package cloud

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"firmres/internal/fields"
	"firmres/internal/mqtt"
	"firmres/internal/semantics"
)

// paramsViaParseForm is how the cloud read a request's parameters before
// requestParams: the first value of each key of URL.Query, overridden by
// the first value of each key of PostForm when ParseForm succeeds, or by
// the flattened JSON body.
func paramsViaParseForm(r *http.Request) map[string]string {
	params := map[string]string{}
	for k, vs := range r.URL.Query() {
		params[k] = vs[0]
	}
	if strings.HasPrefix(r.Header.Get("Content-Type"), "application/json") {
		raw, _ := io.ReadAll(io.LimitReader(r.Body, jsonBodyLimit))
		body := map[string]string{}
		addJSONParams(body, raw)
		for k, v := range body {
			params[k] = v
		}
	} else if err := r.ParseForm(); err == nil {
		for k, vs := range r.PostForm {
			params[k] = vs[0]
		}
	}
	return params
}

// unsized hides a body's length, as a chunked request does.
type unsized struct{ io.Reader }

// TestRequestParamsMatchParseForm: one pass over the query and the body
// gives the parameters URL.Query and ParseForm gave, for well-formed and
// malformed queries and bodies, every method and content type the rules
// depend on, and bodies of known and unknown length.
func TestRequestParamsMatchParseForm(t *testing.T) {
	const form = "application/x-www-form-urlencoded"
	long := "uid=" + strings.Repeat("x", maxPresized+10) + "&b=2"
	cases := []struct {
		method, target, contentType, body string
	}{
		{"POST", "/api?a=1&a=2&b=q", form, "b=body&c=3&c=4"},
		{"POST", "/api?a=1", form, "a=%zz&b=2"},
		{"POST", "/api?a=%zz&b=1", form, "b=2&c=3"},
		{"POST", "/api?a=1;x=2&b=1", form, "b=2"},
		{"POST", "/api?a=1", form, "b=2;c=3&d=4"},
		{"POST", "/api?k+1=v+1", form, "k%201=body&x=%41%42&&=empty&flag&"},
		{"POST", "/api?a=1", form, ""},
		{"GET", "/api?a=1", form, "a=2&b=3"},
		{"PUT", "/api?a=1", form, "a=2"},
		{"PATCH", "/api", form, "a=2"},
		{"DELETE", "/api?a=1", form, "a=2"},
		{"POST", "/api?a=1", form + "; charset=utf-8", "a=2"},
		{"POST", "/api?a=1", "Application/X-WWW-Form-URLEncoded", "a=2"},
		{"POST", "/api?a=1", form + "; charset", "a=2"},
		{"POST", "/api?a=1", "", "a=2"},
		{"POST", "/api?a=1", "text/plain", "a=2"},
		{"POST", "/?m=cloud&a=login", "application/json", `{"a":"j","n":12.50,"ok":true,"x":null,"o":{"p":1}}`},
		{"POST", "/api?a=1", "application/json; charset=utf-8", `{"a":2}`},
		{"POST", "/api?a=1&b=2", "application/json", `{not json`},
		{"GET", "/api?a=1", "application/json", `[1,2]`},
		{"POST", "/api?a=1", form, long},
	}
	for _, tc := range cases {
		for _, sized := range []bool{true, false} {
			req := func() *http.Request {
				var body io.Reader = strings.NewReader(tc.body)
				if !sized {
					body = unsized{body}
				}
				r := httptest.NewRequest(tc.method, tc.target, body)
				if tc.contentType != "" {
					r.Header.Set("Content-Type", tc.contentType)
				}
				return r
			}
			want := paramsViaParseForm(req())
			if got := requestParams(req()); !reflect.DeepEqual(got, want) {
				t.Errorf("%s %s (%s, sized %v) body %.40q: params %v, want %v",
					tc.method, tc.target, tc.contentType, sized, tc.body, got, want)
			}
		}
	}
}

// TestReadBodyLimits: a body is read whole up to the limit, into a buffer
// of its declared length when that is known and small, and a body that
// ends before its declared length reports the short read.
func TestReadBodyLimits(t *testing.T) {
	for _, tc := range []struct {
		body     string
		n, limit int64
		want     string
		wantErr  bool
	}{
		{"abcdef", 6, 10, "abcdef", false},
		{"abcdef", -1, 10, "abcdef", false},
		{"abcdef", 6, 4, "abcd", false},
		{"abcdef", -1, 4, "abcd", false},
		{"abc", 6, 10, "abc", true},
		{"", 0, 10, "", false},
	} {
		got, err := readBody(strings.NewReader(tc.body), tc.n, tc.limit)
		if string(got) != tc.want || (err != nil) != tc.wantErr {
			t.Errorf("readBody(%q, %d, %d) = %q, %v; want %q, error %v",
				tc.body, tc.n, tc.limit, got, err, tc.want, tc.wantErr)
		}
	}
}

// dropPublishes severs every MQTT session before the broker processes its
// first publish, as the chaos layer's MQTT drop does, so the cloud records
// no decision.
func dropPublishes(clientID, username string) mqtt.Disruption {
	return mqtt.Disruption{DropAfter: 1}
}

// startDroppingCloud starts the test cloud behind dropPublishes and returns
// a prober whose MQTT attempts time out after timeout.
func startDroppingCloud(t *testing.T, timeout time.Duration) *Prober {
	t.Helper()
	c := New(testSpec())
	c.MQTTChaos = dropPublishes
	if _, _, err := c.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	t.Cleanup(func() { c.Close() })
	p := NewProber(c)
	p.AttemptTimeout = timeout
	return p
}

func reportMsg() *fields.Message {
	id := testIdentity()
	return &fields.Message{
		Format: fields.FormatMQTT, Topic: "/sys/properties/report", Body: `{"temp":20}`,
		Fields: []fields.Field{
			{Semantics: semantics.LabelDevIdentifier, Value: id.Serial},
			{Semantics: semantics.LabelDevSecret, Value: id.Secret},
		},
	}
}

// TestMQTTDecisionWaitEndsAtAttemptDeadline: a publish the broker never
// decides fails its attempt once the attempt's deadline passes.
func TestMQTTDecisionWaitEndsAtAttemptDeadline(t *testing.T) {
	const timeout = 200 * time.Millisecond
	p := startDroppingCloud(t, timeout)
	start := time.Now()
	_, err := p.probeMQTT(context.Background(), reportMsg())
	took := time.Since(start)
	if err == nil || !strings.Contains(err.Error(), "no broker decision") {
		t.Fatalf("probeMQTT = %v, want a missing broker decision", err)
	}
	if took < timeout || took > 5*time.Second {
		t.Errorf("attempt ended after %v, want its %v deadline", took, timeout)
	}
}

// TestMQTTDecisionWaitEndsOnCancel: cancelling the probe's context ends
// the wait for a decision at once, long before the attempt's deadline.
func TestMQTTDecisionWaitEndsOnCancel(t *testing.T) {
	p := startDroppingCloud(t, time.Minute)
	ctx, cancel := context.WithCancel(context.Background())
	stop := time.AfterFunc(50*time.Millisecond, cancel)
	defer stop.Stop()
	start := time.Now()
	_, err := p.probeMQTT(ctx, reportMsg())
	took := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("probeMQTT = %v, want context.Canceled", err)
	}
	if took > 5*time.Second {
		t.Errorf("cancelled attempt ended after %v", took)
	}
}
