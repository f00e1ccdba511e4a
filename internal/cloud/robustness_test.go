package cloud

import (
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"

	"firmres/internal/fields"
)

func TestServerRejectsWrongMethod(t *testing.T) {
	_, p := startCloud(t, testSpec())
	resp, err := http.Get("http://" + p.HTTPAddr + "/api/crash_report?uid=uid-778899&version=1")
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET on POST endpoint = %d, want 405", resp.StatusCode)
	}
	body, _ := io.ReadAll(resp.Body)
	if !strings.HasPrefix(string(body), RespNotSupported) {
		t.Errorf("body = %q", body)
	}
}

func TestServerSurvivesMalformedBodies(t *testing.T) {
	_, p := startCloud(t, testSpec())
	cases := []struct {
		contentType string
		body        string
	}{
		{"application/json", "{not json"},
		{"application/json", `[1,2,3]`},
		{"application/x-www-form-urlencoded", "%%%=%%%"},
		{"application/octet-stream", string([]byte{0, 1, 2, 255})},
	}
	for _, tc := range cases {
		resp, err := http.Post("http://"+p.HTTPAddr+"/api/crash_report",
			tc.contentType, strings.NewReader(tc.body))
		if err != nil {
			t.Fatalf("POST %q: %v", tc.body, err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			t.Errorf("malformed body %q granted access", tc.body)
		}
	}
	// The server must still work afterwards.
	res, err := p.Probe(queryMsg("/api/crash_report", "uid=uid-778899&version=1"))
	if err != nil || !res.Granted {
		t.Errorf("server broken after malformed bodies: %v %v", res, err)
	}
}

func TestServerConcurrentProbes(t *testing.T) {
	_, p := startCloud(t, testSpec())
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := p.Probe(queryMsg("?m=cloud&a=queryServices", "uid=uid-778899"))
			if err != nil {
				errs <- err
				return
			}
			if !res.Granted {
				errs <- io.ErrUnexpectedEOF
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Errorf("concurrent probe: %v", err)
	}
	if got := len(p.Cloud.AccessLog()); got != 32 {
		t.Errorf("access log has %d entries, want 32", got)
	}
}

func TestProbeDiscardedMessage(t *testing.T) {
	_, p := startCloud(t, testSpec())
	res, err := p.Probe(&fields.Message{Discarded: true})
	if err != nil {
		t.Fatalf("Probe: %v", err)
	}
	if res.Valid {
		t.Error("discarded message probed valid")
	}
}

func TestAuditResponse(t *testing.T) {
	id := testIdentity()
	leaks := AuditResponse("ok deviceToken="+id.FixedToken()+" secret="+id.Secret, id)
	if len(leaks) != 2 {
		t.Fatalf("AuditResponse = %v, want 2 leaks", leaks)
	}
	if !strings.Contains(leaks[0], "device secret") {
		t.Errorf("leaks[0] = %q", leaks[0])
	}
	if got := AuditResponse("Request OK", id); len(got) != 0 {
		t.Errorf("clean response audited as leaking: %v", got)
	}
	// The registration endpoint of the fixed-token flow leaks by design.
	body := responseReplacer(id).Replace("deviceToken={fixed_token}")
	if got := AuditResponse(body, id); len(got) != 1 {
		t.Errorf("fixed-token response audit = %v", got)
	}
}

func TestExpandResponsePlaceholders(t *testing.T) {
	id := testIdentity()
	body := responseReplacer(id).Replace("t={token} s={secret} m={mac} sn={serial} u={uid} f={fixed_token}")
	for _, want := range []string{id.BindToken, id.Secret, id.MAC, id.Serial, id.UID, id.FixedToken()} {
		if !strings.Contains(body, want) {
			t.Errorf("expansion missing %q in %q", want, body)
		}
	}
}

func TestIdentitySignatureDeterministic(t *testing.T) {
	id := testIdentity()
	if id.Signature() != id.Signature() {
		t.Error("signature not deterministic")
	}
	other := id
	other.Secret = "different"
	if id.Signature() == other.Signature() {
		t.Error("signature ignores the secret")
	}
}
