package main

import (
	"io"
	"net/http"
	"net/url"
	"strings"
	"testing"

	"firmres/internal/corpus"
)

// TestFleetAnswersEachDeviceAlone: with -all every device gets a cloud on
// its own ports, so a request that devices 2-4 share the path of is
// answered by its own device's cloud every time. (One cloud hosting all
// three routed it by map order: 4 of 40 requests drew 200, 36 drew 400.)
func TestFleetAnswersEachDeviceAlone(t *testing.T) {
	fleet, err := startFleet(0, true)
	if err != nil {
		t.Fatalf("startFleet: %v", err)
	}
	defer closeFleet(fleet)

	binary := 0
	for _, d := range corpus.Devices() {
		if !d.ScriptOnly {
			binary++
		}
	}
	if len(fleet) != binary {
		t.Fatalf("fleet hosts %d clouds, want one per binary device (%d)", len(fleet), binary)
	}
	addrs := map[string]int{}
	for _, h := range fleet {
		for _, a := range []string{h.cloud.Addr(), h.cloud.MQTTAddr()} {
			if prev, dup := addrs[a]; dup {
				t.Errorf("devices %d and %d share address %s", prev, h.spec.DeviceID, a)
			}
			addrs[a] = h.spec.DeviceID
		}
	}

	const path = "/api/v1/TP-Link/op04"
	var dev3 host
	for _, h := range fleet {
		if h.spec.DeviceID == 3 {
			dev3 = h
		}
	}
	if dev3.cloud == nil {
		t.Fatal("no cloud for device 3")
	}
	// Device 3's own request: an identifier in the first parameter and the
	// binding token in the rest.
	form := url.Values{}
	found := false
	for _, ep := range dev3.spec.Endpoints {
		if ep.Path != path {
			continue
		}
		found = true
		for i, p := range ep.Params {
			v := dev3.spec.Identity.BindToken
			if i == 0 {
				v = dev3.spec.Identity.MAC
			}
			form.Set(p, v)
		}
	}
	if !found {
		t.Fatalf("device 3 has no endpoint %s", path)
	}
	for i := 0; i < 40; i++ {
		resp, err := http.Post("http://"+dev3.cloud.Addr()+path,
			"application/x-www-form-urlencoded", strings.NewReader(form.Encode()))
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("request %d: read: %v", i, err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: %d %q, want 200", i, resp.StatusCode, body)
		}
	}
}

// TestDeviceOutOfRange: a device outside the corpus is an error naming
// the range, and a script-only device keeps its own error.
func TestDeviceOutOfRange(t *testing.T) {
	for _, tc := range []struct {
		device int
		want   string
	}{
		{0, "device 0 out of range 1-22"},
		{23, "device 23 out of range 1-22"},
		{99, "device 99 out of range 1-22"},
		{21, "device 21 is script-only"},
	} {
		fleet, err := startFleet(tc.device, false)
		if err == nil {
			closeFleet(fleet)
			t.Errorf("device %d: started %d clouds, want an error", tc.device, len(fleet))
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("device %d: error %q, want %q", tc.device, err, tc.want)
		}
	}
}
