package mqtt

import (
	"bytes"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestPacketRoundTrip(t *testing.T) {
	packets := []*Packet{
		{Type: CONNECT, ClientID: "cam-001", Username: "dev", Password: "s3cret"},
		{Type: CONNECT, ClientID: "bare"},
		{Type: CONNACK, ReturnCode: ConnRefusedBadAuth},
		{Type: PUBLISH, Topic: "/sys/properties/report", Payload: []byte(`{"a":1}`)},
		{Type: PUBLISH, Topic: "t", Payload: nil},
		{Type: SUBSCRIBE, MessageID: 7, Topics: []string{"/cmd/#", "/cfg/+"}},
		{Type: PINGREQ},
		{Type: PINGRESP},
		{Type: DISCONNECT},
	}
	for _, want := range packets {
		var buf bytes.Buffer
		if err := WritePacket(&buf, want); err != nil {
			t.Fatalf("Write(%d): %v", want.Type, err)
		}
		got, err := ReadPacket(&buf)
		if err != nil {
			t.Fatalf("Read(%d): %v", want.Type, err)
		}
		if got.Type != want.Type || got.ClientID != want.ClientID ||
			got.Username != want.Username || got.Password != want.Password ||
			got.Topic != want.Topic || !bytes.Equal(got.Payload, want.Payload) ||
			got.ReturnCode != want.ReturnCode || got.MessageID != want.MessageID ||
			len(got.Topics) != len(want.Topics) {
			t.Errorf("round trip mismatch:\ngot  %+v\nwant %+v", got, want)
		}
	}
}

func TestPublishRoundTripProperty(t *testing.T) {
	f := func(topic string, payload []byte) bool {
		if len(topic) > 60000 {
			return true
		}
		var buf bytes.Buffer
		if err := WritePacket(&buf, &Packet{Type: PUBLISH, Topic: topic, Payload: payload}); err != nil {
			return false
		}
		got, err := ReadPacket(&buf)
		if err != nil || got.Topic != topic {
			return false
		}
		return (len(payload) == 0 && len(got.Payload) == 0) || bytes.Equal(got.Payload, payload)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestReadRejectsMalformed(t *testing.T) {
	cases := [][]byte{
		{},                                     // empty
		{byte(PUBLISH) << 4},                   // missing length
		{byte(PUBLISH) << 4, 0x05},             // truncated body
		{byte(CONNECT) << 4, 0x02, 0x00, 0x01}, // truncated string
		{0xF0, 0x00},                           // reserved type 15
		{byte(PUBLISH) << 4, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F}, // absurd length
	}
	for i, raw := range cases {
		if _, err := ReadPacket(bytes.NewReader(raw)); err == nil {
			t.Errorf("case %d: malformed packet accepted", i)
		}
	}
}

func TestTopicMatches(t *testing.T) {
	tests := []struct {
		filter, topic string
		want          bool
	}{
		{"/a/b", "/a/b", true},
		{"/a/b", "/a/c", false},
		{"/a/+", "/a/b", true},
		{"/a/+", "/a/b/c", false},
		{"/a/#", "/a/b/c", true},
		{"#", "/anything/at/all", true},
		{"/a/+/c", "/a/x/c", true},
		{"/a/b/c", "/a/b", false},
	}
	for _, tt := range tests {
		if got := TopicMatches(tt.filter, tt.topic); got != tt.want {
			t.Errorf("TopicMatches(%q, %q) = %v", tt.filter, tt.topic, got)
		}
	}
}

func startBroker(t *testing.T, b *Broker) string {
	t.Helper()
	addr, err := b.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	t.Cleanup(func() { b.Close() })
	return addr
}

func TestBrokerAuthAndRouting(t *testing.T) {
	b := NewBroker()
	b.Auth = func(clientID, username, password string) uint8 {
		if password != "letmein" {
			return ConnRefusedBadAuth
		}
		return ConnAccepted
	}
	addr := startBroker(t, b)

	// Bad credentials refused.
	if _, err := Dial(addr, "x", "u", "wrong"); err == nil {
		t.Fatal("bad credentials accepted")
	} else if refused, ok := err.(*ConnRefusedError); !ok || refused.Code != ConnRefusedBadAuth {
		t.Fatalf("error = %v, want ConnRefusedError(bad auth)", err)
	}

	sub, err := Dial(addr, "subscriber", "u", "letmein")
	if err != nil {
		t.Fatalf("Dial(sub): %v", err)
	}
	defer sub.Close()
	if err := sub.Subscribe("/sys/#"); err != nil {
		t.Fatalf("Subscribe: %v", err)
	}

	pub, err := Dial(addr, "publisher", "u", "letmein")
	if err != nil {
		t.Fatalf("Dial(pub): %v", err)
	}
	defer pub.Close()
	if err := pub.Publish("/sys/properties/report", []byte("hi")); err != nil {
		t.Fatalf("Publish: %v", err)
	}

	sub.conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	got, err := sub.Receive()
	if err != nil {
		t.Fatalf("Receive: %v", err)
	}
	if got.Type != PUBLISH || got.Topic != "/sys/properties/report" || string(got.Payload) != "hi" {
		t.Errorf("routed packet = %+v", got)
	}
}

// TestBrokerPublishAuthorization: the broker asks OnPub once per publish,
// in order, and routes only the publishes OnPub allows.
func TestBrokerPublishAuthorization(t *testing.T) {
	type decision struct {
		topic   string
		allowed bool
	}
	var mu sync.Mutex
	var decisions []decision
	b := NewBroker()
	b.OnPub = func(clientID, topic string, payload []byte) bool {
		allowed := topic != "/forbidden"
		mu.Lock()
		decisions = append(decisions, decision{topic, allowed})
		mu.Unlock()
		return allowed
	}
	addr := startBroker(t, b)

	sub, err := Dial(addr, "sub", "", "")
	if err != nil {
		t.Fatalf("Dial(sub): %v", err)
	}
	defer sub.Close()
	if err := sub.Subscribe("#"); err != nil {
		t.Fatalf("Subscribe: %v", err)
	}

	c, err := Dial(addr, "dev", "", "")
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	if err := c.Publish("/forbidden", []byte("x")); err != nil {
		t.Fatalf("Publish: %v", err)
	}
	if err := c.Publish("/ok", []byte("y")); err != nil {
		t.Fatalf("Publish: %v", err)
	}
	// Ping round-trip to ensure the broker processed both publishes.
	if err := WritePacket(c.conn, &Packet{Type: PINGREQ}); err != nil {
		t.Fatal(err)
	}
	c.conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	if p, err := c.Receive(); err != nil || p.Type != PINGRESP {
		t.Fatalf("ping: %v %v", p, err)
	}

	mu.Lock()
	got := append([]decision(nil), decisions...)
	mu.Unlock()
	want := []decision{{"/forbidden", false}, {"/ok", true}}
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Errorf("decisions = %+v, want %+v", got, want)
	}

	// The broker handles one session's publishes in order, so a routed
	// /forbidden would reach the subscriber before /ok.
	sub.conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	p, err := sub.Receive()
	if err != nil {
		t.Fatalf("Receive: %v", err)
	}
	if p.Type != PUBLISH || p.Topic != "/ok" || string(p.Payload) != "y" {
		t.Errorf("subscriber received %+v, want the /ok publish", p)
	}
}

func TestBrokerSurvivesGarbageConnection(t *testing.T) {
	b := NewBroker()
	addr := startBroker(t, b)
	// A connection that sends garbage must not take the broker down.
	conn, err := Dial(addr, "", "", "")
	if err == nil {
		conn.conn.Write([]byte{0xFF, 0xFF, 0xFF})
		conn.conn.Close()
	}
	// Broker still serves.
	c, err := Dial(addr, "ok", "", "")
	if err != nil {
		t.Fatalf("Dial after garbage: %v", err)
	}
	c.Close()
}

func TestPingAndDisconnect(t *testing.T) {
	b := NewBroker()
	addr := startBroker(t, b)
	c, err := Dial(addr, "dev", "", "")
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	if err := WritePacket(c.conn, &Packet{Type: PINGREQ}); err != nil {
		t.Fatal(err)
	}
	c.conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	p, err := c.Receive()
	if err != nil || p.Type != PINGRESP {
		t.Fatalf("ping response = %v, %v", p, err)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}
