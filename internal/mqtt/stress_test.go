package mqtt

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"
)

// TestBrokerConcurrentClients stresses the broker with parallel publishers
// and one subscriber: OnPub must see every publish exactly once and the
// broker must shut down cleanly with handlers still running.
func TestBrokerConcurrentClients(t *testing.T) {
	const publishers = 16
	const perClient = 20
	var mu sync.Mutex
	perTopic := map[string]int{}
	seen := 0
	all := make(chan struct{})
	b := NewBroker()
	b.OnPub = func(clientID, topic string, payload []byte) bool {
		mu.Lock()
		defer mu.Unlock()
		perTopic[topic]++
		if seen++; seen == publishers*perClient {
			close(all)
		}
		return true
	}
	addr := startBroker(t, b)

	sub, err := Dial(addr, "collector", "", "")
	if err != nil {
		t.Fatalf("Dial(sub): %v", err)
	}
	defer sub.Close()
	if err := sub.Subscribe("/stress/#"); err != nil {
		t.Fatalf("Subscribe: %v", err)
	}

	var wg sync.WaitGroup
	for i := 0; i < publishers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := Dial(addr, fmt.Sprintf("pub-%d", i), "", "")
			if err != nil {
				t.Errorf("Dial(pub-%d): %v", i, err)
				return
			}
			defer c.Close()
			for j := 0; j < perClient; j++ {
				if err := c.Publish(fmt.Sprintf("/stress/%d", i), []byte{byte(j)}); err != nil {
					t.Errorf("Publish: %v", err)
					return
				}
			}
		}(i)
	}
	wg.Wait()

	// Wait for the broker to process all publishes.
	select {
	case <-all:
	case <-time.After(5 * time.Second):
		mu.Lock()
		defer mu.Unlock()
		t.Fatalf("OnPub saw %d publishes, want %d", seen, publishers*perClient)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(perTopic) != publishers {
		t.Errorf("OnPub saw %d topics, want %d", len(perTopic), publishers)
	}
	for topic, n := range perTopic {
		if n != perClient {
			t.Errorf("topic %s has %d publishes, want %d", topic, n, perClient)
		}
	}
}

// TestBrokerSubscriberReceivesAll checks routed delivery under load.
func TestBrokerSubscriberReceivesAll(t *testing.T) {
	b := NewBroker()
	addr := startBroker(t, b)
	sub, err := Dial(addr, "sub", "", "")
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	if err := sub.Subscribe("/t"); err != nil {
		t.Fatal(err)
	}
	pub, err := Dial(addr, "pub", "", "")
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	const n = 50
	for i := 0; i < n; i++ {
		if err := pub.Publish("/t", []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	sub.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	seen := map[byte]bool{}
	for len(seen) < n {
		p, err := sub.Receive()
		if err != nil {
			t.Fatalf("Receive after %d/%d: %v", len(seen), n, err)
		}
		if p.Type != PUBLISH || len(p.Payload) != 1 {
			t.Fatalf("unexpected packet %+v", p)
		}
		seen[p.Payload[0]] = true
	}
}

// TestBrokerCloseDuringPublishStorm fires Close in the middle of a
// publish storm: the bounded drain must flush or sever every in-flight
// publish, Close must return within the drain budget, a second Close must
// be a no-op, and no handler goroutines may survive.
func TestBrokerCloseDuringPublishStorm(t *testing.T) {
	before := runtime.NumGoroutine()
	b := NewBroker()
	b.DrainTimeout = 500 * time.Millisecond
	addr, err := b.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	const publishers = 12
	var wg sync.WaitGroup
	for i := 0; i < publishers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := Dial(addr, fmt.Sprintf("storm-%d", i), "", "")
			if err != nil {
				return // broker may already be closing: acceptable
			}
			defer c.conn.Close()
			// Publish until the broker goes away; errors are the expected
			// way out, but they must be errors — never a hang or a panic.
			for j := 0; ; j++ {
				c.conn.SetDeadline(time.Now().Add(2 * time.Second))
				if err := c.Publish(fmt.Sprintf("/storm/%d", i), []byte{byte(j)}); err != nil {
					return
				}
			}
		}(i)
	}

	time.Sleep(20 * time.Millisecond) // let the storm develop
	closed := make(chan error, 1)
	go func() { closed <- b.Close() }()
	select {
	case err := <-closed:
		if err != nil {
			t.Errorf("Close: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close hung mid-storm; drain must be bounded")
	}
	if err := b.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}

	waitDone := make(chan struct{})
	go func() { wg.Wait(); close(waitDone) }()
	select {
	case <-waitDone:
	case <-time.After(5 * time.Second):
		t.Fatal("publishers hung after broker close")
	}

	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("goroutines: %d before, %d after close — handler leak", before, after)
	}
}

// TestBrokerCloseWhileClientsActive verifies clean shutdown.
func TestBrokerCloseWhileClientsActive(t *testing.T) {
	b := NewBroker()
	addr, err := b.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var clients []*Client
	for i := 0; i < 4; i++ {
		c, err := Dial(addr, fmt.Sprintf("c%d", i), "", "")
		if err != nil {
			t.Fatal(err)
		}
		clients = append(clients, c)
	}
	done := make(chan error, 1)
	go func() { done <- b.Close() }()
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("Close: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close hung with active clients")
	}
	for _, c := range clients {
		c.conn.Close()
	}
}
