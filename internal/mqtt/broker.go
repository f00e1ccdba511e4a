package mqtt

import (
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// AuthFunc decides a CONNECT attempt; it returns an MQTT connect return
// code (ConnAccepted to admit).
type AuthFunc func(clientID, username, password string) uint8

// PublishFunc authorizes and observes a PUBLISH from an authenticated
// client; returning false drops the message (no routing). The broker keeps
// no record of the decision: a caller that needs one records it here.
type PublishFunc func(clientID, topic string, payload []byte) bool

// Disruption describes the chaos applied to one broker session. The zero
// value disturbs nothing.
type Disruption struct {
	ConnectDelay time.Duration // delay before the CONNACK is sent
	RejectConn   bool          // sever the connection instead of answering CONNECT
	DropAfter    int           // sever before processing the Nth post-CONNECT packet (1 drops the first publish; 0 = never)
}

// ChaosFunc computes the disruption for a new session from its CONNECT
// identity. Fault-injection layers key on the username (probe ID) or client
// ID so the decision is deterministic per session, not per arrival order.
type ChaosFunc func(clientID, username string) Disruption

// DefaultDrainTimeout bounds Close's in-flight publish drain when the
// broker has no explicit DrainTimeout.
const DefaultDrainTimeout = 2 * time.Second

// Broker is a minimal MQTT 3.1.1 broker.
type Broker struct {
	Auth  AuthFunc
	OnPub PublishFunc
	// Chaos, when non-nil, is consulted once per accepted connection and
	// its Disruption applied to the session — the fault-injection hook the
	// probe chaos layer drives. Set before Listen.
	Chaos ChaosFunc
	// DrainTimeout bounds how long Close waits for in-flight publishes to
	// flush before severing connections; 0 means DefaultDrainTimeout.
	DrainTimeout time.Duration

	ln       net.Listener
	mu       sync.Mutex
	subs     map[string][]*session // topic filter -> sessions
	conns    map[net.Conn]bool     // every live connection, for shutdown
	wg       sync.WaitGroup
	inflight atomic.Int64 // publishes currently being routed
	closed   bool
}

type session struct {
	conn     net.Conn
	clientID string
	mu       sync.Mutex // serializes writes
}

func (s *session) send(p *Packet) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return WritePacket(s.conn, p)
}

// NewBroker returns a broker with permissive defaults (accept everything).
func NewBroker() *Broker {
	return &Broker{
		Auth:  func(string, string, string) uint8 { return ConnAccepted },
		OnPub: func(string, string, []byte) bool { return true },
		subs:  make(map[string][]*session),
		conns: make(map[net.Conn]bool),
	}
}

// Listen starts serving on addr ("127.0.0.1:0" for an ephemeral port) and
// returns the bound address.
func (b *Broker) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("mqtt: listen: %w", err)
	}
	b.ln = ln
	b.wg.Add(1)
	go b.acceptLoop()
	return ln.Addr().String(), nil
}

// Close stops the broker gracefully: it stops accepting new connections,
// waits up to DrainTimeout for publishes already being routed to flush to
// their subscribers, then severs the remaining connections and waits for
// every handler goroutine to finish. Idempotent.
func (b *Broker) Close() error {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		b.wg.Wait()
		return nil
	}
	b.closed = true
	ln := b.ln
	b.mu.Unlock()
	var err error
	if ln != nil {
		err = ln.Close()
	}
	// Bounded drain. Clients may keep publishing on live sessions while we
	// drain, so this can stay non-zero indefinitely — the deadline, not the
	// counter, decides when to start severing.
	timeout := b.DrainTimeout
	if timeout <= 0 {
		timeout = DefaultDrainTimeout
	}
	deadline := time.Now().Add(timeout)
	for b.inflight.Load() > 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	b.mu.Lock()
	conns := make([]net.Conn, 0, len(b.conns))
	for c := range b.conns {
		conns = append(conns, c)
	}
	b.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
	b.wg.Wait()
	return err
}

func (b *Broker) acceptLoop() {
	defer b.wg.Done()
	for {
		conn, err := b.ln.Accept()
		if err != nil {
			return
		}
		b.wg.Add(1)
		go func() {
			defer b.wg.Done()
			b.handle(conn)
		}()
	}
}

func (b *Broker) handle(conn net.Conn) {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		conn.Close()
		return
	}
	b.conns[conn] = true
	b.mu.Unlock()
	defer func() {
		b.mu.Lock()
		delete(b.conns, conn)
		b.mu.Unlock()
		conn.Close()
	}()
	first, err := ReadPacket(conn)
	if err != nil || first.Type != CONNECT {
		return
	}
	var disrupt Disruption
	if b.Chaos != nil {
		disrupt = b.Chaos(first.ClientID, first.Username)
	}
	if disrupt.ConnectDelay > 0 {
		time.Sleep(disrupt.ConnectDelay)
	}
	if disrupt.RejectConn {
		return // deferred conn.Close: the client sees a reset, not a CONNACK
	}
	rc := b.Auth(first.ClientID, first.Username, first.Password)
	sess := &session{conn: conn, clientID: first.ClientID}
	if err := sess.send(&Packet{Type: CONNACK, ReturnCode: rc}); err != nil || rc != ConnAccepted {
		return
	}
	defer b.dropSession(sess)
	packets := 0
	for {
		p, err := ReadPacket(conn)
		if err != nil {
			return
		}
		packets++
		if disrupt.DropAfter > 0 && packets >= disrupt.DropAfter {
			return // mid-session disconnect: the packet is read but never processed
		}
		switch p.Type {
		case PUBLISH:
			b.inflight.Add(1)
			var targets []*session
			if b.OnPub(sess.clientID, p.Topic, p.Payload) {
				b.mu.Lock()
				for filter, sessions := range b.subs {
					if TopicMatches(filter, p.Topic) {
						targets = append(targets, sessions...)
					}
				}
				b.mu.Unlock()
			}
			for _, t := range targets {
				if t != sess {
					_ = t.send(&Packet{Type: PUBLISH, Topic: p.Topic, Payload: p.Payload})
				}
			}
			b.inflight.Add(-1)
		case SUBSCRIBE:
			b.mu.Lock()
			for _, topic := range p.Topics {
				b.subs[topic] = append(b.subs[topic], sess)
			}
			b.mu.Unlock()
			_ = sess.send(&Packet{Type: SUBACK, MessageID: p.MessageID, Topics: p.Topics})
		case PINGREQ:
			_ = sess.send(&Packet{Type: PINGRESP})
		case DISCONNECT:
			return
		}
	}
}

func (b *Broker) dropSession(sess *session) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for topic, sessions := range b.subs {
		keep := sessions[:0]
		for _, s := range sessions {
			if s != sess {
				keep = append(keep, s)
			}
		}
		b.subs[topic] = keep
	}
}

// TopicMatches implements MQTT topic-filter matching with + and #
// wildcards.
func TopicMatches(filter, topic string) bool {
	fp := strings.Split(filter, "/")
	tp := strings.Split(topic, "/")
	for i, f := range fp {
		if f == "#" {
			return true
		}
		if i >= len(tp) {
			return false
		}
		if f != "+" && f != tp[i] {
			return false
		}
	}
	return len(fp) == len(tp)
}

// Client is a minimal MQTT client for devices and probes.
type Client struct {
	conn net.Conn
}

// Dial connects and authenticates; a non-accepted return code is an error
// carrying the code. No deadline: see DialTimeout for a bounded handshake.
func Dial(addr, clientID, username, password string) (*Client, error) {
	return DialTimeout(addr, clientID, username, password, 0)
}

// DialTimeout is Dial with a deadline covering the TCP connect and the
// CONNECT/CONNACK handshake; d <= 0 means no deadline. The deadline is
// cleared once the session is established — bound later operations with
// SetDeadline.
func DialTimeout(addr, clientID, username, password string, d time.Duration) (*Client, error) {
	conn, err := net.DialTimeout("tcp", addr, d)
	if err != nil {
		return nil, fmt.Errorf("mqtt: dial: %w", err)
	}
	if d > 0 {
		_ = conn.SetDeadline(time.Now().Add(d))
	}
	c := &Client{conn: conn}
	err = WritePacket(conn, &Packet{
		Type: CONNECT, ClientID: clientID, Username: username, Password: password,
	})
	if err != nil {
		conn.Close()
		return nil, err
	}
	ack, err := ReadPacket(conn)
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("mqtt: connack: %w", err)
	}
	if ack.Type != CONNACK {
		conn.Close()
		return nil, fmt.Errorf("mqtt: expected CONNACK, got type %d", ack.Type)
	}
	if ack.ReturnCode != ConnAccepted {
		conn.Close()
		return nil, &ConnRefusedError{Code: ack.ReturnCode}
	}
	_ = conn.SetDeadline(time.Time{})
	return c, nil
}

// SetDeadline bounds subsequent reads and writes on the session; the zero
// time clears it.
func (c *Client) SetDeadline(t time.Time) error { return c.conn.SetDeadline(t) }

// ConnRefusedError reports a rejected CONNECT.
type ConnRefusedError struct{ Code uint8 }

func (e *ConnRefusedError) Error() string {
	return fmt.Sprintf("mqtt: connection refused (code %d)", e.Code)
}

// Publish sends a QoS-0 publish.
func (c *Client) Publish(topic string, payload []byte) error {
	return WritePacket(c.conn, &Packet{Type: PUBLISH, Topic: topic, Payload: payload})
}

// Subscribe registers topic filters.
func (c *Client) Subscribe(topics ...string) error {
	err := WritePacket(c.conn, &Packet{Type: SUBSCRIBE, MessageID: 1, Topics: topics})
	if err != nil {
		return err
	}
	ack, err := ReadPacket(c.conn)
	if err != nil {
		return err
	}
	if ack.Type != SUBACK {
		return fmt.Errorf("mqtt: expected SUBACK, got type %d", ack.Type)
	}
	return nil
}

// Receive reads the next packet (e.g. a routed PUBLISH).
func (c *Client) Receive() (*Packet, error) { return ReadPacket(c.conn) }

// Close disconnects.
func (c *Client) Close() error {
	_ = WritePacket(c.conn, &Packet{Type: DISCONNECT})
	return c.conn.Close()
}
