// Package netfault is a fault-injecting TCP proxy — the network analog
// of internal/iofault. Tests put it between a client and a real server
// and turn knobs at runtime to make the link slow, dead, or flaky:
//
//	p, _ := netfault.Listen("127.0.0.1:9001")   // forwards to the server
//	client.Get("http://" + p.Addr() + "/...")   // via the proxy
//	p.SetRules(netfault.Rules{Latency: 200 * time.Millisecond})
//
// Rules are read per forwarded chunk, so they affect connections
// already open (an HTTP keep-alive connection established before
// SetRules still sees the new behaviour on its next request):
//
//   - Latency delays every forwarded chunk in both directions. An HTTP
//     request/response pair typically moves as one chunk each way, so
//     the observed round-trip grows by about 2×Latency.
//   - Blackhole swallows traffic: bytes are read and dropped, nothing
//     is forwarded, connections stay open. The peer hangs until its own
//     timeout fires — the pathology hedged requests exist for.
//   - Reset tears connections down with an RST (SO_LINGER 0) at the
//     next activity, and new connections at accept.
//   - BandwidthBPS throttles forwarding to this many bytes/second per
//     direction per connection: each chunk is held for its transmission
//     time before it is forwarded.
//
// The zero Rules value is a transparent pass-through.
package netfault

import (
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// Rules is the active fault configuration. See the package comment for
// each field's semantics.
type Rules struct {
	Latency      time.Duration
	Blackhole    bool
	Reset        bool
	BandwidthBPS int
}

// Proxy is one listener forwarding to one target address.
type Proxy struct {
	target   string
	listener net.Listener
	rules    atomic.Pointer[Rules]

	conns     atomic.Int64 // total accepted
	mu        sync.Mutex
	active    map[net.Conn]struct{} // client+upstream conns, for Close
	closed    bool
	acceptErr sync.WaitGroup // accept loop + copy goroutines
}

// Listen starts a proxy on an ephemeral loopback port forwarding every
// connection to target (a host:port). Close releases it.
func Listen(target string) (*Proxy, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	p := &Proxy{target: target, listener: l, active: make(map[net.Conn]struct{})}
	p.rules.Store(&Rules{})
	p.acceptErr.Add(1)
	go p.acceptLoop()
	return p, nil
}

// Addr returns the proxy's listen address (host:port) for clients.
func (p *Proxy) Addr() string { return p.listener.Addr().String() }

// SetRules swaps the active fault configuration. Takes effect on the
// next forwarded chunk of every connection, open or future.
func (p *Proxy) SetRules(r Rules) { p.rules.Store(&r) }

// Rules returns the active fault configuration.
func (p *Proxy) Rules() Rules { return *p.rules.Load() }

// Conns returns the total number of accepted connections.
func (p *Proxy) Conns() int64 { return p.conns.Load() }

// Close stops accepting, severs every open connection, and waits for
// the proxy's goroutines to exit.
func (p *Proxy) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	err := p.listener.Close()
	for c := range p.active {
		c.Close()
	}
	p.mu.Unlock()
	p.acceptErr.Wait()
	return err
}

// track registers c for Close; reports false when the proxy is already
// closed (the caller must close c itself).
func (p *Proxy) track(c net.Conn) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return false
	}
	p.active[c] = struct{}{}
	return true
}

func (p *Proxy) untrack(c net.Conn) {
	p.mu.Lock()
	delete(p.active, c)
	p.mu.Unlock()
}

func (p *Proxy) acceptLoop() {
	defer p.acceptErr.Done()
	for {
		client, err := p.listener.Accept()
		if err != nil {
			return // listener closed
		}
		p.conns.Add(1)
		if p.rules.Load().Reset {
			rst(client)
			continue
		}
		upstream, err := net.DialTimeout("tcp", p.target, 5*time.Second)
		if err != nil {
			client.Close()
			continue
		}
		if !p.track(client) || !p.track(upstream) {
			client.Close()
			upstream.Close()
			return
		}
		p.acceptErr.Add(2)
		go p.pipe(client, upstream)
		go p.pipe(upstream, client)
	}
}

// rst closes c with SO_LINGER 0, so the peer sees a TCP RST rather
// than a graceful FIN — the "process died mid-connection" signature.
func rst(c net.Conn) {
	if tc, ok := c.(*net.TCPConn); ok {
		_ = tc.SetLinger(0)
	}
	c.Close()
}

// pipe forwards src→dst one chunk at a time, consulting the live rules
// before each forward. Closing either side ends both directions: the
// reader's Close unblocks the sibling pipe's Read.
func (p *Proxy) pipe(dst, src net.Conn) {
	defer p.acceptErr.Done()
	defer func() {
		p.untrack(src)
		p.untrack(dst)
		src.Close()
		dst.Close()
	}()
	buf := make([]byte, 32<<10)
	for {
		n, err := src.Read(buf)
		if n > 0 {
			r := p.rules.Load()
			switch {
			case r.Reset:
				rst(src)
				rst(dst)
				return
			case r.Blackhole:
				// Swallow: the bytes vanish, the connection lives on.
			default:
				if r.Latency > 0 {
					time.Sleep(r.Latency)
				}
				// Before the write: no chunk, the last included, arrives
				// sooner than the link could carry it.
				if r.BandwidthBPS > 0 {
					time.Sleep(time.Duration(float64(n) / float64(r.BandwidthBPS) * float64(time.Second)))
				}
				if _, werr := dst.Write(buf[:n]); werr != nil {
					return
				}
			}
		}
		if err != nil {
			// EOF or error either way: tear the pair down. HTTP (the
			// only traffic this proxy carries) never half-closes, so
			// propagating FINs asymmetrically buys nothing but leaked
			// descriptors.
			return
		}
	}
}
