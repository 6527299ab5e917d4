package cluster

import (
	"context"
	"sync"
	"time"

	"repro/client"
)

// DefaultPingInterval is the health-check cadence used when PoolOptions
// leaves PingInterval zero.
const DefaultPingInterval = 2 * time.Second

// PoolOptions configures a Pool. OnUp/OnDown are the pool's whole contract
// with its owner: the owner learns about the current connection only through
// OnUp and must stop using it on OnDown.
type PoolOptions struct {
	// Client configures each node connection. Set Timeout so a hung node
	// fails a ping instead of wedging the health loop (defaulted to 5s).
	Client client.Options
	// Backoff shapes each node's reconnect schedule. MaxAttempts is ignored
	// (a pool retries until Close); Probe defaults to a Ping so a node that
	// accepts and drops connections while booting stays down.
	Backoff client.Backoff
	// PingInterval is the health-check cadence (0 = DefaultPingInterval).
	PingInterval time.Duration
	// OnUp is called (from the node's manage goroutine) with each freshly
	// established, probed connection, before the node is marked up.
	OnUp func(node string, c *client.Client)
	// OnDown is called after a node is marked down, with the error that
	// killed the connection. The *client.Client passed to the matching OnUp
	// is closed after OnDown returns.
	OnDown func(node string, err error)
}

// NodeStatus is one node's health snapshot for /metrics and /debug.
type NodeStatus struct {
	Node       string    `json:"node"`
	Up         bool      `json:"up"`
	Reconnects uint64    `json:"reconnects"`
	Since      time.Time `json:"since"` // last up/down transition
	LastErr    string    `json:"last_err,omitempty"`
}

// Pool maintains one health-checked connection per cluster node: each node
// gets a manage goroutine that dials with jittered backoff, probes, marks
// the node up, pings on an interval, and on any failure marks it down and
// starts over. Probe() accelerates a node's next health check when the
// owner sees independent evidence of trouble (e.g. a per-subscriber
// downstream connection to that node died).
type Pool struct {
	opt    PoolOptions
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu     sync.Mutex
	states map[string]*nodeState
	order  []string
}

type nodeState struct {
	up         bool
	reconnects uint64
	since      time.Time
	lastErr    error
	kick       chan struct{} // buffered(1): accelerate the next health check
}

// NewPool starts a pool over the given nodes. It returns immediately;
// connections come up asynchronously (watch OnUp, or poll Up).
func NewPool(nodes []string, opt PoolOptions) *Pool {
	if opt.Client.Timeout <= 0 {
		opt.Client.Timeout = 5 * time.Second
	}
	if opt.PingInterval <= 0 {
		opt.PingInterval = DefaultPingInterval
	}
	opt.Backoff.MaxAttempts = 0
	if opt.Backoff.Probe == nil {
		opt.Backoff.Probe = func(c *client.Client) error { return c.Ping() }
	}
	ctx, cancel := context.WithCancel(context.Background())
	p := &Pool{
		opt:    opt,
		ctx:    ctx,
		cancel: cancel,
		states: make(map[string]*nodeState, len(nodes)),
	}
	for _, n := range nodes {
		if _, dup := p.states[n]; dup {
			continue
		}
		p.states[n] = &nodeState{kick: make(chan struct{}, 1), since: time.Now()}
		p.order = append(p.order, n)
	}
	for _, n := range p.order {
		p.wg.Add(1)
		go p.manage(n)
	}
	return p
}

// manage is one node's supervisor: dial → up → ping loop → down → redial.
func (p *Pool) manage(node string) {
	defer p.wg.Done()
	st := p.states[node]
	for {
		c, err := client.DialRetry(p.ctx, node, p.opt.Client, p.opt.Backoff)
		if err != nil {
			return // only a done context escapes an unbounded retry loop
		}
		if p.opt.OnUp != nil {
			p.opt.OnUp(node, c)
		}
		p.mu.Lock()
		st.up, st.since, st.lastErr = true, time.Now(), nil
		st.reconnects++
		p.mu.Unlock()

		err = p.watch(c, st)

		p.mu.Lock()
		st.up, st.since, st.lastErr = false, time.Now(), err
		p.mu.Unlock()
		if p.opt.OnDown != nil {
			p.opt.OnDown(node, err)
		}
		c.Close()
		select {
		case <-p.ctx.Done():
			return
		default:
		}
	}
}

// watch pings c until it fails or the pool closes, returning the terminal
// error (nil on pool shutdown).
func (p *Pool) watch(c *client.Client, st *nodeState) error {
	t := time.NewTimer(p.opt.PingInterval)
	defer t.Stop()
	for {
		select {
		case <-p.ctx.Done():
			return nil
		case <-c.Done():
			return c.Err()
		case <-t.C:
		case <-st.kick:
			if !t.Stop() {
				<-t.C
			}
		}
		if err := c.Ping(); err != nil {
			return err
		}
		t.Reset(p.opt.PingInterval)
	}
}

// Probe schedules an immediate health check for node (no-op for unknown or
// already-down nodes; the down path is already redialing).
func (p *Pool) Probe(node string) {
	p.mu.Lock()
	st := p.states[node]
	p.mu.Unlock()
	if st == nil {
		return
	}
	select {
	case st.kick <- struct{}{}:
	default:
	}
}

// Up reports whether node currently has a live connection.
func (p *Pool) Up(node string) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	st := p.states[node]
	return st != nil && st.up
}

// Snapshot returns every node's health, in configuration order.
func (p *Pool) Snapshot() []NodeStatus {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]NodeStatus, 0, len(p.order))
	for _, n := range p.order {
		st := p.states[n]
		ns := NodeStatus{Node: n, Up: st.up, Reconnects: st.reconnects, Since: st.since}
		if st.lastErr != nil {
			ns.LastErr = st.lastErr.Error()
		}
		out = append(out, ns)
	}
	return out
}

// Close stops every manage goroutine and closes all connections.
func (p *Pool) Close() {
	p.cancel()
	p.wg.Wait()
}
