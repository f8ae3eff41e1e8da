package chaos

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"time"

	"hippocrates/internal/fleet"
	"hippocrates/internal/server"
)

// TestFleet is N real in-process hippocratesd backends behind a real
// hippocratesfleet router, each optionally fronted by a fault-injection
// proxy, with kill/drain controls — the scenario runner's rig.
type TestFleet struct {
	Backends []*BackendNode
	Router   *fleet.Router
	routerTS *http.Server
	routerLn net.Listener
}

// BackendNode is one backend plus its plumbing.
type BackendNode struct {
	Name   string
	Server *server.Server
	Proxy  *Proxy // nil unless the fleet was built WithProxies
	httpd  *http.Server
	ln     net.Listener
	killed bool
}

// FleetOptions configures the rig.
type FleetOptions struct {
	Backends    int           // node count (default 3)
	Workers     int           // per-backend worker pool (default 2)
	QueueDepth  int           // per-shard queue depth (default 32)
	WithProxies bool          // front each backend with a chaos proxy
	HedgeAfter  time.Duration // router hedging threshold (0 = off)
	// NoKeepAlives dials a fresh backend connection per proxied request,
	// so per-connection fault injection (latency, resets) applies to
	// every request instead of only the first on each kept-alive conn.
	NoKeepAlives bool
}

// NewTestFleet boots the rig. Close tears everything down.
func NewTestFleet(opts FleetOptions) (*TestFleet, error) {
	if opts.Backends <= 0 {
		opts.Backends = 3
	}
	if opts.Workers <= 0 {
		opts.Workers = 2
	}
	if opts.QueueDepth <= 0 {
		opts.QueueDepth = 32
	}
	tf := &TestFleet{}
	var members []fleet.Backend
	for i := 0; i < opts.Backends; i++ {
		name := fmt.Sprintf("b%d", i)
		node := &BackendNode{Name: name}
		node.Server = server.New(server.Config{
			Workers:    opts.Workers,
			QueueDepth: opts.QueueDepth,
			BackendID:  name,
		})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			tf.Close()
			return nil, err
		}
		node.ln = ln
		node.httpd = &http.Server{Handler: node.Server.Handler()}
		go node.httpd.Serve(ln)
		url := "http://" + ln.Addr().String()
		if opts.WithProxies {
			p, err := NewProxy(ln.Addr().String())
			if err != nil {
				tf.Close()
				return nil, err
			}
			node.Proxy = p
			url = p.URL()
		}
		tf.Backends = append(tf.Backends, node)
		members = append(members, fleet.Backend{Name: name, URL: url})
	}

	client := &http.Client{}
	if opts.NoKeepAlives {
		client.Transport = &http.Transport{DisableKeepAlives: true}
	}
	rt, err := fleet.New(fleet.Config{
		Backends:      members,
		ProbeInterval: 100 * time.Millisecond,
		HedgeAfter:    opts.HedgeAfter,
		Client:        client,
	})
	if err != nil {
		tf.Close()
		return nil, err
	}
	tf.Router = rt
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tf.Close()
		return nil, err
	}
	tf.routerLn = ln
	tf.routerTS = &http.Server{Handler: rt.Handler()}
	go tf.routerTS.Serve(ln)
	return tf, nil
}

// RouterURL is the fleet's front door.
func (tf *TestFleet) RouterURL() string { return "http://" + tf.routerLn.Addr().String() }

// Kill hard-stops backend i: the HTTP server closes abruptly, active
// connections die mid-flight, the port starts refusing. The worker pool
// is NOT drained — this models a crashed process, and the router must
// absorb it.
func (tf *TestFleet) Kill(i int) {
	n := tf.Backends[i]
	if n.killed {
		return
	}
	n.killed = true
	n.httpd.Close()
	if n.Proxy != nil {
		n.Proxy.Close()
	}
}

// Drain begins a SIGTERM-style graceful drain of backend i in the
// background: new submissions start answering 503 + Retry-After while
// accepted jobs run to completion. The HTTP listener stays up the whole
// time — exactly what hippocratesd's signal handler does.
func (tf *TestFleet) Drain(i int) <-chan error {
	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
		defer cancel()
		done <- tf.Backends[i].Server.Shutdown(ctx)
	}()
	return done
}

// Close tears the rig down; killed/drained nodes are skipped where
// already gone.
func (tf *TestFleet) Close() {
	if tf.routerTS != nil {
		tf.routerTS.Close()
	}
	if tf.Router != nil {
		tf.Router.Close()
	}
	for _, n := range tf.Backends {
		if n.httpd != nil && !n.killed {
			n.httpd.Close()
		}
		if n.Proxy != nil && !n.killed {
			n.Proxy.Close()
		}
		if n.Server != nil {
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			n.Server.Shutdown(ctx)
			cancel()
		}
	}
}
