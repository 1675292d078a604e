package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/lp"
	"repro/internal/service"
)

// traceHeader is the service's request-scoped trace ID header; the
// client sets it to the op id on every request, so the ingress
// middleware never has to mint one.
const traceHeader = "X-Schedd-Trace"

// node is one in-process schedd: a real service.Server (wrapped in a
// service.Node on ring workloads) behind a loopback listener, plus the
// client's single keep-alive connection to it.
type node struct {
	name   string // "n0", "n1", ... — the span's node label
	url    string // "http://n0": what the ring hashes, the same in every process
	server *service.Server
	httpd  *http.Server
	client *http.Client
	peers  *http.Transport // the node's outbound connections to its peers
}

// fixture is a booted set of nodes with the workload's sessions
// created and its op list generated.
type fixture struct {
	wl       *workload
	nodes    []*node
	sessions []*session
	ops      []op
	digest   string // sha256 of the serialized op list
	tracer   *tracer
	// calibrate makes replay read the host speed (hostspeed.go) beside
	// the ops. End-to-end runs do; the traced run reports plain times.
	calibrate bool
	buf       bytes.Buffer // response-body scratch, reused per request
}

// boot starts n nodes on loopback. n == 1 is a plain service.Server;
// n > 1 is a static ring with replication factor 2 and no store.
// Node.Start is never called, so no heartbeat timer fires and the
// only traffic is the client's and what it causes. tr, when non-nil,
// wraps every node's handler in the span-recording middleware.
//
// Nodes advertise themselves as http://n0, http://n1, ... and every
// transport dials those names to whatever ephemeral port the node got.
// The ring hashes member URLs, so with the ports in them session
// ownership — how many requests forward, who replicates to whom —
// would differ from process to process.
func boot(n int, tr *tracer) (*fixture, error) {
	fx := &fixture{tracer: tr}
	addrs := map[string]string{} // "n0:80" → "127.0.0.1:port"
	dial := func(ctx context.Context, network, addr string) (net.Conn, error) {
		var d net.Dialer
		return d.DialContext(ctx, network, addrs[addr])
	}
	listeners := make([]net.Listener, n)
	urls := make([]string, n)
	for i := range listeners {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range listeners[:i] {
				l.Close()
			}
			return nil, fmt.Errorf("listen: %w", err)
		}
		listeners[i] = ln
		name := "n" + strconv.Itoa(i)
		urls[i] = "http://" + name
		addrs[name+":80"] = ln.Addr().String()
	}
	for i, ln := range listeners {
		nd := &node{
			name:   "n" + strconv.Itoa(i),
			url:    urls[i],
			server: service.NewServer(service.NewPool(16)),
			client: &http.Client{Transport: &http.Transport{
				DialContext:         dial,
				MaxConnsPerHost:     1,
				MaxIdleConnsPerHost: 1,
				DisableCompression:  true,
			}},
			// The service's own pooled-transport tuning, plus the dialer.
			peers: &http.Transport{
				DialContext:         dial,
				MaxIdleConns:        256,
				MaxIdleConnsPerHost: 32,
				IdleConnTimeout:     90 * time.Second,
			},
		}
		var h http.Handler
		if n == 1 {
			h = nd.server.Handler()
		} else {
			h = service.NewNodeWithConfig(nd.server, urls[i], urls, nil,
				service.NodeConfig{Replication: 2, RetrySeed: int64(i + 1), Transport: nd.peers}).Handler()
		}
		if tr != nil {
			h = tr.wrap(nd.name, h)
		}
		nd.httpd = &http.Server{Handler: h}
		go nd.httpd.Serve(ln) //nolint:errcheck // returns ErrServerClosed at close
		fx.nodes = append(fx.nodes, nd)
	}
	return fx, nil
}

// close stops every node and drops the client and peer connections.
func (fx *fixture) close() {
	for _, nd := range fx.nodes {
		nd.client.CloseIdleConnections()
		nd.peers.CloseIdleConnections()
		nd.httpd.Close()
	}
}

// nodeName maps a node's advertised URL back to its span label.
func (fx *fixture) nodeName(url string) string {
	for _, nd := range fx.nodes {
		if nd.url == url {
			return nd.name
		}
	}
	return ""
}

// send issues one request on the entry node's keep-alive connection
// and reads the whole response into fx.buf. It returns when the
// request was sent, the round-trip time (request write to last body
// byte) and whether the status was 2xx.
func (fx *fixture) send(rq *request) (sent time.Time, rtt time.Duration, ok bool, err error) {
	nd := fx.nodes[rq.node]
	var body io.Reader
	if rq.body != nil {
		body = bytes.NewReader(rq.body)
	}
	hr, err := http.NewRequest(rq.method, nd.url+rq.path, body)
	if err != nil {
		return sent, 0, false, err
	}
	if rq.body != nil {
		hr.Header.Set("Content-Type", "application/json")
	}
	if rq.trace != "" {
		hr.Header.Set(traceHeader, rq.trace)
	}
	fx.buf.Reset()
	sent = time.Now()
	resp, err := nd.client.Do(hr)
	if err != nil {
		return sent, 0, false, err
	}
	_, err = fx.buf.ReadFrom(resp.Body)
	rtt = time.Since(sent)
	resp.Body.Close()
	if err != nil {
		return sent, 0, false, err
	}
	return sent, rtt, resp.StatusCode/100 == 2, nil
}

// call is send for set-up and oracle traffic: any failure is an error
// carrying the response body, and the body is decoded into out when
// out is non-nil.
func (fx *fixture) call(nodeIdx int, method, path string, body []byte, out any) error {
	_, _, ok, err := fx.send(&request{node: nodeIdx, method: method, path: path, body: body})
	if err != nil {
		return fmt.Errorf("%s %s: %w", method, path, err)
	}
	if !ok {
		return fmt.Errorf("%s %s: %s", method, path, strings.TrimSpace(fx.buf.String()))
	}
	if out == nil {
		return nil
	}
	if err := json.Unmarshal(fx.buf.Bytes(), out); err != nil {
		return fmt.Errorf("%s %s: decoding response: %w", method, path, err)
	}
	return nil
}

// counters is the sum over nodes of the /stats fields the benchmark
// reads: solver totals plus the activity, cache, routing and
// replication counts.
type counters struct {
	solver                            lp.Stats
	whatIfs, coalesced, epochs        int64
	cacheHits, cacheMisses            int64
	retries, failovers                int64
	replicasSent, replicaErrors       int64
	fanoutSeconds, fanoutObservations float64 // from /metrics, traced runs only
}

// scrapeStats GETs /stats from every node and sums it.
func (fx *fixture) scrapeStats() (counters, error) {
	var c counters
	for i := range fx.nodes {
		var st service.PoolStatsResponse
		if err := fx.call(i, http.MethodGet, "/stats", nil, &st); err != nil {
			return c, err
		}
		c.solver.Add(st.Total)
		for _, s := range st.Sessions {
			c.whatIfs += int64(s.WhatIfs)
			c.coalesced += int64(s.CoalescedWhatIfs)
			c.epochs += int64(s.Epochs)
		}
		c.cacheHits += int64(st.Cluster.CacheHits)
		c.cacheMisses += int64(st.Cluster.CacheMisses)
		c.retries += int64(st.Cluster.Retries)
		c.failovers += int64(st.Cluster.Failovers)
		c.replicasSent += int64(st.Cluster.ReplicasSent)
		c.replicaErrors += int64(st.Cluster.ReplicaErrors)
	}
	return c, nil
}

// scrapeMetrics GETs /metrics from every node, adds the replication
// fan-out histogram's sum and count into c, and returns the total
// scrape time and size.
func (fx *fixture) scrapeMetrics(c *counters) (time.Duration, int, error) {
	var total time.Duration
	var size int
	for i := range fx.nodes {
		_, rtt, ok, err := fx.send(&request{node: i, method: http.MethodGet, path: "/metrics"})
		if err != nil || !ok {
			return 0, 0, fmt.Errorf("GET /metrics on %s: ok=%v err=%v", fx.nodes[i].name, ok, err)
		}
		total += rtt
		size += fx.buf.Len()
		for _, line := range strings.Split(fx.buf.String(), "\n") {
			if v, ok := strings.CutPrefix(line, "schedd_replication_fanout_seconds_sum "); ok {
				f, _ := strconv.ParseFloat(v, 64)
				c.fanoutSeconds += f
			} else if v, ok := strings.CutPrefix(line, "schedd_replication_fanout_seconds_count "); ok {
				f, _ := strconv.ParseFloat(v, 64)
				c.fanoutObservations += f
			}
		}
	}
	return total, size, nil
}
