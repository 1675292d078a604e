// Command schedd is the warm-model scheduling daemon: an HTTP/JSON
// server that keeps warm-started solver sessions resident (one
// persistent core.Model per platform, built once) and answers
// allocation queries, what-if hypotheticals and committed epoch
// updates against them — every answer a revised-simplex warm restart
// from the session's carried basis, never a matrix rebuild.
//
// Usage:
//
//	schedd [-addr 127.0.0.1:8080] [-pool 64]
//	       [-snapshot-dir DIR] [-snapshot-interval 30s]
//	       [-advertise URL] [-peers URL,URL] [-join URL]
//	       [-replication 2] [-heartbeat 1s]
//	       [-suspect-after 3s] [-dead-after 10s]
//	       [-debug-addr ADDR] [-quiet]
//
// -addr may end in :0 to pick a free port; the chosen address is
// printed as "schedd: listening on ADDR" once the listener is up.
// SIGINT/SIGTERM shut the server down cleanly (in-flight requests
// finish; with a snapshot dir, every session is persisted first).
//
// # Snapshots and crash recovery
//
// With -snapshot-dir, every session is serialized to DIR at each
// committed state (creation, epoch commits, migration arrivals), on a
// periodic -snapshot-interval tick, and at shutdown. On startup the
// directory is replayed: each snapshot rebuilds its session warm from
// the carried basis — zero cold solves — so a killed daemon restarted
// over the same directory answers exactly as before the crash
// (/metrics counts schedd_cluster_warm_rebuilds_total and
// schedd_cluster_cold_rebuilds_total). A file this build
// cannot verify — damaged, or written by a build with another snapshot
// format — is counted as skipped, never fatal: that session rebuilds
// cold from traffic.
//
// # Cluster mode
//
// With -peers and/or -join, schedd runs as one replica of a
// consistent-hash ring. Sessions are owned by the replica their ID
// hashes to; requests landing elsewhere are forwarded transparently,
// so clients may talk to any replica. -advertise is the URL peers use
// to reach this replica (defaults to http://ADDR once the listener is
// up — set it explicitly behind NAT or a proxy). -join enters the ring
// through a running replica in one round of health probes: the seed's
// answer carries its view of the ring, and every member then probed
// learns this replica and hands it, warm (serialize → transfer →
// rebuild from basis), the sessions it now owns before the join
// returns.
//
// # Replication and failover
//
// In cluster mode each session's checksummed snapshot is fanned out
// to the owner's next -replication−1 ring successors on every epoch
// commit, so the ring holds -replication warm copies of every
// session. Replicas heartbeat each other every -heartbeat on
// /cluster/health; a peer silent for -suspect-after is suspected
// (demoted in forwarding order, still a member), and one silent for
// -dead-after is declared dead: the ring recomputes and successors
// promote their passive replicas to live warm sessions — zero cold
// solves, answers identical to the dead owner's. Forwarded requests
// carry per-operation deadlines and retry with capped exponential
// backoff for at least 8 sends and until -suspect-after + -dead-after
// + 2 probe rounds + 1 s has passed (a round is -heartbeat, or the
// 3×-heartbeat probe timeout when a peer hangs: 20 s at the defaults),
// so a commit sent as its owner dies or hangs waits out the death's
// confirmation and lands on the promoted replica.
// Idempotent reads fail over to successor replicas, while epoch
// commits go to the owner only, tagged with a commit ID so a retried
// commit is applied at most once, and fenced by epoch and incarnation
// so a partitioned stale owner cannot clobber newer state. A replica
// that loses contact with a majority of the ring refuses commits (503)
// until quorum returns.
//
// # Walkthrough
//
// Generate a platform, start the daemon, and drive it with curl:
//
//	platgen -k 20 -seed 1 -o platform.json
//	schedd -addr 127.0.0.1:8080 -snapshot-dir /var/lib/schedd &
//
// Create a session (the one cold solve; the response carries the
// session id and the initial allocation report):
//
//	curl -s http://127.0.0.1:8080/sessions -d "{
//	  \"platform\": $(cat platform.json),
//	  \"objective\": \"maxmin\", \"heuristic\": \"lprg\"
//	}"
//
// Re-POSTing the same platform re-attaches to the warm session (the
// response says "created": false and schedd_pool_hits_total counts it).
// With its id (say $SID), query the committed allocation, ask
// what-ifs — answered warm and rolled back exactly — and commit
// capacity drift as epochs:
//
//	curl -s http://127.0.0.1:8080/sessions/$SID/query -XPOST
//	curl -s http://127.0.0.1:8080/sessions/$SID/whatif \
//	     -d '{"gateways":[{"cluster":0,"value":120}]}'
//	curl -s http://127.0.0.1:8080/sessions/$SID/whatif \
//	     -d '{"bounds":[{"from":0,"to":3,"lb":2,"ub":2}]}'   # pin β, relaxation answer
//	curl -s http://127.0.0.1:8080/sessions/$SID/epoch \
//	     -d '{"speedFactor":[0.9,1,1,1,1,0.8,1,1,1,1,1,1,1,1,1,1,1,1,1,1]}'
//
// Scale out by joining more replicas to the ring:
//
//	schedd -addr 127.0.0.1:8081 -join http://127.0.0.1:8080 &
//
// /metrics (below) counts the pool-wide lp.Revised
// work, the answer cache and the cluster's forwarding, migrations,
// rebuilds, snapshots and ring members — after warm-up, warm solves and
// cache hits dominate and cold solves stay pinned at one per session:
//
//	curl -s http://127.0.0.1:8080/metrics | grep schedd_solver_
//
// /stats answers JSON with only what the benchmark reads: the pool's
// hits, misses, evictions and solver totals, each session's row (its
// info, what-if and epoch counts, answer-cache and solver counters and
// its conditions) and, under "cluster", the merged answer-cache
// counters plus forwarding retries and failovers and replicas sent and
// failed. Every other counter is on /metrics alone.
//
// /stats and /metrics are the only home of those counters: an answer
// (query, what-if, epoch) carries none, so its body is a function of the
// session's committed state and the question. Asked again it is the
// same bytes, a cache hit adds only "cached": true, and a replica
// restored from a snapshot answers a query with the owner's bytes (the
// snapshot carries the committed answer), and its what-ifs and later
// commits with the owner's bytes too: a restore solves the committed
// root alone, and every answer is a function of that root. The answers are
// the same numbers the batch CLIs produce: a dlsched -json run on the
// session's current platform (GET /sessions/$SID/platform) is directly
// diffable against a query.
//
// # Observability
//
// Every response carries the request's trace ID in X-Schedd-Trace —
// adopted from the request when the client supplies one, minted at
// the first replica otherwise, and preserved across every forwarding
// and failover hop, so one ID greps a request's full path out of the
// cluster's logs. One structured request line (logfmt via log/slog,
// stderr, suppressed by -quiet) is emitted per request with the
// trace ID, endpoint, status, duration and the routing decision
// (local / owner / failover / forwarded, with attempt count and
// backoff slept). Forwarded requests also carry X-Schedd-Hops; a
// request arriving with more than 3 hops is rejected with 508 Loop
// Detected and counted.
//
// GET /metrics serves the Prometheus text exposition. Request-path
// metrics are observed into pre-allocated atomics (the warm what-if
// solve path stays at 0 allocs/op — guarded by a test), and so are the
// cluster counters: the registry is their one home and /stats reads
// four of them back. Pool and solver totals, which live under the pool
// and session locks, are mirrored at scrape time from the same single
// walk that renders /stats and /healthz, as are the membership gauges
// and replicas_held. A ring's size is 1 + schedd_cluster_peers{state=
// "alive"} + {state="suspect"}. The families:
//
//	schedd_request_seconds{endpoint}          request latency histogram per endpoint
//	                                          (create, list, info, platform, delete, query,
//	                                          whatif, whatif_batch, epoch, stats, healthz,
//	                                          metrics, cluster, other)
//	schedd_session_request_seconds{session}   request latency histogram per session (ID prefix)
//	schedd_pool_hits_total, schedd_pool_misses_total, schedd_pool_evictions_total
//	schedd_sessions_live
//	schedd_answer_cache_hits_total, schedd_answer_cache_misses_total
//	schedd_whatifs_total, schedd_coalesced_whatifs_total, schedd_epochs_total
//	schedd_solver_pivots_total, schedd_solver_refactorizations_total
//	schedd_solver_warm_solves_total, schedd_solver_cold_solves_total
//	schedd_solver_cold_fallbacks_total, schedd_solver_bound_flips_total
//	schedd_solver_forks_total
//	schedd_solver_phase_nanoseconds_total{phase}  solver wall time per simplex phase
//	                                          (ftran, btran, pricing, ratio_test, refactor)
//	schedd_session_healthy{session}           1 iff every condition Healthy
//	schedd_health_degraded_conditions         count of Degraded conditions
//
// and, in cluster mode:
//
//	schedd_replication_fanout_seconds         per-replica snapshot fan-out latency histogram
//	schedd_heartbeat_rtt_seconds{peer}        last successful probe RTT per peer
//	schedd_cluster_peers{state}               peers by state (alive, suspect, dead)
//	schedd_cluster_quorum                     1 iff a membership majority is visible
//	schedd_cluster_heartbeat_rounds_total
//	schedd_cluster_forwarded_total, schedd_cluster_retries_total, schedd_cluster_failovers_total
//	schedd_cluster_promotions_total, schedd_cluster_fenced_commits_total
//	schedd_cluster_replicas_sent_total, schedd_cluster_replica_errors_total, schedd_cluster_replicas_held
//	schedd_cluster_migrations_total, schedd_cluster_snapshot_bytes_total
//	schedd_cluster_warm_rebuilds_total, schedd_cluster_cold_rebuilds_total
//	schedd_routing_loops_total
//
// Per-session health conditions (in /stats rows and summarized by
// /healthz, which answers 503 when any is Degraded or — in cluster
// mode — when the node lacks membership quorum):
//
//	WarmPivotHeadroom  warm restarts nearing (or falling through) the warm pivot budget
//	ReplicationLag     the session's last snapshot fan-out missed one or more replicas
//
// -debug-addr serves net/http/pprof on a separate listener (never on
// the public address).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	_ "net/http/pprof" // registered on DefaultServeMux, served only via -debug-addr
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/service"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "schedd:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		addr         = flag.String("addr", "127.0.0.1:8080", "listen address (port 0 picks a free port)")
		poolSize     = flag.Int("pool", 64, "maximum resident warm sessions (LRU beyond that)")
		snapshotDir  = flag.String("snapshot-dir", "", "persist session snapshots here and recover from them on start")
		snapInterval = flag.Duration("snapshot-interval", 30*time.Second, "periodic full-pool snapshot cadence (with -snapshot-dir)")
		advertise    = flag.String("advertise", "", "URL peers reach this replica at (default http://ADDR)")
		peersFlag    = flag.String("peers", "", "comma-separated peer URLs forming the initial ring")
		joinURL      = flag.String("join", "", "URL of a running replica to join")
		replication  = flag.Int("replication", 2, "warm copies of each session kept on the ring (owner + successors)")
		heartbeat    = flag.Duration("heartbeat", time.Second, "peer health-probe cadence in cluster mode")
		suspectAfter = flag.Duration("suspect-after", 3*time.Second, "silence before a peer is suspected (demoted in forwarding order)")
		deadAfter    = flag.Duration("dead-after", 10*time.Second, "silence before a peer is declared dead and its replicas promoted; forwarded commits retry until suspect-after + dead-after + 2 probe rounds + 1s has passed")
		debugAddr    = flag.String("debug-addr", "", "serve net/http/pprof on this separate address (empty disables)")
		quiet        = flag.Bool("quiet", false, "suppress per-request log lines")
	)
	flag.Parse()
	if *poolSize < 1 {
		return fmt.Errorf("-pool must be >= 1, got %d", *poolSize)
	}
	if *replication < 1 {
		return fmt.Errorf("-replication must be >= 1, got %d", *replication)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	// Install the signal handler before announcing the address: a client
	// may SIGTERM the moment it has read the line, and until Notify runs
	// the default disposition kills the process instead of shutting it
	// down cleanly. A signal that lands during startup waits in the
	// buffer for the select at the bottom.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	fmt.Printf("schedd: listening on %s\n", ln.Addr())

	self := *advertise
	if self == "" {
		self = "http://" + ln.Addr().String()
	}
	var peers []string
	for _, p := range strings.Split(*peersFlag, ",") {
		if p = strings.TrimSpace(p); p != "" {
			peers = append(peers, p)
		}
	}

	var store *cluster.Store
	if *snapshotDir != "" {
		store, err = cluster.NewStore(*snapshotDir)
		if err != nil {
			return fmt.Errorf("snapshot dir: %w", err)
		}
	}

	server := service.NewServer(service.NewPool(*poolSize))
	if !*quiet {
		server.SetLogger(slog.New(slog.NewTextHandler(os.Stderr, nil)))
	}
	node := service.NewNodeWithConfig(server, self, peers, store, service.NodeConfig{
		Replication:  *replication,
		Heartbeat:    *heartbeat,
		SuspectAfter: *suspectAfter,
		DeadAfter:    *deadAfter,
	})
	if store != nil {
		warm, cold, skipped, err := node.Recover()
		if err != nil {
			return fmt.Errorf("recover: %w", err)
		}
		if warm+cold+skipped > 0 {
			fmt.Printf("schedd: recovered %d sessions warm, %d cold, %d skipped from %s\n", warm, cold, skipped, *snapshotDir)
		}
	}

	srv := &http.Server{
		Handler:           node.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	var debugSrv *http.Server
	if *debugAddr != "" {
		// pprof registers itself on http.DefaultServeMux via its import;
		// serve that mux on the debug listener only, never publicly.
		dln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			_ = srv.Close()
			return fmt.Errorf("debug listener: %w", err)
		}
		fmt.Printf("schedd: pprof on %s\n", dln.Addr())
		debugSrv = &http.Server{Handler: http.DefaultServeMux, ReadHeaderTimeout: 10 * time.Second}
		go func() { _ = debugSrv.Serve(dln) }()
	}

	if *joinURL != "" {
		if err := node.Join(*joinURL); err != nil {
			_ = srv.Close()
			return fmt.Errorf("join %s: %w", *joinURL, err)
		}
		fmt.Printf("schedd: joined ring via %s (%d members)\n", *joinURL, len(node.Members()))
	}
	if len(peers) > 0 || *joinURL != "" {
		// Clustered: run the failure detector so dead peers are
		// confirmed and their replicas promoted.
		node.Start()
	}

	var ticker *time.Ticker
	tickDone := make(chan struct{})
	if store != nil && *snapInterval > 0 {
		ticker = time.NewTicker(*snapInterval)
		go func() {
			defer close(tickDone)
			for {
				select {
				case <-ticker.C:
					node.PersistAll()
				case <-tickDone:
					return
				}
			}
		}()
	}

	select {
	case sig := <-sigc:
		fmt.Printf("schedd: %s, shutting down\n", sig)
		if ticker != nil {
			ticker.Stop()
			tickDone <- struct{}{}
			<-tickDone
		}
		node.Stop()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if debugSrv != nil {
			_ = debugSrv.Close()
		}
		if err := srv.Shutdown(ctx); err != nil {
			return err
		}
		if store != nil {
			node.PersistAll()
		}
		return nil
	case err := <-errc:
		if errors.Is(err, http.ErrServerClosed) {
			return nil
		}
		return err
	}
}
