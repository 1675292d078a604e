package service

import (
	"context"
	"fmt"
	"log/slog"
	"net/http"
	"time"

	"repro/internal/obs"
)

// nodeMetrics is the cluster layer's metric set, registered into the
// wrapped Server's registry so one /metrics scrape covers the whole
// node. The counters are the Node's counters — incremented where the
// event happens, four of them read back with Value for /stats — and the fan-out
// histogram and heartbeat RTT gauges are observed inline (in the commit
// hook and the heartbeat loop respectively). Only the membership gauges
// and replicasHeld, which are views of state kept elsewhere, are
// mirrored at scrape time.
type nodeMetrics struct {
	fanout    *obs.Histogram // schedd_replication_fanout_seconds
	hbRTT     *obs.GaugeVec  // schedd_heartbeat_rtt_seconds{peer}
	peers     *obs.GaugeVec  // schedd_cluster_peers{state}
	quorum    *obs.Gauge
	heartbeat *obs.Counter // completed probe rounds

	forwarded     *obs.Counter
	retries       *obs.Counter
	failovers     *obs.Counter
	promotions    *obs.Counter
	fencedCommits *obs.Counter
	replicasSent  *obs.Counter
	replicaErrors *obs.Counter
	replicasHeld  *obs.Gauge
	migrations    *obs.Counter
	snapshotBytes *obs.Counter
	warmRebuilds  *obs.Counter
	coldRebuilds  *obs.Counter
	routingLoops  *obs.Counter
}

func newNodeMetrics(reg *obs.Registry, n *Node) *nodeMetrics {
	m := &nodeMetrics{
		fanout: reg.Histogram("schedd_replication_fanout_seconds",
			"Per-replica snapshot fan-out latency (one observation per replica send, success or failure)."),
		hbRTT: reg.GaugeVec("schedd_heartbeat_rtt_seconds",
			"Round-trip time of the last successful heartbeat probe per peer.", "peer"),
		peers: reg.GaugeVec("schedd_cluster_peers",
			"Known peers by failure-detector state.", "state"),
		quorum: reg.Gauge("schedd_cluster_quorum",
			"1 when this node sees a membership majority, else 0."),
		heartbeat: reg.Counter("schedd_cluster_heartbeat_rounds_total",
			"Completed heartbeat rounds of the failure-detection loop."),
		forwarded: reg.Counter("schedd_cluster_forwarded_total",
			"Requests routed toward their ring owner (including ones that resolved locally)."),
		retries: reg.Counter("schedd_cluster_retries_total",
			"Forwarding re-sends after a failed attempt."),
		failovers: reg.Counter("schedd_cluster_failovers_total",
			"Forwarding attempts diverted to a ring successor instead of the owner."),
		promotions: reg.Counter("schedd_cluster_promotions_total",
			"Passive replicas promoted to live sessions."),
		fencedCommits: reg.Counter("schedd_cluster_fenced_commits_total",
			"Epoch commits rejected for lack of membership quorum."),
		replicasSent: reg.Counter("schedd_cluster_replicas_sent_total",
			"Outbound snapshot replicas acked by a successor."),
		replicaErrors: reg.Counter("schedd_cluster_replica_errors_total",
			"Outbound snapshot replicas that failed."),
		replicasHeld: reg.Gauge("schedd_cluster_replicas_held",
			"Passive replicas currently held for other members."),
		migrations: reg.Counter("schedd_cluster_migrations_total",
			"Sessions shipped away on membership change."),
		snapshotBytes: reg.Counter("schedd_cluster_snapshot_bytes_total",
			"Encoded bytes of every snapshot persisted to this replica's store."),
		warmRebuilds: reg.Counter("schedd_cluster_warm_rebuilds_total",
			"Sessions rebuilt warm from snapshots (recovery or migration)."),
		coldRebuilds: reg.Counter("schedd_cluster_cold_rebuilds_total",
			"Sessions whose snapshot rebuild fell back to a cold solve."),
		routingLoops: reg.Counter("schedd_routing_loops_total",
			"Forwarded requests rejected for exceeding the hop bound."),
	}
	reg.OnScrape(n.collect)
	return m
}

// collect mirrors the replica count and membership view into the
// registry at scrape time.
func (n *Node) collect() {
	n.replicasHeld.Set(float64(n.replicaCount()))
	alive, suspect, dead := n.membership.Counts()
	n.peers.With("alive").Set(float64(alive))
	n.peers.With("suspect").Set(float64(suspect))
	n.peers.With("dead").Set(float64(dead))
	if n.membership.Quorum() {
		n.quorum.Set(1)
	} else {
		n.quorum.Set(0)
	}
}

// fanoutRecord summarizes a session's most recent snapshot fan-out:
// how many replicas were targeted and how many sends failed. The
// replication-lag health condition reads it.
type fanoutRecord struct {
	targets int
	failed  int
	at      time.Time
}

// replicationCondition is the condition source the Node installs on
// its Server: replication lag for one session, judged from the most
// recent fan-out. No record (replication disabled, or no commit since
// this process started owning the session) contributes nothing.
func (n *Node) replicationCondition(sessionID string) []Condition {
	if n.cfg.Replication <= 1 {
		return nil
	}
	v, ok := n.lastFanout.Load(sessionID)
	if !ok {
		return nil
	}
	rec := v.(fanoutRecord)
	c := Condition{Type: CondReplicationLag, Status: CondHealthy,
		Message: fmt.Sprintf("last fan-out reached %d/%d replicas", rec.targets-rec.failed, rec.targets)}
	if rec.failed > 0 {
		c.Status = CondDegraded
		c.Message = fmt.Sprintf("last fan-out lost %d/%d replicas (%s ago)",
			rec.failed, rec.targets, time.Since(rec.at).Round(time.Millisecond))
	}
	return []Condition{c}
}

// handleHealthz serves GET /healthz for a ring node: the server's
// per-session condition summary (which includes this node's
// replication-lag conditions via the hook) plus the cluster
// dimension — 503 whenever this node lacks membership quorum, since a
// partitioned minority fences commits and should fail its probe.
func (n *Node) handleHealthz(w http.ResponseWriter, r *http.Request) {
	resp := n.srv.healthSummary()
	q := n.membership.Quorum()
	resp.Quorum = &q
	if !q {
		resp.Status = "degraded"
		resp.Degraded = append(resp.Degraded, "cluster: Quorum: no membership majority; epoch commits are fenced")
	}
	writeHealth(w, resp)
}

// logRingChange emits one structured membership event when the ring
// is rebuilt with a different member set.
func (n *Node) logRingChange(old, members []string) {
	n.srv.logger.LogAttrs(context.Background(), slog.LevelInfo, "ring membership change",
		slog.String("self", n.self),
		slog.Any("old", old),
		slog.Any("new", members),
		slog.Int("size", len(members)))
}

// peerLabel shortens a peer base URL for use as a label value.
func peerLabel(peer string) string {
	const scheme = "http://"
	if len(peer) > len(scheme) && peer[:len(scheme)] == scheme {
		return peer[len(scheme):]
	}
	return peer
}
