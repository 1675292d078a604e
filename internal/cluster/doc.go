// Package cluster holds the building blocks that make warm scheduling
// sessions portable and the schedd service horizontally scalable: a
// versioned session-snapshot codec, a consistent-hash ring, the
// membership failure detector, and a snapshot directory store. The
// package is deliberately below internal/service in the dependency
// order (it knows platforms and lp.Basis exports, never Sessions), so
// the service layer composes these pieces without an import cycle.
//
// # Session snapshots
//
// A SessionSnapshot is everything a replica needs to rebuild a warm
// session from nothing: the session identity (pool ID and the
// creation-time platform fingerprint), the solver configuration
// (objective, heuristic, payoffs, seed, node budget), the committed
// epoch counter, the platform description the session was created for
// and the *committed capacities* over it (epochs change capacities
// only — cluster speeds, gateways, link budgets, the paper's §2 state
// between scheduling rounds — so the committed capacity and bound state
// is fully derivable from them), the carried lp.Basis exported to its
// serialized form: its columns, at-upper set and dual steepest-edge
// weights, which together with the platform are what a commit is a pure
// function of, and the committed answer. Rebuilding replays none of the
// history: the receiver decodes the creation platform, checks it
// against the fingerprint, writes the capacities in, builds a fresh
// model, installs the imported basis and runs the commit solve on the
// canonical footing every committed solve starts from
// (lp.Revised.Rebase) — one warm dual-simplex restart, typically zero
// pivots, zero cold solves — and publishes the answer it received.
//
// The wire form (SnapshotVersion 6) is a frame — a magic line, the
// format version, the hex sha256 of the body bytes exactly as sent —
// and a body of length-prefixed sections: a small JSON header
// (identity, configuration, epoch, the commit-dedup record's IDs in
// order), the creation platform, the capacities, the basis, the
// weights, the committed answer, and one report per recorded commit.
// The capacities section is every cluster's speed and gateway as
// float64 BE, cluster by cluster, then every link's connection budget as
// a uint32 BE. The answer section is the committed answer's compact
// report, or empty when the committed answer is the newest recorded
// commit's report (every ring commit is tagged, so it rides once). The
// basis section is uint32 BE words: the solver's
// column count ncols, the basis size m, the m basic columns in basis
// order, the number of nonbasic columns resting at their upper bound,
// and those columns, strictly ascending. The weights section is the
// basis's m steepest-edge weights γ_i = ‖e_iᵀB⁻¹‖² as float64 BE, or
// empty when the basis carries none (a basis taken before any dual ran).
// Format 5 added it: a commit's solve installs the carried basis and
// prices from its weights (lp.Revised.Rebase), so a replica that rebuilt
// from the columns alone would compute exact weights where the owner
// carries the recurrence's — equal in exact arithmetic, not in bits —
// and on a degenerate platform commit another vertex a few epochs on.
// Format 6 replaced the drifted platform JSON, which every seal encoded
// afresh (~60 µs of a ~100 µs seal at K = 20), with the creation
// platform's bytes, encoded once when the session is created, and the
// binary capacities section; and it added the answer section.
//
// The basis is binary because it is most of what the header used to
// parse: at K = 20 a basis is ~560 columns, and decoding them as JSON
// ints was ~130 µs of a replica's ~170 µs decode of an eight-deep
// snapshot. As words it is read with one bounds check per count and no
// parse, and written straight from the live lp.Basis (lp.Basis.View),
// with no exported copy. Only the header is marshalled per snapshot.
// The platform and the reports are appended as bytes their owner
// already holds (a commit's report is encoded once, when it is
// recorded, however many snapshots it rides in), so sealing costs one
// small marshal, the capacity and basis words, a copy and one hash —
// into a buffer the caller reuses (AppendEncode) — plus, after an
// untagged commit, the answer's compact encode; opening costs one hash,
// the header and the basis words. One decoder, DecodeSnapshot, opens every
// snapshot in place, wherever it arrives: it validates the basis words
// and the weights section's length where they lie and expands them only
// when Basis is asked, against the receiving solver's column count, and
// the capacities when ApplyCapacities writes them into a platform of
// the session's shape. A snapshot holds its capacities, its basis and
// its weights in one form, the sections they travel in: slices of the
// bytes it was decoded from, or the bytes AppendCapacities and
// AppendBasis wrote from the committed platform and the live basis —
// the service's sealer writes them into the head of the buffer it seals
// into, off the session lock, so a seal copies them once more into the
// frame (~7.4 KiB at K = 20) and allocates nothing for them.
//
// Between replicas (POST /cluster/replicate, which carries replicas
// and ownership transfers alike) a snapshot travels as the request body with no declared length —
// chunked — so the sender hands its sealed buffer to the transport in
// one write instead of copying it through a per-send buffer; the
// receiver reads it into a pooled buffer of its own, bounded like every
// inbound body, and a replica holds that buffer as received.
//
//   - At receipt (DecodeSnapshot, for replication and store recovery
//     alike — before anything is acked or installed): the version,
//     exactly; the checksum over the received bytes, so a torn write or
//     corrupted transfer, down to any single flipped bit, is an error
//     instead of a subtly wrong warm state; the header, decoded strictly
//     (unknown fields and trailing bytes are errors, a basis in the
//     header among them); the section structure (every declared length
//     fits the bytes that remain and is never allocated from, one report
//     per commit ID, nothing left over); and the basis section, as
//     strictly (m > 0, each count compared with the words that remain
//     before anything is allocated from it, at-upper columns strictly
//     ascending below ncols, no trailing bytes), and the weights
//     section's length (0 or 8·m); and that a committed answer is named
//     (an answer section, or a record whose newest report it is). The
//     platform, the capacities, the answer and the reports are handed
//     on as slices of the received bytes, unparsed.
//   - At install (service.RestoreSession: promotion, a transfer's
//     included, and recovery): the ID must digest from the carried fingerprint and
//     configuration, the creation platform is validated like an uploaded
//     one and must hash to the fingerprint, the capacities section must
//     fit its clusters and links and the platform they make must pass
//     the same validation (no NaN or negative capacity, no budget above
//     platform.MaxConnectCeiling), the committed answer must parse and
//     name the snapshot's epoch, a report that does not parse drops its
//     record entry, a basis whose
//     column count is not the rebuilt solver's is refused before it is
//     expanded, and the solver validates the imported basis, falling
//     back to a cold solve, and adopts its weights only when each is
//     finite and at least its floor, computing them exactly otherwise.
//     A snapshot that fails here installs nothing.
//   - Across versions: nothing. A format-2 snapshot (one JSON document),
//     a format-3 one (this frame, its basis as JSON ints in the header),
//     a format-4 one (no weights section) and a format-5 one (the drifted
//     platform as JSON, no capacities or answer section) are refused at
//     the version gate wherever they arrive, never migrated: their
//     sessions rebuild cold from traffic. The *.snap.json files format 2
//     left in a store are not read and go with the next sweep; a
//     format-3, -4 or -5 *.snap file is skipped (and
//     counted) at recovery, and goes with the next sweep unless its
//     session is live again, whose next commit overwrites it. A rolling upgrade must finish before
//     the format moves: until then old and new replicas refuse each
//     other's snapshots — fan-out between them goes unacked
//     (ReplicationLag degrades), an ownership transfer between them
//     fails and leaves the session serving where it was.
//
// # Consistent-hash ring
//
// Ring assigns ownership of sessions to replica members by consistent
// hashing with virtual nodes. The routing key is the session ID —
// itself a sha256 digest of platform.Fingerprint() plus the solver
// configuration — so all requests for one (platform, configuration)
// pair land on one owner, which is what keeps its model warm. Hashing
// is 64-bit FNV-1a over "member#vnode" and over keys, chosen because
// it is stable across processes and architectures (unlike Go's
// runtime map hash): every replica computes the identical ring from
// the identical member list, so routing needs no coordination beyond
// agreeing on membership. Adding or removing one member moves only
// ~1/N of the keyspace; the service layer migrates exactly the
// sessions whose owner changed (snapshot → transfer → warm rebuild).
//
// # Ownership transfer
//
// A session changes owner the way a replica travels. When a membership
// change makes another member the owner of a session held live here,
// the service's router (service.Node) seals it and POSTs it to the new
// owner's /cluster/replicate endpoint with its incarnation, like any
// replica push, so the same fences apply. The receiver's own ring
// decides what arrived:
//
//  1. A member that does not own the session holds it as a passive
//     replica, as it holds any other.
//  2. The owner promotes it on receipt (warm rebuild from the carried
//     basis, pool install, which persists it and fans it out to the
//     owner's successors) and acks the checksum only once the session
//     is live. The promotion cannot wait for the session's first
//     request: on the ack the sender evicts its copy and deletes its
//     snapshot file, so the received bytes are then the only copy.
//  3. A failed transfer or promotion is not acked, and leaves the
//     session where it was — requests keep being forwarded to the ring
//     owner, which forwards are answered locally by whichever node
//     holds the session, so availability degrades to an extra hop,
//     never to a lost session.
//
// A join needs no message of its own: the joiner probes a seed on
// /cluster/health, adopts the view the seed answers with, then probes
// every other member at once. Each member learns the joiner from its
// probe and transfers the sessions the joiner now owns before it
// answers, so the ring has converged when the join returns.
//
// The transferred session answers its first query with the owner's
// bytes: the snapshot carries the committed answer, and the rebuild
// publishes it rather than its own solve's, which reaches the owner's
// basis without the owner's pivots and so may differ from the owner's
// answer in the last bits (up to ~3e-13 in an α cell on random-drift
// commits at K = 10 to 40). Its later commits are the owner's bit for
// bit (see "Promotion preserves answers" below). Its what-ifs before
// the next commit are solved from the rebuild's own factorization of
// the committed basis, so they agree with the owner's to rounding
// (≤ 1e-9 relative), not in bits.
//
// # Replication
//
// Ownership transfer alone leaves every session with exactly one live
// copy, so a crashed replica takes its sessions' solver state with it
// and the survivors rebuild cold. The service layer therefore fans each
// session's sealed snapshot out to the next R−1 distinct ring
// successors of its key (R = NodeConfig.Replication, default 2) — on
// creation, on every epoch commit, and on arrival at a new owner —
// synchronously, before the client's commit response is written, with
// each receiver's ack carrying the checksum back for verification. Successors hold
// the copy passively (bytes + decoded snapshot, no solver state), so
// a replica costs memory but no simplex work until promotion.
// Placement is by ring successor rather than a separate replica map:
// the members that would inherit a key after its owner's death are
// exactly the members already holding its snapshot.
//
// # Failure model
//
// Members heartbeat each other on /cluster/health (SWIM-flavored:
// direct probes only, no gossip relay — rings here are small). Every
// message carries the sender's incarnation, a counter bumped each
// process start: a member silent past SuspectAfter is suspected —
// demoted in forwarding preference but still an owner — and one
// silent past DeadAfter is confirmed dead and dropped from the ring,
// at which point each survivor promotes the replicas the recomputed
// ring assigns to it (snapshot → warm rebuild → pool install, zero
// cold solves). Requests ride the same machinery: per-operation
// deadlines, capped exponential backoff with equal jitter, and for
// idempotent reads failover across the key's successor list. While
// the detector runs, a forwarded request keeps retrying until
// SuspectAfter + DeadAfter + 2 probe rounds (see
// Membership.Confirmation) + one back-off step has passed, and for at
// least 8 sends, so a commit sent as its owner dies or hangs waits out
// the death's confirmation and lands on the promoted replica.
// Commits are deliberately less available than reads: they go to the
// ring owner only, are fenced by epoch (a snapshot, replica or
// transfer, below the replica or live session the receiver holds is
// rejected with 409) and by sender incarnation (a message from a
// previous life of a peer is rejected),
// are deduplicated by client commit ID (a bounded per-session record
// of recently applied commits, carried in snapshots — bounded rather
// than last-commit-only so distinct clients interleaving commits
// cannot evict a pending retry's record) so a retry after an
// ambiguous transport error applies at most once, and are refused
// with 503 by any member that cannot see a majority of the ring.
//
// Failure detection by timeout is necessarily approximate: a member
// stalled past DeadAfter (GC pause, scheduler starvation, partition)
// is indistinguishable from a dead one, and the ring will reassign
// its sessions while it still holds live state — two members then
// believe they own the same session. The design does not pretend to
// rule this out (that would need consensus); it bounds the damage
// instead. The resurrected owner's stale live copy is evicted the
// moment a higher-epoch replica push reaches it, a transfer cannot
// clobber an equal-or-newer live session (its owner keeps serving an
// equal one and refuses an older one with 409), commits on the minority
// side of a partition are refused by the quorum fence, and the E17
// chaos guard's epoch-trace and drift gates (TestE17ChaosRegression
// in internal/service) verify end to end that the surviving history
// is exactly the client's committed history. What is traded away is
// availability, not consistency: a false death costs forwarding hops
// and re-replication, never a lost or forked commit.
//
// Promotion preserves answers exactly, not just approximately. The
// solver result on a degenerate platform depends on which optimal
// vertex the simplex path reaches, and a restored instance's path
// would legitimately differ from the live instance's (different row
// normalization, factorization age, pricing state). The service pins
// this down by putting every committed solve on a canonical footing
// (lp.Revised.Rebase): committed answers are a pure function of
// (matrix, committed capacities, carried basis) — all discrete,
// checksummed snapshot state — so a promoted replica's next commit is
// bit-identical to the one the dead owner would have produced.
//
// # Snapshot store
//
// Store persists sealed snapshot bytes under a directory, one file per
// session ID, written atomically (temp file + rename) so a crash
// mid-write leaves the previous snapshot intact. The service seals a
// commit's snapshot once and hands the same bytes to the store and to
// the replica fan-out. On restart the service loads
// every decodable snapshot and rebuilds each session warm
// (coldRebuilds stays zero across a clean recovery); undecodable
// files are skipped and counted, never fatal.
//
// # Observability
//
// The machinery above is instrumented by the service layer (the
// zero-dependency internal/obs registry; this package stays
// instrumentation-free so it keeps no process-global state). The
// cluster-relevant signals, all on every node's GET /metrics in
// Prometheus text format:
//
//   - schedd_cluster_forwarded_total, schedd_cluster_retries_total,
//     schedd_cluster_failovers_total — the routing ladder: proxied
//     requests, backoff retries, reads answered by a successor after
//     the owner failed.
//   - schedd_routing_loops_total — forwarded requests rejected with
//     508 because their X-Schedd-Hops count exceeded the hop bound; a
//     forwarded request is served locally by contract, so any nonzero
//     value means two nodes disagree about the ring.
//   - schedd_replication_fanout_seconds — histogram of per-successor
//     snapshot push latency, the synchronous cost every epoch commit
//     pays; schedd_cluster_replicas_sent_total /
//     schedd_cluster_replica_errors_total count the pushes, and a
//     session whose latest fan-out left any successor unacked reports
//     a Degraded ReplicationLag condition in /stats and /healthz.
//   - schedd_cluster_heartbeat_rtt_seconds{peer} — last probe round
//     trip per peer; schedd_cluster_peers{state} tallies the failure
//     detector's alive/suspect/dead census and schedd_cluster_quorum
//     says whether this node can see a membership majority (0 fences
//     its commits and flips its /healthz to 503). Ring membership
//     changes are also logged, with the old and new member lists.
//   - schedd_cluster_promotions_total, schedd_cluster_fenced_total,
//     schedd_cluster_warm_rebuilds_total /
//     schedd_cluster_cold_rebuilds_total,
//     schedd_cluster_migrations_total,
//     schedd_cluster_snapshot_bytes_total — the failure-handling
//     outcomes: replica promotions, epoch/incarnation-fenced rejects,
//     snapshot rebuild temperature (cold must stay zero across clean
//     recoveries), migrations, and snapshot bytes persisted to the
//     store.
//   - schedd_answer_cache_hits_total / schedd_answer_cache_misses_total
//     — the hit ratio of the sessions' answer tables (service.answerTable,
//     keyed on the committed epoch, so every commit misses afresh). A
//     low ratio is no fault: distinct what-ifs miss by construction.
//
// Every request carries an X-Schedd-Trace ID (client-supplied or
// minted at ingress) that is propagated across forward and failover
// hops and echoed in the response, so one slow query can be followed
// through the ring via the per-node structured request logs, which
// record the routing decision (local/owner/failover/forwarded), the
// attempt count and the backoff spent.
package cluster
