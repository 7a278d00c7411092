// Command coordinator runs GPUnion's central coordinator daemon: node
// registration, the pending-job priority queue, heartbeat-based failure
// detection and workload migration, served over a REST API.
//
// Usage:
//
//	coordinator [-listen :8080] [-config coordinator.json]
//	            [-wal-dir DIR] [-wal-group-commit-ms N] [-snapshot-interval-sec N]
//	            [-mode solo|leader|standby] [-replica-id NAME]
//	            [-lease-file FILE] [-lease-ttl-sec N] [-follow-dir DIR]
//	            [-pprof]
//
// Flags override environment variables (GPUNION_WAL_DIR,
// GPUNION_WAL_GROUP_COMMIT_MS, GPUNION_SNAPSHOT_INTERVAL_SEC), which
// override the config file; with none, built-in defaults apply.
//
// With a WAL directory configured the daemon is crash-safe: every
// database mutation is group-committed to the write-ahead log before it
// is acknowledged, a background snapshotter checkpoints the store
// without pausing it, and on boot the daemon recovers nodes, jobs and
// allocations from snapshot + log and re-arms failure detection — jobs
// survive a coordinator restart instead of needing resubmission.
// Without one the daemon keeps its state in memory only.
//
// Replicated operation pairs a leader with warm standbys over shared
// storage: all replicas point -lease-file at the same fencing-token
// arbiter file, the leader logs to its -wal-dir, and each standby tails
// that directory (-follow-dir) into its own store while answering every
// request with ErrNotLeader plus a LeaderHint. When the leader's lease
// lapses, a standby wins the next epoch, drains its replication buffer,
// bootstraps a WAL of its own and starts serving — agents re-register
// through their endpoint list and acked state survives the handoff.
package main

import (
	"crypto/rand"
	"flag"
	"log"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"sync"
	"syscall"
	"time"

	"gpunion/internal/checkpoint"
	"gpunion/internal/config"
	"gpunion/internal/core"
	"gpunion/internal/db"
	"gpunion/internal/eventbus"
	"gpunion/internal/scheduler"
	"gpunion/internal/simclock"
	"gpunion/internal/storage"
	"gpunion/internal/wal"
)

// loadOrCreateSecret reads the token-signing secret, minting one on
// first boot. 0600: it is a credential.
func loadOrCreateSecret(path string) ([]byte, error) {
	if b, err := os.ReadFile(path); err == nil && len(b) > 0 {
		return b, nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, err
	}
	b := make([]byte, 32)
	if _, err := rand.Read(b); err != nil {
		return nil, err
	}
	if err := os.WriteFile(path, b, 0o600); err != nil {
		return nil, err
	}
	return b, nil
}

func main() {
	listen := flag.String("listen", "", "HTTP bind address (overrides config)")
	cfgPath := flag.String("config", "", "path to coordinator.json")
	walDir := flag.String("wal-dir", "", "write-ahead-log directory (overrides config/env)")
	walGroupMS := flag.Int("wal-group-commit-ms", 0, "longest a WAL commit waits for company, in ms; a group that has formed commits at once (overrides config/env)")
	snapSec := flag.Int("snapshot-interval-sec", 0, "background snapshot period in seconds (overrides config/env)")
	mode := flag.String("mode", "solo", `replication mode: "solo" (no lease, always leader), "leader" or "standby"`)
	replicaID := flag.String("replica-id", "", "replica name for the lease and LeaderHint replies (default: hostname)")
	leaseFile := flag.String("lease-file", "", "lease file on storage shared by all replicas (required for -mode leader|standby)")
	leaseTTLSec := flag.Int("lease-ttl-sec", 10, "lease TTL in seconds (leader|standby modes)")
	followDir := flag.String("follow-dir", "", "leader WAL directory to tail while standby (required for -mode standby)")
	pprofOn := flag.Bool("pprof", false, "serve Go pprof profiling under /debug/pprof/ (opt-in)")
	flag.Parse()

	var cfg config.Coordinator
	if *cfgPath != "" {
		var err error
		cfg, err = config.LoadCoordinator(*cfgPath)
		if err != nil {
			log.Fatalf("loading config: %v", err)
		}
	}
	if err := cfg.ApplyEnv(os.LookupEnv); err != nil {
		log.Fatalf("environment config: %v", err)
	}
	if *listen != "" {
		cfg.Listen = *listen
	}
	if *walDir != "" {
		cfg.WALDir = *walDir
	}
	if *walGroupMS > 0 {
		cfg.WALGroupCommitMS = *walGroupMS
	}
	if *snapSec > 0 {
		cfg.SnapshotIntervalSec = *snapSec
	}
	if err := cfg.Validate(); err != nil {
		log.Fatalf("config: %v", err)
	}

	// Replicated operation: leader and standby modes share a lease file
	// (the fencing-token arbiter) on storage every replica can reach.
	var lease core.LeaseClient
	leaseTTL := time.Duration(*leaseTTLSec) * time.Second
	switch *mode {
	case "solo":
	case "leader", "standby":
		if *leaseFile == "" {
			log.Fatalf("-mode %s requires -lease-file", *mode)
		}
		if cfg.WALDir == "" {
			log.Fatalf("-mode %s requires a WAL directory", *mode)
		}
		if *replicaID == "" {
			host, err := os.Hostname()
			if err != nil || host == "" {
				log.Fatalf("-mode %s requires -replica-id (hostname unavailable: %v)", *mode, err)
			}
			*replicaID = host
		}
		// Skew tolerance 2×TTL: a replica whose clock lags the shared
		// file's writers by up to two TTLs still self-fences in time.
		lease = &fileLease{path: *leaseFile, ttl: leaseTTL, skew: 2 * leaseTTL}
		if *mode == "standby" && *followDir == "" {
			log.Fatalf("-mode standby requires -follow-dir (the leader's WAL directory)")
		}
	default:
		log.Fatalf("unknown -mode %q (want solo, leader or standby)", *mode)
	}

	var strategy scheduler.Strategy
	switch cfg.Strategy {
	case "best-fit":
		strategy = scheduler.BestFit{}
	case "least-loaded":
		strategy = scheduler.LeastLoaded{}
	default:
		strategy = &scheduler.RoundRobin{}
	}

	database := db.New(0)

	// Durable persistence: recover the store from snapshot + WAL, then
	// log every mutation from here on. The token-signing secret lives
	// next to the log so credentials issued before a restart still
	// verify after it.
	var (
		mgr        *wal.Manager
		authSecret []byte
	)
	secretPath := filepath.Join(cfg.WALDir, "auth.key")
	if lease != nil {
		// Shared across replicas, next to the lease: tokens issued by
		// one leader must still verify after a failover.
		secretPath = filepath.Join(filepath.Dir(*leaseFile), "auth.key")
	}
	if cfg.WALDir != "" {
		var err error
		authSecret, err = loadOrCreateSecret(secretPath)
		if err != nil {
			log.Fatalf("auth secret: %v", err)
		}
		if *mode == "standby" {
			// A standby's store is built by tailing the leader's log;
			// its own WAL dir is bootstrapped at promotion and must not
			// hold a stale previous term.
			if entries, readErr := os.ReadDir(cfg.WALDir); readErr == nil && len(entries) > 0 {
				log.Fatalf("-mode standby requires an empty WAL directory, but %s has %d entries (a stale log cannot be joined to a shipped store)", cfg.WALDir, len(entries))
			}
		} else {
			mgr, err = wal.Open(cfg.WALDir, database, wal.Config{
				GroupWindow:      cfg.WALGroupCommit(),
				SnapshotInterval: cfg.SnapshotInterval(),
			})
			if err != nil {
				log.Fatalf("opening WAL: %v", err)
			}
			r := mgr.Recovery
			log.Printf("recovered from %s: snapshot=%v watermark=%d replayed=%d torn=%d",
				cfg.WALDir, r.SnapshotLoaded, r.Watermark, r.Replayed, r.TornTails)
		}
	}
	ckpts := checkpoint.NewStore(storage.NewMemStore(0))
	bus := eventbus.New(4096)

	coord, err := core.New(core.Config{
		HeartbeatInterval: cfg.HeartbeatInterval(),
		MissedThreshold:   cfg.MissedThreshold,
		Strategy:          strategy,
		BatchSize:         cfg.SchedulerBatchSize,
		AuthSecret:        authSecret,
		Lease:             lease,
		ReplicaID:         *replicaID,
		EnableProfiling:   *pprofOn,
	}, simclock.Real(), database, ckpts, bus)
	if err != nil {
		log.Fatalf("creating coordinator: %v", err)
	}
	if mgr != nil {
		// Durability instrumentation: append/fsync latency, group-commit
		// batch sizes and rotation counts on the coordinator's registry.
		_ = mgr.Writer().Instrument(coord.Metrics())
	}
	if mgr != nil {
		// Resume the job-ID sequence, requeue mid-migration jobs and
		// re-arm failure detection around whatever was restored.
		coord.RecoverState()
	}

	// walMgr is the manager whose log currently backs the database: set
	// at boot for solo/leader, installed by the promotion goroutine for
	// a standby, read once more at shutdown for the final checkpoint.
	var walMgr struct {
		sync.Mutex
		m *wal.Manager
	}
	walMgr.m = mgr

	switch *mode {
	case "leader":
		for !coord.TryLead() {
			holder, epoch := lease.Leader()
			log.Printf("lease held by %q (epoch %d); retrying in %v", holder, epoch, leaseTTL)
			time.Sleep(leaseTTL)
		}
		log.Printf("replica %s leading at epoch %d", *replicaID, coord.Epoch())
	case "standby":
		// Warm standby: tail the leader's log into the local store;
		// requests are fenced with ErrNotLeader (plus a LeaderHint)
		// until the lease is won. Promotion drains the reorder buffer,
		// bootstraps a WAL of our own and re-arms the control plane.
		follower := wal.NewFollower(database)
		shipper := wal.NewShipper(*followDir)
		go func() {
			for {
				if err := follower.Pump(shipper); err != nil {
					log.Printf("standby: tailing %s: %v", *followDir, err)
				}
				if coord.TryLead() {
					_ = follower.Pump(shipper) // final catch-up: the old leader is fenced now
					if n, err := follower.Drain(); err != nil {
						log.Printf("warning: promotion drain: %v", err)
					} else if n > 0 {
						log.Printf("promotion: force-applied %d buffered records", n)
					}
					m, err := wal.Open(cfg.WALDir, database, wal.Config{
						GroupWindow:      cfg.WALGroupCommit(),
						SnapshotInterval: cfg.SnapshotInterval(),
					})
					if err != nil {
						log.Fatalf("promotion: opening WAL: %v", err)
					}
					_ = m.Writer().Instrument(coord.Metrics())
					if err := m.Checkpoint(); err != nil {
						log.Printf("warning: promotion checkpoint: %v", err)
					}
					walMgr.Lock()
					walMgr.m = m
					walMgr.Unlock()
					coord.RecoverState()
					log.Printf("replica %s promoted to leader at epoch %d", *replicaID, coord.Epoch())
					return
				}
				time.Sleep(leaseTTL / 2)
			}
		}()
		log.Printf("replica %s standing by, tailing %s", *replicaID, *followDir)
	}

	srv := &http.Server{Addr: cfg.Listen, Handler: coord.Handler(nil)}
	go func() {
		log.Printf("gpunion coordinator listening on %s (strategy %s)", cfg.Listen, cfg.Strategy)
		if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
			log.Fatalf("http server: %v", err)
		}
	}()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	log.Printf("shutting down")
	coord.Stop()
	_ = srv.Close()
	walMgr.Lock()
	mgr = walMgr.m
	walMgr.Unlock()
	if mgr != nil {
		// Final checkpoint so the next boot replays an empty tail; the
		// WAL already holds everything if this fails mid-write.
		if err := mgr.Checkpoint(); err != nil {
			log.Printf("warning: final snapshot: %v", err)
		}
		if err := mgr.Close(); err != nil {
			log.Printf("warning: closing WAL: %v", err)
		}
		log.Printf("WAL closed; state checkpointed in %s", cfg.WALDir)
	}
}
