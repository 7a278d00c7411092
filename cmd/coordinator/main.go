// Command coordinator runs GPUnion's central coordinator daemon: node
// registration, the pending-job priority queue, heartbeat-based failure
// detection and workload migration, served over a REST API.
//
// Usage:
//
//	coordinator [-listen :8080] [-config coordinator.json]
//	            [-wal-dir DIR]
//	            [-mode solo|leader|standby] [-replica-id NAME]
//	            [-lease-file FILE] [-lease-ttl-sec N] [-follow-dir DIR]
//	            [-pprof]
//
// Flags override the config file; with neither, built-in defaults
// apply. The group-commit window and the snapshot interval are config
// file keys only (wal_group_commit_ms, snapshot_interval_sec).
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
// request with ErrNotLeader plus a LeaderHint. Leadership is
// core.Replica's loop: every TTL/2 a replica that does not lead tails the
// leader's log and tries the lease. Once the leader's lapses (TTL plus a
// 2×TTL skew grace after a crash; at once after SIGINT/SIGTERM, which
// releases it) a standby wins, promotes, recovers, logs "promoted to
// leader at epoch N" and only then serves writes; agents find it
// through their endpoint lists, and acked state survives the handoff.
package main

import (
	"crypto/rand"
	"flag"
	"log"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"gpunion/internal/checkpoint"
	"gpunion/internal/config"
	"gpunion/internal/core"
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
	walDir := flag.String("wal-dir", "", "write-ahead-log directory (overrides config)")
	mode := flag.String("mode", "solo", `replication mode: "solo" (no lease, always leader), "leader" or "standby"`)
	replicaID := flag.String("replica-id", "", "replica name for the lease and LeaderHint replies (default: hostname)")
	leaseFile := flag.String("lease-file", "", "lease file on storage shared by all replicas (required for -mode leader|standby)")
	leaseTTLSec := flag.Int("lease-ttl-sec", 10, "lease TTL in seconds, at least 1 (leader|standby modes)")
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
	if *listen != "" {
		cfg.Listen = *listen
	}
	if *walDir != "" {
		cfg.WALDir = *walDir
	}
	if err := cfg.Validate(); err != nil {
		log.Fatalf("config: %v", err)
	}

	// Replicated operation: leader and standby modes share a lease file
	// (the fencing-token arbiter) on storage every replica can reach.
	var lease core.LeaseClient
	switch *mode {
	case "solo":
	case "leader", "standby":
		if *leaseFile == "" {
			log.Fatalf("-mode %s requires -lease-file", *mode)
		}
		// A TTL of zero re-arms the leadership turn at once, a busy loop,
		// and grants leases that expire as they are written.
		if *leaseTTLSec < 1 {
			log.Fatalf("-mode %s requires -lease-ttl-sec >= 1 (got %d)", *mode, *leaseTTLSec)
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
		leaseTTL := time.Duration(*leaseTTLSec) * time.Second
		lease = core.NewLease(core.FileLeaseStore(*leaseFile), simclock.Real(), leaseTTL, 2*leaseTTL)
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

	// The token-signing secret lives next to the log so credentials
	// issued before a restart still verify after it.
	var authSecret []byte
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
	}
	rcfg := core.ReplicaConfig{
		Dir: cfg.WALDir,
		WAL: wal.Config{
			GroupWindow:      cfg.WALGroupCommit(),
			SnapshotInterval: cfg.SnapshotInterval(),
		},
		Coordinator: core.Config{
			HeartbeatInterval: cfg.HeartbeatInterval(),
			MissedThreshold:   cfg.MissedThreshold,
			Strategy:          strategy,
			BatchSize:         cfg.SchedulerBatchSize,
			AuthSecret:        authSecret,
			Lease:             lease,
			ReplicaID:         *replicaID,
			EnableProfiling:   *pprofOn,
		},
		// The leadership loop's winning turn (never, solo). A promotion
		// that fails must not serve: exiting lets the lease lapse to a
		// replica that can.
		OnPromote: func(epoch uint64, err error) {
			if err != nil {
				log.Fatalf("promotion: %v", err)
			}
			log.Printf("replica %s promoted to leader at epoch %d", *replicaID, epoch)
		},
	}
	if *mode == "standby" {
		rcfg.FollowDir = *followDir
	}
	// Durable persistence: a solo replica or a leader recovers its store
	// from snapshot + WAL and logs every mutation from here on; a warm
	// standby builds its store from the leader's log instead.
	rep, err := core.OpenReplica(rcfg, simclock.Real(),
		checkpoint.NewStore(storage.NewMemStore(0)), eventbus.New(4096))
	if err != nil {
		log.Fatalf("opening replica: %v", err)
	}
	if mgr := rep.WAL(); mgr != nil {
		r := mgr.Recovery
		log.Printf("recovered from %s: snapshot=%v watermark=%d replayed=%d torn=%d",
			cfg.WALDir, r.SnapshotLoaded, r.Watermark, r.Replayed, r.TornTails)
	}
	// Solo, Start recovers. Otherwise it runs the first leadership turn
	// and arms the next ones; until one wins, writes get ErrNotLeader.
	rep.Start()
	if *mode == "standby" {
		log.Printf("replica %s standing by, tailing %s", *replicaID, *followDir)
	}

	srv := &http.Server{Addr: cfg.Listen, Handler: rep.Coordinator().Handler(nil)}
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
	_ = srv.Close()
	hadLog := rep.WAL() != nil
	if err := rep.Close(); err != nil {
		log.Printf("warning: final checkpoint and WAL close: %v", err)
	} else if hadLog {
		log.Printf("WAL closed; state checkpointed in %s", cfg.WALDir)
	}
}
