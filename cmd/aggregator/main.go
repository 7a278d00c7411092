// Command aggregator runs GPUnion's rack-scoped heartbeat relay: it
// serves the same /v1/heartbeat endpoint the coordinator does, acks
// no-op beats locally, folds them into compact AggregatedBeat windows,
// and forwards one upstream request per flush tick — so coordinator
// ingress cost scales with racks and churn, not fleet size. Point a
// rack's agents at this process as their aggregator endpoint; they
// fall back to their direct coordinator endpoints whenever the relay
// answers with an error.
//
// Usage:
//
//	aggregator -upstream http://coord:8080 [-listen :7080] [-id agg-rack12] [-flush 5s]
//
// SIGINT/SIGTERM flushes the open window upstream before exiting, so a
// graceful shutdown loses nothing; only a crash loses the open window
// (the tier's bounded-lag contract — the next beats heal it).
package main

import (
	"flag"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"gpunion/internal/aggregator"
	"gpunion/internal/auth"
	"gpunion/internal/core"
	"gpunion/internal/simclock"
)

func main() {
	upstream := flag.String("upstream", "", "coordinator base URL (required)")
	listen := flag.String("listen", ":7080", "HTTP bind address for agent heartbeats")
	id := flag.String("id", "", "relay identity on the wire (default: generated)")
	flush := flag.Duration("flush", 5*time.Second, "roll-up window: max delay before folded beats are forwarded")
	flag.Parse()
	if *upstream == "" {
		flag.Usage()
		os.Exit(2)
	}
	if *id == "" {
		gen, err := auth.NewMachineID()
		if err != nil {
			log.Fatalf("generating relay id: %v", err)
		}
		*id = "agg-" + gen
	}

	agg := aggregator.New(aggregator.Config{
		ID:            *id,
		FlushInterval: *flush,
	}, simclock.Real(), core.NewClient(*upstream))

	srv := &http.Server{Addr: *listen, Handler: agg.Handler()}
	go func() {
		log.Printf("gpunion aggregator %s listening on %s (upstream %s, flush %v)", *id, *listen, *upstream, *flush)
		if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
			log.Fatalf("http server: %v", err)
		}
	}()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	log.Printf("shutting down: flushing open window upstream")
	if err := agg.Flush(); err != nil {
		log.Printf("final flush: %v", err)
	}
	agg.Stop()
	_ = srv.Close()
}
