# GPUnion build targets. Each target mirrors one CI job in
# .github/workflows/ci.yml — `make ci` runs the full gate locally.

GO ?= go

# Coverage floor (percent of statements, whole-repo `go tool cover -func`
# total). Raise it as coverage grows; never lower it below the seed.
COVER_FLOOR ?= 70.5

.PHONY: all build test race bench bench-check bench-e2e fuzz-smoke loc fmt vet verify-recovery verify-chaos verify-failover verify-obs verify-gray verify-docs verify-bench verify-compose verify-golden verify-figures verify-examples cover ci

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Race lane: full suite under the race detector, minus the long
# discrete-event simulations (they are single-driver deterministic runs
# with their own dedicated lanes: test, verify-recovery, verify-chaos).
# The WAL gather's timing tests are not -short-guarded and run five more
# times here: its interleavings (signal before the flusher parks, stale
# token in the one-slot channel, Rotate stealing the queue mid-gather)
# are few-microsecond windows one pass rarely hits. The replica
# lifecycle and lease tests ride the same line: they are the ones with a
# live follower, a promotion racing a pump, and two arbiters on one
# lease file. So do the store's concurrency tests, which hammer the
# node shards and the one-lock job, allocation and sample tables at
# once. The placement-pass hand-off, the verified-token map and
# the agent's kept job reports (written where a job ends, re-sent from
# the beat loop), its heartbeat loop on wall-clock timers (beating
# while launches and kills arrive through its handler), its one
# launch critical section (duplicate launches, and a kill, racing a
# launch of the same job) and its checkpoint captures (orders through
# its handler racing the progress tick) are the places goroutines meet
# on shared state outside the store; their tests are cheap, so they
# run twenty times.
race:
	$(GO) test -race -short ./...
	$(GO) test -race -count=5 -run 'Gather|Replica|Lease|TestConcurrentAccess|TestConcurrentSaveLoadConsistency|TestShardedStressParallelHeartbeats' ./internal/wal ./internal/core ./internal/db
	$(GO) test -race -count=20 -run 'TestTryScheduleOnePassAtATime|TestVerifyConcurrent|TestJobReportsConcurrentWithBeats|TestHeartbeatLoopRealClock|TestLaunchConcurrentDuplicatesConverge|TestLaunchConcurrentWithKill|TestCheckpointOrdersRealClock' ./internal/core ./internal/auth ./internal/agent

# One iteration per benchmark, no unit tests: a smoke run that keeps
# bench_test.go compiling and executable without burning CI minutes.
bench:
	$(GO) test -bench=. -benchtime=1x -run='^$$' .

# Regression gate on the stable single-goroutine hot-path benchmarks:
# >25% ns/op regression vs BENCH_baseline.json fails the build. The
# highly parallel benches (ConcurrentHeartbeats/Reads, WAL appends) are
# too noisy for a hard threshold and are deliberately excluded.
# PlaceCached32 is there for its nodes=2000 arm — every cycle rebuilds
# the scheduler's candidate set, the cost that decides the ungated
# job_churn end-to-end workload; go test cannot select one
# sub-benchmark inside an alternation, so its other arms ride along.
# benchcheck runs the filter in five fresh `go test` processes and gates
# on each benchmark's median: the slow mode that made a best-of-3 inside
# one process cry wolf (BatchPlacement32 above all) is per process.
# HeartbeatRoute (one beat through the coordinator's Handler, the CPU of
# the end-to-end beat workloads) and DecodeHeartbeat (that beat's body
# decode alone) are gated on allocs/op as well, exactly: their baseline
# entries carry allocs_per_op.
# After a deliberate perf change, re-record the baseline with the
# command in BENCH_baseline.json's comment field.
BENCH_CHECK_FILTER ?= DBJobQueueQuery$$|DBJobsOnNode$$|BatchPlacement32$$|PlaceCached32$$|SinglePlacement32$$|SchedulerDecision50Nodes$$|HeartbeatCoalesced$$|HeartbeatRoute$$|DecodeHeartbeat$$
bench-check:
	$(GO) run ./scripts/benchcheck -baseline BENCH_baseline.json -bench '$(BENCH_CHECK_FILTER)' -threshold 25

# The end-to-end benchmark BENCHMARK.json declares: real coordinator and
# agent processes over loopback, WAL on a real disk. Arguments pass
# through, e.g. `make bench-e2e ARGS="--workload beats_telemetry --seconds 30"`;
# without them every workload runs. See bench/README.md.
bench-e2e:
	bash bench/run.sh $(ARGS)

# Each native fuzz target for 20 s past its seed corpus (which `go test`
# runs on every pass anyway): the WAL frame reader, the aggregated-batch
# codec, and the hand-parsed heartbeat held to json.Unmarshal. go test
# fuzzes one target of one package per run.
fuzz-smoke:
	$(GO) test ./internal/wal -run '^$$' -fuzz '^FuzzReaderFrame$$' -fuzztime 20s
	$(GO) test ./internal/api -run '^$$' -fuzz '^FuzzAggregatedBeat$$' -fuzztime 20s
	$(GO) test ./internal/api -run '^$$' -fuzz '^FuzzDecodeHeartbeat$$' -fuzztime 20s

# Net non-test lines of Go: the figure ROADMAP's "LOC must go down"
# rule and CHANGES.md quote.
loc:
	@find internal cmd scripts -name '*.go' ! -name '*_test.go' | xargs cat | wc -l

fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

# Coordinator crash/restart acceptance: kill the coordinator mid-run,
# recover from snapshot + WAL, verify the fleet state survived and the
# recovered queue drains without resubmission.
verify-recovery:
	$(GO) test ./internal/sim -run 'CrashRecovery' -count=1 -v

# Chaos acceptance: the seeded fault schedules (400-node churn,
# partition + coordinator kill/restart, WAL disk faults, clock-skew +
# duplicate delivery, data-plane partition + checkpoint corruption)
# must finish with zero invariant violations, and the sabotage tests
# must prove the checker catches deliberately broken invariants. See
# docs/FAULT-MODEL.md.
verify-chaos:
	$(GO) test ./internal/sim -run 'Chaos' -count=1 -v -timeout 300s

# Failover acceptance: the scripted leader handoff (lease expiry, epoch
# bump, zero lost acked mutations, jobs finish under the new leader),
# the seeded leader-kill and split-brain chaos schedules, and the
# sabotage test proving the zero-lost-acked audit fires when the
# replication stream drops a record. See docs/ARCHITECTURE.md
# (replication) and docs/FAULT-MODEL.md.
verify-failover:
	$(GO) test ./internal/sim -run 'Failover|SplitBrain' -count=1 -v -timeout 300s

# Observability acceptance: the flight recorder and metrics registry
# unit suites, the coordinator/agent exposition-over-HTTP tests, and
# the trace determinism + sabotage-localization chaos tests. See
# docs/OBSERVABILITY.md.
verify-obs:
	$(GO) test ./internal/obs ./internal/monitor -count=1 -v
	$(GO) test ./internal/core -run 'TestHTTPMetricsExposition|TestHTTPTraceEndpoint|TestHTTPPprofGated' -count=1 -v
	$(GO) test ./internal/agent -run 'TestMetricsRegistryPersistsAcrossScrapes' -count=1 -v
	$(GO) test ./internal/sim -run 'TestChaosTraceDeterminism|TestChaosSabotageTraceLocalization' -count=1 -v -timeout 120s

# Gray-failure acceptance: the three seeded gray schedules (sustained
# degradation + coordinator crash, partial heartbeat loss over a
# replicated pair with a leader kill, checkpoint read-rot) must finish
# with zero invariant violations; the end-to-end predictive
# checkpoint-then-migrate drain; the sabotage tests proving all three
# health invariants fire; and the fold/dedup/coalescing unit suites.
# See docs/FAULT-MODEL.md (gray failures).
verify-gray:
	$(GO) test ./internal/sim -run 'Gray|PartialLoss|CkptReadRot' -count=1 -v -timeout 300s
	$(GO) test ./internal/core -run 'TestHealthBeatBypassesCoalescing|TestReplayedHealthBeatNotDoubleFolded|TestHealthEventsTruncatedPerBeat' -count=1 -v
	$(GO) test ./internal/monitor -run 'TestFoldHealth|TestFakeHealthSource' -count=1 -v

# Docs acceptance: every internal package carries a package doc comment
# (scripts/doccheck), every db.MutationType constant has its row in
# docs/FAULT-MODEL.md's "What is durable" table (a grep, like
# verify-compose: a new mutation type cannot ship without its
# durability contract written down), every UPPER-CASE.md file a Go
# comment names exists somewhere in the tree, and every example still
# builds.
verify-docs:
	$(GO) run ./scripts/doccheck internal
	@types=$$(sed -n 's/^\tMut[A-Za-z]* *MutationType = "\(.*\)"$$/\1/p' internal/db/mutation.go); \
	test -n "$$types" || { echo "verify-docs: found no MutationType constants in internal/db/mutation.go"; exit 1; }; \
	for t in $$types; do \
		grep -q "^| \`$$t\` |" docs/FAULT-MODEL.md || \
			{ echo "docs/FAULT-MODEL.md: no \"What is durable\" row for mutation type $$t"; exit 1; }; \
	done
	@for doc in $$(grep -rhoE '//.*\b[A-Z][A-Z0-9_-]*\.md\b' --include='*.go' . | grep -oE '\b[A-Z][A-Z0-9_-]*\.md\b' | sort -u); do \
		test -n "$$(find . -name "$$doc" -not -path './.git/*' | head -n 1)" || \
			{ echo "a Go comment names $$doc, which exists nowhere in the tree:"; grep -rn --include='*.go' "$$doc" .; exit 1; }; \
	done
	$(GO) build ./examples/...

# bench/ is a module of its own, so `go build ./...` at the root does
# not see it: build, vet and test it here so a signature change in
# internal/db or internal/wal that breaks its decorators (bench/trace.go
# overrides Store.SetMutationHook and Store.AppendSample) fails CI
# instead of the next benchmark run. ~3 s.
verify-bench:
	cd bench && $(GO) build -o /dev/null . && $(GO) vet ./... && $(GO) test ./...

# Composition-root gate: the coordinator's store + WAL + follower +
# recoverState sequence is spelled once, in internal/core/replica.go
# (bench/trace.go, a module of its own, is the one hand assembly left).
# Non-test code under internal, cmd or examples that opens a log, builds
# a follower or calls recoverState anywhere else is a second assembly
# in the making. The same lane keeps wall-clock sleeps out of the sims:
# internal/sim runs on the simulated clock, and the one time.Sleep it
# ever had was the §5.3 lock model whose timing made a tier-1 test flaky.
# And the agent reaches the coordinator through one seam, agent.Link:
# register, heartbeat, job report and departure each have one typed
# request and one authenticated coordinator entry. A Notifier, an
# unauthenticated positional entry (HandleDeparture, Departing) or a
# type assertion that digs a *core.Client out of an endpoint is a second
# agent→coordinator seam in the making — the split that once left
# /v1/jobupdate without a token check. Sims, chaos, tests and examples
# send those messages through the shipped handlers (core.Handler,
# agent.Handler) over api.InProcess; an in-process adapter that calls
# the entries directly (the deleted LocalLink, LocalAgent, chaosHandle)
# is a second implementation of the wire, test files included. The
# agent side has one assembly too: agent.New builds the node's container
# runtime from its device specs, and the first successful Join starts
# the one heartbeat loop. A Beat() call in non-test code outside
# internal/agent is a second loop in the making, and a NewRuntime call
# outside internal/container and internal/agent — examples and tests
# included — a second runtime assembly. The root container benchmark,
# which times the runtime alone over its own image store, is the one
# exemption. What runs on a provider has one record, the agent's job
# table: the container runtime only admits an image and binds or
# releases a GPU, so a lifecycle State type or a container map in
# internal/container, or a launching map in internal/agent (launches in
# flight kept beside the table; a launch is one critical section on it),
# is a second record in the making. The coordinator side has one loop
# too: Replica.Start runs the leadership loop (pump, try the lease,
# promote, recover, admit), so a TryLead() or .Promote() call in
# non-test code outside internal/core is a second leadership loop in
# the making — the daemon, the chaos harness and the scripted failover
# once each had their own. A node
# crash is what it is for the daemon: the chaos harness discards the
# agent and boots a fresh one under the same identity, so a
# .KillSwitch() call in non-test internal/sim code is the old
# revive-in-place crash coming back. The daemon and the sims join
# through agent.JoinAny, so a .Redirect() call in non-test code outside
# internal/agent is a second join loop. Lifecycle events have one sink,
# the flight recorder (obs.Recorder): an import of internal/eventbus in
# non-test code outside it, or a SubscribeFunc( or .Attach( call in
# non-test code under internal, cmd or examples, is a second event
# stream in the making. A heartbeat has one path too: the agent sends
# it to its active coordinator endpoint. A SetAggregator( call, a
# TelemetryEvery knob, a NewAggAudit( call or a KindAgg fault in
# non-test code, or an import of internal/aggregator in non-test code
# outside cmd/aggregator, is the rack relay tier coming back into the
# agent, the chaos harness or the invariants. A provider comes back one
# way, as a fresh agent that registers: a Return method on agent.Agent,
# or a .Return() call in non-test code under internal/sim, is the
# revive-in-place return coming back. The coordinator's side of that
# rule: a node out of service returns only by registering, so a wasAway
# anywhere under internal/core (the beat that put a node back in
# place), a Suspend method in internal/heartbeat (the monitor's second
# membership flag) or a handleNodeReturn call in non-test code outside
# ingress.go (a second caller beside Register) is the second way back
# returning. A job's placement changes two ways: place puts it on a
# device and settle takes it off a device or out of the queue, each a
# compare-and-set on the record. In non-test internal/core code a
# .CloseAllocation( call (the episode close that is not scoped to the
# placement) or a job-record write (.UpdateJob() outside jobs.go and
# schedule.go; place counts a migration in its own write) is a
# hand-written transition coming back. Outside internal/core a program assembles a
# coordinator one way, core.OpenReplica then Start: a core.New( call in
# non-test code under internal, cmd or examples outside internal/core is
# a second assembly. And every
# in-process deployment reaches its daemons through one address book,
# api.Hosts, which a sim.World holds: a NewInProcessClient in any Go
# file, tests included, is the per-agent coordinator handler that the
# address book replaced coming back. Which job holds which device is
# written once, in the job table: the store derives GPUInfo.Allocated
# from the running jobs, so in non-test code outside internal/db an
# assignment to an .Allocated field, a markDevice or a protected field
# on core.beat (the placement grace that kept a beat's telemetry off a
# just-placed device) is a second writer of device occupancy coming
# back; a composite literal such as gpu.Telemetry{Allocated: …} is the
# agent's report and stays. Relocation is coordinator code with no
# bookkeeping of its own: an internal/migration directory or an import
# of it anywhere, or a RecordAttempt, RecordSuccess, RecordFailure or
# Migration() in non-test internal/core code, is the planning package
# and its statistics table coming back into the control plane (Fig. 3
# projects its numbers from the flight recorder). A relaunch resumes
# from the point its agent resolves: a netsim import in non-test
# internal/core or internal/agent code (the LAN model lives in the sims,
# under the agent's checkpoint path), a RestoreChain(, .Latest( or
# c.ckpts in non-test internal/core code (the coordinator reading the
# checkpoint store), or a RestoreFromSeq in any Go file (a restore point
# on the launch) is the coordinator resolving restores again. A move is
# one job write: a displaced job stays running on its source until place
# moves it, so a JobMigrating in any Go file, or a "migrating" literal
# in non-test Go code, is the second write of a move and its in-between
# state coming back (tests write the retired state as
# db.JobState("migrating"), the way older logs hold it). bench/ is
# not scanned: its hand-assembled coordinator is the one caller
# eventbus.New is kept for, and its beats_relayed workload is what
# internal/aggregator and cmd/aggregator are kept for.
verify-compose:
	@out="$$(grep -rnE 'wal\.Open\(|wal\.NewFollower\(|\.recoverState\(\)' --include='*.go' internal cmd examples \
		| grep -vE '_test\.go:|^internal/core/replica\.go:|^internal/wal/')"; \
	if [ -n "$$out" ]; then \
		echo "coordinator assembled outside internal/core/replica.go:"; echo "$$out"; exit 1; \
	fi
	@out="$$(grep -rn 'time\.Sleep(' --include='*.go' internal/sim | grep -v '_test\.go:')"; \
	if [ -n "$$out" ]; then \
		echo "wall-clock sleep in non-test code under internal/sim:"; echo "$$out"; exit 1; \
	fi
	@out="$$(grep -rn 'Notifier' internal/agent cmd; \
		grep -rnE 'HandleDeparture|\.Departing\(|\.\(\*core\.Client\)' --include='*.go' internal cmd examples | grep -v '_test\.go:')"; \
	if [ -n "$$out" ]; then \
		echo "a second agent->coordinator seam beside agent.Link:"; echo "$$out"; exit 1; \
	fi
	@out="$$(grep -rnE 'LocalLink|LocalAgent|chaosHandle' internal cmd examples)"; \
	if [ -n "$$out" ]; then \
		echo "an in-process adapter beside the shipped handlers:"; echo "$$out"; exit 1; \
	fi
	@out="$$(grep -rn '\.Beat()' --include='*.go' internal cmd examples | grep -vE '_test\.go:|^internal/agent/')"; \
	if [ -n "$$out" ]; then \
		echo "a heartbeat loop outside internal/agent:"; echo "$$out"; exit 1; \
	fi
	@out="$$(grep -rnE 'TryLead\(\)|\.Promote\(\)' --include='*.go' internal cmd examples | grep -vE '_test\.go:|^internal/core/')"; \
	if [ -n "$$out" ]; then \
		echo "a leadership loop outside core.Replica:"; echo "$$out"; exit 1; \
	fi
	@out="$$(grep -rn '\.KillSwitch()' --include='*.go' internal/sim | grep -v '_test\.go:')"; \
	if [ -n "$$out" ]; then \
		echo "a node crash that keeps the agent alive (discard it and boot a fresh one):"; echo "$$out"; exit 1; \
	fi
	@out="$$(grep -rn '\.Redirect()' --include='*.go' internal cmd examples | grep -vE '_test\.go:|^internal/agent/')"; \
	if [ -n "$$out" ]; then \
		echo "a join loop outside internal/agent (use agent.JoinAny):"; echo "$$out"; exit 1; \
	fi
	@out="$$(grep -rn 'container\.NewRuntime(' --include='*.go' . \
		| grep -vE '^\./internal/(container|agent)/|^\./bench_test\.go:[0-9]+:[[:space:]]*rt := container\.NewRuntime\(images, ')"; \
	if [ -n "$$out" ]; then \
		echo "a container runtime assembled outside internal/agent:"; echo "$$out"; exit 1; \
	fi
	@out="$$(grep -rnE --include='*.go' '^[[:space:]]*type [A-Za-z]*State\b|map\[string\]\*?Container\b|containers[[:space:]]+map\[' internal/container; \
		grep -rnE --include='*.go' 'launching\b.*map\[' internal/agent)"; \
	if [ -n "$$out" ]; then \
		echo "a second record of what runs on a provider beside the agent's job table:"; echo "$$out"; exit 1; \
	fi
	@out="$$(grep -rn --include='*.go' '"gpunion/internal/eventbus"' . \
		| grep -vE '_test\.go:|^\./internal/eventbus/|^\./bench/'; \
		grep -rnE 'SubscribeFunc\(|\.Attach\(' --include='*.go' internal cmd examples | grep -v '_test\.go:')"; \
	if [ -n "$$out" ]; then \
		echo "a second event stream beside the flight recorder:"; echo "$$out"; exit 1; \
	fi
	@out="$$(grep -rnE 'SetAggregator\(|TelemetryEvery|NewAggAudit\(|KindAgg' --include='*.go' internal cmd examples | grep -v '_test\.go:'; \
		grep -rn --include='*.go' '"gpunion/internal/aggregator"' internal cmd examples | grep -vE '_test\.go:|^cmd/aggregator/')"; \
	if [ -n "$$out" ]; then \
		echo "a second heartbeat path beside the agent's direct beat:"; echo "$$out"; exit 1; \
	fi
	@out="$$(grep -rnE 'func \([a-z]* ?\*?Agent\) Return\(' --include='*.go' internal/agent; \
		grep -rn '\.Return()' --include='*.go' internal/sim | grep -v '_test\.go:')"; \
	if [ -n "$$out" ]; then \
		echo "a second way back beside registration (boot a fresh agent that registers):"; echo "$$out"; exit 1; \
	fi
	@out="$$(grep -rn 'wasAway' internal/core; \
		grep -rnE 'func \([^)]*\) Suspend\(' --include='*.go' internal/heartbeat; \
		grep -rn '\.handleNodeReturn(' --include='*.go' internal cmd examples | grep -vE '_test\.go:|^internal/core/ingress\.go:')"; \
	if [ -n "$$out" ]; then \
		echo "a second way back into service beside Register:"; echo "$$out"; exit 1; \
	fi
	@out="$$(grep -rn '\.CloseAllocation(' --include='*.go' internal/core | grep -v '_test\.go:'; \
		grep -rn '\.UpdateJob(' --include='*.go' internal/core | grep -vE '_test\.go:|^internal/core/(jobs|schedule)\.go:')"; \
	if [ -n "$$out" ]; then \
		echo "a job placement changed outside place and settle:"; echo "$$out"; exit 1; \
	fi
	@out="$$(grep -rn 'core\.New(' --include='*.go' internal cmd examples | grep -vE '_test\.go:|^internal/core/')"; \
	if [ -n "$$out" ]; then \
		echo "a coordinator assembled beside core.OpenReplica (use sim.World.Open or core.OpenReplica):"; echo "$$out"; exit 1; \
	fi
	@out="$$(grep -rn --include='*.go' 'NewInProcessClient' .)"; \
	if [ -n "$$out" ]; then \
		echo "an in-process client beside the address book (serve the daemons in an api.Hosts):"; echo "$$out"; exit 1; \
	fi
	@out="$$(grep -rnE --include='*.go' '\.Allocated[[:space:]]*=([^=]|$$)|\bmarkDevice\b' internal cmd examples \
			| grep -vE '_test\.go:|^internal/db/'; \
		grep -rnE --include='*.go' '^[[:space:]]+protected[[:space:]]|\bb\.protected\b' internal/core | grep -v '_test\.go:')"; \
	if [ -n "$$out" ]; then \
		echo "a second writer of device occupancy beside the job table:"; echo "$$out"; exit 1; \
	fi
	@out="$$(test ! -e internal/migration || echo "internal/migration exists"; \
		grep -rn --include='*.go' '"gpunion/internal/migration"' .; \
		grep -rnE --include='*.go' 'RecordAttempt|RecordSuccess|RecordFailure|Migration\(\)' internal/core | grep -v '_test\.go:')"; \
	if [ -n "$$out" ]; then \
		echo "migration statistics or a planning package beside core's relocation:"; echo "$$out"; exit 1; \
	fi
	@out="$$(grep -rn --include='*.go' '"gpunion/internal/netsim"' internal/core internal/agent | grep -v '_test\.go:'; \
		grep -rnE --include='*.go' 'RestoreChain\(|\.Latest\(|c\.ckpts\b' internal/core | grep -v '_test\.go:'; \
		grep -rn --include='*.go' 'RestoreFromSeq' .)"; \
	if [ -n "$$out" ]; then \
		echo "a restore resolved by the coordinator (the job's agent resolves it):"; echo "$$out"; exit 1; \
	fi
	@out="$$(grep -rn --include='*.go' 'JobMigrating' .; \
		grep -rn --include='*.go' '"migrating"' . | grep -v '_test\.go:')"; \
	if [ -n "$$out" ]; then \
		echo "a move in two job writes (a displaced job stays running until place moves it):"; echo "$$out"; exit 1; \
	fi

# Same-behaviour gate: the ten chaos schedules, the trace test's
# short run and the scripted failover and crash-recovery scenarios must
# reproduce internal/sim/testdata/golden_traces.json (per-schedule
# fault, job and replay counters, event count and a digest chain of the
# flight-recorder export). The comparison runs twice, each in a fresh
# `go test` process: state that is fixed for one process's life (a
# random hash seed, an address-ordered map) agrees with itself inside
# one run and only shows against the committed file or across two. A
# refactor leaves the file untouched; a deliberate behaviour change
# regenerates it (same command plus -update-golden) and quotes the diff.
GOLDEN_TESTS = TestGolden|TestChaosTraceDeterminism|TestFailoverLeaderHandoff|TestCrashRecovery$$
verify-golden:
	$(GO) test ./internal/sim -run '$(GOLDEN_TESTS)' -count=1 -timeout 300s
	$(GO) test ./internal/sim -run '$(GOLDEN_TESTS)' -count=1 -timeout 300s

# Paper-figure gate: Table 1, Fig. 2, Fig. 3, the training-impact
# study and the traffic analysis at seed 42 must print exactly
# cmd/campus-sim/testdata/figures-seed42.txt (~50 s). A refactor leaves
# the file untouched; a change that means to move a figure regenerates
# it in its own commit and quotes the diff:
#   go run ./cmd/campus-sim -table1 -fig2 -fig3 -impact -traffic -seed 42 \
#     > cmd/campus-sim/testdata/figures-seed42.txt
FIGURE_FLAGS = -table1 -fig2 -fig3 -impact -traffic -seed 42
verify-figures:
	$(GO) run ./cmd/campus-sim $(FIGURE_FLAGS) | diff -u cmd/campus-sim/testdata/figures-seed42.txt -

# Example gate: every program under examples/ runs on a simulated
# clock with fixed seeds, so it must print exactly its committed
# output, examples/testdata/<name>.txt (~6 s for all seven, most of it
# campus-deployment). A refactor leaves the files untouched; a change
# that means to move an example's output regenerates its file in its
# own commit and quotes the diff:
#   go run ./examples/<name> > examples/testdata/<name>.txt
verify-examples:
	@out=$$(mktemp); trap 'rm -f "$$out"' EXIT; \
	for main in examples/*/main.go; do \
		name=$$(basename $$(dirname $$main)); \
		$(GO) run ./examples/$$name > "$$out" || { echo "examples/$$name failed"; exit 1; }; \
		diff -u examples/testdata/$$name.txt "$$out" || \
			{ echo "examples/$$name: output differs from examples/testdata/$$name.txt"; exit 1; }; \
	done

# Coverage with a floor: fail if total statement coverage drops below
# COVER_FLOOR. The profile is left in coverage.out for upload.
cover:
	$(GO) test -coverprofile=coverage.out ./...
	@total=$$($(GO) tool cover -func=coverage.out | awk '/^total:/ {gsub("%","",$$3); print $$3}'); \
	echo "total statement coverage: $$total% (floor $(COVER_FLOOR)%)"; \
	awk -v t="$$total" -v f="$(COVER_FLOOR)" 'BEGIN { exit (t+0 < f+0) ? 1 : 0 }' || \
		{ echo "coverage $$total% fell below the floor $(COVER_FLOOR)%"; exit 1; }

# cover runs the full test suite (with profiling), so ci does not also
# run a bare `test` pass — the long simulations already execute once
# there and once more under verify-chaos. bench-check runs before race:
# right after the race lane's -count=20 loops the host is still hot, and
# the gate once read DecodeHeartbeat/idle at +35 % (reruns +18 %, +20 %)
# on a package no diff had touched.
ci: build vet fmt bench-check race bench fuzz-smoke verify-recovery verify-chaos verify-failover verify-obs verify-gray verify-docs verify-bench verify-compose verify-golden verify-figures verify-examples cover
