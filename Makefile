GO ?= go

.PHONY: check build vet lint layering runlists test race fuzz-smoke allocs locks smoke smoke-metrics bench-smoke chaos chaos-rankdeath bench profile-smoke benchmark-check flake loc

# The -run lists of the chaos, chaos-rankdeath and flake targets (each
# target below says why its tests are there) and the packages each runs
# over. SCHEDULE_RUN is the share of chaos that flake repeats: tests whose
# outcome could move with the goroutine schedule. make runlists fails when
# a term matches no test.
SCHEDULE_RUN := EventChaos|RecycleSafety|Shard|PutGetNeverTorn|RetransmitReplay|MechanismsProduceExactAtomicSums|SelectWaitRetransmits|StridedLandingIsAtomic|GrowthUnderLocalReads|TokenStateWithLocalWaiters
CHAOS_RUN := FaultChaos|LinkFailed|ChaosSmoke|Relay|TestDelivery|FacadeWithFaults|FacadeLinkFailure|$(SCHEDULE_RUN)
CHAOS_PKGS := ./internal/core/ ./internal/bench/ ./internal/portals/ ./internal/memsim/ ./rma/
RANKDEATH_RUN := RankDeath|RankKill|Replication|Membership|Spare|Postmortem
RANKDEATH_PKGS := ./internal/core/ ./internal/simnet/ ./internal/runtime/ ./rma/
FLAKE_RUN := Postmortem|RankDeathChaosMatrix|RankKillInstantSweep|RankDeathFreesCoarseLock|RankDeathFlushReleasesCoarseLock|OnDoneExactlyOnce|StaleIDCompletesNothing|$(SCHEDULE_RUN)
FLAKE_PKGS := ./internal/core/ ./internal/memsim/
DELIVERY_RUN := Delivery
DELIVERY_PKGS := ./internal/portals/

# check is the PR gate: vet, the package layering rule, build, full tests
# (every test world asserts that no rank lost a nonblocking request), the
# race detector over every package (which turns on the lock-rank check),
# the per-primitive allocation and lock-acquisition tables, a short E13
# smoke bench proving
# batching still pays, every example checking its own output, an
# E14 smoke bench proving the sharded apply engine still scales, a telemetry smoke run proving the JSON exporters parse, a
# profiling smoke run proving the critical-path and pprof sidecars come out
# attributable, the seeded chaos fault matrix under the race detector, and
# the repository benchmark's own vet and quick pass, and a few seconds of
# fuzzing on each decoder and layout walk that input from the wire reaches.
check: lint layering runlists build test race fuzz-smoke allocs locks smoke smoke-metrics bench-smoke profile-smoke chaos chaos-rankdeath benchmark-check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# lint is go vet. The RMA rules a static analyzer used to restate are
# runtime checks now (DESIGN.md §8): the lost-request count the tests
# assert, the lock-rank check race builds run, and the shadow checker.
lint: vet

# layering keeps the engine behind the facade: no package but rma, the
# checker and the bench harness may import internal/core (core's own tests
# aside). The compatibility layers, examples and tools ride rma.Session,
# so they show the interface — not the engine — can host them.
layering:
	@bad=$$($(GO) list -f '{{.ImportPath}} {{join .Imports " "}}' ./... | awk '$$1 !~ /^mpi3rma\/(rma|internal\/(checker|bench))$$/ { \
		for (i = 2; i <= NF; i++) if ($$i == "mpi3rma/internal/core") print $$1 }'); \
	if [ -n "$$bad" ]; then echo "layering: only rma, internal/checker and internal/bench may import mpi3rma/internal/core, but so do:" >&2; echo "$$bad" >&2; exit 1; fi; \
	echo "layering: ok"

# runlists fails when a |-term of a -run list above matches no test name
# in its packages (go test -list): a term whose test was renamed or never
# written leaves its target running less than its comment promises.
runlists:
	@rc=0; check() { \
		names=$$($(GO) test -list . $$3 | grep -E '^(Test|Fuzz|Example)') || return 1; \
		bad=$$(echo "$$2" | tr '|' '\n' | while read -r term; do echo "$$names" | grep -qE -- "$$term" || echo "$$term"; done); \
		if [ -n "$$bad" ]; then echo "runlists: $$1 -run terms match no test:" $$bad >&2; return 1; fi; }; \
	check chaos '$(CHAOS_RUN)' '$(CHAOS_PKGS)' || rc=1; \
	check chaos-rankdeath '$(RANKDEATH_RUN)' '$(RANKDEATH_PKGS)' || rc=1; \
	check flake '$(FLAKE_RUN)' '$(FLAKE_PKGS)' || rc=1; \
	check flake '$(DELIVERY_RUN)' '$(DELIVERY_PKGS)' || rc=1; \
	[ $$rc = 0 ] && echo "runlists: ok"; exit $$rc

test:
	$(GO) test ./...

# race runs every test under the race detector, and with it the lock-rank
# check (internal/lockrank): a ranked mutex taken out of order or twice,
# or held into Proc.Park, panics before it can block.
race:
	$(GO) test -race ./...

# fuzz-smoke fuzzes, 5 s each, past their seed corpora: the datatype
# codec, the run cursor, the cached layout plans against the cursor,
# core's put-frame and batch parsers, which decode types from the wire,
# and the in-order stream, whose numbers come off the wire too. Go
# runs one fuzz target per invocation; a failing input is written under the
# package's testdata/fuzz to replay.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzDecode$$' -fuzztime 5s ./internal/datatype/
	$(GO) test -run '^$$' -fuzz '^FuzzCursor$$' -fuzztime 5s ./internal/datatype/
	$(GO) test -run '^$$' -fuzz '^FuzzPlan$$' -fuzztime 5s ./internal/datatype/
	$(GO) test -run '^$$' -fuzz '^FuzzPutPayloadFrame$$' -fuzztime 5s ./internal/core/
	$(GO) test -run '^$$' -fuzz '^FuzzBatchUnpack$$' -fuzztime 5s ./internal/core/
	$(GO) test -run '^$$' -fuzz '^FuzzStream$$' -fuzztime 5s ./internal/portals/

# allocs runs the per-primitive allocation tables — the engine's, the
# facade's and the services' (dht, dht/queue), each row asserted == its
# committed number — and the engine's rows for two overlapping origins, a
# parked completion probe and a ring of atomic puts deferred to the
# progress serializer, and prints one line per row: heap objects per call,
# origin and target together.
allocs:
	@out=$$($(GO) test -count=1 -v -run 'TestPutHotPathNoAllocsWhenDisabled|TestFacadeAllocsPerPrimitive|TestAllocsTwoOriginOverlap|TestAllocsParkedProbe|TestAllocsBatchedProgress|TestMapAllocsPerCall|TestQueueAllocsPerHandoff' ./internal/core/ ./rma/ ./dht/ ./dht/queue/); rc=$$?; \
	echo "$$out" | grep -E 'allocs/op|^(---|FAIL|ok|panic)'; exit $$rc

# locks runs the table of mutex acquisitions per operation (core's
# locks_test.go), each row asserted == its committed number, and prints one
# line per row: the count before the delivery token became the target's
# lock, then today's. The lockcount build tag makes every engine, NIC,
# network, memory and request mutex count its Lock and TryLock calls.
locks:
	@out=$$($(GO) test -tags lockcount -count=1 -v -run 'TestLocksPerOp' ./internal/core/); rc=$$?; \
	echo "$$out" | grep -E 'locks/op|want exactly|^(---|FAIL|ok|panic)'; exit $$rc

# smoke runs the E13 and E15 smoke benches and every example. The
# examples are built once, into a temporary directory, and each binary
# checks its own output and exits non-zero when a check fails: kvservice,
# for one, unless every queued task arrived exactly once and the shared
# counter holds every CAS increment.
smoke:
	$(GO) test -run 'TestE13Smoke|TestE15Smoke' -count=1 ./internal/bench/
	@dir=$$(mktemp -d) && trap 'rm -rf "$$dir"' EXIT && \
	$(GO) build -o "$$dir/" ./examples/... && \
	for x in "$$dir"/*; do echo "example $${x##*/}"; "$$x" > /dev/null || exit 1; done

# bench-smoke runs the E14 sharded-apply sweep at a single payload: slot
# contents must verify byte-exactly and model time must not regress as
# workers double.
bench-smoke:
	$(GO) test -run TestE14Smoke -count=1 ./internal/bench/

# smoke-metrics runs one telemetry-instrumented experiment end to end:
# rmabench validates the metrics and trace JSON re-parse before exiting 0.
smoke-metrics:
	$(GO) run ./cmd/rmabench -exp fig2 -metrics -trace /tmp/rmabench-fig2-trace.json > /dev/null

# profile-smoke exercises the diagnosis toolchain end to end: one
# experiment with every pprof sidecar plus the critical-path sidecar
# (rmabench validates the JSON and exits non-zero on any span that does not
# reconcile or that charges time to the catch-all "other" stage), and a
# short fault-injected rmatop run so the console's render path stays
# green.
profile-smoke:
	$(GO) run ./cmd/rmabench -exp fig2 -critpath /tmp/rmabench-fig2-critpath.json -profile cpu,heap,mutex,block -profiledir /tmp > /dev/null
	$(GO) run ./cmd/rmatop -frames 2 -plain -interval 100ms -faults > /dev/null

# chaos runs the seeded fault-matrix harness under the race detector:
# reliable delivery must converge byte-exactly with the fault-free run,
# retransmissions must actually happen, and an exhausted retry budget
# must surface ErrLinkFailed instead of hanging. The recycle-safety run
# rides along: operation records reused and quarantined under the same
# plan must leave no race, no stale use and a byte-exact target. Its
# lossless and contended rows ride along for the wire frames that come
# home to the engine that allocated them: which goroutine consumes a
# frame — its sender's, inline, or the token holder draining a backlog —
# and so which party lets go of it last moves with the schedule, and a
# frame reused before both had let go must show as a race or a poisoned
# read.
# So do the
# NIC delivery tests: handlers run by whichever goroutine holds the token
# must never overlap, must keep each sender's order and must leave no
# message stranded in the backlog. So do the shard
# tests: a sharded apply runs on whichever goroutine delivers it. So does
# the torn-read test: a put and a get at one target never interleave, on
# the serial and sharded engines and on a faulted unordered network. So
# does the replay test: one seed, the same retransmissions. So do the
# tests of ranks parked in the progress serializer's wait and in Select
# on a lossy or unordered wire, and the strided-landing test:
# a local reader never sees a strided put half landed. So does memsim's
# growth test: a local reader runs against landings that grow the rank's
# backing store, which must be replaced only under the memory lock. So
# does the token-state test: a rank's own waits and loads meet two
# origins' puts, whose token-only state must never be touched without the
# delivery token and whose shared state only under the engine's mu.
chaos:
	$(GO) test -race -count=1 -run '$(CHAOS_RUN)' $(CHAOS_PKGS)

# chaos-rankdeath kills a replicated rank mid-run under the same seeded
# fault matrix: the buddy must promote its replicas onto a spare, origins
# targeting the dead rank must get ErrRankFailed (never ErrLinkFailed) in
# bounded time, ops to survivors must keep completing, and the rebuilt
# regions must converge byte-exactly with the fault-free run. The
# kill-instant mini-sweep (RankKillInstantSweep) rides along: a wait on a
# delivery counter must come back when its target dies after admitting the
# operation and before reporting it.
chaos-rankdeath:
	$(GO) test -race -count=1 -run '$(RANKDEATH_RUN)' $(RANKDEATH_PKGS)

# benchmark-check compiles and quick-runs the repository benchmark. It is
# a Go module of its own, so `go build ./...` and `go test ./...` above
# never see it and an rma or datatype API change could break the ruler
# silently. Its bench_test.go asserts that the metric names equal
# BENCHMARK.json, that failed = 0, and that every .allocs layer drive
# repeats exactly.
benchmark-check:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

# flake looks for scheduling-dependent failures where they have been seen
# before: the postmortem that must be on disk before the error surfaces,
# the rank-death matrix, the kill-instant mini-sweep (which side of the
# delivery report a kill lands on moves run to run), the coarse-lock
# rank-death tests (which goroutine runs the failure frame — the one that
# confirmed the death or the token holder draining the backlog — moves
# with the schedule, and the lock must be freed either way), the request
# lifecycle — OnDone callbacks racing the completion that runs them, and a
# late frame meeting the next occupant of its request's slot — the event-driven
# chaos run whose OnDone callbacks may trail the Select that reaps the
# request, the recycle-safety run (which goroutine releases an operation
# record moves with the schedule, and so does which goroutine consumes a
# wire frame, and with it whether the sender or the consumer brings it
# home), the shard tests (which goroutine
# applies a sharded op moves with it), the torn-read test (which puts a
# get lands between moves with it), the NIC delivery tests (which
# goroutine runs a handler — its sender or the token holder draining the
# backlog — moves with it too), the replay test (which rank steps the
# quiet world moves with it, and its retransmissions must not) and the
# progress-serializer and Select park tests (whether a deferred apply or a
# completion lands before or after the rank parks moves with it) and
# the strided-landing and store-growth tests (where a local read falls in
# a landing, or in a growth, moves with it) and the token-state test
# (which goroutine applies a put while the owning rank waits moves with
# it).
# Twenty repeats each on one and on two scheduler threads (one thread
# reorders goroutines the most). Lock order is make race's to guard: its
# build runs the lock-rank check under every test, whatever the schedule.
flake:
	GOMAXPROCS=1 $(GO) test -count=20 -run '$(FLAKE_RUN)' $(FLAKE_PKGS)
	GOMAXPROCS=2 $(GO) test -count=20 -run '$(FLAKE_RUN)' $(FLAKE_PKGS)
	GOMAXPROCS=1 $(GO) test -count=20 -run '$(DELIVERY_RUN)' $(DELIVERY_PKGS)
	GOMAXPROCS=2 $(GO) test -count=20 -run '$(DELIVERY_RUN)' $(DELIVERY_PKGS)

# bench runs every paper-figure experiment in modelled time and exits 1 on
# any FAIL: shape note. The exact cells (Fig. 1 / E6, E7, E9) are pinned
# byte for byte by TestExactGolden against internal/bench/testdata/exact.csv;
# host cost per operation is the repository benchmark's job (benchmark/).
bench:
	$(GO) run ./cmd/rmabench

# loc counts Go lines per top-level package and in total, tests split out,
# over the committed files: "it should shrink" as a command both sides of a
# PR run, instead of a number each CHANGES.md entry recomputes by hand.
loc:
	@git ls-files '*.go' | xargs wc -l | awk '$$2 != "total" { \
		n = split($$2, p, "/"); pkg = n > 2 ? p[1] "/" p[2] : n == 2 ? p[1] : "."; \
		if ($$2 ~ /_test\.go$$/) test[pkg] += $$1; else code[pkg] += $$1; seen[pkg] = 1 } \
		END { fmt = "%-22s %7d non-test %7d total\n"; \
		for (pkg in seen) { printf fmt, pkg, code[pkg], code[pkg] + test[pkg] | "sort"; c += code[pkg]; a += code[pkg] + test[pkg] } \
		close("sort"); printf fmt, "all packages", c, a }'
