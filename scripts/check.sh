#!/bin/sh
# check.sh — the repository's full verification gate, run locally before
# pushing and by CI (.github/workflows/ci.yml):
#
#   build        go build ./...
#   format       gofmt -l (fails on any unformatted file)
#   vet          go vet ./...
#   floclint     repo-specific determinism/invariant/units rules
#                (cmd/floclint)
#   fixtures     floclint -fixtures: every fixture WANT marker must be
#                reported and every finding must have a marker, so the
#                seeded-violation corpus cannot drift from the rules;
#                per-rule finding counts resurface in the final summary
#   alloc-gate   testing.AllocsPerRun gates asserting 0 allocs/op on the
#                //floc:hotpath functions reachable without I/O (wire
#                codec, dropfilter ops, router admission, dataplane ring)
#   tests        go test ./...
#   perfbench    perfbench's own tests: it is a separate module, so the
#                tests stage's ./... never reaches it; run offline with the
#                settings perfbench/run.sh builds under
#   invariants   go test -tags flocinvariants ./... (hot-path assertions on)
#   race         go test -race -short ./... (-short skips the multi-second
#                single-threaded simulations, which race instrumentation
#                slows ~15x past the package timeout)
#   telemetry-overhead
#                BenchmarkFLocRouterEnqueue in the default build (telemetry
#                compiled in but not attached) versus -tags flocnotelemetry
#                (compiled out); fails if the disabled-telemetry hot path
#                costs more than TELEMETRY_OVERHEAD_NS (default 2.0) ns/op
#                over the compiled-out baseline, comparing the median of
#                paired back-to-back runs to damp scheduler noise. The
#                budget is absolute, not a percentage: the contract is
#                "one predicted branch per decision point", whose cost
#                does not shrink when the rest of the admission path
#                speeds up
#   dataplane    wire + dataplane + flocd tests under -race, plus the
#                BenchmarkDataplaneEnqueueSharded throughput curve
#                (1/2/4/8 shards); on a 4+ core runner the 4-shard
#                aggregate throughput must be >= DATAPLANE_SPEEDUP x the
#                1-shard figure (default 2.5)
#   ledger-gate  end-to-end forensic loop: generate a capture, replay it
#                through flocd with -ledger sealing on a sharded engine,
#                then require floctrace verify (Merkle roots, record
#                chain, inclusion proofs) and floctrace replay (sealed
#                events fold to the claimed snapshot) to both pass
#   cluster-gate the cluster control plane end to end through real UDP
#                sockets: a 3-tier flocd chain on loopback (data
#                leaf->mid->root, feedback root->mid->leaf) is fed a
#                flooding capture; the root must originate pushback
#                feedback, the mid must apply and relay it, and the leaf
#                must install the propagated limits and drop flood
#                packets before forwarding
#   perf-gate    scripts/bench-snapshot.sh to a scratch file, compared
#                against the latest committed BENCH_*.json by cmd/perfgate;
#                fails on any family more than PERF_REGRESSION_PCT percent
#                worse (default 10); families new in the fresh snapshot are
#                reported but not gated
#   fuzz smoke   each fuzz target for FUZZTIME (default 10s)
#
# Each stage's wall-clock time is reported in a summary at the end.
#
# Environment:
#   FUZZTIME=10s   per-target fuzz budget; set FUZZTIME=0 to skip fuzzing.
#   TELEMETRY_OVERHEAD_NS=2.0
#                  disabled-telemetry overhead budget in ns/op (covers the
#                  guard branch plus code-size/layout effects of the
#                  compiled-in observers, measured ~1 ns on the reference
#                  runner, with margin for pairing noise); set to 0 to
#                  skip the benchmark comparison.
#   DATAPLANE_SPEEDUP=2.5
#                  required 4-shard vs 1-shard enqueue speedup on 4+ core
#                  machines; set to 0 to skip the ratio check.
#   PERF_REGRESSION_PCT=10
#                  allowed per-family regression against the latest
#                  committed BENCH_*.json; set to 0 to skip the perf gate.
set -eu
cd "$(dirname "$0")/.."

run() { echo ">> $*" >&2; "$@"; }

timings=""
stage_name=""
stage_t0=0

begin() {
    stage_name="$1"
    stage_t0=$(date +%s)
}

end() {
    timings="${timings}$(printf '%6ss  %s' "$(($(date +%s) - stage_t0))" "$stage_name")
"
}

begin build
run go build ./...
end

begin format
echo ">> gofmt -l ." >&2
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt required for:" >&2
    echo "$unformatted" >&2
    exit 1
fi
end

begin vet
run go vet ./...
end

begin floclint
run go run ./cmd/floclint ./...
end

begin fixtures
echo ">> go run ./cmd/floclint -fixtures cmd/floclint/testdata/src" >&2
fixtures_out=$(go run ./cmd/floclint -fixtures cmd/floclint/testdata/src)
echo "$fixtures_out" >&2
# The per-rule counts line resurfaces in the stage timing summary so a
# rule whose fixture coverage collapses to zero is visible at a glance.
rule_counts=$(printf '%s\n' "$fixtures_out" | grep '^per-rule fixture findings:' || true)
end

begin alloc-gate
# Dynamic half of the //floc:hotpath contract: testing.AllocsPerRun must
# agree with the static rule that the annotated paths are allocation-free.
run go test -count=1 -run '^TestZeroAlloc' \
    ./internal/wire ./internal/dropfilter ./internal/core ./internal/dataplane
end

begin tests
run go test ./...
end

begin perfbench
echo ">> (cd perfbench && go test ./...)" >&2
(cd perfbench && GOFLAGS= GOWORK=off GOPROXY=off go test ./...)
end

begin invariants
run go test -tags flocinvariants ./...
end

begin race
run go test -race -short ./...
end

TELEMETRY_OVERHEAD_NS="${TELEMETRY_OVERHEAD_NS:-2.0}"
if [ "$TELEMETRY_OVERHEAD_NS" != "0" ]; then
    begin telemetry-overhead
    echo ">> telemetry-overhead: BenchmarkFLocRouterEnqueue default vs -tags flocnotelemetry" >&2
    run go test -c -o /tmp/floc-bench-default.test .
    run go test -tags flocnotelemetry -c -o /tmp/floc-bench-notel.test .
    # Paired comparison: the builds alternate back-to-back, each pair
    # yields one absolute overhead delta in ns/op, and the median delta
    # is the verdict. Pairing cancels machine phase drift (a slow phase
    # hits both sides of a pair) and the median rejects outlier pairs,
    # which single-shot or min-of-N comparisons of two separate binaries
    # cannot. The budget is absolute because the guarded branch costs a
    # fixed number of cycles: a percentage budget silently tightens
    # every time the admission path itself gets faster.
    bench_once() {
        ns=$("$1" -test.run='^$' -test.bench='^BenchmarkFLocRouterEnqueue$' \
            -test.benchtime=2000000x 2>/dev/null |
            awk '/^BenchmarkFLocRouterEnqueue/ { print $3; exit }')
        [ -n "$ns" ] || { echo "telemetry-overhead: no benchmark output from $1" >&2; exit 1; }
        echo "$ns"
    }
    overheads="" i=0
    while [ $i -lt 7 ]; do
        base=$(bench_once /tmp/floc-bench-notel.test)
        cur=$(bench_once /tmp/floc-bench-default.test)
        overheads="$overheads $(awk -v b="$base" -v c="$cur" 'BEGIN { printf "%.3f", c - b }')"
        i=$((i + 1))
    done
    rm -f /tmp/floc-bench-default.test /tmp/floc-bench-notel.test
    echo "   pair overheads (ns/op):$overheads" >&2
    echo "$overheads" | tr ' ' '\n' | grep -v '^$' | sort -n |
        awk -v p="$TELEMETRY_OVERHEAD_NS" '
            { a[NR] = $1 }
            END {
                med = a[int((NR + 1) / 2)]
                printf "   median disabled-telemetry overhead %+.3f ns/op (budget %s ns/op)\n", med, p > "/dev/stderr"
                exit med > p ? 1 : 0
            }' || {
        echo "telemetry-overhead: disabled-telemetry hot path exceeds ${TELEMETRY_OVERHEAD_NS} ns/op budget" >&2
        exit 1
    }
    end
fi

begin dataplane
run go test -race -count=1 ./internal/wire ./internal/dataplane ./cmd/flocd
bench_out=$(go test -run='^$' -bench='^BenchmarkDataplaneEnqueueSharded$' \
    -benchtime=200000x ./internal/dataplane)
echo "$bench_out" | grep '^Benchmark' >&2
DATAPLANE_SPEEDUP="${DATAPLANE_SPEEDUP:-2.5}"
# go env GOMAXPROCS prints empty on toolchains that don't surface it;
# fall back through the portable cpu-count sources.
ncpu=$(nproc 2>/dev/null || getconf _NPROCESSORS_ONLN 2>/dev/null || echo 1)
if [ "$DATAPLANE_SPEEDUP" != "0" ] && [ "$ncpu" -ge 4 ]; then
    echo "$bench_out" | awk -v want="$DATAPLANE_SPEEDUP" '
        /shards=1/ { one = $3 }
        /shards=4/ { four = $3 }
        END {
            if (one == "" || four == "") { print "dataplane: benchmark output missing shard points" > "/dev/stderr"; exit 1 }
            ratio = one / four
            printf "   4-shard vs 1-shard enqueue speedup: %.2fx (required %.1fx)\n", ratio, want > "/dev/stderr"
            exit ratio >= want ? 0 : 1
        }' || {
        echo "dataplane: 4-shard speedup below ${DATAPLANE_SPEEDUP}x" >&2
        exit 1
    }
else
    echo "   speedup gate skipped (cpus=$ncpu < 4 or DATAPLANE_SPEEDUP=0)" >&2
fi
end

begin ledger-gate
# The forensic loop, end to end through the real binaries: seal a replay,
# then verify and replay the sealed evidence. Sealing rides inside the
# telemetry budget because it only runs when -ledger is given and hashes
# at control-run boundaries, never on the admission path (floclint's
# hotpath rule enforces the latter statically).
ledger_tmp=$(mktemp -d "${TMPDIR:-/tmp}/floc-ledger-XXXXXX")
run go build -o "$ledger_tmp/flocd" ./cmd/flocd
run go build -o "$ledger_tmp/floctrace" ./cmd/floctrace
run "$ledger_tmp/flocd" -gen 20000 -out "$ledger_tmp/capture.ndjson"
run "$ledger_tmp/flocd" -replay "$ledger_tmp/capture.ndjson" -shards 2 \
    -trace 65536 -ledger "$ledger_tmp/ledger"
run "$ledger_tmp/floctrace" verify -ledger "$ledger_tmp/ledger"
run "$ledger_tmp/floctrace" replay -ledger "$ledger_tmp/ledger"
rm -rf "$ledger_tmp"
end

begin cluster-gate
# The multi-router story, end to end through real sockets: traffic enters
# at the leaf daemon, is forwarded hop by hop to the root whose 20 Mb/s
# link is the bottleneck, and the resulting pushback limits must
# propagate the opposite way — root originates control frames, mid
# applies and relays them, leaf installs the limits and sheds the flood
# before forwarding. Every assertion reads the daemons' own /metrics
# through topogen -probe (no curl dependency).
cluster_tmp=$(mktemp -d "${TMPDIR:-/tmp}/floc-cluster-XXXXXX")
run go build -o "$cluster_tmp/flocd" ./cmd/flocd
run go build -o "$cluster_tmp/topogen" ./cmd/topogen
run "$cluster_tmp/flocd" -gen 64000 -out "$cluster_tmp/capture.ndjson"
"$cluster_tmp/flocd" -listen 127.0.0.1:19103 -router-id 3 -peers 127.0.0.1:19202 \
    -link 20e6 -metrics 127.0.0.1:19303 2>"$cluster_tmp/root.log" &
cluster_root=$!
"$cluster_tmp/flocd" -listen 127.0.0.1:19102 -router-id 2 -control 127.0.0.1:19202 \
    -peers 127.0.0.1:19201 -forward 127.0.0.1:19103 -link 100e6 \
    -metrics 127.0.0.1:19302 2>"$cluster_tmp/mid.log" &
cluster_mid=$!
"$cluster_tmp/flocd" -listen 127.0.0.1:19101 -router-id 1 -control 127.0.0.1:19201 \
    -forward 127.0.0.1:19102 -link 100e6 \
    -metrics 127.0.0.1:19301 2>"$cluster_tmp/leaf.log" &
cluster_leaf=$!
cluster_up() { # cluster_up <metrics port>
    i=0
    until "$cluster_tmp/topogen" -probe "http://127.0.0.1:$1/healthz" >/dev/null 2>&1; do
        i=$((i + 1))
        if [ "$i" -ge 50 ]; then
            echo "cluster-gate: daemon on port $1 never came up" >&2
            exit 1
        fi
        sleep 0.1
    done
}
cluster_up 19301; cluster_up 19302; cluster_up 19303
run "$cluster_tmp/flocd" -replay "$cluster_tmp/capture.ndjson" \
    -sendto 127.0.0.1:19101 -pace 0.3
sleep 1 # one more publish interval, so in-flight feedback lands
# metric_sum <metrics port> <series prefix> — sum every matching series,
# so the assertions hold at any shard count.
metric_sum() {
    "$cluster_tmp/topogen" -probe "http://127.0.0.1:$1/metrics" |
        awk -v p="$2" 'index($1, p) == 1 { s += $2 } END { print s + 0 }'
}
assert_pos() { # assert_pos <description> <value>
    echo "   $1 = $2" >&2
    awk -v v="$2" 'BEGIN { exit v + 0 > 0 ? 0 : 1 }' || {
        echo "cluster-gate: $1 must be > 0" >&2
        exit 1
    }
}
assert_pos "root: feedback frames sent" \
    "$(metric_sum 19303 'floc_cluster_feedback_sent_total')"
assert_pos "mid: records applied from root (origin 3)" \
    "$(metric_sum 19302 'floc_cluster_feedback_applied_total{peer="3"}')"
assert_pos "mid: installed limits" \
    "$(metric_sum 19302 'floc_cluster_installed_limits')"
assert_pos "mid: feedback frames relayed to leaf" \
    "$(metric_sum 19302 'floc_cluster_feedback_sent_total')"
assert_pos "leaf: records applied from mid (origin 2)" \
    "$(metric_sum 19301 'floc_cluster_feedback_applied_total{peer="2"}')"
assert_pos "leaf: installed limits" \
    "$(metric_sum 19301 'floc_cluster_installed_limits')"
assert_pos "leaf: flood packets shed by propagated limits" \
    "$(metric_sum 19301 'floc_cluster_limit_dropped_total')"
kill -INT "$cluster_leaf" "$cluster_mid" "$cluster_root" 2>/dev/null || true
wait "$cluster_leaf" "$cluster_mid" "$cluster_root" 2>/dev/null || true
rm -rf "$cluster_tmp"
end

PERF_REGRESSION_PCT="${PERF_REGRESSION_PCT:-10}"
if [ "$PERF_REGRESSION_PCT" != "0" ]; then
    begin perf-gate
    # Latest committed snapshot by sequence number (BENCH_0, BENCH_1, ...).
    baseline=$(ls BENCH_*.json 2>/dev/null | sort -t_ -k2 -n | tail -1 || true)
    if [ -z "$baseline" ]; then
        echo "   perf-gate skipped (no committed BENCH_*.json baseline)" >&2
    else
        fresh=$(mktemp "${TMPDIR:-/tmp}/floc-bench-XXXXXX")
        # Best-of-5 rather than the snapshot default of 3: the gate
        # compares minima, and the min of a noisy family (the batch
        # benchmarks swing ~15% run to run on a shared runner) only
        # converges near the floor with the extra samples.
        BENCH_RUNS="${BENCH_RUNS:-5}" run scripts/bench-snapshot.sh "$fresh"
        run go run ./cmd/perfgate -old "$baseline" -new "$fresh" -pct "$PERF_REGRESSION_PCT"
        rm -f "$fresh"
    fi
    end
fi

FUZZTIME="${FUZZTIME:-10s}"
if [ "$FUZZTIME" != "0" ]; then
    begin "fuzz ($FUZZTIME/target)"
    run go test -run='^$' -fuzz='^FuzzFilterOps$' -fuzztime "$FUZZTIME" ./internal/dropfilter
    run go test -run='^$' -fuzz='^FuzzTreeOps$' -fuzztime "$FUZZTIME" ./internal/pathid
    run go test -run='^$' -fuzz='^FuzzParseKey$' -fuzztime "$FUZZTIME" ./internal/pathid
    run go test -run='^$' -fuzz='^FuzzCapability$' -fuzztime "$FUZZTIME" ./internal/capability
    run go test -run='^$' -fuzz='^FuzzWireDecode$' -fuzztime "$FUZZTIME" ./internal/wire
    run go test -run='^$' -fuzz='^FuzzWireRoundTrip$' -fuzztime "$FUZZTIME" ./internal/wire
    run go test -run='^$' -fuzz='^FuzzControlFrameDecode$' -fuzztime "$FUZZTIME" ./internal/wire
    end
fi

echo "check.sh: all gates passed; stage timings:" >&2
printf '%s' "$timings" >&2
if [ -n "${rule_counts:-}" ]; then
    echo "$rule_counts" >&2
fi
