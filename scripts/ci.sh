#!/usr/bin/env sh
# Tier-1 gate, split into named stages:
#
#   build        release + example builds under -D warnings, rustdoc
#                gate (`RUSTDOCFLAGS='-D warnings' cargo doc --no-deps
#                --workspace --offline`: a doc link to a deleted, renamed
#                or private item fails the build), hot-path
#                hashing gate (no bare HashMap in any netsim file but
#                fastmap.rs, no hasher built outside it), seam gate (no
#                netsim file over 800 non-test lines), one-world-builder
#                gate (links and channels are wired inside netsim only),
#                one-document-reader gate (no hand-kept allow-list, no
#                print -> reparse of an embedded document), no-closure
#                gate (no `dyn Fn` in non-test netsim code: packets are
#                observed through the telemetry capture only)
#   test         every package's tests (`cargo test --workspace`; the
#                bare root command runs the root package only), then the
#                event queue's equivalence proptests at 20,000 cases
#   scale        the scale gate (crates/bench/src/bin/scale.rs, no
#                arguments, ~5 s): the 100,000-device world is built and
#                run first in a fresh process and must peak at or under
#                2 KiB of RSS per device; packets/s at 10,000 devices over
#                500, and build devices/s at 100,000 over 10,000, each
#                measured in that same process, must reach their floors.
#                Nothing here compares wall time with a file or another
#                commit: speed is the repo benchmark's job (bench/)
#   determinism  same seed -> byte-identical traces (star, multi-hop
#                tiered, lab Wi-Fi, fault plan, zero-fault no-op), and
#                six of them sum to tests/golden/trace_sums.txt (taken
#                when packets left the flight recorder); no trace of a CI
#                world or a checked-in plan but http_flood wraps the
#                recorder's ring (a wrapped ring has lost the botnet's
#                formation); seed sweeps:
#                streamed NDJSON rows == batch rows byte for byte, and
#                a repeated sweep reproduces itself; hostile argv and
#                hostile documents (truncated, 100k-deep, out-of-range)
#                exit 1, never panic or abort; `exp all` regenerates every
#                artefact under results/ byte for byte with every paper
#                claim holding
#   checkpoint   resume == straight-through: snapshot mid-attack, resume,
#                and compare the resumed run's whole trace, capture and
#                metrics documents against the original's (trace diff +
#                cmp), plain and under a fault plan;
#                fork == straight-through: run a scenario tree forked
#                mid-attack and diff the identity branch's full trace and
#                capture against the uninterrupted run (a reseeded
#                sibling's capture must diverge)
#   serve        serve == offline: start `ddosim serve` on an ephemeral
#                port, submit checked-in plans (plain and defended), and
#                byte-compare each streamed-and-reassembled recorder
#                trace against the same seed+plan run offline with
#                --record (trace diff + cmp); malformed and out-of-range
#                submissions must exit non-zero without taking the server
#                down, and a protocol shutdown must drain to a clean exit
#   bench        the repo benchmark package (bench/, its own workspace,
#                invisible to `cargo test` at the root) still compiles
#                against the product API and passes its own tests; each of
#                its six workloads then runs once (seed 1, 2 s) and must
#                exit 0 with its `exact` object (sim_digest and every
#                seed-determined count) byte-equal to
#                tests/golden/bench_exact.txt: work done is gated by
#                equality, wall time by nothing here
#   mutants      the mutant catalogue (scripts/mutants.sh): every
#                tests/mutants/*.patch still applies, compiles, and fails
#                the one test its header names — so each gate shown to
#                catch a bug keeps catching it
#
#   usage: scripts/ci.sh [stage ...]    (no args = all stages, in order)
#
# When CI_ARTIFACT_DIR is set, the scale stage's output and the final
# stage-timing table are also written there for upload as workflow
# artifacts.
#
# The workspace resolves entirely from in-tree path dependencies (see
# "Offline builds" in README.md), so this runs without network access.
set -eu

cd "$(dirname "$0")/.."

# Warnings are errors throughout the gate (callers may override).
export RUSTFLAGS="${RUSTFLAGS:--D warnings}"

# One scratch directory for every stage's temp files, cleaned by a single
# EXIT trap. (Earlier revisions re-armed `trap ... EXIT` per temp file,
# so only the most recent list was ever cleaned up.)
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

DDOSIM="cargo run --release --offline -p ddosim --bin ddosim --"
EXP="cargo run --release --offline -p ddosim-bench --bin exp --"

# The checkpoint fixture tests/hostile_documents.rs resumes (the recipe
# that writes it is on its PARENT_CHECKPOINT).
CK=tests/fixtures/checkpoint_parent.json

# Small deterministic scenario shared by the determinism and checkpoint
# stages; extra flags append.
run_traced() {
    out=$1; shift
    $DDOSIM \
        --devs 6 --attack-at 20 --duration 15 --sim-time 45 --seed 7 \
        --record "$out" "$@" > /dev/null
}

stage_build() {
    cargo build --release --offline
    cargo build --examples --offline
    RUSTDOCFLAGS='-D warnings' cargo doc --no-deps --workspace --offline

    # Hot-path hashing gate: the forwarding fast path (addr index, route
    # tables, TCP demux, fork map, name interner) must stay on the
    # deterministic FastMap wrappers; a bare std HashMap would quietly
    # reintroduce per-process RandomState.
    # Node names are likewise interned (NameId) so the arena stays
    # struct-of-arrays; a `name: String` field would silently reintroduce a
    # heap allocation per node and blow the 2 KiB/device memory budget
    # (which the scale stage measures).
    # The gate walks the crate by glob (everything but fastmap.rs, which
    # defines the wrappers), so it follows files as they split or move; a
    # path that does not exist — the glob matched nothing — fails loudly
    # instead of letting `grep` exit 2 pass for "no match".
    for hot in crates/netsim/src/*.rs; do
        [ "$hot" = crates/netsim/src/fastmap.rs ] && continue
        if [ ! -f "$hot" ]; then
            echo "error: hot-path gate: $hot does not exist" >&2
            exit 1
        fi
        if grep -n 'HashMap' "$hot"; then
            echo "error: $hot mentions HashMap; hot paths use netsim::fastmap::FastMap" >&2
            exit 1
        fi
        if grep -nE 'names?: *(Vec<)?String' "$hot"; then
            echo "error: $hot holds owned String node names; intern them via netsim::NameInterner (NameId)" >&2
            exit 1
        fi
    done
    # Seams: no file of the simulator or of the core crate holds more than
    # 800 non-test lines (scripts/size.sh prints the largest of each;
    # sim.rs was 1,815 before the kernel was split along its layers, and
    # core's instance.rs 1,425 before the world build was split into
    # stages).
    for crate in netsim core; do
        largest=$(scripts/size.sh | sed -n "s/^largest $crate file: \([0-9]*\) .*/\1/p")
        if [ -z "$largest" ] || [ "$largest" -gt 800 ]; then
            scripts/size.sh | grep "^largest $crate file" >&2
            echo "error: a file under crates/$crate/src exceeds 800 non-test lines; split it along a layer" >&2
            exit 1
        fi
    done
    # One hasher, defined once: a second BuildHasher in netsim would dodge
    # fastmap.rs's distribution tests (the scale cliff was one such hasher).
    if grep -rnE 'BuildHasherDefault|RandomState' crates/netsim/src --include='*.rs' \
        | grep -v '^crates/netsim/src/fastmap.rs:'; then
        echo "error: netsim builds its hashers in fastmap.rs only; use FastMap/FastSet" >&2
        exit 1
    fi

    # One packet observer, and a kernel without closures: packets are seen
    # through the telemetry capture only, and scheduled work is a `fn`
    # pointer plus forkable data (netsim::fork). A file's test code (its
    # `#[cfg(test)]` tail, as scripts/size.sh counts it) may use closures.
    if find crates/netsim/src -name '*.rs' -print0 | xargs -0 awk '
        FNR == 1 { in_tests = 0 }
        /^#\[cfg\(test\)\]/ { in_tests = 1 }
        !in_tests && /dyn Fn/ { print FILENAME ":" FNR ": " $0; found = 1 }
        END { exit !found }'; then
        echo "error: netsim holds no closures; observe packets through the telemetry capture" >&2
        exit 1
    fi

    # One world builder: links, channels and the address plan are wired by
    # netsim::topology::Fabric alone, so every world — product, test or
    # example — gets the address and route order recorded runs rely on.
    if grep -rnE 'connect_p2p|attach_wifi|AddrAllocator::new' crates/*/src src --include='*.rs' \
        | grep -v '^crates/netsim/src/'; then
        echo "error: worlds are wired by netsim::topology::Fabric" >&2
        exit 1
    fi

    # One document reader (djson::Val::fields): the members a parser allows are
    # the members it reads, so a hand-kept allow-list beside the cursor is
    # a second copy that drifts; and an embedded document goes to its
    # `from_json`, never back to text and through `parse` again.
    if grep -rn 'reject_unknown_fields' crates/*/src src --include='*.rs'; then
        echo "error: unknown members are rejected by djson::Val::fields alone" >&2
        exit 1
    fi
    if find crates/*/src src -name '*.rs' -print0 | xargs -0 awk '
        FNR == 1 { in_tests = 0 }
        /^#\[cfg\(test\)\]/ { in_tests = 1 }
        !in_tests && /parse\(&.*to_string_compact\(\)/ { print FILENAME ":" FNR ": " $0; found = 1 }
        END { exit !found }'; then
        echo "error: an embedded document is read by its from_json, not printed and re-parsed" >&2
        exit 1
    fi
}

stage_test() {
    cargo test -q --offline --workspace
    # Pop order is every trace's order: drive the queue against its
    # reference far harder than the default 64 cases (~2 s).
    PROPTEST_CASES=20000 cargo test -q --release --offline -p netsim --test queue_equivalence
}

stage_scale() {
    # Absolute, same-process verdicts only (budget and flatness; see the
    # header): no baseline file, so a slow host cannot fail it and a stale
    # file cannot pass it. (Wall-clock ratios still need a core to
    # themselves: beside two busy loops on two cores the packets/s ratio
    # read under its floor in 2 runs of 5.) The output lands in
    # CI_ARTIFACT_DIR (when set) so the workflow can upload it.
    scale_log=${CI_ARTIFACT_DIR:+$CI_ARTIFACT_DIR/scale.txt}
    scale_log=${scale_log:-$work/scale.txt}
    mkdir -p "$(dirname "$scale_log")"
    scale_status=0
    cargo run --release --offline -p ddosim-bench --bin scale > "$scale_log" 2>&1 || scale_status=$?
    cat "$scale_log"
    return "$scale_status"
}

stage_determinism() {
    trace_a=$work/det-a.json
    trace_b=$work/det-b.json
    plan=$work/det-plan.json

    # A run and its rerun drift together, so each world family's trace is
    # also summed against tests/golden/trace_sums.txt: these six traces are
    # the ones the recorder wrote at d339fed (its sentences unchanged since
    # the eager recorder of 14eb8d4) minus the event queue's sweep records
    # and the four packet categories (link_tx, link_drop, wifi_backoff,
    # wifi_collision), with `seq` renumbered — taken when packets left the
    # recorder for the capture.
    sums=$work/trace_sums.txt
    sum_trace() { printf '%s %s\n' "$1" "$(cksum < "$2")" >> "$sums"; }

    # Wrap gate: the ring holds 65,536 events, and a trace that recorded
    # more has overwritten its oldest, which are the botnet's formation
    # (infections, C&C registrations). The trace is one compact line that
    # opens with its capacity and total.
    no_wrap() {
        counts=$(head -c 200 "$1" \
            | sed -n 's/.*"capacity":\([0-9]*\),"total_recorded":\([0-9]*\),.*/\1 \2/p')
        capacity=${counts% *} total=${counts#* }
        if [ -z "$counts" ] || [ "$total" -gt "$capacity" ]; then
            echo "error: $1 wraps the flight recorder (${total:-?} events, capacity ${capacity:-?})" >&2
            return 1
        fi
    }

    # Identical seeds must produce byte-identical flight-recorder traces,
    # and `trace diff` must agree.
    run_traced "$trace_a"
    run_traced "$trace_b"
    $DDOSIM trace diff "$trace_a" "$trace_b"
    sum_trace star "$trace_a"
    no_wrap "$trace_a"

    # The same determinism must hold across a multi-hop routed topology,
    # which exercises the forwarding fast path (each router's exact route
    # index) on every forwarded packet.
    run_traced "$trace_a" --topology tiered:3:10000000
    run_traced "$trace_b" --topology tiered:3:10000000
    $DDOSIM trace diff "$trace_a" "$trace_b"
    sum_trace tiered "$trace_a"
    no_wrap "$trace_a"

    # And on the lab world (Fig. 4's hardware arm): a shared, lossy Wi-Fi
    # medium whose backoff, collision and frame-loss draws all come from
    # the event stream.
    run_traced "$trace_a" --topology wifi
    run_traced "$trace_b" --topology wifi
    $DDOSIM trace diff "$trace_a" "$trace_b"
    sum_trace wifi "$trace_a"
    no_wrap "$trace_a"

    # Fault-plan smoke: a C&C outage mid-run must land in the flight
    # recorder (start and end), and the bots must re-register with the
    # restarted C&C (strictly more cnc_register events than the 6 initial
    # recruitments).
    cat > "$plan" <<'PLAN'
{
  "schema": "ddosim.faults.plan/1",
  "seed": 0,
  "faults": [
    { "at_secs": 40.0, "kind": "cnc_outage", "duration_secs": 20.0 }
  ]
}
PLAN
    run_faulted() {
        out=$1; shift
        $DDOSIM \
            --devs 6 --attack-at 20 --duration 15 --sim-time 110 --seed 7 \
            --faults "$plan" --record "$out" "$@" > /dev/null
    }
    run_faulted "$trace_a"
    # The compact recorder document is one line, so count matches, not lines.
    [ "$(grep -o '"cat":"fault"' "$trace_a" | wc -l)" -ge 2 ]
    [ "$(grep -o '"cat":"cnc_register"' "$trace_a" | wc -l)" -gt 6 ]

    # Determinism holds under faults: same seed + same plan -> identical trace.
    run_faulted "$trace_b"
    $DDOSIM trace diff "$trace_a" "$trace_b"
    sum_trace faults "$trace_a"
    no_wrap "$trace_a"

    # A zero-fault plan is a strict no-op: its trace matches a run that
    # never passed --faults at all.
    printf '{ "schema": "ddosim.faults.plan/1", "faults": [] }\n' > "$plan"
    run_traced "$trace_a"
    run_traced "$trace_b" --faults "$plan"
    $DDOSIM trace diff "$trace_a" "$trace_b"

    # Sweep smoke: the streamed runner must emit the exact rows the batch
    # runner reports — same deterministic row bytes, only the delivery
    # order may differ — and a repeated sweep must reproduce itself.
    batch=$work/sweep-batch.ndjson
    stream=$work/sweep-stream.ndjson
    run_sweep() {
        $DDOSIM --devs 6 --attack-at 20 --duration 15 --sim-time 45 \
            --seed 7 --sweep-seeds 6 "$@"
    }
    run_sweep --json > "$batch"
    run_sweep --sweep-stream > "$stream"
    [ "$(wc -l < "$batch")" -eq 6 ]
    sort "$stream" | diff "$batch" -
    run_sweep --sweep-stream | sort | diff "$batch" -

    # Scenario smoke: every checked-in adversary-vs-defense plan
    # (ddosim.scenario/1) runs deterministically — same seed, byte-identical
    # trace — with the JSON result captured for the metric assertions below.
    sa=$work/scn-a.json
    sb=$work/scn-b.json
    for p in plans/*.scenario.json; do
        name=$(basename "$p" .scenario.json)
        $DDOSIM --scenario "$p" --json --record "$sa" > "$work/scn-$name.result" 2> /dev/null
        $DDOSIM --scenario "$p" --record "$sb" > /dev/null 2>&1
        $DDOSIM trace diff "$sa" "$sb"
        mv "$sa" "$work/scn-$name.trace"
        # http_flood is the one plan allowed to wrap: tcp-lite records a
        # retransmit per RTO under its heavy loss (about 1.9 million), and
        # the repo benchmark counts them through the recorder.
        [ "$name" = http_flood ] || no_wrap "$work/scn-$name.trace"
    done
    sum_trace http_flood "$work/scn-http_flood.trace"
    sum_trace rate_limit "$work/scn-rate_limit.trace"
    cmp "$sums" tests/golden/trace_sums.txt

    # A defense-free scenario is a strict no-op: the baseline plan's trace
    # matches the same world built from plain command-line flags.
    run_plain_baseline() {
        $DDOSIM --devs 8 --seed 42 --sim-time 120 --attack-at 60 \
            --vector udpplain --duration 40 --record "$sb" > /dev/null
    }
    run_plain_baseline
    $DDOSIM trace diff "$work/scn-baseline.trace" "$sb"

    # Each defense moves its headline metric against the no-defense
    # baseline; each attack vector lands.
    scn_field() { sed -n 's/^  "'"$2"'": \([0-9][0-9.]*\).*/\1/p' "$work/scn-$1.result" | head -1; }
    flt_lt() { awk "BEGIN{exit !($1 < $2)}"; }
    base_flood=$(scn_field baseline flood_packets_received)
    base_rate=$(scn_field baseline avg_received_data_rate_kbps)
    [ "$base_flood" -gt 1000 ]
    # Rate limiting throttles the flood; egress filtering all but kills it.
    [ "$(scn_field rate_limit flood_packets_received)" -lt $((base_flood / 2)) ]
    [ "$(scn_field egress_filter flood_packets_received)" -lt $((base_flood / 4)) ]
    # A patch rollout finished before the attack leaves no bots to command.
    [ "$(scn_field patch_rollout bots_at_command)" -eq 0 ]
    [ "$(scn_field layered_defense bots_at_command)" -eq 0 ]
    # Seizing the only C&C orphans the botnet; with a backup in the
    # fallback chain every bot re-homes to it instead.
    [ "$(scn_field cnc_takedown_spof flood_packets_received)" -eq 0 ]
    [ "$(grep -o 'rotating to fallback' "$work/scn-cnc_takedown.trace" | wc -l)" -ge 8 ]
    # Rival malware that lands first locks the primary botnet out.
    [ "$(scn_field rivalry bots_at_command)" -lt "$(scn_field baseline bots_at_command)" ]
    # Honeypots trap at least one scanner under worm recruitment.
    [ "$(grep -o 'honeypot trapped' "$work/scn-honeypot.trace" | wc -l)" -ge 1 ]
    # DNS amplification beats the direct flood's data rate; the HTTP GET
    # flood arrives as TCP stream data.
    flt_lt "$base_rate" "$(scn_field dns_amplification avg_received_data_rate_kbps)"
    [ "$(scn_field http_flood flood_packets_received)" -gt 0 ]

    # Hostile argv: every one of these is a usage error (exit 1 with a
    # message), never a panic (exit 101).
    hostile() {
        status=0
        $DDOSIM "$@" > /dev/null 2> "$work/hostile.err" || status=$?
        if [ "$status" -ne 1 ] || ! grep -q '^error: ' "$work/hostile.err" \
            || grep -q panicked "$work/hostile.err"; then
            echo "error: ddosim $* exited $status:" >&2
            cat "$work/hostile.err" >&2
            return 1
        fi
    }
    hostile --devs 2 --duration 18446744073709551615
    hostile --devs 2 --attack-at 18446744073709551615
    hostile --devs 2 --sim-time 18446744073709551615
    hostile --access-rate 5-
    # A world the 10.0.0.0/8 address plan cannot hold, and an access rate
    # that overflows bits per second: panics inside the world build (exit
    # 101) until validate() learned both limits.
    hostile --devs 18446744073709551615
    hostile --devs 4 --topology tiered:18446744073709551615:1000
    hostile --access-rate 18446744073709551615-18446744073709551615
    hostile --payload -1
    hostile --sweep-seeds 99999999999
    hostile serve --workers -1
    hostile submit 127.0.0.1:1 --metrics-interval NaN --scenario x

    # Hostile documents: every flag that reads one is fed a file cut off
    # mid-way, a file nested 100,000 deep (a stack overflow, exit 134,
    # before djson capped nesting) and a value its field cannot hold or a
    # member its schema does not have (all silently accepted before the
    # one reader). Each is a plain error: exit 1 with a message. `submit`
    # refuses the first two itself, before it connects; the third is the
    # server's to refuse, in the serve stage.
    bad=$work/hostile-doc.json
    deep=$work/hostile-deep.json
    awk 'BEGIN { for (i = 0; i < 100000; i++) printf "["; print "" }' > "$deep"
    cat > "$work/suffixes.json" <<'PLAN'
{ "schema": "ddosim.suffix/1", "fork_at_nanos": 28000000000, "config": null,
  "suffixes": [ { "name": "lossy", "fork_seed": 0, "admin_lines": [], "horizon_nanos": null,
      "faults": { "schema": "ddosim.faults.plan/1", "faults": [
        { "at_secs": 30, "kind": "link_loss", "node": "dev-1", "probability": 0.5 } ] } } ] }
PLAN
    hostile_doc() {
        good=$1 from=$2 to=$3; shift 3
        head -c "$(($(wc -c < "$good") / 2))" "$good" > "$bad"
        hostile "$@" "$bad"
        hostile "$@" "$deep"
        sed "s/$from/$to/" "$good" > "$bad"
        if cmp -s "$good" "$bad"; then
            echo "error: hostile_doc: '$from' not found in $good" >&2
            return 1
        fi
        hostile "$@" "$bad"
    }
    hostile_doc plans/baseline.scenario.json '"devs": 8' '"devs": 3, "devs": 8' --scenario
    hostile_doc plans/rivalry.scenario.json '"count": [0-9]*' '"count": 4294967297' --scenario
    hostile_doc plans/baseline.scenario.json '"devs": 8' '"devs": 18446744073709551615' --scenario
    hostile_doc "$plan" '"faults"' '"seed": "7", "faults"' --devs 2 --faults
    hostile_doc "$CK" '"port": 80' '"port": 65616' --resume
    hostile_doc "$CK" '"record": true' '"recrod": true, "record": true' --resume
    hostile_doc "$work/suffixes.json" '0\.5' '7.5, "oops": 1' --devs 2 --suffixes
    head -c "$(($(wc -c < plans/layered_defense.scenario.json) / 2))" \
        plans/layered_defense.scenario.json > "$bad"
    hostile submit 127.0.0.1:1 --scenario "$bad"
    hostile submit 127.0.0.1:1 --scenario "$deep"

    # A scenario plan owns the world, not what is collected from it: CLI
    # collection flags layer onto the plan, deterministically.
    for out in "$sa" "$sb"; do
        $DDOSIM --scenario plans/baseline.scenario.json --metrics-interval 5 \
            --metrics-out "$out" > /dev/null 2>&1
    done
    cmp "$sa" "$sb"

    # Results gate (ROADMAP item 4): the experiment table regenerates every
    # committed artefact byte for byte (one size per experiment, every
    # value seed-derived), with every paper claim holding (exit 1 if not);
    # an unknown experiment is a usage error.
    cp -r results "$work/results.committed"
    $EXP all > /dev/null
    for f in results/*; do
        cmp "$f" "$work/results.committed/$(basename "$f")"
    done
    ! $EXP nonsense > /dev/null 2>&1
}

stage_checkpoint() {
    full=$work/ck-full
    cp_file=$work/ck.json
    resumed=$work/ck-resumed
    plan=$work/ck-plan.json

    # Resume == straight-through: a full run writes its trace, capture and
    # metrics documents and snapshots mid-attack; resuming from the
    # snapshot re-runs to it, verifies every layer digest, and must
    # reproduce all three documents whole, byte for byte. Extra flags go
    # to the straight-through run only (the checkpoint carries the world).
    check_resume() {
        run_traced "$full.trace.json" --capture "$full.capture.json" \
            --metrics-interval 1 --metrics-out "$full.metrics.json" \
            --checkpoint-at 28 --checkpoint-out "$cp_file" "$@"
        $DDOSIM --resume "$cp_file" --record "$resumed.trace.json" \
            --capture "$resumed.capture.json" --metrics-out "$resumed.metrics.json" > /dev/null
        for doc in trace capture metrics; do
            $DDOSIM trace diff "$full.$doc.json" "$resumed.$doc.json"
            cmp "$full.$doc.json" "$resumed.$doc.json"
        done
    }
    check_resume

    # The same guarantee under fault injection: pending plan events beyond
    # the snapshot must fire identically in the resumed run.
    cat > "$plan" <<'PLAN'
{
  "schema": "ddosim.faults.plan/1",
  "seed": 3,
  "faults": [
    { "at_secs": 15.0, "kind": "link_down", "node": "dev-2" },
    { "at_secs": 25.0, "kind": "link_up", "node": "dev-2" },
    { "at_secs": 30.0, "kind": "node_crash", "node": "dev-4" },
    { "at_secs": 40.0, "kind": "node_restore", "node": "dev-4" }
  ]
}
PLAN
    check_resume --faults "$plan"

    # Fork smoke: a scenario tree forked mid-attack runs its branches on
    # in-memory deep clones of the live world (no replay). The identity
    # branch (fork seed 0, no divergence) must reproduce the
    # straight-through run's full trace and capture byte for byte; the
    # reseeded sibling branch in the same sweep must diverge. A reseed
    # moves only packet order here, which the recorder no longer sees, so
    # the divergence is witnessed by the capture.
    splan=$work/suffix-plan.json
    forked=$work/fork.json
    cat > "$splan" <<'PLAN'
{
  "schema": "ddosim.suffix/1",
  "fork_at_nanos": 28000000000,
  "suffixes": [
    { "name": "baseline", "fork_seed": 0,
      "faults": { "schema": "ddosim.faults.plan/1", "faults": [] },
      "admin_lines": [], "horizon_nanos": null },
    { "name": "reseeded", "fork_seed": 99,
      "faults": { "schema": "ddosim.faults.plan/1", "faults": [] },
      "admin_lines": [], "horizon_nanos": null }
  ],
  "config": null
}
PLAN
    run_traced "$full.trace.json" --capture "$full.capture.json"
    run_traced "$forked" --capture "$work/fork-capture.json" --suffixes "$splan"
    $DDOSIM trace diff "$full.trace.json" "$work/fork.baseline.json"
    $DDOSIM trace diff "$full.capture.json" "$work/fork-capture.baseline.json"
    cmp "$full.capture.json" "$work/fork-capture.baseline.json"
    ! $DDOSIM trace diff "$full.capture.json" "$work/fork-capture.reseeded.json" > /dev/null
}

stage_serve() {
    # Serving must not perturb determinism: a trace streamed out of the
    # resident server, reassembled by the client, must equal the same
    # seed+plan run offline with --record — byte for byte.
    cargo build --release --offline -p ddosim --bin ddosim

    serve_log=$work/serve.log
    streamed=$work/serve-streamed.json
    offline=$work/serve-offline.json
    $DDOSIM serve --listen 127.0.0.1:0 --idle-timeout 120 > "$serve_log" 2>&1 &
    serve_pid=$!
    for _ in $(seq 1 300); do
        grep -q "^listening on " "$serve_log" 2> /dev/null && break
        sleep 0.1
    done
    addr=$(sed -n 's/^listening on //p' "$serve_log" | head -1)
    [ -n "$addr" ]

    # Byte-identity for a plain plan and a defended (layered) one: the
    # semantic diff and the raw bytes must both agree.
    for p in plans/baseline.scenario.json plans/layered_defense.scenario.json; do
        $DDOSIM submit "$addr" --scenario "$p" --record "$streamed" > /dev/null 2> /dev/null
        $DDOSIM --scenario "$p" --record "$offline" > /dev/null 2> /dev/null
        $DDOSIM trace diff "$streamed" "$offline"
        cmp "$streamed" "$offline"
    done

    # A malformed submission exits non-zero — and costs only an error
    # frame, not the server: the next submission still completes.
    printf '{ "schema": "ddosim.scenario/1" }\n' > "$work/bad-plan.json"
    ! $DDOSIM submit "$addr" --scenario "$work/bad-plan.json" > /dev/null 2> /dev/null
    # So does a plan whose port does not fit 16 bits (it used to run,
    # attacking port 65616 mod 65536 = 80): the error names the member.
    printf '{ "schema": "ddosim.scenario/1", "name": "bad-port", "attack": { "port": 65616 } }\n' \
        > "$work/bad-port.json"
    ! $DDOSIM submit "$addr" --scenario "$work/bad-port.json" > /dev/null 2> "$work/bad-port.err"
    grep -q 'scenario.attack.port 65616 exceeds 65535' "$work/bad-port.err"
    $DDOSIM submit "$addr" --scenario plans/baseline.scenario.json > /dev/null 2> /dev/null

    # A protocol shutdown drains the server to a clean exit.
    $DDOSIM submit "$addr" --shutdown 2> /dev/null
    wait "$serve_pid"
}

stage_bench() {
    cargo test --release --offline --manifest-path bench/Cargo.toml

    # Work done, gated by equality: `exact` is what the seed alone decides
    # (it does not depend on --seconds), so a change that claims speed only
    # must reproduce the committed lines byte for byte, and one that means
    # to move a count regenerates the file in the same PR, visibly.
    for w in flood_star recruit_churn scale_tiered http_recorded sweep_fork serve_jobs; do
        cargo run --release --offline --quiet --manifest-path bench/Cargo.toml -- \
            run --workload "$w" --seed 1 --seconds 2 --trace 0 > "$work/bench-$w.out"
        printf '%s %s\n' "$w" \
            "$(sed -n 's/^{"exact":\({[^}]*}\),"n":.*/\1/p' "$work/bench-$w.out")"
    done > "$work/bench_exact.txt"
    cmp "$work/bench_exact.txt" tests/golden/bench_exact.txt
}

stage_mutants() {
    scripts/mutants.sh
}

ALL_STAGES="build test scale determinism checkpoint serve bench mutants"
summary=""

run_stage() {
    stage=$1
    case " $ALL_STAGES " in
        *" $stage "*) ;;
        *)
            echo "error: unknown stage '$stage' (stages: $ALL_STAGES)" >&2
            exit 2
            ;;
    esac
    echo "==> $stage"
    stage_start=$(date +%s)
    "stage_$stage"
    stage_secs=$(($(date +%s) - stage_start))
    summary="$summary$(printf '  %-12s %4ds  ok' "$stage" "$stage_secs")
"
}

if [ $# -eq 0 ]; then
    for stage in $ALL_STAGES; do
        run_stage "$stage"
    done
else
    for stage in "$@"; do
        run_stage "$stage"
    done
fi

echo "==> summary"
printf '%s' "$summary"
scripts/size.sh
if [ -n "${CI_ARTIFACT_DIR:-}" ]; then
    mkdir -p "$CI_ARTIFACT_DIR"
    printf '%s' "$summary" > "$CI_ARTIFACT_DIR/stage-timings.txt"
fi
