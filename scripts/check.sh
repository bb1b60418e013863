#!/usr/bin/env bash
# Full local gate: everything CI would require, in dependency order.
# Usage: scripts/check.sh [--bench-smoke]
#   --bench-smoke  additionally run the decode, fec, phy, fleet and
#                  energy smoke benches in release, writing
#                  BENCH_<name>.json at the repo root, and perfbench's
#                  --self-test. A bench has one mode, its smoke run:
#                  `-- --json [path]` only adds the evidence file. Each
#                  bench's gates are listed in the docs of its
#                  crates/bench/benches/*_micro.rs; every gate reads
#                  "pass", "fail: <reason>" or "skipped: <reason>", and
#                  any fail exits non-zero after the file is written.
set -euo pipefail
cd "$(dirname "$0")/.."

BENCH_SMOKE=0
for arg in "$@"; do
    case "$arg" in
        --bench-smoke) BENCH_SMOKE=1 ;;
        *)
            echo "usage: scripts/check.sh [--bench-smoke]" >&2
            exit 2
            ;;
    esac
done

echo "== no bare #[ignore] (every ignored test must say why) =="
# #[ignore] without a reason string hides work with no paper trail;
# require #[ignore = "reason"] so the suite documents its own gaps.
if grep -rn --include='*.rs' -E '#\[ignore\]|#\[ignore[[:space:]]*\(' crates tests examples; then
    echo "error: bare #[ignore] found — use #[ignore = \"reason\"]" >&2
    exit 1
fi

# Every example and every bench is exercised, so none can regrow unrun:
# each examples/*.rs must be in EXAMPLES (package:example), and each
# [[bench]] of crates/bench/Cargo.toml in SMOKE_BENCHES (bench:BENCH name),
# which --bench-smoke runs with --json. Committed evidence cannot go
# stale either: each root BENCH_<name>.json must be written by a
# SMOKE_BENCHES entry, and none may record a failing gate.
EXAMPLES="wifi-backscatter:quickstart wifi-backscatter:sensor_network
    wifi-backscatter:ambient_traffic wifi-backscatter:long_range wifi-backscatter:inventory
    wifi-backscatter:observability bs-net:gateway bs-net:fleet bs-net:energy"
SMOKE_BENCHES="decoder_micro:decode fec_micro:fec phy_micro:phy fleet_micro:fleet
    energy_micro:energy"

echo "== every example runs, every bench is a --json smoke bench, no stale BENCH file =="
for f in examples/*.rs; do
    if ! grep -qE -- ":$(basename "$f" .rs)(\s|$)" <<<"$EXAMPLES"; then
        echo "error: $f is not run by the examples step; add it to EXAMPLES" >&2
        exit 1
    fi
done
for b in $(sed -n '/^\[\[bench\]\]/,/^name/s/^name *= *"\(.*\)"/\1/p' crates/bench/Cargo.toml); do
    if ! grep -qE -- "(^|\s)$b:" <<<"$SMOKE_BENCHES"; then
        echo "error: bench $b is not a --json smoke bench; add it to SMOKE_BENCHES" >&2
        exit 1
    fi
done
for f in BENCH_*.json; do
    [ -e "$f" ] || continue
    name=${f#BENCH_}
    name=${name%.json}
    if ! grep -qE -- ":$name(\s|$)" <<<"$SMOKE_BENCHES"; then
        echo "error: $f is written by no SMOKE_BENCHES entry; delete it or add its bench" >&2
        exit 1
    fi
    if sed -n '/"gates": {/,/}/p' "$f" | grep -E '": "fail: '; then
        echo "error: $f records a failing gate; fix it and rerun --bench-smoke" >&2
        exit 1
    fi
done

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== cargo build --release (all targets) =="
cargo build --release --all-targets

echo "== cargo test -q =="
cargo test -q

echo "== cargo test --doc (runnable API examples) =="
# Every public item in the bs-dsp kernels/stats modules and the
# core SeriesBundle carries a runnable doc-example, and every Rust
# snippet in README.md runs as a bs-bench doctest; keep them compiling
# and passing like any other test.
cargo test --doc -q

echo "== fault-injection conformance + harness determinism =="
# One release-mode pass over the two contracts the fault layer must keep:
# mitigations/degradation conformance, and byte-identical bench output
# under any --jobs count with a fault-enabled figure in the plan.
cargo test --release -q -p wifi-backscatter --test fault_injection
cargo test --release -q -p bs-bench --test determinism

echo "== public-API drift gate + observability conformance =="
# The preludes (core and bs-net) are the blessed API surface; both
# manifests are pinned against tests/golden/prelude_api.txt (re-bless
# intentionally with GOLDEN_BLESS=1). Observability must never perturb a
# run; the obs report's own unit tests run here too.
cargo test --release -q -p wifi-backscatter --test api_snapshot
cargo test --release -q -p wifi-backscatter --test obs_conformance
cargo test --release -q -p bs-dsp --lib obs::

echo "== golden / bit-identity (decode transcripts, raw-capture digests, inventory oracle) =="
# The decode chain's fixtures under tests/golden/ and the FNV-1a digests
# of raw CSI/RSSI captures (fault-free and under the sensor preset). Any
# performance work on the channel or measurement path must leave these
# untouched, to the last bit. The multitag unit tests hold the inventory
# oracle (bucketed rounds vs the per-slot scan) and the pinned inventory
# digest.
cargo test --release -q -p wifi-backscatter --test golden_decode
# Whole exchanges shaped by private constants: the codeword uplink, the
# mitigated uplink, the CSI and the RSSI uplink that step their rate
# down once and twice (stepped_down_uplink_is_pinned,
# stepped_down_rssi_uplink_is_pinned), the reader session under every
# fault preset, and the downlink encoder's schedule, each pinned by one
# digest.
cargo test --release -q -p wifi-backscatter --test exchange_pins
cargo test --release -q -p wifi-backscatter --lib multitag
# The slot-statistics index against naive binning and the reference
# decoders: the binning unit tests, the indexed-vs-reference decode
# tests, and a shared index against a fresh one per query. Live packets
# reach the decoders only through SeriesBundle::push, so push-vs-batch
# bundle equality (the series unit tests and the by-rows == by-columns
# proptest) is what makes a live decode equal a batch one.
cargo test --release -q -p bs-dsp --lib slotstats::
# The one conditioning kernel (in place, bitwise the copying
# formulation on random, empty, window-short, constant and NaN series)
# and the chunked kernels the decoder combines with.
cargo test --release -q -p bs-dsp --lib filter::
cargo test --release -q -p bs-dsp --lib kernels::
cargo test --release -q -p wifi-backscatter --lib uplink::
cargo test --release -q -p wifi-backscatter --lib longrange::
cargo test --release -q -p wifi-backscatter --lib series::
cargo test --release -q -p wifi-backscatter --test proptests -- \
    indexed_decode_matches_reference_on_random_bundles \
    shared_slot_index_matches_a_fresh_index_per_query \
    series_bundle_rejects_exactly_the_malformed_inputs
# The threaded CSI and RSSI capture with optimisations on: whole
# captures at jobs 1, 2, 3 and 8 against the serial per-packet
# reference, the CSI and RSSI skip/measure/in-place agreement
# properties, the runtime's nesting, chunk and pipeline contracts, and a
# snapshot equal to its serial step plus the workers' fill. A rate
# step-down re-capture (CSI or RSSI) that copies the rows the capture
# before it kept equals one measured from scratch.
cargo test --release -q -p wifi-backscatter --lib bit_identical_at_any_worker_count
cargo test --release -q -p wifi-backscatter --lib reusing_recapture_equals_a_fresh_capture
cargo test --release -q -p bs-wifi --test proptests csi_skip_and_in_place
cargo test --release -q -p bs-wifi --test proptests rssi_skip_and_in_place
cargo test --release -q -p bs-dsp --lib par::
cargo test --release -q -p bs-channel --test proptests snapshot_is_its_step_then_a_fill
# The scene's snapshot layout and its tabulated responses: the
# tabulated-snapshot-vs-formula bit test and the row-stride tests.
cargo test --release -q -p bs-channel --lib scene::

echo "== phy mode conformance (codeword round-trip, determinism, rate tables) =="
# The second PHY mode's contract (presence bits are pinned by the golden
# step above): codeword translation round-trips random payloads in the
# benign regime, both modes are pure functions of the seed (faults
# included), and each selects its rate from its own table.
cargo test --release -q -p wifi-backscatter --test phy_conformance

echo "== net transport conformance =="
# The connectivity layer's contract: exact bytes at every tested
# severity/seed, monotone goodput, window > stop-and-wait, and
# bit-for-bit reproducible transfers and gateway runs. The link
# model's own tests (helper-trace window arithmetic, starvation, one
# airtime across every link) run with optimisations on too.
cargo test --release -q -p bs-net --test net_transport
cargo test --release -q -p bs-net --lib linkmodel::

echo "== fec conformance (cross-layer: dsp GF(256) -> net coder -> wild traffic) =="
# The FEC path's contract: adaptive FEC never lowers goodput on paired
# links, repairs are byte-perfect, transfers reproduce bit for bit with
# the coder on, and the rate rule disables itself on benign traffic.
# The erasure decoder's properties (fills any n-k erasures, detects a
# wrong held symbol, never mutates on failure) and the group coder's
# unit tests run with optimisations on too.
cargo test --release -q -p bs-net --test fec_transport
cargo test --release -q -p bs-net --test fec_proptests
cargo test --release -q -p bs-net --lib fec::

echo "== fleet conformance (jobs determinism, truncation/duplicate regressions, allocation budget, percentiles) =="
# The sharded fleet engine's contract: byte-identical FleetRun JSON
# under any worker count, duplicate addresses rejected with a typed
# error, and max_cycles truncation reported on the run and per tag.
# With optimisations on: a gateway run stays within its per-tag
# heap-allocation budget (plain ARQ under loss, and FEC on a clean
# link and under loss, with nothing allocated per codeword row), an armed
# run within a fixed few allocations of the plain one, a capture
# within its per-run budget (CSI and RSSI, nothing per packet), a
# whole uplink exchange or query within one capture plus one decode,
# whose heap peak passes its capture's by at most an eighth of the
# bundle, and the fleet report's latency
# percentiles, found by selection, equal the sorted ones bit for bit.
# A seeding overflow whose home gateway is full too spills to the next
# gateway with room, so no gateway passes the address cap. One reused
# gateway scratch serving rosters back to back (large and small, FEC on
# and off, browning-out tags, loss and outage) reads exactly as fresh
# gateway runs, and each further gateway a fleet shard serves through
# it allocates per gateway, not per tag.
cargo test --release -q -p bs-net --test fleet_conformance
cargo test --release -q -p bs-net --lib fleet::tests::a_full_home_spills_to_the_next_gateway_with_room
cargo test --release -q -p bs-net --lib gateway::tests::a_reused_scratch_serves_like_a_fresh_gateway
cargo test --release -q -p bs-net --test alloc_budget
cargo test --release -q -p bs-dsp --lib stats::tests::selected_percentiles_equal_the_sorted_ones_bit_for_bit

echo "== energy conformance (always-powered bit-identity, brownout physics, aware >= naive, jobs determinism) =="
# The energy co-simulation's contract: energy off and always-powered
# both reproduce the pre-energy engine bit for bit (pinned digests),
# harvest and brownouts are monotone in distance, the energy-aware
# scheduler never lowers goodput on paired seeds, and FleetRun JSON
# stays byte-identical across worker counts with the model armed.
cargo test --release -q -p bs-net --test energy_conformance

echo "== experiments quick pinned figure by figure =="
# `experiments quick` prints the same bytes under any --jobs; the digest
# of each `# === <figure> ===` section is pinned in
# tests/golden/experiments_quick.txt, so a change to any figure's output
# fails here and names the figure. Re-bless intentionally with
# GOLDEN_BLESS=1 (as for golden_decode) and say so in CHANGES.md.
section_digests() {
    # One "<digest>  <header>" line per section of stdin; lines before the
    # first header form a section of their own.
    local header="(before the first figure)" body="" line
    while IFS= read -r line; do
        if [[ $line == "# === "* ]]; then
            [ -n "$body" ] && printf '%s  %s\n' "$(printf '%s' "$body" | sha256sum | cut -c1-16)" "$header"
            header=$line
            body=""
        fi
        body+="$line"$'\n'
    done
    [ -n "$body" ] && printf '%s  %s\n' "$(printf '%s' "$body" | sha256sum | cut -c1-16)" "$header"
}
QUICK_GOLDEN=tests/golden/experiments_quick.txt
quick_digests=$(target/release/experiments quick --jobs 2 | section_digests)
if [ -n "${GOLDEN_BLESS:-}" ]; then
    printf '%s\n' "$quick_digests" > "$QUICK_GOLDEN"
    echo "blessed $QUICK_GOLDEN"
else
    changed=$(comm -3 <(sort "$QUICK_GOLDEN") <(printf '%s\n' "$quick_digests" | sort) |
        sed -E 's/^[[:space:]]*[0-9a-f]+  //' | sort -u)
    if [ -n "$changed" ]; then
        echo "error: experiments quick output differs from $QUICK_GOLDEN in:" >&2
        printf '  %s\n' "$changed" >&2
        exit 1
    fi
fi

echo "== examples run clean =="
for ex in $EXAMPLES; do
    echo "-- example: ${ex#*:}"
    cargo run --release -q -p "${ex%%:*}" --example "${ex#*:}" > /dev/null
done

echo "== cargo clippy -- -D warnings =="
cargo clippy --all-targets -- -D warnings

echo "== cargo doc --no-deps (warnings denied) =="
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps

echo "== perfbench builds against the current API =="
# perfbench/ is its own workspace, so nothing above compiles it; build it
# here (in a throwaway target dir) so an API change it depends on breaks
# this gate, not the benchmark pipeline.
PERFBENCH_TARGET=$(mktemp -d)
trap 'rm -rf "$PERFBENCH_TARGET"' EXIT
CARGO_TARGET_DIR="$PERFBENCH_TARGET" cargo build --release --offline \
    --manifest-path perfbench/Cargo.toml

if [ "$BENCH_SMOKE" -eq 1 ]; then
    for b in $SMOKE_BENCHES; do
        echo "== bench smoke: ${b%%:*} -> BENCH_${b#*:}.json =="
        cargo bench -q -p bs-bench --bench "${b%%:*}" -- --json
    done
    echo "== perfbench self-test (pinned digests, replay identity) =="
    CARGO_TARGET_DIR="$PERFBENCH_TARGET" python3 perfbench/run.py --self-test
fi

echo "== all checks passed =="
