#!/usr/bin/env bash
# Full local gate: everything CI would require, in dependency order.
# Usage: scripts/check.sh [--bench-smoke]
#   --bench-smoke  additionally run the decode, stream, fec, phy, fleet
#                  and energy smoke benches in release, writing
#                  BENCH_<name>.json at the repo root. Each bench's gates
#                  are listed in the docs of its crates/bench/benches/
#                  *_micro.rs; every gate reads "pass", "fail: <reason>"
#                  or "skipped: <reason>", and any fail exits non-zero
#                  after the file is written.
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

echo "== cargo build --release (all targets) =="
cargo build --release --all-targets

echo "== cargo test -q =="
cargo test -q

echo "== cargo test --doc (runnable API examples) =="
# Every public item in the bs-dsp streaming/stats modules and the
# core streaming sessions carries a runnable doc-example; keep them
# compiling and passing like any other test.
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
# run.
cargo test --release -q -p wifi-backscatter --test api_snapshot
cargo test --release -q -p wifi-backscatter --test obs_conformance

echo "== phy mode conformance (presence identity, codeword round-trip, determinism) =="
# The PhyMode redesign's contract: the presence PHY is bit-identical
# across the routed and direct entry points (faults included),
# codeword translation round-trips random payloads in the
# benign regime, and both modes are pure functions of the seed.
cargo test --release -q -p wifi-backscatter --test phy_conformance

echo "== net transport conformance =="
# The connectivity layer's contract: exact bytes at every tested
# severity/seed, monotone goodput, window > stop-and-wait, and
# bit-for-bit reproducible transfers and gateway runs.
cargo test --release -q -p bs-net --test net_transport

echo "== fec conformance (cross-layer: dsp GF(256) -> net coder -> wild traffic) =="
# The FEC path's contract: adaptive FEC never lowers goodput on paired
# links, repairs are byte-perfect, transfers reproduce bit for bit with
# the coder on, and the rate rule disables itself on benign traffic.
cargo test --release -q -p bs-net --test fec_transport

echo "== fleet conformance (jobs determinism, shard invariance, truncation/duplicate regressions) =="
# The sharded fleet engine's contract: byte-identical FleetRun JSON
# under any worker count, per-tag outcomes invariant under the shard
# count (property test), duplicate addresses rejected with a typed
# error, and max_cycles truncation mirrored per shard.
cargo test --release -q -p bs-net --test fleet_conformance

echo "== energy conformance (always-powered bit-identity, brownout physics, aware >= naive, jobs determinism) =="
# The energy co-simulation's contract: energy off and always-powered
# both reproduce the pre-energy engine bit for bit (pinned digests),
# harvest and brownouts are monotone in distance, the energy-aware
# scheduler never lowers goodput on paired seeds, and FleetRun JSON
# stays byte-identical across worker counts with the model armed.
cargo test --release -q -p bs-net --test energy_conformance

echo "== examples run clean =="
for ex in quickstart sensor_network ambient_traffic energy_budget long_range inventory observability; do
    echo "-- example: $ex"
    cargo run --release -q -p wifi-backscatter --example "$ex" > /dev/null
done
echo "-- example: gateway"
cargo run --release -q -p bs-net --example gateway > /dev/null
echo "-- example: fleet"
cargo run --release -q -p bs-net --example fleet > /dev/null
echo "-- example: energy"
cargo run --release -q -p bs-net --example energy > /dev/null

echo "== cargo clippy -- -D warnings =="
cargo clippy --all-targets -- -D warnings

echo "== cargo doc --no-deps (warnings denied) =="
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps

if [ "$BENCH_SMOKE" -eq 1 ]; then
    echo "== decode microbench smoke (slot-index pass-count gate) =="
    # Absolute path: cargo runs bench binaries with CWD = the package
    # dir, and the record belongs at the repo root.
    cargo bench -q -p bs-bench --bench decoder_micro -- --json "$PWD/BENCH_decode.json"
    echo "== stream microbench smoke (streaming == batch, residency, throughput) =="
    cargo bench -q -p bs-bench --bench stream_micro -- --json "$PWD/BENCH_stream.json"
    echo "== fec bench smoke (RS exactness, paired goodput, wild 1.5x gate) =="
    cargo bench -q -p bs-bench --bench fec_micro -- --json "$PWD/BENCH_fec.json"
    echo "== phy bench smoke (presence bit identity, codeword 10x goodput gate) =="
    cargo bench -q -p bs-bench --bench phy_micro -- --json "$PWD/BENCH_phy.json"
    echo "== fleet bench smoke (10^5-tag jobs determinism, shard invariance, core scaling) =="
    cargo bench -q -p bs-bench --bench fleet_micro -- --json "$PWD/BENCH_fleet.json"
    echo "== energy bench smoke (always-powered identity, aware >= naive, starving recovery, intermittent determinism) =="
    cargo bench -q -p bs-bench --bench energy_micro -- --json "$PWD/BENCH_energy.json"
fi

echo "== all checks passed =="
