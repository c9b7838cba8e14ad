#!/usr/bin/env bash
# Repository CI gate. Run from the workspace root; exits non-zero on the
# first failure. The build environment is fully offline — everything here
# works without network access.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo build --release --workspace"
cargo build --release --workspace

echo "==> cargo test -q --workspace"
cargo test -q --workspace

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> map first-insert race regression (concurrent first puts of one key: one entry)"
timeout 300 cargo test -q --release -p dss-core --test map_first_insert_race

echo "==> writeback regression (concurrent line flushes never roll back a flushed word)"
timeout 120 cargo test -q --release -p dss-pmem --lib \
    pool::tests::concurrent_line_flushes_never_roll_back_a_flushed_word
timeout 300 cargo test -q --release -p dss-core --test crash_after_node_recycling

echo "==> fig5a smoke (both backends, minimal sizes)"
cargo run -q -p dss-harness --release --bin fig5a -- \
    --threads 1 --ms 20 --repeats 1 \
    --backend pmem --backend dram >/dev/null

echo "==> contention bench smoke (2 threads, coalesce/per-address/backoff grid)"
cargo bench -q -p dss-bench --bench contention -- \
    --threads 2 --ms 20 --repeats 1 >/dev/null

echo "==> contention bench smoke (per-address drains at a realistic penalty)"
cargo bench -q -p dss-bench --bench contention -- \
    --threads 2 --ms 20 --repeats 1 --penalty 200 >/dev/null

echo "==> contention crossover smoke (combining >= CAS racing within noise, E14 gate)"
# Penalty 800 puts the run deep in the flush-dominated regime where the
# batched persist is a reliable win; at 200 the layers sit at parity and a
# short smoke can land a hair outside the noise bands.
timeout 180 cargo bench -q -p dss-bench --bench contention -- \
    --threads 2 --ms 30 --repeats 3 --penalty 800 --assert-crossover >/dev/null

echo "==> e10 per-address drain smoke (absorption invariant, both backends)"
cargo run -q -p dss-harness --release --bin e10_per_address_drains -- \
    --threads 2 --ms 20 --repeats 1 \
    --backend pmem --backend dram >/dev/null

echo "==> registry smoke (partial-recovery crash matrix: survivors adopt orphans)"
cargo run -q -p dss-harness --release --bin crash_matrix -- \
    --partial-recovery on >/dev/null

echo "==> multi-process smoke (SIGKILLed victims, parent attaches the pool file)"
cargo run -q -p dss-harness --release --bin crash_matrix -- \
    --multi-process on >/dev/null

echo "==> combining smoke (crash matrix on the flat-combining execution layer)"
timeout 300 cargo run -q -p dss-harness --release --bin crash_matrix -- \
    --combining on >/dev/null
timeout 300 cargo run -q -p dss-harness --release --bin crash_matrix -- \
    --combining on --partial-recovery on >/dev/null

echo "==> replicated smoke (crash matrix on the log-fed replica execution layer)"
timeout 300 cargo run -q -p dss-harness --release --bin crash_matrix -- \
    --replicated on >/dev/null
timeout 300 cargo run -q -p dss-harness --release --bin crash_matrix -- \
    --replicated on --partial-recovery on >/dev/null

echo "==> map smoke (E4 rows diff clean against results/crash_matrix_map.txt)"
# Only the sweep rows are compared: the checked-histories epilogue below
# them records multi-threaded runs whose window counts vary run to run.
map_rows=$(timeout 300 cargo run -q -p dss-harness --release --bin crash_matrix -- --layer map)
diff <(sed '/^# checked histories/,$d' <<<"$map_rows") \
    <(sed '/^# checked histories/,$d' results/crash_matrix_map.txt)
timeout 300 cargo run -q -p dss-harness --release --bin crash_matrix -- \
    --layer map --partial-recovery on >/dev/null

echo "==> map multi-process smoke (SIGKILLed map victims, parent attaches the pool file)"
timeout 300 cargo run -q -p dss-harness --release --bin crash_matrix -- \
    --layer map --multi-process on >/dev/null

echo "==> replication read-scaling smoke (replica-local reads vs single instance, E15 gate)"
# The gate self-tiers by host parallelism: >=4 CPUs demand 1.5x at 4
# threads, 2-3 CPUs parity-within-noise at the top of the sweep, 1 CPU
# skips (replica-local reads cannot scale without parallelism). The
# sweep must include a 4-thread point for the >=4-CPU tier.
timeout 300 cargo bench -q -p dss-bench --bench replication -- \
    --threads 4 --ms 30 --repeats 2 --assert-read-scaling >/dev/null
rm -f crates/bench/BENCH_replication.json

echo "==> YCSB kv smoke (read-heavy vs update-heavy on the detectable map, E16 gate)"
# The gate self-tiers by host parallelism: >=4 CPUs demand the read-heavy
# Zipfian mix beat the update-heavy mix 1.2x at 4 threads (plain reads
# skip the flush path); smaller hosts demand at-least-parity within noise
# at the top of the sweep.
timeout 300 cargo bench -q -p dss-bench --bench kv -- \
    --threads 4 --ms 30 --repeats 2 --keys 256 --assert-kv-mix >/dev/null
rm -f crates/bench/BENCH_kv.json

echo "==> checker equivalence gate (segmented/streaming/FIFO vs monolithic oracle)"
timeout 120 cargo test -q -p dss-checker --test checker_equivalence
timeout 120 cargo test -q -p dss-harness --test seeded_violations

echo "==> full-length checking smoke (>=10k ops through the partitioned pipeline)"
timeout 60 cargo run -q -p dss-harness --release --bin check_histories -- \
    --mode partitioned >/dev/null

echo "CI green."
