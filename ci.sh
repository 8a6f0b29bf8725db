#!/usr/bin/env bash
# The full local CI gate: everything the repository promises, in order.
#
#   ./ci.sh            # build + lock check + tests + clippy + rustdoc +
#                      # smoke + repro goldens + lint
#
# All crates are path dependencies (the vendored stubs included), so the
# whole script runs offline. The benchmark is dosbench (BENCHMARK.json);
# it is not part of this gate.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo build --release --locked"
cargo build --release --locked --workspace

echo "==> cargo test -q"
cargo test -q --workspace

echo "==> migration oracle at scale 600, 731 and 120 days (release, ignored by the debug run)"
cargo test --release --locked -q -p dosscope-harness --test migration_equivalence -- --ignored

echo "==> DPS oracle at scale 600, 731 and 120 days (release, ignored by the debug run)"
cargo test --release --locked -q -p dosscope-harness --test dps_equivalence -- --ignored

echo "==> Web join oracle at scale 600 (release, ignored by the debug run)"
cargo test --release --locked -q -p dosscope-harness --test web_join_equivalence -- --ignored

echo "==> render digest at scale 600 (release, ignored by the debug run)"
cargo test --release --locked -q -p dosscope-harness --test render_digest -- --ignored

echo "==> report batch-order independence at scale 600 (release, ignored by the debug run)"
cargo test --release --locked -q -p dosscope-harness --test end_to_end -- --ignored

echo "==> cargo clippy --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc -D warnings (dosscope crates)"
# Every intra-doc link must resolve: a link left dangling to a deleted
# item fails here.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --exclude proptest --exclude rand

telemetry_out="$(mktemp)"
telemetry_threaded="$(mktemp)"
repro_out="$(mktemp)"
repro_threaded="$(mktemp)"
deviates="$(mktemp)"
trap 'rm -f "$telemetry_out" "$telemetry_threaded" "$repro_out" "$repro_threaded" "$deviates"' EXIT

echo "==> telemetry smoke (repro --smoke --telemetry --threads 1 and 8 + validator)"
# A full reduced-scale reproduction with collection on must emit a
# schema-valid TELEMETRY.json: every pipeline stage span present, every
# engine counter nonzero, and every worker of both measurement pools
# (8 per pool, or one per pool at --threads 1) showing nonzero busy time
# and queue high-water marks.
for threads in 1 8; do
    ./target/release/repro --smoke --telemetry --threads "$threads" --quiet \
        --telemetry-out "$telemetry_out" > /dev/null
    ./target/release/repro --validate-telemetry "$telemetry_out"
done

echo "==> telemetry at scale 600 (repro --scale 600 --telemetry --threads 1 and 8 + validator)"
# The validator's cross-checks (flow, fleet and botnet funnels, pool
# conservation) must also hold on a run with more traffic than the smoke,
# and the counter map, published from the shard-merged statistics, must
# be the same at both thread counts.
./target/release/repro --scale 600 --telemetry --threads 1 --quiet \
    --telemetry-out "$telemetry_out" > /dev/null
./target/release/repro --validate-telemetry "$telemetry_out"
./target/release/repro --scale 600 --telemetry --threads 8 --quiet \
    --telemetry-out "$telemetry_threaded" > /dev/null
./target/release/repro --validate-telemetry "$telemetry_threaded"
counters() { sed -n '/"counters": {/,/^  }/p' "$1"; }
if ! cmp <(counters "$telemetry_out") <(counters "$telemetry_threaded"); then
    echo "ci.sh: scale-600 telemetry counters differ between --threads 1 and 8:" >&2
    diff <(counters "$telemetry_out") <(counters "$telemetry_threaded") | head -40 >&2 || true
    exit 1
fi

echo "==> repro goldens (release stdout cmp'd against tests/golden/repro/)"
# The full reproduction report and paper comparison at four
# configurations must stay byte-identical; the default one is checked at
# one and two threads, and scale 600 also at eight, where hot /16s split
# across shards. A change that moves a golden on purpose replaces the
# file and says which lines changed and why.
check_repro() {
    local golden="tests/golden/repro/$1"
    shift
    ./target/release/repro --quiet "$@" > "$repro_out"
    if ! cmp "$repro_out" "$golden"; then
        echo "ci.sh: repro $* differs from $golden:" >&2
        diff "$golden" "$repro_out" | head -40 >&2 || true
        exit 1
    fi
}
check_repro smoke.txt --smoke
check_repro scale2000.txt --scale 2000 --threads 1
check_repro scale2000.txt --scale 2000 --threads 2
check_repro scale600.txt --scale 600
check_repro scale600.txt --scale 600 --threads 8
check_repro scale600-days120.txt --scale 600 --days 120

echo "==> repro --seed 12345 at --threads 1 and 8 (cmp'd, no golden)"
# A seed other than the goldens' draws other ties in the ranked tables;
# the report must still not depend on the thread count.
./target/release/repro --quiet --seed 12345 --threads 1 > "$repro_out"
./target/release/repro --quiet --seed 12345 --threads 8 > "$repro_threaded"
if ! cmp "$repro_out" "$repro_threaded"; then
    echo "ci.sh: repro --seed 12345 differs between --threads 1 and 8:" >&2
    diff "$repro_out" "$repro_threaded" | head -40 >&2 || true
    exit 1
fi

echo "==> repro --scale 600 --days 120 --telemetry at --threads 1 and 2 (report and counters cmp'd)"
# The densest configuration renders the largest days; at two threads
# every day goes through the per-shard row routing, which must not change
# the report. Its days also run the most idle-expiry sweeps per shard,
# which must not change the counters published from the merged shard
# statistics. The report is stdout up to the telemetry dashboard.
report() { sed '/^== telemetry =/,$d' "$1"; }
./target/release/repro --quiet --scale 600 --days 120 --threads 1 --telemetry \
    --telemetry-out "$telemetry_out" > "$repro_out"
./target/release/repro --quiet --scale 600 --days 120 --threads 2 --telemetry \
    --telemetry-out "$telemetry_threaded" > "$repro_threaded"
if ! cmp <(report "$repro_out") <(report "$repro_threaded"); then
    echo "ci.sh: repro --scale 600 --days 120 differs between --threads 1 and 2:" >&2
    diff <(report "$repro_out") <(report "$repro_threaded") | head -40 >&2 || true
    exit 1
fi
if ! cmp <(counters "$telemetry_out") <(counters "$telemetry_threaded"); then
    echo "ci.sh: --scale 600 --days 120 telemetry counters differ between --threads 1 and 2:" >&2
    diff <(counters "$telemetry_out") <(counters "$telemetry_threaded") | head -40 >&2 || true
    exit 1
fi

echo "==> paper checks over the ten fixed seeds (default scale and --scale 600)"
# The seed list is fixed in EXPERIMENTS.md; a seed is never swapped out
# because it fails. Each scale prints its pass counts, their min and
# median, and how many seeds each DEVIATES row missed in. The gate is
# the median: 65 of 69 at the default scale and 63.5 at scale 600 when
# the step was added; a change may raise these floors, never lower them.
seed_floor() {
    local label="$1" floor="$2" seed
    shift 2
    local counts=()
    : > "$deviates"
    for seed in 1 2 3 4 5 6 7 8 99 12345; do
        ./target/release/repro --quiet --seed "$seed" "$@" > "$repro_out"
        counts+=("$(sed -n 's|^\([0-9]*\)/[0-9]* checks within tolerance$|\1|p' "$repro_out")")
        grep 'DEVIATES |$' "$repro_out" | cut -d'|' -f2,3 >> "$deviates" || true
    done
    local sorted median
    mapfile -t sorted < <(printf '%s\n' "${counts[@]}" | sort -n)
    median="$(echo "${sorted[4]} ${sorted[5]}" | awk '{ print ($1 + $2) / 2 }')"
    echo "$label: passed ${counts[*]} (min ${sorted[0]}, median $median, floor $floor)"
    sort "$deviates" | uniq -c | sort -rn
    if awk -v m="$median" -v f="$floor" 'BEGIN { exit !(m < f) }'; then
        echo "ci.sh: $label median pass count $median fell below $floor" >&2
        exit 1
    fi
}
seed_floor "default scale" 65
seed_floor "scale 600" 63.5 --scale 600

echo "==> examples: web_impact + mail_infrastructure (release, scale 10 000) + day_batch_ingest"
# The first two run the Web and mail/NS joins end to end on a generated
# world and fail on a panic. day_batch_ingest ingests a whole world in
# day batches and asserts the result equals the batch store.
cargo run --release --locked -q -p dosscope-harness --example web_impact > /dev/null
cargo run --release --locked -q -p dosscope-harness --example mail_infrastructure > /dev/null
cargo run --release --locked -q -p dosscope-harness --example day_batch_ingest > /dev/null

echo "==> lint: no bare println!/eprintln! in library crates"
# Library code reports through dosscope-obs (leveled logger, counters,
# spans) — never straight to stdio. Binaries (src/bin/) and tests are
# exempt; the obs logger itself writes via writeln! on a locked handle.
# Matches inside #[cfg(test)] modules are fine: test modules in this
# repo sit at the bottom of each file behind the cfg(test) marker, so
# any hit at or past that line is test code.
lint_hits="$(grep -rn --include='*.rs' -E '\b(println|eprintln)!' \
    crates/*/src --exclude-dir=bin 2>/dev/null \
    | while IFS=: read -r file line rest; do
        cfg_line="$(grep -n -m1 '#\[cfg(test)\]' "$file" | cut -d: -f1)"
        if [ -n "$cfg_line" ] && [ "$line" -ge "$cfg_line" ]; then
            continue
        fi
        echo "$file:$line:$rest"
    done || true)"
if [ -n "$lint_hits" ]; then
    echo "ci.sh: bare println!/eprintln! in library code (use dosscope-obs):" >&2
    echo "$lint_hits" >&2
    exit 1
fi

echo "ci.sh: all checks passed"
