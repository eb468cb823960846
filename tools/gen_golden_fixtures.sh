#!/usr/bin/env sh
# Regenerate the golden fixtures under tests/golden/.
#
# The fixtures pin the deterministic tcfill-stats-v1 documents for
# six (workload, config) points, and the stdout of the paper's figure
# and table drivers. The `cli.golden` ctest reruns this script and
# byte-compares its output against tests/golden/ — any change must
# leave cycles, IPC, every other deterministic stat and every
# reproduced paper number bit-identical, or update the fixtures and
# say why in CHANGES.md (see DESIGN.md §10).
#
# Usage: tools/gen_golden_fixtures.sh <build-dir> <output-dir>
set -eu

BUILD=${1:?usage: gen_golden_fixtures.sh <build-dir> <output-dir>}
OUT=${2:?usage: gen_golden_fixtures.sh <build-dir> <output-dir>}
TCFILL="$BUILD/tools/tcfill"

mkdir -p "$OUT/paper"

"$TCFILL" -j 1 --max-insts 20000 --opts all \
    --stats-json "$OUT/compress-all.json" compress > /dev/null
"$TCFILL" -j 1 --max-insts 20000 --opts none \
    --stats-json "$OUT/li-none.json" li > /dev/null
"$TCFILL" -j 1 --max-insts 20000 --opts extended --no-inactive-issue \
    --stats-json "$OUT/m88ksim-extended-nii.json" m88ksim > /dev/null

# Sampled-run estimate (checkpoint-parallel engine, DESIGN.md §14).
# The body is independent of --sample-jobs and of the checkpoint knobs
# (asserted by the `cli.sample_identity` ctest), so one fixture pins
# the whole engine.
"$TCFILL" --max-insts 200000 --opts all \
    --sample 4:10000 --sample-warmup 5000 --sample-jobs 1 \
    --stats-json "$OUT/compress-sample.json" compress > /dev/null

# Interval timeline with BBV phase tagging (DESIGN.md §15): pins the
# timing-counter column set, the interval boundary convention and the
# deterministic k-means phase labels in one document.
"$TCFILL" -j 1 --max-insts 20000 --opts all \
    --stats-interval 5000 --stats-phases 3 \
    --stats-json "$OUT/compress-timeline.json" compress > /dev/null

# Adaptive fill policy (DESIGN.md §16): pins the policy decision
# record (windows, switches, per-phase masks), the per-interval
# passMask timeline column and the online phase tracker's labels.
"$TCFILL" -j 1 --max-insts 20000 --opts all --fill-policy phase \
    --stats-interval 5000 \
    --stats-json "$OUT/compress-policy-phase.json" compress > /dev/null

# The reproduced paper results (Figures 3-8, Table 2). The drivers'
# output is identical at every TCFILL_THREADS width.
for d in fig3_register_moves fig4_reassociation fig5_scaled_adds \
         fig6_placement fig7_bypass_delay fig8_combined \
         table2_transform_rates; do
    "$BUILD/bench/$d" > "$OUT/paper/$d.txt"
done
