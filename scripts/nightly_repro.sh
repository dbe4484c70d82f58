#!/bin/sh
# Nightly scaled-down reproduction of the full paper: every experiment at
# the small test scales, driven through the record-once/replay-many trace
# cache. The suite runs three times against the same cache directory:
#   1. records each (workload, scale, collector) reference trace. It runs
#      with -json, whose cache snapshots keep every sweep on the full
#      trace, so it files no stripped traces;
#   2. replays the traces: the first sweep of a trace whose bank filters
#      builds the stripped trace of its filter's geometry, and later
#      sweeps of that geometry replay it;
#   3. replays the stripped traces wherever a bank filters.
# All three reports must match byte for byte (ignoring wall-clock lines),
# which is the replay-determinism guarantee checked against the entire
# reproduction rather than a single sweep, on the full and the stripped
# streams alike. Run records from the recording pass are schema-validated
# and left in $NIGHTLY_DIR for upload.
set -eu

cd "$(dirname "$0")/.."
outdir="${NIGHTLY_DIR:-bench-out/nightly}"
mkdir -p "$outdir"

run_suite() {
    go run ./cmd/gcbench -quick -trace-cache "$outdir/trace-cache" "$@"
}

echo "nightly reproduction pass 1: recording traces"
run_suite -json "$outdir/records.jsonl" > "$outdir/report_record.txt"
echo "nightly reproduction pass 2: replaying traces, building stripped traces"
run_suite > "$outdir/report_replay.txt"
echo "nightly reproduction pass 3: replaying stripped traces"
run_suite > "$outdir/report_stripped.txt"

# Wall-clock lines are the only legitimate difference between the passes.
untimed() { grep -v "completed in" "$outdir/report_$1.txt" > "$outdir/$1.untimed"; }
untimed record
for pass in replay stripped; do
    untimed "$pass"
    if ! cmp -s "$outdir/record.untimed" "$outdir/$pass.untimed"; then
        echo "FAIL: the $pass pass's report differs from the recording pass's" >&2
        diff "$outdir/record.untimed" "$outdir/$pass.untimed" >&2 || true
        exit 1
    fi
done
rm -f "$outdir"/*.untimed
echo "reports: recording, replaying and stripped passes byte-identical"

go run ./cmd/gcsim -check-record "$outdir/records.jsonl"
echo "records: schema-valid ($(grep -c . "$outdir/records.jsonl") runs)"

# The trace cache itself is scratch, not an artifact worth uploading.
rm -rf "$outdir/trace-cache"
