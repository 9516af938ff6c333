#!/bin/sh
# End-to-end smoke test of the cloudsurv CLI: simulate -> analyze ->
# train -> inspect -> assess/plan/serve-sim must all succeed on train's
# CSRV artifact.
set -e
CLI="$1"
WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT

"$CLI" simulate --region 2 --subs 200 --seed 5 --out "$WORK/region.csv"
test -s "$WORK/region.csv"

"$CLI" analyze --telemetry "$WORK/region.csv" --region 2 | tee "$WORK/analyze.txt"
grep -q "KM survival" "$WORK/analyze.txt"
grep -q "Weibull fit" "$WORK/analyze.txt"

"$CLI" train --telemetry "$WORK/region.csv" --region 2 --out "$WORK/svc.csrv" \
  | tee "$WORK/train.txt"
grep -q "model written to .*format v2" "$WORK/train.txt"
test -s "$WORK/svc.csrv"
"$CLI" inspect --model "$WORK/svc.csrv" | tee "$WORK/inspect.txt"
grep -q "CSRV format v2" "$WORK/inspect.txt"
grep -q "service_meta" "$WORK/inspect.txt"
grep -q "forest_nodes" "$WORK/inspect.txt"
grep -q "forest_trees" "$WORK/inspect.txt"
grep -q "slot 0: pooled" "$WORK/inspect.txt"

"$CLI" assess --telemetry "$WORK/region.csv" --region 2 \
  --model "$WORK/svc.csrv" --top 3 | tee "$WORK/assess.txt"
grep -q "assessed" "$WORK/assess.txt"

# plan: the cost/architecture what-if sweep. Text output must show the
# catalog and the policy tradeoff table; JSON output must be valid and
# carry one report per requested policy.
"$CLI" plan --telemetry "$WORK/region.csv" --region 2 \
  --model "$WORK/svc.csrv" | tee "$WORK/plan.txt"
grep -q "catalog:" "$WORK/plan.txt"
grep -q "churn-dense" "$WORK/plan.txt"
grep -q "total_cost" "$WORK/plan.txt"
grep -q "^naive " "$WORK/plan.txt"
grep -q "^longevity " "$WORK/plan.txt"
grep -q "^oracle " "$WORK/plan.txt"
grep -q "per-architecture (policy=longevity)" "$WORK/plan.txt"
"$CLI" plan --telemetry "$WORK/region.csv" --region 2 \
  --model "$WORK/svc.csrv" --policies naive,longevity --format json \
  --out "$WORK/plan.json"
python3 - "$WORK/plan.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
assert [p["policy"] for p in doc["policies"]] == ["naive", "longevity"]
assert all("total_cost" in p["report"] for p in doc["policies"])
assert len(doc["catalog"]) == 4, doc["catalog"]
EOF

# A custom catalog is honored; a malformed one is rejected with the
# offending line named, before any replay work happens.
cat > "$WORK/catalog.txt" <<'EOF'
resource vcpu 1.0
resource memory_gb 0.1
resource storage_gb 0.01
architecture lone kind=standard vcpus=8 memory_gb=64 storage_gb=2000 capacity_dtus=4000
EOF
"$CLI" plan --telemetry "$WORK/region.csv" --region 2 \
  --model "$WORK/svc.csrv" --catalog "$WORK/catalog.txt" \
  --policies naive | tee "$WORK/plan_custom.txt"
grep -q "lone" "$WORK/plan_custom.txt"
cat > "$WORK/catalog_bad.txt" <<'EOF'
resource vcpu 1.0
resource memory_gb 0.1
resource storage_gb 0.01
architecture broken kind=standard vcpuz=8 capacity_dtus=100
EOF
if "$CLI" plan --telemetry "$WORK/region.csv" --region 2 \
    --model "$WORK/svc.csrv" --catalog "$WORK/catalog_bad.txt" \
    > "$WORK/plan_bad.txt" 2>&1; then
  echo "expected rejection of malformed catalog" >&2
  exit 1
fi
grep -q "catalog line 4: unknown key 'vcpuz'" "$WORK/plan_bad.txt"

# plan flag validation mirrors serve-sim's strictness. Periods the
# replay cannot step by (under one second, or past int64 seconds) are
# rejected by the flag table too (exit 2), before any work is done.
for bad in "--policies banana" "--policies naive,banana" \
           "--format banana" "--maintenance-interval 0" \
           "--grace-days bad" "--maintenance-interval 1e-9" \
           "--maintenance-interval 1e300" "--grace-days 1e-9" \
           "--grace-days 1e300"; do
  status=0
  "$CLI" plan --telemetry "$WORK/region.csv" --region 2 \
      --model "$WORK/svc.csrv" $bad > "$WORK/plan_flag.txt" 2>&1 || status=$?
  if [ "$status" -ne 2 ]; then
    echo "expected exit 2 rejecting '$bad', got $status" >&2
    exit 1
  fi
  grep -q "InvalidArgument" "$WORK/plan_flag.txt" || {
    echo "expected InvalidArgument diagnostic for '$bad'" >&2
    exit 1
  }
done

# Removed knobs (the traversal-kernel selector, the traversal block
# size, the split search) must be rejected as unknown flags (exit 2),
# not silently accepted.
for bad in "assess --telemetry $WORK/region.csv --model $WORK/svc.csrv --traversal scalar" \
           "assess --telemetry $WORK/region.csv --model $WORK/svc.csrv --block-rows 64" \
           "serve-sim --region 2 --subs 50 --seed 5 --block-rows 64" \
           "train --telemetry $WORK/region.csv --out $WORK/x --split exact"; do
  status=0
  "$CLI" $bad > "$WORK/removed_flag.txt" 2>&1 || status=$?
  if [ "$status" -ne 2 ]; then
    echo "expected exit 2 for removed flag in '$bad', got $status" >&2
    exit 1
  fi
  grep -q "unknown flag" "$WORK/removed_flag.txt" || {
    echo "expected unknown-flag diagnostic for '$bad'" >&2
    exit 1
  }
done

# serve-sim serves train's artifact and still verifies bit-identical.
"$CLI" serve-sim --region 2 --subs 200 --seed 5 \
  --model "$WORK/svc.csrv" | tee "$WORK/serve_model.txt"
grep -q "serving model from" "$WORK/serve_model.txt"
grep -q "IDENTICAL" "$WORK/serve_model.txt"

# CSRV is the only model format: a text file given as --model and the
# removed pack verb are rejected with InvalidArgument.
printf 'longevity_service v1\nobserve_days 2\n' > "$WORK/text.model"
if "$CLI" assess --telemetry "$WORK/region.csv" --region 2 \
    --model "$WORK/text.model" > "$WORK/text_model.txt" 2>&1; then
  echo "expected rejection of a text model" >&2
  exit 1
fi
grep -q "InvalidArgument" "$WORK/text_model.txt"
if "$CLI" pack --model "$WORK/svc.csrv" --out "$WORK/x.csrv" \
    > "$WORK/pack.txt" 2>&1; then
  echo "expected rejection of the pack verb" >&2
  exit 1
fi
grep -q "InvalidArgument" "$WORK/pack.txt"

# Corruption is rejected with a checksum diagnostic, not served.
cp "$WORK/svc.csrv" "$WORK/corrupt.csrv"
printf 'X' | dd of="$WORK/corrupt.csrv" bs=1 seek=2048 conv=notrunc 2>/dev/null
if "$CLI" inspect --model "$WORK/corrupt.csrv" > "$WORK/corrupt.txt" 2>&1; then
  echo "expected rejection of corrupt artifact" >&2
  exit 1
fi
grep -q "CRC" "$WORK/corrupt.txt"

# A format v1 file (struct-of-arrays forests) is rejected by version:
# the reader reads the version before any checksum.
cp "$WORK/svc.csrv" "$WORK/v1.csrv"
printf '\001' | dd of="$WORK/v1.csrv" bs=1 seek=4 conv=notrunc 2>/dev/null
if "$CLI" assess --telemetry "$WORK/region.csv" --region 2 \
    --model "$WORK/v1.csrv" > "$WORK/v1.txt" 2>&1; then
  echo "expected rejection of a format v1 artifact" >&2
  exit 1
fi
grep -q "unsupported CSRV format version 1" "$WORK/v1.txt"

# serve-sim with periodic metrics dumps: the output must contain valid
# Prometheus text exposition (HELP/TYPE + engine counters) and the
# --metrics-out JSON snapshot must be written and well-formed.
"$CLI" serve-sim --region 2 --subs 300 --seed 5 \
  --metrics-interval 90 --metrics-out "$WORK/metrics.json" \
  | tee "$WORK/serve.txt"
grep -q "IDENTICAL" "$WORK/serve.txt"
grep -q "# TYPE cloudsurv_engine_polls_total counter" "$WORK/serve.txt"
grep -q "# TYPE cloudsurv_engine_scoring_latency_us histogram" "$WORK/serve.txt"
grep -q "cloudsurv_engine_scoring_latency_us_bucket{engine=\"0\",le=\"+Inf\"}" \
  "$WORK/serve.txt"
grep -q "cloudsurv_ingest_events_total{shard=\"0\"}" "$WORK/serve.txt"
test -s "$WORK/metrics.json"
grep -q "\"metrics\": \[" "$WORK/metrics.json"
grep -q "\"name\": \"cloudsurv_engine_databases_scored_total\"" \
  "$WORK/metrics.json"

# serve-sim under an output-neutral fault plan: faults fire, the replay
# stays bit-identical to batch Assess, and the ingest/scoring accounting
# identities hold.
cat > "$WORK/plan_neutral.txt" <<'EOF'
seed 42
fault ingest.shard stall every=500 delay_us=200
fault pool.task delay every=250 delay_us=100
EOF
"$CLI" serve-sim --region 2 --subs 300 --seed 5 \
  --fault-plan "$WORK/plan_neutral.txt" | tee "$WORK/serve_faults.txt"
grep -q "fault plan" "$WORK/serve_faults.txt"
grep -q "faults fired" "$WORK/serve_faults.txt"
grep -q "IDENTICAL" "$WORK/serve_faults.txt"
grep -q "accounting.*OK" "$WORK/serve_faults.txt"

# serve-sim under an output-affecting plan (model-swap races + io
# failures): the run must still exit 0 with clean accounting — every
# rejected or degraded event is counted, nothing is dropped silently.
cat > "$WORK/plan_swap.txt" <<'EOF'
seed 7
fault registry.swap swap_race every=2 count=6
fault engine.snapshot io_fail every=5 count=3
EOF
"$CLI" serve-sim --region 2 --subs 300 --seed 5 \
  --fault-plan "$WORK/plan_swap.txt" | tee "$WORK/serve_swap.txt"
grep -q "advisory" "$WORK/serve_swap.txt"
grep -q "accounting.*OK" "$WORK/serve_swap.txt"

# Flag validation: zero/negative/garbage values are rejected up front
# with an InvalidArgument diagnostic, never a crash or a silent default.
for bad in "--threads 0" "--threads -3" "--shards banana" \
           "--flush-interval 0" "--flush-interval -2" \
           "--metrics-interval abc" "--deadline-us -1" "--shed-high -5" \
           "--verify banana" \
           "--stream" "--regions 2 --shed-low 3"; do
  if "$CLI" serve-sim --region 2 --subs 50 --seed 5 $bad \
      > "$WORK/bad.txt" 2>&1; then
    echo "expected rejection of '$bad'" >&2
    exit 1
  fi
  grep -q "InvalidArgument" "$WORK/bad.txt" || {
    echo "expected InvalidArgument diagnostic for '$bad'" >&2
    exit 1
  }
done

# Each verb accepts only the flags it reads: a flag another verb owns is
# rejected, not silently ignored.
for bad in "simulate --out $WORK/x.csv --catalog x" \
           "inspect --model $WORK/svc.csrv --threads 4" \
           "analyze --telemetry $WORK/region.csv --top 3" \
           "assess --telemetry $WORK/region.csv --model $WORK/svc.csrv --out $WORK/x"; do
  if "$CLI" $bad > "$WORK/verb_flag.txt" 2>&1; then
    echo "expected rejection of '$bad'" >&2
    exit 1
  fi
  grep -q "InvalidArgument" "$WORK/verb_flag.txt" || {
    echo "expected InvalidArgument diagnostic for '$bad'" >&2
    exit 1
  }
done

# --verify off skips verification entirely and still exits 0.
"$CLI" serve-sim --region 2 --subs 300 --seed 5 --verify off \
  > "$WORK/serve_noverify.txt"
if grep -qE "IDENTICAL|DIVERGED" "$WORK/serve_noverify.txt"; then
  echo "--verify off still verified" >&2
  exit 1
fi

# Several regions at once: presets cycle on from --region, and every
# region verifies IDENTICAL against its own batch simulation.
"$CLI" serve-sim --region 2 --regions 2 --subs 300 --seed 5 \
  | tee "$WORK/serve_regions.txt"
grep -q "^verify Region-2 .*IDENTICAL" "$WORK/serve_regions.txt"
grep -q "^verify Region-3 .*IDENTICAL" "$WORK/serve_regions.txt"

# A malformed fault plan names the offending line and exits non-zero.
printf 'fault nowhere delay delay_us=1\n' > "$WORK/plan_bad.txt"
if "$CLI" serve-sim --region 2 --subs 50 --seed 5 \
    --fault-plan "$WORK/plan_bad.txt" > "$WORK/badplan.txt" 2>&1; then
  echo "expected rejection of malformed fault plan" >&2
  exit 1
fi
grep -q "fault plan line 1" "$WORK/badplan.txt"

# Error paths exit non-zero.
if "$CLI" analyze --telemetry /nonexistent.csv 2>/dev/null; then
  echo "expected failure on missing telemetry" >&2
  exit 1
fi
if "$CLI" bogus-command 2>/dev/null; then
  echo "expected failure on unknown command" >&2
  exit 1
fi
echo "CLI smoke test OK"
