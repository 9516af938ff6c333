#!/bin/sh
# Docs <-> code consistency checks, bidirectional so neither side can
# silently rot:
#
#   1. Every metric name registered anywhere under src/ (any string
#      literal of the form "cloudsurv_<...>") must have a row in the
#      reference table of docs/observability.md, and vice versa.
#   2. Every field of ScoringEngine::Options must have a knob row
#      (`| \`name\` |`) in docs/operations.md, and vice versa.
#   3. Every relative markdown link in docs/*.md and README.md must
#      point at a file or directory that exists.
#   4. Every CLI verb in the flag table of tools/cloudsurv_main.cpp
#      (between the cli-flag-table markers) must be shown as
#      `cloudsurv <verb>` in README.md or docs/, and vice versa (no
#      phantom verbs in docs).
#   5. Every flag the table lets `plan` accept must have a row in the
#      docs/provisioning.md flag table (between the plan-flag-table
#      markers), and vice versa.
#   6. Every catalog spec key accepted by src/core/architecture.cc
#      (the catalog-key-registry block) must have a row in the
#      docs/provisioning.md key table, and vice versa.
#
# CI runs this; run it locally from the repo root:
#
#   sh tools/check_docs.sh
set -eu

REPO_ROOT=$(dirname "$0")/..
DOC="$REPO_ROOT/docs/observability.md"
OPS_DOC="$REPO_ROOT/docs/operations.md"
OPTIONS_HDR="$REPO_ROOT/src/serving/scoring_engine.h"
SRC="$REPO_ROOT/src"

for f in "$DOC" "$OPS_DOC" "$OPTIONS_HDR"; do
  if [ ! -f "$f" ]; then
    echo "check_docs: $f not found" >&2
    exit 1
  fi
done

WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT

# Names registered in code: string literals "cloudsurv_..." in src/.
# Metric names are the only such literals by convention (library
# targets are cloudsurv_* but never appear quoted in sources).
grep -rhoE '"cloudsurv_[a-z0-9_]+"' "$SRC" | tr -d '"' | sort -u \
  > "$WORK/code_names"

# Names documented in the reference table: rows beginning `| \`cloudsurv_`.
grep -hoE '^\| `cloudsurv_[a-z0-9_]+`' "$DOC" | tr -d '|` ' | sort -u \
  > "$WORK/doc_names"

STATUS=0
UNDOCUMENTED=$(comm -23 "$WORK/code_names" "$WORK/doc_names")
if [ -n "$UNDOCUMENTED" ]; then
  echo "check_docs: metrics registered in src/ but missing from the" >&2
  echo "docs/observability.md reference table:" >&2
  echo "$UNDOCUMENTED" | sed 's/^/  /' >&2
  STATUS=1
fi

STALE=$(comm -13 "$WORK/code_names" "$WORK/doc_names")
if [ -n "$STALE" ]; then
  echo "check_docs: table rows in docs/observability.md with no" >&2
  echo "matching registration in src/:" >&2
  echo "$STALE" | sed 's/^/  /' >&2
  STATUS=1
fi

if [ "$STATUS" -eq 0 ]; then
  echo "check_docs: $(wc -l < "$WORK/code_names" | tr -d ' ') metric" \
       "names consistent between src/ and docs/observability.md"
fi

# --- ScoringEngine::Options knobs <-> docs/operations.md ------------
# Field names declared inside `struct Options { ... };`.
sed -n '/struct Options {/,/^  };/p' "$OPTIONS_HDR" \
  | grep -oE '[a-z_][a-z0-9_]* =' | sed 's/ =$//' | sort -u \
  > "$WORK/knob_code"

# Knob rows in the runbook table: `| \`name\` |` with a plain
# identifier (metric rows in the triage table carry cloudsurv_ names
# and are checked against src/ above, not against Options).
grep -hoE '^\| `[a-z_][a-z0-9_]*`' "$OPS_DOC" | tr -d '|` ' \
  | grep -v '^cloudsurv_' | sort -u > "$WORK/knob_doc"

UNDOCUMENTED_KNOBS=$(comm -23 "$WORK/knob_code" "$WORK/knob_doc")
if [ -n "$UNDOCUMENTED_KNOBS" ]; then
  echo "check_docs: ScoringEngine::Options fields missing from the" >&2
  echo "docs/operations.md knob table:" >&2
  echo "$UNDOCUMENTED_KNOBS" | sed 's/^/  /' >&2
  STATUS=1
fi

STALE_KNOBS=$(comm -13 "$WORK/knob_code" "$WORK/knob_doc")
if [ -n "$STALE_KNOBS" ]; then
  echo "check_docs: knob rows in docs/operations.md with no matching" >&2
  echo "field in ScoringEngine::Options:" >&2
  echo "$STALE_KNOBS" | sed 's/^/  /' >&2
  STATUS=1
fi

if [ "$STATUS" -eq 0 ]; then
  echo "check_docs: $(wc -l < "$WORK/knob_code" | tr -d ' ') Options" \
       "knobs consistent between scoring_engine.h and docs/operations.md"
fi

# --- Markdown link targets exist ------------------------------------
LINKS_CHECKED=0
for md in "$REPO_ROOT"/docs/*.md "$REPO_ROOT/README.md"; do
  [ -f "$md" ] || continue
  dir=$(dirname "$md")
  # Inline links: ](target). Skip absolute URLs, anchors and mailto;
  # strip any trailing #anchor before testing existence.
  for target in $(grep -oE '\]\([^)]+\)' "$md" \
                    | sed 's/^](//; s/)$//' \
                    | grep -vE '^(https?:|mailto:|#)' \
                    | sed 's/#.*$//' | grep -v '^$' | sort -u); do
    LINKS_CHECKED=$((LINKS_CHECKED + 1))
    if [ ! -e "$dir/$target" ]; then
      echo "check_docs: broken link in $(basename "$md"): $target" >&2
      STATUS=1
    fi
  done
done

if [ "$STATUS" -eq 0 ]; then
  echo "check_docs: $LINKS_CHECKED relative doc links resolve"
fi

# --- CLI verbs <-> docs --------------------------------------------
# The flag table is the source of truth: its kVerbs rows are the verbs
# the binary dispatches, and each kFlags row's first line names the
# flag and the verbs that accept it.
CLI_MAIN="$REPO_ROOT/tools/cloudsurv_main.cpp"
if [ ! -f "$CLI_MAIN" ]; then
  echo "check_docs: $CLI_MAIN not found" >&2
  exit 1
fi
sed -n '/cli-flag-table-begin/,/cli-flag-table-end/p' "$CLI_MAIN" \
  > "$WORK/table"
sed -n 's/^ *{"\([a-z-]*\)", Cmd.*/\1/p' "$WORK/table" | sort -u \
  > "$WORK/verbs"
VERB_COUNT=0
while read -r verb; do
  VERB_COUNT=$((VERB_COUNT + 1))
  if ! grep -qE "cloudsurv +$verb\b" "$REPO_ROOT/README.md" \
       "$REPO_ROOT"/docs/*.md; then
    echo "check_docs: CLI verb '$verb' has no 'cloudsurv $verb' usage" >&2
    echo "example in README.md or docs/" >&2
    STATUS=1
  fi
done < "$WORK/verbs"

# The reverse direction: every `cloudsurv <verb>` shown in docs must be
# a real dispatched verb (catches docs referencing removed commands).
grep -hoE 'cloudsurv +[a-z][a-z-]+\b' "$REPO_ROOT/README.md" \
    "$REPO_ROOT"/docs/*.md \
  | sed 's/cloudsurv *//' | sort -u > "$WORK/doc_verbs"
PHANTOM=$(comm -13 "$WORK/verbs" "$WORK/doc_verbs")
if [ -n "$PHANTOM" ]; then
  echo "check_docs: docs show 'cloudsurv <verb>' invocations the binary" >&2
  echo "does not dispatch:" >&2
  echo "$PHANTOM" | sed 's/^/  /' >&2
  STATUS=1
fi

if [ "$STATUS" -eq 0 ]; then
  echo "check_docs: $VERB_COUNT CLI verbs consistent between" \
       "the cloudsurv_main.cpp flag table and docs"
fi

# --- `plan` flags <-> docs/provisioning.md flag table ---------------
PROV_DOC="$REPO_ROOT/docs/provisioning.md"
if [ ! -f "$PROV_DOC" ]; then
  echo "check_docs: $PROV_DOC not found" >&2
  exit 1
fi
grep -E '^ *\{"--[a-z-]+", "([a-z-]+ )*plan[ "]' "$WORK/table" \
  | sed 's/^ *{"\(--[a-z-]*\)".*/\1/' | sort -u > "$WORK/plan_flags_code"
sed -n '/<!-- plan-flag-table-begin -->/,/<!-- plan-flag-table-end -->/p' \
    "$PROV_DOC" \
  | grep -oE '^\| `--[a-z-]+`' | tr -d '|` ' | sort -u \
  > "$WORK/plan_flags_doc"

UNDOCUMENTED_FLAGS=$(comm -23 "$WORK/plan_flags_code" "$WORK/plan_flags_doc")
if [ -n "$UNDOCUMENTED_FLAGS" ]; then
  echo "check_docs: plan flags in the CLI flag table missing from the" >&2
  echo "docs/provisioning.md flag table:" >&2
  echo "$UNDOCUMENTED_FLAGS" | sed 's/^/  /' >&2
  STATUS=1
fi
STALE_FLAGS=$(comm -13 "$WORK/plan_flags_code" "$WORK/plan_flags_doc")
if [ -n "$STALE_FLAGS" ]; then
  echo "check_docs: flag rows in docs/provisioning.md with no matching" >&2
  echo "plan flag in the CLI flag table:" >&2
  echo "$STALE_FLAGS" | sed 's/^/  /' >&2
  STATUS=1
fi
if [ "$STATUS" -eq 0 ]; then
  echo "check_docs: $(wc -l < "$WORK/plan_flags_code" | tr -d ' ') plan" \
       "flags consistent between the flag table and docs/provisioning.md"
fi

# --- Catalog spec keys <-> docs/provisioning.md key table -----------
# The parser's key registry in src/core/architecture.cc (between the
# catalog-key-registry markers) must match the documented key table.
ARCH_CC="$REPO_ROOT/src/core/architecture.cc"
if [ ! -f "$ARCH_CC" ]; then
  echo "check_docs: $ARCH_CC not found" >&2
  exit 1
fi
sed -n '/catalog-key-registry-begin/,/catalog-key-registry-end/p' \
    "$ARCH_CC" \
  | grep -oE '"[a-z_]+"' | tr -d '"' | sort -u > "$WORK/catalog_keys_code"
sed -n '/<!-- catalog-key-table-begin -->/,/<!-- catalog-key-table-end -->/p' \
    "$PROV_DOC" \
  | grep -oE '^\| `[a-z_]+`' | tr -d '|` ' | sort -u \
  > "$WORK/catalog_keys_doc"

UNDOCUMENTED_KEYS=$(comm -23 "$WORK/catalog_keys_code" \
                             "$WORK/catalog_keys_doc")
if [ -n "$UNDOCUMENTED_KEYS" ]; then
  echo "check_docs: catalog keys accepted by architecture.cc missing" >&2
  echo "from the docs/provisioning.md key table:" >&2
  echo "$UNDOCUMENTED_KEYS" | sed 's/^/  /' >&2
  STATUS=1
fi
STALE_KEYS=$(comm -13 "$WORK/catalog_keys_code" "$WORK/catalog_keys_doc")
if [ -n "$STALE_KEYS" ]; then
  echo "check_docs: key rows in docs/provisioning.md with no matching" >&2
  echo "entry in the architecture.cc key registry:" >&2
  echo "$STALE_KEYS" | sed 's/^/  /' >&2
  STATUS=1
fi
if [ "$STATUS" -eq 0 ]; then
  echo "check_docs: $(wc -l < "$WORK/catalog_keys_code" | tr -d ' ')" \
       "catalog keys consistent between architecture.cc and" \
       "docs/provisioning.md"
fi
exit $STATUS
