#!/bin/sh
# Checkpoints written by `detect --checkpoint-interval` carry the same
# state as the daemon's.  Usage: checkpoint_rules.sh VIDS_CLI
#
# 1. `detect invite-flood --enforce` ends with three block rules (two
#    drops, one rate limit).  Its checkpoint must list them under
#    `rules --json`, its journal must hold the enforcement (X) records,
#    and `recover --enforce` must restore the same rules detect printed.
# 2. Without --enforce the checkpoint has no enforcement state, and
#    `rules --json` must still print JSON: the empty table.
cli=$1
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT
fail() { echo "checkpoint_rules: $*"; exit 1; }

"$cli" detect invite-flood --enforce --checkpoint-interval 5 \
  --checkpoint-file "$dir/enf" > "$dir/detect.out" 2>&1
[ $? -eq 3 ] || fail "detect --enforce did not exit 3"
"$cli" rules "$dir/enf" --json > "$dir/rules.json" || fail "rules failed"
drops=$(grep -o '"action": "drop"' "$dir/rules.json" | wc -l)
limits=$(grep -o '"action": "rate-limit"' "$dir/rules.json" | wc -l)
[ "$drops" -eq 2 ] && [ "$limits" -eq 1 ] ||
  fail "rules --json lists $drops drop(s), $limits rate-limit(s); want 2 and 1"
grep -q '^[0-9a-f]* X ' "$dir/enf.journal" || fail "no X record in the journal"
"$cli" recover "$dir/enf" --journal "$dir/enf.journal" --enforce > "$dir/recover.out" ||
  fail "recover --enforce failed"
grep -E '^  (src|dst) ' "$dir/detect.out" > "$dir/detect.rules"
grep -E '^  (src|dst) ' "$dir/recover.out" > "$dir/recover.rules"
[ -s "$dir/detect.rules" ] && cmp -s "$dir/detect.rules" "$dir/recover.rules" ||
  fail "recover --enforce restored other rules than detect printed"

"$cli" detect invite-flood --checkpoint-interval 5 --checkpoint-file "$dir/plain" \
  > /dev/null 2>&1
[ "$("$cli" rules "$dir/plain" --json 2>/dev/null)" = '{"lockdown": false, "rules": []}' ] ||
  fail "rules --json on a checkpoint without rules is not the empty table"
