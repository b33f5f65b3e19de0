#!/bin/sh
# One `<policy> <md5>` line per association policy: the digest of the
# stdout of `wlan-mcast simulate --scenario SCN --policy P`, for every
# policy the subcommand accepts. test/dune diffs the result against
# golden/simulate_demo.digest (re-pin with `dune promote`).
#
# Usage: sh simulate_digest.sh PATH/TO/wlan_mcast.exe SCN
bin=$1
scn=$2
out=$(mktemp)
trap 'rm -f "$out"' EXIT
for p in ssa distributed-mla distributed-bla simultaneous-mla static-mla; do
  "$bin" simulate --scenario "$scn" --policy "$p" >"$out" || exit 1
  printf '%s %s\n' "$p" "$(md5sum <"$out" | cut -d' ' -f1)"
done
