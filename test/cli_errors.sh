#!/bin/sh
# Hostile `figures` / `profile` arguments must fail before any work: a
# usage error (exit 124) for a scenario count below 1, exit 1 for an
# unknown figure id, nothing on stdout either way, and never an uncaught
# exception. A scenario file with a non-finite coordinate, and a churn
# script that does not parse, are refused the same way (exit 1). Then `solve` must print each distributed run's
# outcome, and label every algorithm's result differently.
#
# Usage: sh cli_errors.sh PATH/TO/wlan_mcast.exe
bin=$1
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
status=0

expect() {
  code=$1
  shift
  "$bin" "$@" >"$tmp/out" 2>"$tmp/err"
  got=$?
  if [ "$got" -ne "$code" ]; then
    echo "wlan-mcast $*: exit $got, expected $code"
    status=1
  fi
  if [ -s "$tmp/out" ]; then
    echo "wlan-mcast $*: wrote to stdout before failing"
    status=1
  fi
  if grep -qi "uncaught exception" "$tmp/err"; then
    echo "wlan-mcast $*: uncaught exception"
    status=1
  fi
}

for cmd in figures profile; do
  expect 124 "$cmd" fig9a --scenarios 0
  expect 124 "$cmd" fig9a --scenarios=-3
  expect 1 "$cmd" fig9a bogus --scenarios 1
done

# An AP at (nan, 1e300) would otherwise load and silently never link.
printf 'wlan-mcast-scenario 1\narea 100 100\nbudget 0.9\nrates 54:35 6:200\nsessions 1\nap nan 1e300\nap 10 10\nuser 12 12 0\n' \
  >"$tmp/nan.scn"
expect 1 solve --scenario "$tmp/nan.scn"
if ! grep -q "not finite" "$tmp/err"; then
  echo "wlan-mcast solve --scenario (nan AP): no 'not finite' message"
  status=1
fi
printf 'garbage\n' >"$tmp/bad.churn"
expect 1 churn --scenario "$tmp/nan.scn"
expect 1 churn --script "$tmp/bad.churn"

# `solve` reports whether each distributed run converged, and prints no
# such line for a centralized algorithm.
outcome='^  rounds [0-9][0-9]*, converged (true|false), oscillated (true|false)$'
for alg in mnu-distributed mla-distributed bla-distributed; do
  if ! "$bin" solve --aps 10 --users 20 --algorithm "$alg" >"$tmp/out" ||
    ! grep -Eq "$outcome" "$tmp/out"; then
    echo "wlan-mcast solve --algorithm $alg: no outcome line"
    status=1
  fi
done
if ! "$bin" solve --aps 10 --users 20 --algorithm mnu >"$tmp/out" ||
  grep -Eq "$outcome" "$tmp/out"; then
  echo "wlan-mcast solve --algorithm mnu: unexpected outcome line"
  status=1
fi

# `solve --algorithm all` runs eight algorithms and must label each
# result line differently (the two centralized BLA modes included).
if ! "$bin" solve --aps 5 --users 10 --algorithm all >"$tmp/out"; then
  echo "wlan-mcast solve --algorithm all: failed"
  status=1
fi
sed -n 's/^\([A-Za-z-]*\): [0-9]* users served.*/\1/p' "$tmp/out" >"$tmp/labels"
if [ "$(sort -u "$tmp/labels" | wc -l)" -ne 8 ]; then
  echo "wlan-mcast solve --algorithm all: expected 8 distinct labels, got:"
  cat "$tmp/labels"
  status=1
fi
exit $status
