#!/bin/sh
# Hostile `figures` / `profile` arguments must fail before any work: a
# usage error (exit 124) for a scenario count below 1, exit 1 for an
# unknown figure id, nothing on stdout either way, and never an uncaught
# exception. Then `solve` must print each distributed run's outcome.
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
exit $status
