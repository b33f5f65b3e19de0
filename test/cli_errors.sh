#!/bin/sh
# Hostile `figures` / `profile` arguments must fail before any work: a
# usage error (exit 124) for a scenario count below 1, exit 1 for an
# unknown figure id, nothing on stdout either way, and never an uncaught
# exception.
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
exit $status
