#!/usr/bin/env bash
# Entry point named by BENCHMARK.json. From the root of a wlan-mcast
# checkout, builds the daemon and the benchmark from source, then runs
# one workload:
#
#   bash bench/e2e/run.sh --workload W --seed N --seconds S --trace 0|1
#
# --trace 0 measures the end-to-end metrics (wlan_bench run), --trace 1
# the per-layer ones (wlan_bench trace). The last line of stdout is the
# JSON verdict; build output goes to stderr. Everything the run writes
# stays under _build/.
set -euo pipefail

workload= seed= seconds=12 trace=0
while [ $# -gt 0 ]; do
  case "$1" in
    --workload) workload=$2; shift 2 ;;
    --seed) seed=$2; shift 2 ;;
    --seconds) seconds=$2; shift 2 ;;
    --trace) trace=$2; shift 2 ;;
    *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
  esac
done
if [ -z "$workload" ] || [ -z "$seed" ]; then
  echo "usage: run.sh --workload W --seed N [--seconds S] [--trace 0|1]" >&2
  exit 2
fi
if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -d bin ]; then
  echo "run.sh: run from the root of a wlan-mcast checkout" >&2
  exit 2
fi

# The dune cache would write outside the checkout.
export DUNE_CACHE=disabled
dune build --root . ./bench/e2e/wlan_bench.exe ./bench/e2e/probe.exe \
  ./bin/wlan_mcast.exe >&2

case "$trace" in
  0) mode=(run --server ./_build/default/bin/wlan_mcast.exe) ;;
  1) mode=(trace) ;;
  *) echo "run.sh: --trace takes 0 or 1" >&2; exit 2 ;;
esac
exec ./_build/default/bench/e2e/wlan_bench.exe "${mode[@]}" \
  --workload "$workload" --seed "$seed" --seconds "$seconds" \
  --out "_build/wlan_bench/${mode[0]}-$workload-$seed.json"
