#!/usr/bin/env bash
# Build the server and the benchmark from source, then run one benchmark.
#
#   bash servebench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Run from the root of an indq checkout.  Build output goes to stderr; the
# last line of stdout is the result object.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"
if [ ! -f dune-project ] || [ ! -f bin/indq.ml ] || [ ! -d lib/server ]; then
  echo "servebench: $root is not an indq checkout" >&2
  exit 2
fi
# No shared build cache: the run writes only inside the checkout.
dune build --root . --profile release --cache=disabled \
  ./bin/indq.exe ./servebench/servebench.exe 1>&2
# The commit, or a fingerprint of the sources when the checkout is not a
# git repository.
commit="$(git rev-parse HEAD 2>/dev/null ||
  find lib bin -name '*.ml*' | LC_ALL=C sort | xargs cat | sha1sum | cut -c1-12 |
  sed 's/^/source-/')"
# The load generator and the server it launches share one CPU.  On a
# virtual machine a round trip between two CPUs pays the hypervisor's
# wake-up latency, which swings with the host's load and would dominate
# every sub-millisecond round.  The CPU is the highest one this process
# may run on: under a cpuset that need not be CPU nproc-1.
cpus="$(nproc)"
pin=()
pinned=none
if command -v taskset >/dev/null 2>&1; then
  allowed="$(taskset -cp $$ 2>/dev/null | sed 's/.*: *//')"
  last="${allowed##*[,-]}"
  if [ -n "$last" ] && taskset -c "$last" true 2>/dev/null; then
    pinned="$last"
    pin=(taskset -c "$pinned")
  fi
fi
exec ${pin[@]+"${pin[@]}"} ./_build/default/servebench/servebench.exe \
  --indq ./_build/default/bin/indq.exe --commit "$commit" --cpus "$cpus" \
  --pinned "$pinned" "$@"
