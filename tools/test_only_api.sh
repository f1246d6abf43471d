#!/usr/bin/env bash
# Lists the library functions that only test binaries link.
#
#   tools/test_only_api.sh [BUILD_DIR]     (run from the repository root)
#
# Builds every target into BUILD_DIR (default build-probe) at -O0 -g with
# one section per function and links with --gc-sections, so each binary
# keeps exactly the functions it can reach. The repository benchmark keeps
# its own -O2 (benchmark/CMakeLists.txt) and is built into
# BUILD_DIR/benchmark with the same sections plus -fno-inline, so a
# function it calls keeps its symbol. `nm -l` names each linked
# function's defining source line.
#
# Prints, sorted and one a line, every function defined in src/**/*.cpp
# that some test binary links and no bench, example, tool or imars_bench
# links, as its full signature (qualified name, parameter list and
# qualifiers), so an overload only tests link is listed beside a production
# overload of the same name. Exits 1 if a printed signature is not in
# tools/test_only_api.allow, whose lines read "<signature>  # <reason>" and
# must each carry a reason.
set -euo pipefail
export LC_ALL=C

root=$(cd "$(dirname "$0")/.." && pwd)
build=${1:-build-probe}
allow="$root/tools/test_only_api.allow"
flags="-O0 -g -ffunction-sections"
link="-Wl,--gc-sections"

cmake -S "$root" -B "$build" -G Ninja -DCMAKE_BUILD_TYPE=Debug \
      -DCMAKE_CXX_FLAGS="$flags" -DCMAKE_EXE_LINKER_FLAGS="$link" >&2
cmake --build "$build" -j >&2
cmake -S "$root/benchmark" -B "$build/benchmark" -G Ninja \
      -DCMAKE_CXX_FLAGS="-g -fno-inline -ffunction-sections" \
      -DCMAKE_EXE_LINKER_FLAGS="$link" >&2
cmake --build "$build/benchmark" -j >&2

# Signatures of the functions whose definition `nm -l` places in
# src/**/*.cpp, without any clone suffix or ABI tag.
linked() {
  for bin in "$@"; do
    nm -C -l --defined-only "$bin" | awk -F'\t' -v src="$root/src/" '
      substr($1, 18, 1) ~ /[TtWw]/ && index($2, src) == 1 &&
      $2 ~ /\.cpp:[0-9]+$/ {
        name = substr($1, 20)   # drop "<16-digit address> <type> "
        sub(/ \[clone [^]]*\]$/, "", name)
        gsub(/\[abi:[^]]*\]/, "", name)
        # A lambda counts as the function it is defined in.
        if ((i = index(name, "::{lambda(")) > 0) name = substr(name, 1, i - 1)
        # A function template instance starts with its return type.
        if (substr(name, 1, 7) != "imars::" && (i = index(name, " imars::")) > 0 &&
            index(substr(name, 1, i), "(") == 0)
          name = substr(name, i + 1)
        print name
      }'
  done | sort -u
}

# The binaries built from the given sources (bench_micro_kernels only
# exists where google-benchmark is installed).
bins() {
  for f in "$@"; do
    local bin="$build/$(basename "$f" .cpp)"
    if [ -x "$bin" ]; then echo "$bin"; fi
  done
}
mapfile -t tests < <(bins "$root"/tests/test_*.cpp)
mapfile -t others < <(bins "$root"/bench/bench_*.cpp "$root"/examples/*.cpp \
                           "$root"/tools/*.cpp)
others+=("$build/benchmark/imars_bench")

only=$(comm -23 <(linked "${tests[@]}") <(linked "${others[@]}"))
[ -n "$only" ] && printf '%s\n' "$only"

status=0
if grep -Ev '^[[:space:]]*(#|$)' "$allow" |
   grep -Ev '[^[:space:]][[:space:]]+#[[:space:]]*[^[:space:]]' >&2; then
  echo "test_only_api: the allowlist lines above carry no reason" >&2
  status=1
fi
listed=$(sed -E 's/[[:space:]]+#.*//; /^[[:space:]]*(#|$)/d' "$allow" | sort -u)
unlisted=$(comm -23 <(printf '%s\n' "$only" | sed '/^$/d') <(printf '%s\n' "$listed"))
if [ -n "$unlisted" ]; then
  printf '%s\n' "$unlisted" | sed 's/^/test_only_api: not allowlisted: /' >&2
  status=1
fi
exit $status
