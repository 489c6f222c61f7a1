#!/usr/bin/env bash
# Code lines under src/: lines of *.h and *.cc files that are neither blank
# nor a `//` comment (leading whitespace ignored). Prints one row per src/
# module, then the total. This is the count CHANGES.md and ROADMAP.md cite
# for "net lines down".
#
#   tools/code_lines.sh            # from anywhere inside the repository
set -euo pipefail

cd "$(dirname "$0")/.."

count() {
  find "$1" -type f \( -name '*.h' -o -name '*.cc' \) -print0 |
    xargs -0 cat | grep -cvE '^[[:space:]]*(//|$)' || true
}

for dir in src/*/; do
  printf '%-14s %6d\n' "${dir%/}" "$(count "$dir")"
done
printf '%-14s %6d\n' src "$(count src)"
