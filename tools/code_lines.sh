#!/usr/bin/env bash
# Code lines under src/: lines of *.h and *.cc files that are neither blank
# nor a `//` comment (leading whitespace ignored). Prints one row per src/
# module, then the total. This is the count CHANGES.md and ROADMAP.md cite
# for "net lines down".
#
#   tools/code_lines.sh            # from anywhere inside the repository
#   tools/code_lines.sh REV        # the count at git revision REV, the
#                                  # working tree's, and the difference
set -euo pipefail

cd "$(dirname "$0")/.."

# count DIR: code lines of DIR's sources, 0 when DIR does not exist.
count() {
  [ -d "$1" ] || { echo 0; return; }
  find "$1" -type f \( -name '*.h' -o -name '*.cc' \) -print0 |
    xargs -0 cat | grep -cvE '^[[:space:]]*(//|$)' || true
}

if [ $# -eq 0 ]; then
  for dir in src/*/; do
    printf '%-14s %6d\n' "${dir%/}" "$(count "$dir")"
  done
  printf '%-14s %6d\n' src "$(count src)"
  exit 0
fi

git rev-parse --verify --quiet "$1^{commit}" >/dev/null ||
  { echo "code_lines.sh: no git revision '$1'" >&2; exit 2; }
rev=$(mktemp -d)
trap 'rm -rf "$rev"' EXIT
git archive "$1" src | tar -x -C "$rev"

printf '%-14s %6s %6s %6s\n' module before after delta
row() {
  local before after
  before=$(count "$rev/$1")
  after=$(count "$1")
  printf '%-14s %6d %6d %+6d\n' "$1" "$before" "$after" $((after - before))
}
for module in $( (cd "$rev" && ls -d src/*/; ls -d src/*/) | sort -u); do
  row "${module%/}"
done
row src
