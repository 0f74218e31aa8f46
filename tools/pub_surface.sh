#!/bin/sh
# Surface audit (ROADMAP B3 a): every `pub fn` name under crates/*/src
# that word-matches in no second .rs file of the workspace, the tests,
# the examples or the ledger. `benchmark/src` is a read-only reference
# root: what the ledger names is never flagged.
#
#   tools/pub_surface.sh           list `name  file` for each such name
#   tools/pub_surface.sh --check   fail on a listed name missing from
#                                  tools/pub_surface.allow, and on an
#                                  allow-listed name no longer listed
#
# tools/pub_surface.allow holds `name  file  reason`, one line each.
set -eu
cd "$(dirname "$0")/.."
allow=tools/pub_surface.allow
roots="crates src tests examples benchmark/src"

survivors() {
    # `|| true`: grep exits 1 on a name it finds nowhere else.
    grep -rhoE --include='*.rs' 'pub( const| unsafe)* fn [A-Za-z_0-9]+' crates/*/src |
        sed 's/.* fn //' | sort -u |
        while read -r name; do
            # shellcheck disable=SC2086
            files=$(grep -rlw --include='*.rs' -e "$name" $roots || true)
            [ "$(printf '%s\n' "$files" | wc -l)" -le 1 ] && printf '%s  %s\n' "$name" "$files"
        done || true
}

if [ "${1:-}" != "--check" ]; then
    survivors
    exit 0
fi

found=$(survivors)
status=0
for name in $(printf '%s\n' "$found" | cut -d' ' -f1); do
    if ! grep -q "^$name  " "$allow"; then
        echo "unexercised pub fn \`$name\` ($(printf '%s\n' "$found" | grep "^$name  " | cut -d' ' -f3)): use it from a second file, drop \`pub\`, delete it, or add it to $allow with a reason" >&2
        status=1
    fi
done
while read -r name file reason; do
    case "$name" in '' | '#'*) continue ;; esac
    if [ -z "$reason" ]; then
        echo "$allow: \`$name\` has no reason" >&2
        status=1
    fi
    if ! printf '%s\n' "$found" | grep -q "^$name  $file\$"; then
        echo "$allow: \`$name\` ($file) is no longer an unexercised pub fn — drop the line" >&2
        status=1
    fi
done <"$allow"
exit $status
