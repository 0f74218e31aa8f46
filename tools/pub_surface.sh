#!/bin/sh
# Surface audit (ROADMAP B3): every `pub` item under crates/*/src that
# nothing outside its own file exercises. Items are `pub fn` names and
# `pub struct` / `enum` / `trait` / `type` / `const` / `static` names.
# A name is exercised if it word-matches in a second .rs file of the
# workspace, the tests, the examples or the ledger; a type or constant
# is also exercised if a `pub fn` signature in its own file names it
# (callers reach it through that function). `benchmark/src` is a
# read-only reference root: what the ledger names is never flagged.
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

# The file's `pub fn` signatures: each from `pub fn` to its first `{`
# or `;`.
signatures() {
    awk '/pub( const| unsafe)* fn /{s=1} s{print; if (/[{;]/) s=0}' "$1"
}

# `file name` for every `pub` item under crates/*/src.
items() {
    grep -rHoE --include='*.rs' 'pub( const| unsafe)* fn [A-Za-z_0-9]+' crates/*/src |
        sed -E 's/^([^:]*):.* fn /fn \1 /'
    grep -rHoE --include='*.rs' 'pub (struct|enum|trait|type|const|static) [A-Za-z_0-9]+' crates/*/src |
        sed -E 's/^([^:]*):pub [a-z]+ /item \1 /' | awk '$3 != "fn"'
}

survivors() {
    # `|| true`: grep exits 1 on a name it finds nowhere else.
    items | sort -u -k3,3 -k1,1 | awk '!seen[$3]++' |
        while read -r kind file name; do
            # shellcheck disable=SC2086
            files=$(grep -rlw --include='*.rs' -e "$name" $roots || true)
            [ "$(printf '%s\n' "$files" | wc -l)" -le 1 ] || continue
            if [ "$kind" = item ] && signatures "$file" | grep -qw -e "$name"; then
                continue
            fi
            printf '%s  %s\n' "$name" "$files"
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
        echo "unexercised pub item \`$name\` ($(printf '%s\n' "$found" | grep "^$name  " | cut -d' ' -f3)): use it from a second file, drop \`pub\`, delete it, or add it to $allow with a reason" >&2
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
        echo "$allow: \`$name\` ($file) is no longer an unexercised pub item — drop the line" >&2
        status=1
    fi
done <"$allow"
exit $status
