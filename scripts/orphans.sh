#!/usr/bin/env bash
# Orphan guard: fails when a module or package under src/repro (other than
# __init__ and __main__) is imported by no file in src/, benchmarks/,
# examples/ or scripts/ other than its own.  A package's own files are the
# ones under its directory; tests do not count as users.  Run from the repo
# root, or give the root of another checkout as the first argument:
#     scripts/orphans.sh [ROOT]
set -euo pipefail
cd "${1:-$(dirname "$0")/..}"

orphans=""
s='[[:space:]]'
while IFS= read -r path; do
    dotted=${path#src/}
    dotted=${dotted%.py}
    dotted=${dotted%/__init__}
    own=$path
    [[ $path == */__init__.py ]] && own=${path%__init__.py}
    module=${dotted//\//\\.}
    pkg=${module%\\.*} leaf=${module##*\\.}
    pattern="(from|import)$s+$module\b|from$s+$pkg$s+import$s[^#]*\b$leaf\b|import_module\([^)]*$module\b"
    users=$(grep -rlE --include='*.py' "$pattern" src benchmarks examples scripts || true)
    if [[ -z $(grep -v "^$own" <<<"$users" || true) ]]; then
        orphans+="${dotted//\//.}"$'\n'
    fi
done < <(find src/repro -mindepth 1 -name '*.py' ! -name '__main__.py' \
    ! -path src/repro/__init__.py | sort)
if [[ -n "$orphans" ]]; then
    echo "orphan modules under src/repro (nothing outside them imports them):" >&2
    printf '%s' "$orphans" >&2
    exit 1
fi
echo "orphan guard: every module and package under src/repro is imported"
