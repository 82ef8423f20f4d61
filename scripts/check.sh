#!/usr/bin/env bash
# One-command verification: import-boundary guards, then the Makefile
# gate pipeline (core tests, fault-scenario matrix, backend parity,
# teardown suites, benchmark smoke, the smokes).
set -euo pipefail
cd "$(dirname "$0")/.."

ALL="src tests benchmarks examples scripts"

# guard <module-regex> <owning-dir> <scanned-dirs> <hint>
#
# Fails when a Python file under <scanned-dirs> but outside <owning-dir>
# imports <module-regex> — as `import a.b.m`, `from a.b.m import ...`,
# `from a.b import m` or `import_module("...m")`.  A line may opt out
# with a trailing `# facade-ok: <reason>` marker, reserved for tests and
# benchmarks that measure or property-test the internal mechanism itself.
# <hint> names the sanctioned surface to use instead.
guard() {
    local module=$1 owner=$2 dirs=$3 hint=$4
    local pkg=${module%\\.*} leaf=${module##*\\.} s='[[:space:]]'
    local pattern="(from|import)$s+$module\b|from$s+$pkg$s+import$s[^#]*\b$leaf\b|import_module\([^)]*$leaf"
    local hits
    # shellcheck disable=SC2086  # $dirs is a word list
    hits=$(grep -rnE --include='*.py' "$pattern" $dirs 2>/dev/null \
        | grep -v "^$owner/" | grep -v 'facade-ok' || true)
    if [[ -n "$hits" ]]; then
        echo "boundary violation: $module imported outside $owner/" >&2
        echo "use instead: $hint" >&2
        echo "$hits" >&2
        exit 1
    fi
    echo "boundary guard: no $module imports outside $owner/ (scanned: $dirs)"
}

# dsim internals: the data planes, the shared codec and the router
guard 'repro\.dsim\.shm_ring' src/repro/dsim "$ALL" \
    'Cluster(..., backend=MPBackend(MPBackendOptions(transport=...))) or Scenario.backend/transport'
guard 'repro\.dsim\.net_transport' src/repro/dsim "$ALL" \
    'Cluster(..., backend="net"), NetBackendOptions or Scenario.backend'
guard 'repro\.dsim\.wire' src/repro/dsim "$ALL" \
    'the transport knobs (MPBackendOptions.transport, backend="net"); the codec is not a public surface'
guard 'repro\.dsim\.router' src/repro/dsim "$ALL" \
    'Cluster(..., backend="mp"|"net") or repro.dsim.backend.MPBackend / net_backend.NetBackend'
# Time Machine internals: blob store, scroll sidecar, background writer
guard 'repro\.timemachine\.blobstore' src/repro/timemachine "$ALL" \
    'the repro.timemachine re-exports, FixDConfig.time_machine or Experiment.resume'
guard 'repro\.timemachine\.scroll_persistence' src/repro/timemachine "$ALL" \
    'DurableCheckpointStore.flush_scroll/rebuild_scroll, FixDConfig.time_machine or Experiment.resume'
guard 'repro\.timemachine\.flush_pipeline' src/repro/timemachine "$ALL" \
    'TimeMachineConfig.flush_mode/flush_queue_bytes or the repro.timemachine re-exports'
# fuzzing internals: only the package re-exports, Experiment.fuzz and the CLI are public
guard 'repro\.fuzz\.(generate|coverage|corpus|shrink|driver)' src/repro/fuzz "$ALL" \
    'the repro.fuzz package re-exports, Experiment.fuzz or python -m repro.fuzz'
# examples/ and benchmarks/ express workloads through the repro.api
# facade: apps by registry name, the programming model via re-exports
guard 'repro\.(dsim|apps)' src "examples benchmarks" \
    'repro.api (apps.build, Process/handler re-exports, Scenario/Experiment)'

# ids belong to a run (Cluster.msg_ids, Scroll.seqs): no process-global
# counter, and no reset function working around one, may come back
counters=$(grep -rnE "^_\w+ *= *itertools\.count|^def reset_" src || true)
if [[ -n "$counters" ]]; then
    echo "process-global counter in src/: a run must own its ids" >&2
    echo "$counters" >&2
    exit 1
fi
echo "counter guard: no process-global counters or reset functions in src/"

# the Scroll sits below the Time Machine: scroll/ keeps its segments in a
# repro.blobs store and must not import the layer that persists it
layering=$(grep -rnE "(from|import) +repro\.timemachine" src/repro/scroll || true)
if [[ -n "$layering" ]]; then
    echo "layering violation: src/repro/scroll imports repro.timemachine" >&2
    echo "$layering" >&2
    exit 1
fi
echo "layering guard: src/repro/scroll does not import repro.timemachine"

# dsim is the substrate everything else builds on (the fault specs live
# there too): it may import itself and repro.errors, nothing else of repro
substrate=$(grep -rnE "(from|import) +repro(\.|\b)" src/repro/dsim \
    | grep -vE "(from|import) +repro\.(dsim|errors)\b" || true)
if [[ -n "$substrate" ]]; then
    echo "layering violation: src/repro/dsim imports a repro package other than repro.errors" >&2
    echo "$substrate" >&2
    exit 1
fi
echo "layering guard: src/repro/dsim imports only repro.dsim and repro.errors"

if ! command -v make >/dev/null 2>&1; then
    echo "scripts/check.sh requires make; run the Makefile 'verify' steps manually:" >&2
    grep -A2 '^verify:' Makefile >&2
    exit 1
fi
exec make verify
