#!/bin/sh
# smoke-server.sh — the daemon smoke tier: build plasmad, start it on a
# random port with a state dir, run one full Fig 2.1 loop over HTTP (create
# session → probe → curve → cues → stats), exercise the snapshot/restore
# endpoints, shut it down cleanly with SIGTERM, then boot a second daemon
# on the same state dir and verify the warm start (session back, cache
# intact). Fails if any request errors or either daemon exits ungracefully.
set -eu

workdir=$(mktemp -d)
trap 'kill "$pid" 2>/dev/null || true; rm -rf "$workdir"' EXIT INT TERM

echo "smoke-server: building plasmad"
go build -o "$workdir/plasmad" ./cmd/plasmad

# start LOGFILE [EXTRA_ARGS...] — boot a daemon, set $pid and $base.
start() {
    log=$1; shift
    "$workdir/plasmad" -addr 127.0.0.1:0 -capacity 4 \
        -state-dir "$workdir/state" "$@" 2>"$log" &
    pid=$!
    addr=""
    for _ in $(seq 1 50); do
        addr=$(sed -n 's/.*listening on \([0-9.:]*\)$/\1/p' "$log" | head -n 1)
        [ -n "$addr" ] && break
        kill -0 "$pid" 2>/dev/null || { echo "smoke-server: daemon died on startup"; cat "$log"; exit 1; }
        sleep 0.1
    done
    [ -n "$addr" ] || { echo "smoke-server: never saw the listening line"; cat "$log"; exit 1; }
    base="http://$addr"
    echo "smoke-server: daemon up at $base (pid $pid)"
}

# stop LOGFILE — SIGTERM the daemon and require a graceful exit.
stop() {
    log=$1
    kill -TERM "$pid"
    for _ in $(seq 1 100); do
        kill -0 "$pid" 2>/dev/null || break
        sleep 0.1
    done
    if kill -0 "$pid" 2>/dev/null; then
        echo "smoke-server: daemon did not exit within 10s of SIGTERM"
        exit 1
    fi
    wait "$pid" 2>/dev/null || true
    grep -q "plasmad shut down" "$log" || {
        echo "smoke-server: missing graceful-shutdown log line"; cat "$log"; exit 1; }
}

req() {
    # req NAME EXPECTED_SUBSTRING CURL_ARGS... — expects HTTP success
    name=$1; want=$2; shift 2
    out=$(curl -sS --fail-with-body --max-time 30 "$@") || {
        echo "smoke-server: $name failed: $out"; exit 1; }
    case "$out" in
        *"$want"*) echo "smoke-server: $name ok" ;;
        *) echo "smoke-server: $name: expected '$want' in response: $out"; exit 1 ;;
    esac
}

# field JSON NAME — the raw text of a top-level array or scalar field.
field() {
    printf '%s\n' "$1" | sed -n -e "s/.*\"$2\":\(\[[^]]*\]\).*/\1/p" -e t \
        -e "s/.*\"$2\":\([^,}]*\).*/\1/p"
}

reqerr() {
    # reqerr NAME EXPECTED_CODE CURL_ARGS... — expects the error envelope
    name=$1; want=$2; shift 2
    out=$(curl -sS --max-time 30 "$@") || {
        echo "smoke-server: $name: transport error"; exit 1; }
    case "$out" in
        *"\"code\":\"$want\""*) echo "smoke-server: $name ok" ;;
        *) echo "smoke-server: $name: expected error code '$want': $out"; exit 1 ;;
    esac
}

start "$workdir/plasmad.log"

req healthz '"status":"ok"' "$base/healthz"
req create '"id":"s1"' -X POST "$base/v1/sessions" \
    -d '{"dataset":{"kind":"toy"},"seed":1}'
req probe '"pairCount"' -X POST "$base/v1/sessions/s1/probe" \
    -d '{"threshold":0.5}'
req curve '"knee"' "$base/v1/sessions/s1/curve?lo=0.3&hi=0.9&steps=7"
req cues '"triangles"' "$base/v1/sessions/s1/cues?t=0.5"
req stats '"plasmad_probes_total":' "$base/v1/stats"
req batch '"failed":0' -X POST "$base/v1/sessions/s1/probes" \
    -d '{"thresholds":[0.4,0.7]}'

# Live ingest: create an uploaded session, append rows over the wire, then
# probe and read cues from the grown session.
req create2 '"id":"s2"' -X POST "$base/v1/sessions" \
    -d '{"name":"stream","measure":"cosine","dense":[[1,0,0,0],[0,1,0,0],[1,1,0,0]]}'
req append '"rows":5' -X POST "$base/v1/sessions/s2/rows" \
    -d '{"dense":[[1,0,0,1],[0,0,1,1]]}'
req appendprobe '"pairCount"' -X POST "$base/v1/sessions/s2/probe" \
    -d '{"threshold":0.5}'
req appendcues '"triangles"' "$base/v1/sessions/s2/cues?t=0.5"
reqerr appendbad bad_request -X POST "$base/v1/sessions/s2/rows" \
    -d '{"dense":[],"sparse":[]}'
# /v1/stats renders every unlabeled family of the registry, so the ingest
# counter shows up there too.
req appendstats '"plasmad_rows_appended_total":2' "$base/v1/stats"

# /metrics: the counters driven above must be non-zero and every line must
# be a well-formed Prometheus text-exposition line (comment or sample).
metrics=$(curl -sS --fail --max-time 30 "$base/metrics") || {
    echo "smoke-server: metrics scrape failed"; exit 1; }
for counter in plasmad_probes_total plasmad_sessions_created_total plasmad_rows_appended_total; do
    val=$(printf '%s\n' "$metrics" | sed -n "s/^$counter \([0-9][0-9]*\)$/\1/p")
    if [ -z "$val" ] || [ "$val" -eq 0 ]; then
        echo "smoke-server: metrics: $counter missing or zero"; exit 1
    fi
done
bad=$(printf '%s\n' "$metrics" | grep -cvE \
    '^(# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]+ .*|[a-zA-Z_:][a-zA-Z0-9_:]+(\{([a-zA-Z_][a-zA-Z0-9_]*="[^"]*",?)*\})? (-?[0-9.eE+-]+|NaN|[+-]Inf))$') || true
if [ "$bad" -ne 0 ]; then
    echo "smoke-server: metrics: $bad malformed exposition line(s):"
    printf '%s\n' "$metrics" | grep -vE \
        '^(# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]+ .*|[a-zA-Z_:][a-zA-Z0-9_:]+(\{([a-zA-Z_][a-zA-Z0-9_]*="[^"]*",?)*\})? (-?[0-9.eE+-]+|NaN|[+-]Inf))$' | head -5
    exit 1
fi
echo "smoke-server: metrics ok ($(printf '%s\n' "$metrics" | wc -l) lines)"
reqerr badjson bad_request -X POST "$base/v1/sessions/s1/probe" -d '{nope'
reqerr trailing bad_request -X POST "$base/v1/sessions/s1/probe" \
    -d '{"threshold":0.5}garbage'
reqerr notfound not_found "$base/v1/sessions/zzz/curve"

# Snapshot round trip over HTTP: download, restore as a fresh session.
curl -sS --fail --max-time 30 -X POST -o "$workdir/s1.snap" \
    "$base/v1/sessions/s1/snapshot" || {
    echo "smoke-server: snapshot download failed"; exit 1; }
[ -s "$workdir/s1.snap" ] || { echo "smoke-server: empty snapshot"; exit 1; }
echo "smoke-server: snapshot ok ($(wc -c < "$workdir/s1.snap") bytes)"
req restore '"cachedPairs"' -X POST --data-binary "@$workdir/s1.snap" \
    "$base/v1/sessions/restore"
reqerr badsnap bad_snapshot -X POST --data-binary 'junk' \
    "$base/v1/sessions/restore"
req persist '"key"' -X POST "$base/v1/sessions/s1/snapshot?persist=1"
saved=$(curl -sS --fail --max-time 30 "$base/v1/sessions/s1") || {
    echo "smoke-server: session read before shutdown failed"; exit 1; }

stop "$workdir/plasmad.log"
echo "smoke-server: first daemon down, rebooting on the same state dir"

# Warm start: the same state dir must bring s1 back with its cache and its
# probe history exactly as they were before the shutdown.
start "$workdir/plasmad2.log"
req warmsession '"id":"s1"' "$base/v1/sessions/s1"
warm=$(curl -sS --max-time 30 "$base/v1/sessions/s1")
case "$warm" in
    *'"cachedPairs":0'*) echo "smoke-server: warm start lost the cache: $warm"; exit 1 ;;
    *'"probes":3'*) ;; # 1 single + 2 batched
    *) echo "smoke-server: unexpected warm session: $warm"; exit 1 ;;
esac
for f in probes cachedPairs thresholds processMillis; do
    was=$(field "$saved" "$f"); now=$(field "$warm" "$f")
    if [ -z "$was" ] || [ "$was" != "$now" ]; then
        echo "smoke-server: warm start changed $f: '$was' -> '$now'"; exit 1
    fi
done
[ "$(field "$warm" thresholds)" = "[0.4,0.5,0.7]" ] || {
    echo "smoke-server: unexpected warm thresholds: $warm"; exit 1; }
echo "smoke-server: warm cache and probe history intact"
req warmstats '"plasmad_sessions_restored_total"' "$base/v1/stats"
req warmprobe '"cacheHits"' -X POST "$base/v1/sessions/s1/probe" \
    -d '{"threshold":0.5}'

stop "$workdir/plasmad2.log"
echo "smoke-server: clean shutdown x2 — all checks passed"
