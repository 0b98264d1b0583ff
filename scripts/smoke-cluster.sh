#!/bin/sh
# smoke-cluster.sh — the cluster smoke tier: build plasmad, boot a 3-node
# cluster (a/b/c) over a shared blob dir, create sessions through different
# nodes (each node mints only IDs it owns), probe a session through a
# non-owner and assert the X-Plasma-Node response header names the owner,
# then SIGTERM the owner and assert a survivor revives the session from the
# shared blob store with its probe evidence intact.
set -eu

workdir=$(mktemp -d)
pids=""

# cleanup runs on every exit path (success, assertion failure, ^C): TERM all
# spawned nodes, give them a bounded grace window to finish their shutdown
# save, KILL any straggler, and only then remove the workdir — removing the
# shared blob dir while a node is still spilling to it would race the
# graceful shutdown and leave orphan plasmad processes holding deleted cwds.
cleanup() {
    status=$?
    trap - EXIT INT TERM
    for p in $pids; do kill -TERM "$p" 2>/dev/null || true; done
    deadline=50 # x0.1s = 5s grace for shutdown saves
    while [ "$deadline" -gt 0 ]; do
        live=""
        for p in $pids; do kill -0 "$p" 2>/dev/null && live=1; done
        [ -n "$live" ] || break
        deadline=$((deadline - 1))
        sleep 0.1
    done
    for p in $pids; do
        if kill -0 "$p" 2>/dev/null; then
            echo "smoke-cluster: pid $p ignored SIGTERM, killing" >&2
            kill -KILL "$p" 2>/dev/null || true
        fi
    done
    for p in $pids; do wait "$p" 2>/dev/null || true; done
    rm -rf "$workdir"
    exit "$status"
}
trap cleanup EXIT INT TERM

echo "smoke-cluster: building plasmad"
go build -o "$workdir/plasmad" ./cmd/plasmad

# Cluster mode needs the peer URLs up front, so unlike smoke-server we
# cannot bind :0 — derive a port block from the PID to dodge collisions.
port=$((10000 + $$ % 40000))
pa=$port; pb=$((port + 1)); pc=$((port + 2))
peers="a=http://127.0.0.1:$pa,b=http://127.0.0.1:$pb,c=http://127.0.0.1:$pc"

# start NODE PORT — boot one cluster node on the shared blob dir.
start() {
    node=$1; p=$2
    "$workdir/plasmad" -addr "127.0.0.1:$p" -capacity 4 \
        -node-id "$node" -peers "$peers" \
        -state-dir "$workdir/blob" 2>"$workdir/$node.log" &
    pid=$!
    pids="$pids $pid"
    eval "pid_$node=$pid"
}

start a "$pa"
start b "$pb"
start c "$pc"

for node in "a $pa" "b $pb" "c $pc"; do
    n=${node% *}; p=${node#* }
    up=""
    for _ in $(seq 1 50); do
        if curl -sS --max-time 2 "http://127.0.0.1:$p/healthz" 2>/dev/null \
            | grep -q '"status":"ok"'; then up=1; break; fi
        eval "kill -0 \"\$pid_$n\"" 2>/dev/null || {
            echo "smoke-cluster: node $n died on startup"; cat "$workdir/$n.log"; exit 1; }
        sleep 0.1
    done
    [ -n "$up" ] || { echo "smoke-cluster: node $n never became healthy"; cat "$workdir/$n.log"; exit 1; }
done
echo "smoke-cluster: 3 nodes up on ports $pa/$pb/$pc"

req() {
    # req NAME EXPECTED_SUBSTRING CURL_ARGS... — expects HTTP success; the
    # response body is left in $out for callers that need to parse it.
    name=$1; want=$2; shift 2
    out=$(curl -sS --fail-with-body --max-time 30 "$@") || {
        echo "smoke-cluster: $name failed: $out"; exit 1; }
    case "$out" in
        *"$want"*) echo "smoke-cluster: $name ok" ;;
        *) echo "smoke-cluster: $name: expected '$want' in response: $out"; exit 1 ;;
    esac
}

# served_by NAME EXPECTED_NODE CURL_ARGS... — like req, but asserts the
# X-Plasma-Node header: the cluster's claim about which node actually
# served the request. Body lands in $out.
served_by() {
    name=$1; node=$2; shift 2
    hdrs="$workdir/hdrs"
    out=$(curl -sS --fail-with-body --max-time 30 -D "$hdrs" "$@") || {
        echo "smoke-cluster: $name failed: $out"; exit 1; }
    got=$(tr -d '\r' < "$hdrs" | sed -n 's/^[Xx]-[Pp]lasma-[Nn]ode: *//p' | head -n 1)
    [ "$got" = "$node" ] || {
        echo "smoke-cluster: $name: served by '$got', want '$node': $out"; exit 1; }
    echo "smoke-cluster: $name ok (served by $got)"
}

# json_field FIELD — pull a scalar JSON field out of $out.
json_field() {
    printf '%s' "$out" | sed -n "s/.*\"$1\":\"\{0,1\}\([^\",}]*\)\"\{0,1\}.*/\1/p" | head -n 1
}

# Owned minting: a session created on a node is owned by that node, so the
# create itself is served locally and the ID routes back to its creator.
req create-on-a '"id":"' -X POST "http://127.0.0.1:$pa/v1/sessions" \
    -d '{"dataset":{"kind":"toy"},"seed":1}'
sid=$(json_field id)
[ -n "$sid" ] || { echo "smoke-cluster: create-on-a returned no id: $out"; exit 1; }

req create-on-b '"id":"' -X POST "http://127.0.0.1:$pb/v1/sessions" \
    -d '{"dataset":{"kind":"toy"},"seed":2}'
sidb=$(json_field id)
[ "$sid" != "$sidb" ] || { echo "smoke-cluster: duplicate session ID $sid from two nodes"; exit 1; }
echo "smoke-cluster: minted $sid on a, $sidb on b"

# Probe a's session through every node: the owner serves it no matter which
# node the client asked, and results flow back through the proxy hop.
served_by probe-direct a -X POST "http://127.0.0.1:$pa/v1/sessions/$sid/probe" \
    -d '{"threshold":0.5}'
direct_pairs=$(json_field pairCount)
served_by probe-via-b a -X POST "http://127.0.0.1:$pb/v1/sessions/$sid/probe" \
    -d '{"threshold":0.5}'
proxied_pairs=$(json_field pairCount)
# The second probe runs warm (evidence from the first carries pairs past
# pruning checkpoints), so it may find MORE pairs than the cold first —
# never fewer. Exact single-node equivalence is pinned by the differential
# test in internal/server/cluster_test.go.
[ -n "$direct_pairs" ] && [ "$proxied_pairs" -ge "$direct_pairs" ] || {
    echo "smoke-cluster: probe via non-owner found $proxied_pairs pairs, direct found $direct_pairs"
    exit 1; }
served_by curve-via-c a "http://127.0.0.1:$pc/v1/sessions/$sid/curve?lo=0.3&hi=0.9&steps=7"
case "$out" in
    *'"knee"'*) echo "smoke-cluster: curve body ok" ;;
    *) echo "smoke-cluster: curve via c missing knee: $out"; exit 1 ;;
esac
served_by probe-b-via-c b -X POST "http://127.0.0.1:$pc/v1/sessions/$sidb/probe" \
    -d '{"threshold":0.5}'

# The proxy hop must be visible in the entry node's metrics.
proxied=$(curl -sS --fail --max-time 30 "http://127.0.0.1:$pb/metrics" \
    | sed -n 's/^plasmad_cluster_proxied_total \([0-9][0-9]*\)$/\1/p')
[ -n "$proxied" ] && [ "$proxied" -gt 0 ] || {
    echo "smoke-cluster: node b shows no proxied requests"; exit 1; }
echo "smoke-cluster: node b proxied $proxied request(s)"
# /v1/stats renders the same registry, so it shows the same count.
req stats-on-b "\"plasmad_cluster_proxied_total\":$proxied" "http://127.0.0.1:$pb/v1/stats"

# Kill the owner of $sid gracefully: its shutdown save spills the session
# to the shared blob store, where any survivor can revive it.
eval "owner_pid=\$pid_a"
kill -TERM "$owner_pid"
for _ in $(seq 1 100); do
    kill -0 "$owner_pid" 2>/dev/null || break
    sleep 0.1
done
kill -0 "$owner_pid" 2>/dev/null && {
    echo "smoke-cluster: owner did not exit within 10s of SIGTERM"; exit 1; }
wait "$owner_pid" 2>/dev/null || true
grep -q "plasmad shut down" "$workdir/a.log" || {
    echo "smoke-cluster: owner missing graceful-shutdown log line"; cat "$workdir/a.log"; exit 1; }
echo "smoke-cluster: owner a down, asking a survivor for $sid"

# Failover revival: a survivor (not a) serves the dead owner's session from
# the blob store, with the probe evidence accumulated before the kill.
hdrs="$workdir/hdrs"
out=$(curl -sS --fail-with-body --max-time 30 -D "$hdrs" \
    "http://127.0.0.1:$pb/v1/sessions/$sid") || {
    echo "smoke-cluster: revival GET failed: $out"; exit 1; }
got=$(tr -d '\r' < "$hdrs" | sed -n 's/^[Xx]-[Pp]lasma-[Nn]ode: *//p' | head -n 1)
[ -n "$got" ] && [ "$got" != "a" ] || {
    echo "smoke-cluster: revival served by '$got', want a survivor: $out"; exit 1; }
case "$out" in
    *'"cachedPairs":0'*) echo "smoke-cluster: revival lost the cache: $out"; exit 1 ;;
    *'"probes":2'*) echo "smoke-cluster: revived $sid on $got, evidence intact" ;;
    *) echo "smoke-cluster: unexpected revived session: $out"; exit 1 ;;
esac
req revived-probe '"pairCount"' -X POST "http://127.0.0.1:$pc/v1/sessions/$sid/probe" \
    -d '{"threshold":0.5}'

echo "smoke-cluster: all checks passed"
