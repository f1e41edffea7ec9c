#!/usr/bin/env bash
# The CLI and the daemon give the same answer to the same what-if.
#
# One generated 8-rank allreduce trace is replayed for every network x
# collectives value, on 8 and on 3 nodes: once by `tit-replay
# --metrics` and once by a `tit-serve` replay request. Both outputs are
# written by tit_core::json, so the `replay.simulated_time` text of the
# metrics file and the `simulated_time` text of the response must be
# identical. The 12 cells must also differ from one another: a model
# option that failed to reach either replay would show as two equal
# cells, not as a disagreement.
set -euo pipefail
cd "$(dirname "$0")/.."

B=${B:-./target/release}
[ -x "$B/tit-replay" ] && [ -x "$B/tit-serve" ] || B=./target/debug
for bin in tit-gen tit-replay tit-serve; do
  [ -x "$B/$bin" ] || { echo "spec_agreement: build $bin first" >&2; exit 2; }
done

work=$(mktemp -d)
trap 'rm -rf "$work"; kill $(jobs -p) 2>/dev/null || true' EXIT
"$B/tit-gen" --out "$work/ar8" --np 8 --pattern allreduce --iters 3 >/dev/null

# The daemon drains when its stdin pipe closes.
mkfifo "$work/stdin"
"$B/tit-serve" --drain-on-stdin <"$work/stdin" >"$work/daemon.out" 2>&1 &
pid=$!
exec {stdin_fd}>"$work/stdin"
port=
for _ in $(seq 100); do
  port=$(sed -n 's/^listening on 127\.0\.0\.1:\([0-9]*\)$/\1/p' "$work/daemon.out")
  [ -n "$port" ] && break
  sleep 0.1
done
[ -n "$port" ] || { echo "spec_agreement: FAIL: no port" >&2; cat "$work/daemon.out" >&2; exit 1; }

python3 - "$port" "$B/tit-replay" "$work" <<'EOF'
import json, re, socket, subprocess, sys

port, replay, work = int(sys.argv[1]), sys.argv[2], sys.argv[3]
trace = f"{work}/ar8"
conn = socket.create_connection(("127.0.0.1", port), timeout=60)
f = conn.makefile("rw", encoding="utf-8", newline="\n")

def number_text(doc, key):
    m = re.search(r'"%s":([^,}]*)' % re.escape(key), doc)
    assert m, f"no {key} in {doc!r}"
    return m.group(1)

cells = {}
for nodes in (8, 3):
    for network in ("mpi", "flow", "constant"):
        for collectives in ("binomial", "flat"):
            metrics = f"{work}/m-{nodes}-{network}-{collectives}.json"
            subprocess.run(
                [replay, "--trace-dir", trace, "--np", "8", "--nodes", str(nodes),
                 "--network", network, "--collectives", collectives, "--metrics", metrics],
                check=True, stdout=subprocess.DEVNULL)
            cli = number_text(open(metrics).read(), "replay.simulated_time")
            req = {"op": "replay", "id": "w", "trace_dir": trace, "np": 8, "nodes": nodes,
                   "network": network, "collectives": collectives}
            f.write(json.dumps(req) + "\n")
            f.flush()
            resp = f.readline()
            assert json.loads(resp)["status"] == "ok", resp
            served = number_text(resp, "simulated_time")
            print(f"spec_agreement: nodes {nodes} {network:8} {collectives:8} cli {cli} serve {served}")
            if cli != served:
                sys.exit(f"spec_agreement: FAIL: the CLI and the daemon disagree: {cli} vs {served}")
            cells[(nodes, network, collectives)] = cli

if len(set(cells.values())) != len(cells):
    sys.exit(f"spec_agreement: FAIL: two what-ifs gave the same time: {cells}")
print(f"spec_agreement: {len(cells)} cells agree, all distinct")
EOF

exec {stdin_fd}>&-
wait "$pid"
