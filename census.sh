#!/bin/sh
# census.sh is `make census`: the dynamic half of TestReachable. It builds
# every cmd/ binary with -cover -coverpkg=repro/..., runs the fixed production
# corpus below under GOCOVERDIR (the CLIs, then the four ledger workloads,
# whose nocd child inherits the coverage build through GOFLAGS), and lists
# every function outside bench/ that never ran. Error, Unwrap, String and
# GoString methods, the CLIs' fatal, and the names in testdata/reach_allow.txt
# are left out. The list is written to CENSUS.txt and compared with
# testdata/census.txt: a function that never runs and is not listed there, or
# a listed one that now runs, fails the census. Everything else it writes goes
# to a temporary directory that it removes.
set -eu
export LC_ALL=C

GO=${GO:-go}
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
bin=$tmp/bin
out=$tmp/out
mkdir -p "$bin" "$out" "$tmp/cov"
export GOCOVERDIR="$tmp/cov"

# step runs one corpus command quietly, showing its output only on failure.
step() {
	echo "census: $*"
	if ! "$@" >"$tmp/log" 2>&1; then
		tail -n 20 "$tmp/log"
		echo "census: FAIL: $*"
		exit 1
	fi
}

$GO build -cover -coverpkg=repro/... -o "$bin/" ./cmd/...

step "$bin/paperfigs" -fig all
step "$bin/paperfigs" -quick -fig all

# Traces: every flat and hier netgen cell below reads one.
for cell in BT/16 CG/16 FFT/16 MG/16 SP/16 BT/36 SP/36 FFT/32 MG/32 \
	BT/64 CG/64 FFT/64 MG/64 SP/64 CG/256 BT/256 \
	ring-allreduce/64 tree-broadcast/64; do
	step "$bin/tracegen" -bench "${cell%/*}" -procs "${cell#*/}" -o "$out/${cell%/*}${cell#*/}.trace"
done
step "$bin/tracegen" -bench CG -procs 16 -skew 3 -o "$out/skew.trace"
step "$bin/tracegen" -bench CG -procs 16 -clusters 4 -report "$out/tracegen.json" -o "$out/split.trace"

for cell in BT/16 CG/16 FFT/16 MG/16 SP/16 BT/36 SP/36 FFT/32 MG/32 \
	BT/64 CG/64 FFT/64 MG/64 SP/64 ring-allreduce/64 tree-broadcast/64; do
	step "$bin/netgen" -trace "$out/${cell%/*}${cell#*/}.trace" -report "$out/netgen.json" -o "$out/${cell%/*}${cell#*/}.json"
done
for cell in CG/16@4 FFT/16@4 ring-allreduce/64@8 BT/36@9 FFT/32@4 MG/64@8 \
	BT/64@8 SP/64@16 CG/256@16 BT/256@16; do
	trace=$(echo "${cell%@*}" | tr -d /)
	step "$bin/netgen" -trace "$out/$trace.trace" -clusters "${cell#*@}" \
		-report "$out/netgen.json" -o "$out/$trace@${cell#*@}.json"
done
step "$bin/netgen" -trace "$out/CG16.trace" -clusters '0-3;4-7;8-11;12-15' -report "$out/netgen.json"

for topo in mesh torus ring crossbar; do
	step "$bin/netsim" -trace "$out/CG16.trace" -topo "$topo" -report "$out/netsim.json"
done
step "$bin/netsim" -trace "$out/CG16.trace" -topo generated -net "$out/CG16.json"
step "$bin/netsim" -trace "$out/CG16.trace" -topo generated -net "$out/CG16@4.json"
# A foreign trace, written by hand rather than by tracegen, and a trace with
# no phase lines, whose schedule the simulator derives itself.
cat >"$out/foreign.trace" <<'EOF'
noctrace v1
name foreign
procs 6
msg 0 0 5 0 40 4096
msg 1 5 0 0 40 4096
msg 2 1 4 10 30 1024
msg 3 2 3 10 30 1024
msg 4 3 1 50 90 8192
msg 5 4 2 50 90 8192
phase a 0 40 5 0 1 2 3
phase b 50 90 0 4 5
EOF
step "$bin/netsim" -trace "$out/foreign.trace" -topo mesh
grep -v '^phase' "$out/MG16.trace" >"$out/nophase.trace"
step "$bin/netsim" -trace "$out/nophase.trace" -topo torus

printf 'BenchmarkA-2 1 200 ns/op\nBenchmarkB-2 1 100 ns/op\n' >"$out/bench.txt"
step "$bin/benchratio" -ratio BenchmarkA:BenchmarkB -min-ratio 1 <"$out/bench.txt"

# The ledger's workloads, each against its own coverage-built nocd.
for w in cold_synth warm_variants hit_replay paper_cells; do
	step env GOFLAGS='-cover -coverpkg=repro/...' $GO run ./bench -workload "$w" -seed 1 -seconds 5 -trace 1 -out "$out/bench"
done

# The never-run functions, as TestReachable names them: the package's
# directory without internal/, then Name or Type.Method.
$GO tool covdata func -i "$GOCOVERDIR" | awk '
	$NF == "0.0%" && $1 ~ /^repro\// && $1 !~ /^repro\/bench\// {
		pkg = $1
		sub(/\/[^\/]*$/, "", pkg)
		sub(/^repro\//, "", pkg)
		sub(/^internal\//, "", pkg)
		name = $2
		sub(/^\*/, "", name)
		gsub(/\[[^]]*\]/, "", name)
		if (name == "fatal" || name ~ /\.(Error|Unwrap|String|GoString)$/)
			next
		print pkg "." name
	}' | sort -u >"$tmp/never"
grep -v '^#' testdata/reach_allow.txt | sed -n 's/ — .*//p' | sort >"$tmp/allow"
comm -23 "$tmp/never" "$tmp/allow" >CENSUS.txt
grep -v '^#' testdata/census.txt | sed -n 's/ — .*//p' | sort >"$tmp/listed"

echo "census: $(wc -l <CENSUS.txt) functions never ran (CENSUS.txt):"
cat CENSUS.txt
status=0
for name in $(comm -23 CENSUS.txt "$tmp/listed"); do
	echo "census: FAIL: $name never runs: give it a corpus workload that runs it, move it to a _test.go file, delete it, or list it in testdata/census.txt with a reason"
	status=1
done
for name in $(comm -13 CENSUS.txt "$tmp/listed"); do
	echo "census: FAIL: testdata/census.txt lists $name, which now runs or no longer exists: drop the line"
	status=1
done
exit $status
