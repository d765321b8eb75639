#!/bin/sh
# End-to-end smoke test of the fedshapd binary. The heavy scenario
# matrix (kill+recover coordinator, worker death and reassignment,
# duplicate/dropped/reordered result frames, store-tier restarts) lives
# in tests/service_cluster_test.cc on ClusterFixture; this script keeps
# the thin slice only a real process can check: flag parsing, exit
# codes, state-directory layout on disk, and the fork()ed cluster path
# through main().
#
#   1. crash-recovery: a run halted mid-job (--kill-after, the
#      in-process stand-in for kill -9; exit code 17) must, restarted
#      over the same state directory, finish every job bit-identical to
#      an uninterrupted run.
#   2. cluster smoke: the same jobs through --cluster-workers=2
#      --cluster-mode=fork with a scripted kill-worker fault
#      (FEDSHAP_FAULT_SPEC) must survive the worker death — reassigning
#      its coalitions — and still print bit-identical values.
#
# Usage: fedshapd_restart_test.sh <fedshapd-binary> <scratch-dir>

BIN="$1"
DIR="$2"
if [ -z "$BIN" ] || [ -z "$DIR" ]; then
    echo "usage: $0 <fedshapd-binary> <scratch-dir>" >&2
    exit 2
fi

rm -rf "$DIR" || exit 1
mkdir -p "$DIR" || exit 1

JOBS="$DIR/jobs.txt"
cat > "$JOBS" <<'EOF'
# Resumable sweeps and a one-shot over one shared workload. Job d is the
# adaptive (Neyman) stratified sweep — the kill can land mid-epoch with
# the allocation state half-spent, the hardest resume case.
name=a estimator=ipss gamma=24 chunk=4 seed=5 scenario=linreg n=8 scenario-seed=5
name=b estimator=loo scenario=linreg n=8 scenario-seed=5
name=d estimator=stratified allocation=neyman gamma=24 chunk=4 seed=5 scenario=linreg n=8 scenario-seed=5
name=e estimator=perm-mc gamma=32 chunk=4 seed=7 scenario=linreg n=8 scenario-seed=5
EOF

# Reference: the uninterrupted single-process run.
"$BIN" --state-dir="$DIR/ref" --jobs="$JOBS" --workers=1 --quiet \
    --print-values > "$DIR/ref.out" || { echo "reference run failed"; exit 1; }
grep '^values' "$DIR/ref.out" | sort > "$DIR/ref.values"
[ -s "$DIR/ref.values" ] || { echo "reference produced no values"; exit 1; }

# Case 1 — crash simulation: halt after 2 slices; fedshapd signals the
# halt with exit code 17.
"$BIN" --state-dir="$DIR/crash" --jobs="$JOBS" --workers=1 \
    --kill-after=2 --quiet > "$DIR/crash1.out"
status=$?
if [ "$status" -ne 17 ]; then
    echo "expected halt exit code 17, got $status"
    cat "$DIR/crash1.out"
    exit 1
fi

# Restart over the same state dir, re-passing the same job file (the
# "rerun the same command" flow): identical specs resume instead of
# colliding.
"$BIN" --state-dir="$DIR/crash" --jobs="$JOBS" --workers=2 --quiet \
    --print-values \
    > "$DIR/crash2.out" || { echo "resumed run failed"; cat "$DIR/crash2.out"; exit 1; }
grep '^values' "$DIR/crash2.out" | sort > "$DIR/crash.values"

if ! diff "$DIR/ref.values" "$DIR/crash.values"; then
    echo "resumed values differ from the uninterrupted run"
    exit 1
fi
echo "kill+restart resumed all jobs bit-identically"

# Case 2 — sharded cluster with a scripted worker death: two fork()ed
# worker subprocesses, the one owning shard 0 dies after its 3rd fresh
# training (FEDSHAP_FAULT_SPEC; FEDSHAP_FAULT_SHARD targets the script).
# The coordinator must reassign the dead worker's coalitions to the
# survivor and print values bit-identical to the single-process
# reference — the acceptance invariant of the cluster work.
FEDSHAP_FAULT_SPEC='kill-worker:after=3' FEDSHAP_FAULT_SHARD=0 \
    "$BIN" --state-dir="$DIR/cluster" --jobs="$JOBS" --workers=1 \
    --cluster-workers=2 --cluster-mode=fork --quiet --print-values \
    > "$DIR/cluster.out" \
    || { echo "cluster run failed"; cat "$DIR/cluster.out"; exit 1; }
grep '^values' "$DIR/cluster.out" | sort > "$DIR/cluster.values"

if ! diff "$DIR/ref.values" "$DIR/cluster.values"; then
    echo "cluster values differ from the single-process run"
    exit 1
fi

# The fault must actually have fired and been survived: the summary
# line reports the lost worker and at least one reassigned coalition.
CLUSTER_LINE=$(grep '^\[fedshapd\] cluster ' "$DIR/cluster.out")
echo "$CLUSTER_LINE"
if echo "$CLUSTER_LINE" | grep -q 'lost=0'; then
    echo "cluster case never lost its scripted worker"
    exit 1
fi
if echo "$CLUSTER_LINE" | grep -q 'reassigned=0'; then
    echo "cluster case lost a worker but reassigned nothing"
    exit 1
fi
echo "cluster survived a worker death bit-identically"
rm -rf "$DIR"
exit 0
