#!/bin/sh
# Checks the tier-1 suite cannot make inside one interpreter.  Run it
# from the repository root, with the package installed or with
#
#     PYTHONPATH=src sh .github/smoke.sh
#
# 1. Three campaign shards run as separate processes into private
#    stores.  `store merge` fuses them, a `--resume` from the merged
#    store must be pure replay (zero misses), and the resumed report
#    must be byte-identical to an unsharded run.
# 2. Pool timing floors, too noisy for tier-1: a clean supervised
#    campaign costs at most 5 % more than a bare process pool (best
#    of 2 each, byte-identical entries, no recovery events), and on
#    >= 4 cores the pool is at least 0.8x as fast as a serial run.
set -eu
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

# Exit code 1 means "ran fine, some jobs below 100 % coverage" (known
# tests that do not cover FL#1/FL#2); only >= 2 is a failure.
campaign() {
    python -m repro.cli campaign --fault-lists 1 2 --sizes 3 4 "$@" \
        || [ $? -le 1 ]
}

for shard in 1 2 3; do
    campaign --store "$work/shard-$shard.sqlite" --shard "$shard/3" \
        > /dev/null
done
python -m repro.cli store merge "$work/merged.sqlite" \
    "$work/shard-1.sqlite" "$work/shard-2.sqlite" "$work/shard-3.sqlite"
campaign --store "$work/merged.sqlite" --resume \
    --report-json "$work/resumed.json" > "$work/resume.txt"
tail -n 2 "$work/resume.txt"
grep -q ", 0 miss(es)" "$work/resume.txt"
campaign --report-json "$work/oracle.json" > /dev/null
cmp "$work/resumed.json" "$work/oracle.json"

python - <<'EOF'
import os
import time
from concurrent.futures import ProcessPoolExecutor

from repro.faults.lists import fault_list_1
from repro.march.known import ALL_KNOWN
from repro.sim.batch import auto_chunk_size, chunked
from repro.sim.campaign import CampaignEntry, CoverageCampaign
from repro.sim.coverage import qualify_outcomes, report_from_outcomes

tests = [known.test for known in ALL_KNOWN.values()]
lists = {"FL#1[:300]": list(fault_list_1()[:300])}
workers = max(2, os.cpu_count() or 1)


def supervised(count):
    result = CoverageCampaign(tests, lists, workers=count).run()
    assert not result.failure_report, result.summary()
    return result.wall_seconds, [e.to_dict() for e in result.entries]


def bare():
    """The pre-supervisor fan-out: each job's chunks on a plain pool,
    no timeouts, retries or checkpoints."""
    campaign = CoverageCampaign(tests, lists, workers=workers)
    start = time.perf_counter()
    entries = []
    with ProcessPoolExecutor(workers) as pool:
        for job in campaign.jobs():
            faults = campaign.fault_lists[job.fault_list]
            futures = [
                pool.submit(qualify_outcomes, job.test, chunk,
                            job.memory_size, campaign.exhaustive_limit,
                            job.lf3_layout, campaign.backend, job.width,
                            job.backgrounds)
                for chunk in chunked(
                    faults, auto_chunk_size(len(faults), workers))]
            outcomes, contexts = [], 0
            for future in futures:
                chunk_outcomes, chunk_contexts = future.result()
                outcomes += chunk_outcomes
                contexts += chunk_contexts
            entries.append(CampaignEntry(job, report_from_outcomes(
                job.test.name, faults, outcomes, contexts)).to_dict())
    return time.perf_counter() - start, entries


def best(run):
    return min((run() for _ in range(2)), key=lambda timed: timed[0])


serial, serial_entries = supervised(1)
pool, pool_entries = best(lambda: supervised(workers))
floor, bare_entries = best(bare)
assert serial_entries == pool_entries == bare_entries
overhead = pool / floor - 1.0
print(f"serial {serial:.2f}s, supervised {pool:.2f}s, bare {floor:.2f}s"
      f" on {workers} workers: overhead {overhead:+.1%}")
assert overhead <= 0.05, "supervisor overhead above 5 %"
if (os.cpu_count() or 1) >= 4:
    assert serial / pool >= 0.8, "pool slower than 0.8x serial"
EOF
echo "smoke: PASS"
