"""Record bench/reference.json: the outputs of every pool entry.

Run from the root of a checkout, at the commit whose outputs become the
reference (it takes about two minutes on a 2-core machine):

    python3 bench/record_reference.py

Every entry must pass its manifest, finiteness and invariant checks before
its outputs are recorded. The file also records the environment it was made
in and the digest of each generated config, so that a change to the
generator shows up as a failing job, not as a silent mismatch.
"""

import json
import shutil
import sys

import run  # pins the BLAS threads before numpy loads
from run import ROOT, WORK, REFERENCE, checks, jobs


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    keys = jobs.pool_keys()
    work = WORK / "record"
    shutil.rmtree(work, ignore_errors=True)
    entries, bad = {}, []
    for job in run.prepare(keys, work):
        latency, error = run.run_job(job)
        if error:
            bad.append(f"{job['key']}: {error}")
            continue
        files = checks.read_outputs(job["dir"] / "out")
        tables = checks.parse_tables(files)
        problems = checks.manifest_problems(files) + checks.finiteness_problems(files, tables)
        problems += checks.invariant_problems(job["kind"], files, tables)
        if problems:
            bad.append(f"{job['key']}: {'; '.join(problems)}")
            continue
        entries[job["key"]] = {"digest": job["digest"]} | checks.summarize(files, tables)
        print(f"{latency:8.3f} s  {job['key']}")
    shutil.rmtree(work, ignore_errors=True)
    if bad:
        print("\n".join(["pool entries that fail:"] + bad), file=sys.stderr)
        return 1
    REFERENCE.write_text(json.dumps({"environment": run.environment(), "entries": entries}, indent=0, sort_keys=True) + "\n")
    print(f"wrote {len(entries)} entries to {REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
