"""Reference rows: what every timed row is checked against.

The reference for a workload and seed is the job-ordered row list the
``dense`` engine (the repository's reference engine) produces for the same
jobs, with the ``engine`` identity field normalized to ``"*"`` so that an
``incremental`` or ``batched`` row compares equal to its dense twin.  Each
row is reduced to an 8-hex-digit sha256 prefix, so a reference is one
string of ``8 * len(jobs)`` characters plus its verdict counts.

References for the seeds in ``reference_rows.json`` are pinned: computed
once and committed.  For any other seed the reference is computed on the
spot with the dense engine (outside every timed region) and kept in
``.perfbench/refs/`` inside the checkout, so later runs of the same seed
reuse it.  A pinned entry also pins the digest of its job list, so a
changed workload definition cannot be checked against stale rows.

Re-pin after a deliberate change of workload sizes with::

    python3 perfbench/reference.py --pin 0-19
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from dataclasses import replace
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
PINNED_PATH = HERE / "reference_rows.json"
DIGEST_CHARS = 8


def _row_line(row: Dict[str, object]) -> str:
    from repro.campaign.sinks import row_line

    return row_line(row)


def row_digest(row: Dict[str, object]) -> str:
    """The engine-normalized digest of one row."""
    normalized = dict(row, engine="*")
    normalized.pop("steps_per_sec", None)
    return hashlib.sha256(_row_line(normalized).encode("utf-8")).hexdigest()[:DIGEST_CHARS]


def jobs_digest(jobs: Sequence[object]) -> str:
    """Digest of the job list's identity blocks (engine-normalized)."""
    from repro.campaign.jobs import ROW_IDENTITY_ATTRS

    sha = hashlib.sha256()
    for job in jobs:
        identity = {key: getattr(job, attr) for key, attr in ROW_IDENTITY_ATTRS.items()}
        identity["engine"] = "*"
        sha.update(_row_line(identity).encode("utf-8"))
        sha.update(b"\n")
    return sha.hexdigest()


def summarize(rows: Sequence[Dict[str, object]], jobs: Sequence[object]) -> Dict[str, object]:
    """A reference entry for job-ordered ``rows`` of ``jobs``."""
    statuses: Dict[str, int] = {}
    for row in rows:
        status = str(row.get("status"))
        statuses[status] = statuses.get(status, 0) + 1
    return {
        "jobs": jobs_digest(jobs),
        "rows": "".join(row_digest(row) for row in rows),
        "statuses": dict(sorted(statuses.items())),
        "violations": sum(int(row.get("violations") or 0) for row in rows),
        "steps": sum(int(row.get("steps") or 0) for row in rows),
    }


def compute(jobs: Sequence[object], workers: int = 1) -> Dict[str, object]:
    """Run ``jobs`` on the dense engine and summarize the rows."""
    from repro.campaign import run_campaign

    dense = [replace(job, engine="dense") for job in jobs]
    result = run_campaign(dense, jobs=workers)
    return summarize(result.rows, jobs)


def load_pinned() -> Dict[str, Dict[str, Dict[str, object]]]:
    if not PINNED_PATH.exists():
        return {}
    with open(PINNED_PATH, "r", encoding="utf-8") as fh:
        return json.load(fh)["workloads"]


def reference_for(
    workload: str, seed: int, jobs: Sequence[object], cache_dir: Path, workers: int
) -> Tuple[Dict[str, object], str]:
    """``(reference, source)`` with source ``pinned``, ``cached`` or ``computed``.

    Raises ``ValueError`` when a pinned entry exists but was pinned for a
    different job list (the workload definition changed without re-pinning).
    """
    digest = jobs_digest(jobs)
    pinned = load_pinned().get(workload, {}).get(str(seed))
    if pinned is not None:
        if pinned["jobs"] != digest:
            raise ValueError(
                f"pinned reference for {workload} seed {seed} was made for another "
                "job list; re-pin with perfbench/reference.py --pin"
            )
        return pinned, "pinned"
    path = cache_dir / f"{workload}-{seed}-{digest[:16]}.json"
    if path.exists():
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh), "cached"
    reference = compute(jobs, workers=workers)
    cache_dir.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, sort_keys=True)
    os.replace(tmp, path)
    return reference, "computed"


def mismatches(reference: Dict[str, object], rows: Sequence[Dict[str, object]]) -> List[int]:
    """Job-order positions whose row is an error or differs from the reference."""
    expected = str(reference["rows"])
    if len(expected) != DIGEST_CHARS * len(rows):
        return list(range(len(rows)))
    bad = []
    for position, row in enumerate(rows):
        want = expected[DIGEST_CHARS * position:DIGEST_CHARS * (position + 1)]
        if row.get("status") == "error" or row_digest(row) != want:
            bad.append(position)
    return bad


def _parse_seeds(text: str) -> List[int]:
    seeds: List[int] = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def pin(seeds: Sequence[int], workloads: Sequence[str], workers: int) -> None:
    """Compute dense references for ``seeds`` and merge them into the pinned file."""
    from workloads import build_jobs

    pinned = load_pinned()
    for name in workloads:
        for seed in seeds:
            jobs = build_jobs(name, seed)
            pinned.setdefault(name, {})[str(seed)] = compute(jobs, workers=workers)
            print(f"pinned {name} seed {seed}: {pinned[name][str(seed)]['statuses']}", flush=True)
            ordered = {
                workload: dict(sorted(entries.items(), key=lambda item: int(item[0])))
                for workload, entries in sorted(pinned.items())
            }
            tmp = PINNED_PATH.with_suffix(".tmp")
            with open(tmp, "w", encoding="utf-8") as fh:
                json.dump({"format": 1, "workloads": ordered}, fh, indent=1, sort_keys=True)
                fh.write("\n")
            os.replace(tmp, PINNED_PATH)


def main(argv: Optional[Sequence[str]] = None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pin", required=True, help="seeds to pin, e.g. 0-19 or 1,5,9")
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    parser.add_argument("--workers", type=int, default=min(2, os.cpu_count() or 1))
    args = parser.parse_args(argv)
    pin(_parse_seeds(args.pin), args.workload or list(WORKLOADS), args.workers)
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(HERE.parent / "src"))
    sys.exit(main())
