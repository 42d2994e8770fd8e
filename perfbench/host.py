"""Host and commit attribution carried by every benchmark result record.

A pool-dispatched throughput number means little without the box it ran
on: ``nproc`` says how many workers may run, the cgroup quota says how
many may actually burn CPU at once, the load average says what else was
running, and the two-burner slowdown says how much two concurrent
CPU-bound processes slow each other down here (1.0 = perfect scaling).
"""

from __future__ import annotations

import hashlib
import os
import platform
import subprocess
import sys
from pathlib import Path
from statistics import median
from typing import Dict, List, Optional

# Busy loop timed inside each child, so interpreter start-up is excluded.
_BURNER = (
    "import time\n"
    "t = time.perf_counter()\n"
    "x = 0\n"
    "for i in range(3_000_000):\n"
    "    x += i * i\n"
    "print(time.perf_counter() - t)\n"
)


def _burn(count: int) -> List[float]:
    """Start ``count`` burners at once; return each one's own busy time."""
    procs = [
        subprocess.Popen(
            [sys.executable, "-c", _BURNER], stdout=subprocess.PIPE, text=True
        )
        for _ in range(count)
    ]
    times = []
    for proc in procs:
        out, _ = proc.communicate(timeout=60)
        times.append(float(out))
    return times


def parallel_slowdown() -> float:
    """Mean busy time of two concurrent burners ÷ that of one burner alone."""
    solo = median(_burn(1)[0] for _ in range(2))
    pair = _burn(2)
    return sum(pair) / len(pair) / solo


def _commit(root: Path) -> Optional[str]:
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def source_digest(root: Path) -> str:
    """sha256 over ``src/`` (paths and bytes): identifies the code measured.

    Stands in for the commit when the checkout is not a git repository.
    """
    sha = hashlib.sha256()
    src = root / "src"
    for path in sorted(src.rglob("*.py")):
        sha.update(str(path.relative_to(src)).encode("utf-8") + b"\0")
        sha.update(path.read_bytes())
    return sha.hexdigest()


def _cgroup_quota() -> Optional[float]:
    """CPUs granted by the cgroup quota, or ``None`` when unlimited/unknown."""
    try:
        quota, period = Path("/sys/fs/cgroup/cpu.max").read_text().split()[:2]
        return None if quota == "max" else int(quota) / int(period)
    except (OSError, ValueError):
        pass
    try:
        quota = int(Path("/sys/fs/cgroup/cpu/cpu.cfs_quota_us").read_text())
        period = int(Path("/sys/fs/cgroup/cpu/cpu.cfs_period_us").read_text())
        return None if quota <= 0 else quota / period
    except (OSError, ValueError):
        return None


def host_record(root: Path, loadavg: Optional[tuple]) -> Dict[str, object]:
    """Everything needed to read a result against the box it came from."""
    return {
        "commit": _commit(root),
        "source_sha256": source_digest(root),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cgroup_cpu_quota": _cgroup_quota(),
        "loadavg_start": list(loadavg) if loadavg is not None else None,
        "parallel_slowdown_2": round(parallel_slowdown(), 3),
    }


def start_loadavg() -> Optional[tuple]:
    try:
        return os.getloadavg()
    except OSError:
        return None
