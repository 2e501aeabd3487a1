"""Host and provenance: what ran, where, on which source, at what speed.

The shared host's CPU speed drifts: the same engine window took
5.5-8.3 s within seven minutes, and a fixed pure-Python loop varied in
step with it.  :class:`HostSpeed` times that loop in short chunks
interleaved with the measured work, and every end-to-end timing is
scaled by ``REFERENCE_CHUNK_S / mean chunk time``: it is reported in
seconds at the reference speed.  The raw figures are printed beside
the scaled ones.
"""

from __future__ import annotations

import hashlib
import os
import platform
import resource
import subprocess
import time
from pathlib import Path

__all__ = ["HostSpeed", "record", "placement", "peak_rss_mb"]

CHUNK_ITERATIONS = 3000
# About the chunk's median CPU time on the 2-CPU Xeon host the
# benchmark was sized on, so scaled figures read like raw ones there.
REFERENCE_CHUNK_S = 280e-6
WARMUP_ITERATIONS = 300
_TABLE = dict.fromkeys(range(256), 0)


def _spin(iterations: int) -> None:
    table = _TABLE
    for i in range(iterations):
        key = i & 255
        table[key] = table[key] + 1


class HostSpeed:
    """How fast the host runs right now, sampled between units of work.

    The calibration loop touches one small table and allocates nothing
    the garbage collector tracks, so the program's heap does not slow
    it; only the CPU does.  It is timed in thread CPU time, so another
    process preempting the sampler does not count.
    """

    def __init__(self, chunks=()) -> None:
        self.chunks: list[float] = list(chunks)
        self.spent_s = 0.0  # CPU the sampling itself took, warm-up included

    def sample(self) -> None:
        began = time.thread_time()
        _spin(WARMUP_ITERATIONS)  # refill the caches the work evicted
        start = time.thread_time()
        _spin(CHUNK_ITERATIONS)
        end = time.thread_time()
        self.chunks.append(end - start)
        self.spent_s += end - began

    def chunk_s(self) -> float:
        """Mean seconds per chunk (the reference if nothing was sampled)."""
        return sum(self.chunks) / len(self.chunks) if self.chunks else REFERENCE_CHUNK_S

    def factor(self) -> float:
        """Multiply a measured time by this to express it at reference speed."""
        return REFERENCE_CHUNK_S / self.chunk_s()

    def scale_each(self, times) -> list[float]:
        """Each time at reference speed, by the sample taken right after it."""
        if len(times) != len(self.chunks):
            raise ValueError(f"{len(times)} times, {len(self.chunks)} speed samples")
        return [t * REFERENCE_CHUNK_S / c for t, c in zip(times, self.chunks)]

    def summary(self) -> dict:
        return {
            "chunks": len(self.chunks),
            "chunk_us": self.chunk_s() * 1e6,
            "reference_chunk_us": REFERENCE_CHUNK_S * 1e6,
            "factor": self.factor(),
        }


def peak_rss_mb() -> float:
    """This process's resident-set high-water mark, in MiB (Linux KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def placement(role: str) -> dict:
    """Which process did what, and on which CPUs it could run."""
    allowed = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None
    return {"pid": os.getpid(), "cpus_allowed": allowed, "role": role}


def _commit(root: Path):
    """The checked-out commit (None outside a git repository)."""
    try:
        found = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
            # Not the commit of a repository the checkout happens to sit in.
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(root.parent)},
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return found.stdout.strip() if found.returncode == 0 else None


def _source_digest(src: Path) -> str:
    """SHA-256 over every program source file (paths and contents)."""
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def record(root: Path, seed: int) -> dict:
    """The host record every result carries."""
    return {
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "commit": _commit(root),
        "source_sha256": _source_digest(root / "src"),
        "seed": seed,
        "seed_use": (
            "salts the serve client sequence only; the engine workloads "
            "have no seed and do not depend on it"
        ),
    }
