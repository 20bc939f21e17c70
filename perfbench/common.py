"""Shared helpers: paths, value encoding, /proc readers and
the environment stamp.

Nothing here imports :mod:`repro`; the workload modules do, after
:func:`require_source_tree` has put ``src/`` on ``sys.path``.
"""

from __future__ import annotations

import hashlib
import os
import platform
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: Scratch space for clusters, preloads and traces; lives inside the
#: checkout and is removed when a run ends.
WORK_ROOT = ROOT / ".perfbench_work"

#: Every value is ``<20-digit key>:<10-digit version>:`` padded to this
#: many bytes, so a read can be checked against the key it was read for
#: and the versions the benchmark wrote for it.
VALUE_BYTES = 100
#: Bytes of one encoded integer key (``repro.lsm.entry.encode_key``).
KEY_BYTES = 20
USER_BYTES_PER_OP = KEY_BYTES + VALUE_BYTES


#: (name, unit, better) of the end-to-end metrics every workload reports.
#: Latency percentiles and CPU per op are printed by name but not
#: bounded: on a shared VM they spread, or drift hour to hour, by more than
#: any allowed bound (see README.md).
END_TO_END: list[tuple[str, str, str]] = [
    ("setup_s", "s", "lower"),
    ("ops_s", "1/s", "higher"),
]


@dataclass
class RunResult:
    """One workload run.  ``end_to_end`` holds :data:`END_TO_END`;
    ``named`` the workload's own figures by their descriptive names
    (``upsert_p99_ms``, ``write_amp`` ...) as ``(value, unit)``."""

    end_to_end: dict[str, float]
    named: dict[str, tuple[float, str]]
    attempted: int
    failed: int
    problems: list[str] = field(default_factory=list)
    layers: dict[str, float] | None = None
    info: dict = field(default_factory=dict)


class SourceMissing(RuntimeError):
    """The checkout has no ``src/repro`` to benchmark."""


def require_source_tree() -> None:
    """Put ``src/`` first on ``sys.path``; raise if the package is absent."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SourceMissing(f"no repro package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def node_env() -> dict[str, str]:
    """Environment for node subprocesses: ``src/`` on the import path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return env


# ----------------------------------------------------------------------
# Values
# ----------------------------------------------------------------------
def make_value(key: int, version: int) -> bytes:
    head = b"%020d:%010d:" % (key, version)
    return head + b"." * (VALUE_BYTES - len(head))


def parse_value(value: bytes) -> tuple[int, int] | None:
    """``(key, version)`` of a benchmark value, or None if it is not one."""
    if not isinstance(value, (bytes, bytearray)) or len(value) != VALUE_BYTES:
        return None
    try:
        key, version = value[:20], value[21:31]
        if value[20:21] != b":" or value[31:32] != b":":
            return None
        return int(key), int(version)
    except ValueError:
        return None


# ----------------------------------------------------------------------
# /proc and the file system
# ----------------------------------------------------------------------
def proc_cpu_s(pid: int) -> float:
    """CPU seconds a live process has run so far, summed over its threads
    from ``/proc/<pid>/task/*/schedstat`` (nanoseconds; ``/proc/<pid>/stat``
    counts 10 ms ticks, too coarse for a node that uses ~0.2 s of CPU in a
    run).  0.0 once the process is gone."""
    total = 0
    try:
        tasks = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return 0.0
    for task in tasks:
        try:
            with open(f"/proc/{pid}/task/{task}/schedstat") as schedstat:
                total += int(schedstat.read().split()[0])
        except (OSError, ValueError, IndexError):
            pass
    return total / 1e9


def proc_io(pid: int | str = "self") -> dict[str, int]:
    try:
        with open(f"/proc/{pid}/io") as io:
            return {
                name: int(value)
                for name, value in (line.split(":") for line in io if ":" in line)
            }
    except OSError:
        return {}


def tree_bytes(path: Path) -> int:
    """Apparent size of every regular file under ``path``."""
    total = 0
    for directory, __, files in os.walk(path):
        for name in files:
            try:
                total += os.lstat(os.path.join(directory, name)).st_size
            except OSError:
                pass
    return total


# ----------------------------------------------------------------------
# Environment stamp
# ----------------------------------------------------------------------
def _mount_of(path: Path) -> dict[str, str]:
    """File-system type and options of the mount holding ``path``."""
    best: tuple[str, str, str] = ("", "unknown", "unknown")
    target = str(path.resolve())
    try:
        with open("/proc/self/mounts") as mounts:
            for line in mounts:
                parts = line.split()
                if len(parts) < 4:
                    continue
                point = parts[1].replace("\\040", " ")
                inside = target == point or target.startswith(point.rstrip("/") + "/")
                if inside and len(point) >= len(best[0]):
                    best = (point, parts[2], parts[3])
    except OSError:
        pass
    return {"mount": best[0], "fstype": best[1], "options": best[2]}


def source_digest() -> str:
    """Content hash of ``src/`` — identifies the code in a checkout that
    is not a git repository."""
    hasher = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        hasher.update(str(path.relative_to(SRC)).encode())
        hasher.update(path.read_bytes())
    return hasher.hexdigest()[:16]


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def environment_stamp(config_flags: dict) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "git_commit": _git_commit(),
        "source_sha256": source_digest(),
        "config": config_flags,
        "data_fs": _mount_of(WORK_ROOT),
    }
