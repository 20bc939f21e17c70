"""Output checks.  Each returns a list of problems (empty when the
output is right); every problem counts as one failed op."""

from __future__ import annotations

from typing import Iterable, Mapping

from common import parse_value


def check_read(key: int, value, written: Mapping[int, set[int]]) -> list[str]:
    """A point read must return a value the benchmark wrote for ``key``."""
    if value is None:
        return [f"read {key}: missing, but the key was written"]
    parsed = parse_value(value)
    if parsed is None:
        return [f"read {key}: not a benchmark value: {bytes(value)[:40]!r}"]
    owner, version = parsed
    if owner != key:
        return [f"read {key}: returned the value of key {owner}"]
    if version not in written.get(key, ()):
        return [f"read {key}: version {version} was never written"]
    return []


def check_scan(
    rows: Iterable, lo: int, hi: int, limit: int, written: Mapping[int, set[int]]
) -> list[str]:
    """A range query must be sorted, inside ``[lo, hi)``, at most
    ``limit`` rows, and every row a value written for its key."""
    rows = list(rows)
    problems = []
    if len(rows) > limit:
        problems.append(f"scan [{lo}, {hi}): {len(rows)} rows > limit {limit}")
    previous = None
    for raw_key, value in rows:
        try:
            key = int(raw_key)
        except (TypeError, ValueError):
            problems.append(f"scan [{lo}, {hi}): undecodable key {raw_key!r}")
            continue
        if not lo <= key < hi:
            problems.append(f"scan [{lo}, {hi}): key {key} outside the range")
        if previous is not None and key <= previous:
            problems.append(f"scan [{lo}, {hi}): key {key} after {previous}")
        previous = key
        problems.extend(check_read(key, value, written))
    return problems


def check_readback(key: int, value, expected_version: int) -> list[str]:
    """After a drained closed loop, a key reads back its last acked value."""
    problems = check_read(key, value, {key: {expected_version}})
    return [f"readback: {problem}" for problem in problems]


def check_exit_codes(codes: Mapping[str, int]) -> list[str]:
    """Every node must drain and exit 0."""
    return [f"{name} exited with {code}" for name, code in sorted(codes.items()) if code != 0]


def check_explore(ok: bool, fingerprints: list[list[str]]) -> list[str]:
    """Every round reported no violation, and every repeat of the seed
    produced the first round's schedule fingerprints."""
    problems = [] if ok else ["explorer reported a violation"]
    for index, round_prints in enumerate(fingerprints[1:], start=1):
        if round_prints != fingerprints[0]:
            problems.append(f"round {index}: fingerprints differ from round 0")
    return problems


def check_lateness(late_ms_p99: float, limit_ms: float) -> list[str]:
    """An open-loop run is invalid when its generator fell behind: then
    the driver, not the cluster, set the measured latencies."""
    if late_ms_p99 <= limit_ms:
        return []
    return [
        f"generator p99 lateness {late_ms_p99:.1f} ms > {limit_ms:.0f} ms: "
        "the driver, not the cluster, limited this run"
    ]
