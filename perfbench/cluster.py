"""A durable localhost cluster of ``node_main.py`` processes.

Builds the spec with :func:`repro.live.harness.localhost_spec` and
serialises it with :func:`repro.live.node.spec_to_dict` — the same
public pieces :class:`~repro.live.harness.LocalCluster` uses — but
launches each node through the benchmark's own entrypoint, so traced
and untraced runs start nodes the same way and every node reports its
CPU time and ``/proc/self/io`` counters at exit.
"""

from __future__ import annotations

import json
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

from common import BENCH_DIR, node_env, proc_cpu_s, proc_io

#: The benchmark topology: 1 Ingestor, 2 Compactors, 1 Reader.
TOPOLOGY = (1, 2, 1)
#: SIGTERM order: each role drains into the next one.
STOP_ORDER = ("ingestor", "compactor", "reader")


def make_spec(config):
    """A localhost spec whose addresses are all distinct: ports come
    from separate bind-to-0 probes, which can hand out one port twice."""
    from repro.live.harness import localhost_spec

    while True:
        spec = localhost_spec(*TOPOLOGY, num_clients=1, config=config)
        if len(set(spec.addresses.values())) == len(spec.addresses):
            return spec


class BenchCluster:
    """Launch, probe, sample and stop one cluster.

    ``data_dir`` holds ``<node>/`` store directories (copy a preload in
    before :meth:`start` to restore it); ``work_dir`` gets the spec,
    node logs, exit stats and, with ``trace``, each node's trace.
    """

    def __init__(self, spec, work_dir: Path, data_dir: Path, trace: bool = False) -> None:
        self.spec = spec
        self.work_dir = Path(work_dir)
        self.data_dir = Path(data_dir)
        self.trace = trace
        self.processes: dict[str, subprocess.Popen] = {}
        self.exit_codes: dict[str, int] = {}

    def role(self, name: str) -> str:
        return self.spec.role_of(name)

    def _path(self, name: str, kind: str) -> Path:
        return self.work_dir / f"{name}.{kind}"

    def start(self, timeout: float = 60.0) -> float:
        """Launch every node; return seconds until all accept connections."""
        from repro.live.node import spec_to_dict

        self.work_dir.mkdir(parents=True, exist_ok=True)
        self.data_dir.mkdir(parents=True, exist_ok=True)
        spec_path = self.work_dir / "cluster.json"
        spec_path.write_text(json.dumps(spec_to_dict(self.spec)))
        started = time.monotonic()
        for name in self.spec.launch_names:
            command = [
                sys.executable, str(BENCH_DIR / "node_main.py"),
                "--stats-out", str(self._path(name, "stats.json")),
            ]
            if self.trace:
                command += ["--trace-out", str(self._path(name, "trace.json"))]
            command += [
                "--", "serve", "--spec", str(spec_path), "--node", name,
                "--data-dir", str(self.data_dir),
            ]
            with open(self._path(name, "log"), "w") as log:
                self.processes[name] = subprocess.Popen(
                    command, stdout=log, stderr=subprocess.STDOUT, env=node_env()
                )
        deadline = started + timeout
        for name in self.processes:
            self._wait_ready(name, deadline)
        return time.monotonic() - started

    def _wait_ready(self, name: str, deadline: float) -> None:
        log_path = self._path(name, "log")
        while True:
            code = self.processes[name].poll()
            if code is not None:
                tail = log_path.read_text(errors="replace").splitlines()[-3:]
                raise RuntimeError(f"{name} exited with {code}: {' | '.join(tail)}")
            if "READY " in log_path.read_text(errors="replace"):
                try:
                    with socket.create_connection(self.spec.address(name), timeout=0.25):
                        return
                except OSError:
                    pass
            if time.monotonic() > deadline:
                raise TimeoutError(f"{name} not ready; see {log_path}")
            time.sleep(0.02)

    def cpu_s(self) -> dict[str, float]:
        """CPU seconds used so far, per node."""
        return {name: proc_cpu_s(p.pid) for name, p in self.processes.items()}

    def write_bytes(self) -> dict[str, int]:
        return {
            name: proc_io(p.pid).get("write_bytes", 0)
            for name, p in self.processes.items()
        }

    def stop(self, timeout: float = 60.0) -> dict[str, int]:
        """SIGTERM role by role, waiting for each role to drain; a node
        that does not exit in time is killed (exit -9)."""
        for role in STOP_ORDER:
            wave = [n for n in self.processes if self.role(n) == role]
            for name in wave:
                if self.processes[name].poll() is None:
                    self.processes[name].send_signal(signal.SIGTERM)
            for name in wave:
                try:
                    self.exit_codes[name] = self.processes[name].wait(timeout=timeout)
                except subprocess.TimeoutExpired:
                    self.processes[name].kill()
                    self.exit_codes[name] = self.processes[name].wait()
        return dict(self.exit_codes)

    def kill(self) -> None:
        for process in self.processes.values():
            if process.poll() is None:
                process.kill()
            process.wait()

    def exit_stats(self) -> dict[str, dict]:
        """Each node's ``node_main`` exit record (absent if it was killed)."""
        stats = {}
        for name in self.processes:
            path = self._path(name, "stats.json")
            if path.exists():
                stats[name] = json.loads(path.read_text())
        return stats

    def traces(self) -> dict[str, dict]:
        traces = {}
        for name in self.processes:
            path = self._path(name, "trace.json")
            if path.exists():
                traces[name] = json.loads(path.read_text())
        return traces

    def __enter__(self) -> "BenchCluster":
        return self

    def __exit__(self, *exc_info) -> None:
        self.kill()
