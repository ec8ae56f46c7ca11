"""Process and directory plumbing shared by the workloads.

A :class:`Session` owns everything one benchmark run starts: each
program process runs in its own process group (so the worker processes
it spawns can be reaped with it) and writes only under the session's
directory inside the checkout. Closing the session stops every process
group, counts any that outlived their shutdown as leaks, and deletes
the directory, whether the run passed or failed.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RUNS_DIR = ROOT / ".perfbench-runs"
LAUNCH = BENCH_DIR / "launch.py"


def load_config() -> dict:
    """``workloads.json``, plus ``run_seconds`` from ``BENCHMARK.json``."""
    with open(BENCH_DIR / "workloads.json", encoding="utf8") as handle:
        config = json.load(handle)
    with open(ROOT / "BENCHMARK.json", encoding="utf8") as handle:
        config["run_seconds"] = json.load(handle)["run_seconds"]
    return config


def peak_rss_mb(pid: int) -> float:
    """A live process's peak resident set (VmHWM), 0 if it is gone."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except FileNotFoundError:
        pass
    return 0.0


def tree_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def group_members(pgid: int) -> "list[int]":
    """Live (non-zombie) processes in process group ``pgid``."""
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii", errors="replace") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if fields[0] != "Z" and int(fields[2]) == pgid:
            members.append(int(entry))
    return members


def kill_group(pgid: int) -> None:
    if group_members(pgid):
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            pass


class Session:
    """The processes and scratch directory of one benchmark run."""

    def __init__(self, name: str):
        RUNS_DIR.mkdir(exist_ok=True)
        self.dir = RUNS_DIR / f"{name}-{os.getpid()}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir()
        self._groups: "list[int]" = []
        self.leaked = 0

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def subdir(self, name: str) -> Path:
        path = self.dir / name
        path.mkdir(parents=True, exist_ok=True)
        return path

    def env(self, trace_dir: "Path | None" = None) -> dict:
        """The program's environment: this checkout's sources, the
        documented defaults (no inherited ``REPRO_*`` knobs), and temp
        files under the session directory. ``trace_dir`` turns on the
        span tracer in every process the program starts."""
        env = {k: v for k, v in os.environ.items() if not k.startswith(("REPRO_", "PERFBENCH_"))}
        paths = [str(SRC)]
        if trace_dir is not None:
            paths.insert(0, str(BENCH_DIR / "hook"))
            env["PERFBENCH_TRACE_DIR"] = str(trace_dir)
        if os.environ.get("PYTHONPATH"):
            paths.append(os.environ["PYTHONPATH"])
        env["PYTHONPATH"] = os.pathsep.join(paths)
        env["TMPDIR"] = str(self.subdir("tmp"))
        return env

    def launch(self, entry: str, marks: Path, args, cwd: Path, env: dict, stdout=None):
        """Start ``launch.py ENTRY`` in a fresh interpreter and process
        group; returns ``(process, spawn time)``."""
        cmd = [sys.executable, str(LAUNCH), entry, str(marks), *map(str, args)]
        with open(cwd / f"{entry}.log", "ab") as log:
            spawned = time.monotonic()
            proc = subprocess.Popen(
                cmd,
                cwd=cwd,
                env=env,
                stdin=subprocess.DEVNULL,
                stdout=stdout if stdout is not None else subprocess.DEVNULL,
                stderr=log,
                start_new_session=True,
            )
        self._groups.append(proc.pid)
        return proc, spawned

    def call(self, entry: str, args, cwd: Path, env: dict, timeout: float = 170.0) -> dict:
        """Run one entry to completion; its marks, plus ``code`` (the
        exit code, -1 on timeout), ``spawned`` and ``exited``."""
        marks_file = cwd / f"{entry}.marks.json"
        with open(cwd / f"{entry}.out", "wb") as out:
            proc, spawned = self.launch(entry, marks_file, args, cwd, env, stdout=out)
            try:
                code = proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                self.stop(proc)
                code = -1
        exited = time.monotonic()
        marks = json.loads(marks_file.read_text()) if marks_file.exists() else {}
        marks.update(code=code, spawned=spawned, exited=exited)
        return marks

    def stop(self, proc: subprocess.Popen, grace_s: float = 30.0) -> int:
        """SIGINT the process (a clean shutdown), then SIGKILL its whole
        group if it has not exited after ``grace_s``; returns the exit
        code. Children left behind are reaped (and counted) by close()."""
        if proc.poll() is None:
            proc.send_signal(signal.SIGINT)
            try:
                proc.wait(timeout=grace_s)
            except subprocess.TimeoutExpired:
                kill_group(proc.pid)
        return proc.wait()

    def settle(self, proc: subprocess.Popen, timeout_s: float = 10.0) -> None:
        """Wait up to ``timeout_s`` for the rest of ``proc``'s process
        group (its workers) to exit."""
        deadline = time.monotonic() + timeout_s
        while group_members(proc.pid) and time.monotonic() < deadline:
            time.sleep(0.05)

    def close(self) -> None:
        # Workers exit by themselves once their supervisor is gone; give
        # them a moment before counting stragglers as leaks.
        deadline = time.monotonic() + 10.0
        for pgid in self._groups:
            while group_members(pgid) and time.monotonic() < deadline:
                time.sleep(0.05)
            if group_members(pgid):
                self.leaked += 1
                kill_group(pgid)
        deadline = time.monotonic() + 10.0
        while any(group_members(g) for g in self._groups) and time.monotonic() < deadline:
            time.sleep(0.05)
        shutil.rmtree(self.dir, ignore_errors=True)
        try:
            RUNS_DIR.rmdir()
        except OSError:
            pass  # another run's directory is still there
