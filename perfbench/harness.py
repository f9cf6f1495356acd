"""Environment control, stamps and helpers shared by every workload."""

from __future__ import annotations

import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import pace

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"


def control_environment() -> Dict[str, str]:
    """Switch this process to the environment every program process of a
    run sees, and return it for the processes it starts.

    Call it before the program is imported (faults arm at import).  Faults and the import self-check stay off and the solver backend is
    pinned to the pure-Python core.  ``REPRO_CACHE_DIR`` is unset, so no
    process reads architecture tables an earlier one left on disk, nor pays
    for writing them (1.9 s for grid8's 8! table on ext4, against 1.0 s to
    build it).  Result stores get explicit fresh directories instead.
    """
    env = dict(os.environ)
    for name in ("REPRO_FAULTS", "REPRO_CHECK_IMPORTS", "REPRO_CACHE_DIR"):
        env.pop(name, None)
    env["REPRO_SOLVER_BACKEND"] = "pure"
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    os.environ.clear()
    os.environ.update(env)
    return env


def quantile(values: Sequence[float], q: float) -> float:
    """Nearest-rank quantile (an observed value, no interpolation)."""
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1, int(q * len(ordered) + 0.5) - 1))
    return ordered[rank]


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def calibrate() -> float:
    """Seconds for 100 pace loops in a row: shows machine-speed drift."""
    return sum(pace.loop() for _ in range(100))


def pace_line(measured: Sequence[float], factors: Sequence[float]) -> str:
    """Report line: each timed round's measured seconds and pace factor."""
    return "  pace: " + "  ".join(
        f"round {number} {seconds:.3f} s x {factor:.3f}"
        for number, (seconds, factor) in enumerate(zip(measured, factors), start=1)
    )


def vm_hwm_mb(pid: int | str = "self") -> float:
    """Peak resident set size (VmHWM) of a process, in MB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


def cpu_seconds(pid: int) -> float:
    """User plus system CPU seconds of a live process."""
    with open(f"/proc/{pid}/stat") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def filesystem_of(path: Path) -> str:
    """Filesystem type of the mount holding *path* (from /proc/mounts)."""
    target = str(path.resolve())
    best, kind = "", "unknown"
    with open("/proc/mounts") as handle:
        for line in handle:
            parts = line.split()
            mount, fstype = parts[1], parts[2]
            if (target == mount or target.startswith(mount.rstrip("/") + "/")) and len(mount) > len(best):
                best, kind = mount, fstype
    return kind


def source_revision() -> str:
    """Git revision when the checkout is a repository, else a digest of src/."""
    if (ROOT / ".git").exists():
        try:
            return subprocess.run(
                ["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                capture_output=True, text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return "src-sha256:" + digest.hexdigest()[:12]


def environment_stamp(work_dir: Path, calib: Sequence[float]) -> Dict[str, object]:
    from repro.sat.solver import solver_backend_provenance

    return {
        "python": platform.python_version(),
        "solver_backend": solver_backend_provenance(),
        "nproc": len(os.sched_getaffinity(0)),
        "store_filesystem": filesystem_of(work_dir),
        "revision": source_revision(),
        "env.calib_s": list(calib),
    }


def time_setup_in_fresh_interpreter(code: str, env: Dict[str, str]) -> float:
    """Run *code* in a new interpreter; it prints the seconds it took.

    *code* must print one float: the time from its first statement (after
    interpreter start) to the point where the program could take a job.
    """
    completed = subprocess.run(
        [sys.executable, "-c", code], env=env, cwd=ROOT,
        capture_output=True, text=True, timeout=120,
    )
    if completed.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {completed.stderr[-2000:]}")
    return float(completed.stdout.strip().splitlines()[-1])


def timing_metrics(latencies_by_round: Sequence[Sequence[float]],
                   solved: Sequence[bool]) -> Dict[str, float]:
    """The timed end-to-end metrics from the job latencies of every round.

    Each job's latency is its mean over the identical rounds, in reference
    seconds (see ``pace``): averaging all the timed work steadies a run
    more than a per-job median or minimum does.  *solved* marks the jobs
    the mapper solves from scratch.
    """
    per_job = [statistics.mean(column) for column in zip(*latencies_by_round)]
    return {
        "map_s": sum(per_job),
        "solve_mean_s": statistics.mean(
            latency for latency, fresh in zip(per_job, solved) if fresh
        ),
        "latency_p90_s": quantile(per_job, 0.9),
    }


def round_drift(counters_by_round: Sequence[object]) -> Optional[str]:
    """How a later round's per-job counters differ from the first's, or None."""
    first = json.loads(json.dumps(counters_by_round[0]))
    for number, counters in enumerate(counters_by_round[1:], start=2):
        if json.loads(json.dumps(counters)) != first:
            return f"round {number} differs from round 1"
    return None


def check_counters(workload: str, seed: int, counters: object) -> Optional[str]:
    """Compare this run's per-job counters with earlier runs of the same seed.

    The first run of a seed in a checkout records its counters; a later run
    whose counters differ is flagged, so a change in work is told apart
    from machine noise.  Returns a description of the drift, or None.
    """
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"counters-{workload}-seed{seed}.json"
    encoded = json.loads(json.dumps(counters))
    if not path.exists():
        path.write_text(json.dumps(encoded, indent=1, sort_keys=True))
        return None
    recorded = json.loads(path.read_text())
    if recorded == encoded:
        return None
    if isinstance(recorded, list) and isinstance(encoded, list):
        for index, (old, new) in enumerate(zip(recorded, encoded)):
            if old != new:
                return f"job {index}: recorded {old} now {new}"
    return f"recorded {len(recorded)} jobs, now {len(encoded)}"


@dataclass
class Outcome:
    """What one run of a workload measured and checked."""

    attempted: int
    failures: List[str] = field(default_factory=list)
    e2e: Dict[str, float] = field(default_factory=dict)
    layers: Dict[str, float] = field(default_factory=dict)
    counters: List[Dict[str, object]] = field(default_factory=list)
    drift: Optional[str] = None  # per-job counters that differ between rounds
    report: List[str] = field(default_factory=list)
    tracer: Optional[object] = None

    def record(self, job: str, error: Optional[str]) -> None:
        """Count a job that failed its correctness check (error is not None)."""
        if error is not None:
            self.failures.append(f"{job}: {error}")
