"""CPU time and peak memory of a process tree, read from ``/proc``.

The benchmark process plus every Ray process it starts (GCS, raylet,
workers) form one tree rooted at the benchmark process, so a snapshot of
that tree covers the whole job.
"""

from __future__ import annotations

import os

_TICK = os.sysconf("SC_CLK_TCK")


def _stat(pid: int) -> tuple[int, float] | None:
    """(parent pid, CPU seconds incl. reaped children) of one process."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
    except (FileNotFoundError, ProcessLookupError, PermissionError):
        return None
    # fields[0] is field 3 (state): ppid=4, utime..cstime=14..17
    ppid = int(fields[1])
    cpu = sum(int(x) for x in fields[11:15]) / _TICK
    return ppid, cpu


def tree(root: int | None = None) -> dict[int, float]:
    """{pid: CPU seconds} for ``root`` (default: this process) and all of
    its descendants."""
    root = os.getpid() if root is None else root
    procs = {}
    for name in os.listdir("/proc"):
        if name.isdigit():
            st = _stat(int(name))
            if st is not None:
                procs[int(name)] = st
    children: dict[int, list[int]] = {}
    for pid, (ppid, _) in procs.items():
        children.setdefault(ppid, []).append(pid)
    out, todo = {}, [root]
    while todo:
        pid = todo.pop()
        if pid in procs:
            out[pid] = procs[pid][1]
            todo.extend(children.get(pid, ()))
    return out


def cpu_delta(before: dict[int, float], after: dict[int, float]) -> float:
    """CPU seconds spent between two ``tree`` snapshots.  A process that
    exited in between moved its whole time into its parent's
    reaped-children time, so subtracting its earlier reading stays exact;
    one that started in between counts from zero."""
    return sum(after.values()) - sum(before.values())


def is_zombie(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] == "Z"
    except (FileNotFoundError, ProcessLookupError, PermissionError):
        return False


def peak_rss_mb(pids) -> float:
    """Sum of ``VmHWM`` (peak resident set) over ``pids``, in MiB."""
    total_kb = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
                        break
        except (FileNotFoundError, ProcessLookupError, PermissionError):
            continue
    return total_kb / 1024.0


def reset_peak_rss() -> None:
    """Restart this process's ``VmHWM`` from its current RSS, so each
    iteration reports its own peak (Linux ≥ 4.0; a no-op elsewhere)."""
    try:
        with open("/proc/self/clear_refs", "w") as fh:
            fh.write("5")
    except OSError:
        pass
