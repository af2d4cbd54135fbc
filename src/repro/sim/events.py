"""Stream-scheduled task-graph simulator.

The execution model mirrors CUDA streams plus I/O queues:

* a **task** has a duration, runs on exactly one named **stream**, and may
  depend on other tasks;
* a stream executes its tasks one at a time, *in submission order* (FIFO,
  like a CUDA stream) — a task whose dependencies are met still waits for
  earlier tasks on its stream;
* different streams run concurrently, which is where compute/communication
  overlap comes from.

The engine is a list-scheduling discrete-event loop over (ready, stream-free)
events.  Because streams are FIFO, the schedule is deterministic and the
result is the earliest-finish-time schedule for the given stream assignment.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Iterable


@dataclass
class Task:
    """One unit of work bound to a stream."""

    name: str
    stream: str
    duration: float
    deps: tuple[int, ...] = ()
    index: int = -1  # assigned by the graph
    start: float = -1.0
    finish: float = -1.0

    def __post_init__(self) -> None:
        if self.duration < 0:
            raise ValueError(f"task {self.name}: negative duration")


@dataclass
class SimulationResult:
    """Schedule outcome."""

    makespan: float
    tasks: list[Task]
    stream_busy: dict[str, float]

    def busy_fraction(self, stream: str) -> float:
        if self.makespan <= 0:
            return 0.0
        return self.stream_busy.get(stream, 0.0) / self.makespan


class TaskGraph:
    """Builder + scheduler for a stream-bound DAG of tasks."""

    def __init__(self) -> None:
        self.tasks: list[Task] = []

    def add(
        self,
        name: str,
        stream: str,
        duration: float,
        deps: Iterable["Task | int"] = (),
    ) -> Task:
        """Add a task; ``deps`` accepts Task objects or indices."""
        dep_idx = []
        for d in deps:
            idx = d.index if isinstance(d, Task) else int(d)
            if not 0 <= idx < len(self.tasks):
                raise ValueError(f"dependency {idx} does not exist yet")
            dep_idx.append(idx)
        t = Task(name, stream, float(duration), tuple(dep_idx), index=len(self.tasks))
        self.tasks.append(t)
        return t

    def run(self) -> SimulationResult:
        """Schedule all tasks; returns finish times and the makespan.

        Raises on dependency cycles (impossible by construction because
        dependencies must already exist, but validated anyway).
        """
        n = len(self.tasks)
        if n == 0:
            return SimulationResult(0.0, [], {})
        # per-stream FIFO order = submission order
        stream_queues: dict[str, list[int]] = {}
        for t in self.tasks:
            stream_queues.setdefault(t.stream, []).append(t.index)
        stream_pos = {s: 0 for s in stream_queues}
        stream_free_at = {s: 0.0 for s in stream_queues}
        dep_finish = [0.0] * n
        remaining_deps = [len(t.deps) for t in self.tasks]
        dependents: list[list[int]] = [[] for _ in range(n)]
        for t in self.tasks:
            for d in t.deps:
                dependents[d].append(t.index)
        done = [False] * n
        ready = [remaining_deps[i] == 0 for i in range(n)]
        completed = 0
        time = 0.0

        # event loop: at each step, start every stream-head task that is
        # ready, then advance time to the next finish.
        running: list[tuple[float, int]] = []  # (finish_time, task)
        while completed < n:
            progressed = True
            while progressed:
                progressed = False
                for s, queue in stream_queues.items():
                    pos = stream_pos[s]
                    if pos >= len(queue):
                        continue
                    idx = queue[pos]
                    if not ready[idx] or done[idx]:
                        continue
                    t = self.tasks[idx]
                    t.start = max(stream_free_at[s], dep_finish[idx])
                    t.finish = t.start + t.duration
                    stream_free_at[s] = t.finish
                    stream_pos[s] = pos + 1
                    heapq.heappush(running, (t.finish, idx))
                    progressed = True
            if not running:
                stuck = [t.name for t in self.tasks if not done[t.index]]
                raise RuntimeError(
                    f"deadlock: tasks cannot start (cyclic or blocked): {stuck[:5]}"
                )
            finish, idx = heapq.heappop(running)
            time = finish
            if done[idx]:
                continue
            done[idx] = True
            completed += 1
            for dep in dependents[idx]:
                remaining_deps[dep] -= 1
                dep_finish[dep] = max(dep_finish[dep], finish)
                if remaining_deps[dep] == 0:
                    ready[dep] = True
        makespan = max(t.finish for t in self.tasks)
        busy: dict[str, float] = {}
        for t in self.tasks:
            busy[t.stream] = busy.get(t.stream, 0.0) + t.duration
        return SimulationResult(makespan, list(self.tasks), busy)
