"""Open-loop HTTP load: requests leave on a seeded schedule, not on replies.

Each request is timed from the moment it was *due*, so a stall that holds
back later requests counts against them too.  The generator owns a fixed
number of connections (one thread each); a request whose due time passes
while every connection is busy waits for the next free one, and that wait
is part of its latency.  Two diagnostics say when the generator rather
than the server set the latency: ``conn_wait`` (due until a connection was
free) and ``late`` (how far behind the schedule a free thread woke up).
"""

from __future__ import annotations

import http.client
import threading
import time
from dataclasses import dataclass


@dataclass(frozen=True)
class Request:
    """One scheduled request: ``due`` seconds after the schedule starts."""

    due: float
    kind: str
    path: str


@dataclass
class Outcome:
    """What happened to one request (times are absolute clock readings)."""

    request: Request
    due: float
    picked: float
    started: float
    done: float
    status: int | None = None
    body: bytes = b""
    error: str | None = None

    @property
    def latency(self) -> float:
        return self.done - self.due

    @property
    def conn_wait(self) -> float:
        return max(0.0, self.picked - self.due)

    @property
    def late(self) -> float:
        return max(0.0, self.started - max(self.picked, self.due))


def run_open_loop(schedule, connect, connections=2, clock=time.perf_counter):
    """Issue ``schedule`` (sorted by due) over ``connections`` connections.

    ``connect()`` returns a ``send(path) -> (status, body)`` callable bound
    to one fresh connection; an exception from ``send`` is recorded as the
    request's error.  Returns ``(start, outcomes)`` with outcomes in
    schedule order.
    """
    outcomes: list[Outcome | None] = [None] * len(schedule)
    lock = threading.Lock()
    cursor = [0]
    senders = [connect() for _ in range(connections)]
    start = clock() + 0.05  # let every thread reach its first wait

    def worker(send) -> None:
        while True:
            with lock:
                i = cursor[0]
                cursor[0] += 1
            if i >= len(schedule):
                return
            request = schedule[i]
            due = start + request.due
            picked = clock()
            if picked < due:
                time.sleep(due - picked)
            started = clock()
            outcome = Outcome(request, due, picked, started, started)
            try:
                outcome.status, outcome.body = send(request.path)
            except Exception as exc:  # noqa: BLE001 - every failure is counted
                outcome.error = f"{type(exc).__name__}: {exc}"
            outcome.done = clock()
            outcomes[i] = outcome

    threads = [
        threading.Thread(target=worker, args=(send,), name=f"load-{n}")
        for n, send in enumerate(senders)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    for send in senders:
        close = getattr(send, "close", None)
        if close is not None:
            close()
    return start, outcomes


class HttpSender:
    """``send(path)`` over one keep-alive connection, reconnecting on error."""

    def __init__(self, host: str, port: int, timeout: float = 30.0) -> None:
        self.host, self.port, self.timeout = host, port, timeout
        self.conn = http.client.HTTPConnection(host, port, timeout=timeout)

    def __call__(self, path: str) -> tuple[int, bytes]:
        try:
            self.conn.request("GET", path)
            response = self.conn.getresponse()
            return response.status, response.read()
        except (OSError, http.client.HTTPException):
            self.conn.close()
            self.conn = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout
            )
            raise

    def close(self) -> None:
        self.conn.close()
