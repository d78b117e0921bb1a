"""Open-loop request generator: one process, at most two connections.

Requests follow a schedule fixed in advance from the traffic seed:
each has a *due* time, and is sent then whether or not earlier answers
have arrived (HTTP/1.1 pipelining on keep-alive connections, so a slow
server sees its queue grow instead of its load shrink).  Latency is
measured from the due time, so time a request spends waiting behind a
stall — in the server or in this generator — counts.  How late the
generator itself sent each request is recorded as lag.

One sender thread sleeps until each due time and writes the request;
one reader thread parses the pipelined responses off both sockets.
"""

from __future__ import annotations

import hashlib
import selectors
import socket
import sys
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Sequence, Tuple

#: Connections the generator opens (the contract caps it at two).
CONNECTIONS = 2


@dataclass(frozen=True)
class Request:
    """One scheduled request and what a correct answer must carry."""

    due: float  # seconds after the schedule starts
    phase: str
    kind: str
    method: str
    target: str
    body: bytes = b""
    status: int = 200
    #: Keep the body for the correctness gate.
    verify: bool = False
    #: Kind-specific facts the gate needs (e.g. the epoch of ``?at=``).
    note: Tuple = ()

    def wire(self) -> bytes:
        head = f"{self.method} {self.target} HTTP/1.1\r\nHost: bench\r\n"
        if self.body:
            head += (
                "Content-Type: application/json\r\n"
                f"Content-Length: {len(self.body)}\r\n"
            )
        return head.encode("latin-1") + b"\r\n" + self.body


@dataclass
class Outcome:
    """What happened to one request."""

    sent: float = 0.0
    done: float = 0.0
    status: int = 0
    generation: int = 0
    body: Optional[bytes] = None
    error: str = ""

    @property
    def ok(self) -> bool:
        return not self.error and self.done > 0


@dataclass
class Phase:
    """A stretch of the schedule at one fixed arrival rate."""

    name: str
    rate: float  # requests per second
    seconds: float
    #: Idle time after the phase, so its queue drains before the next.
    gap: float = 0.0
    start: float = 0.0
    requests: List[int] = field(default_factory=list)


def schedule_digest(requests: Sequence[Request]) -> str:
    """Digest of a schedule (due times rounded to the microsecond)."""
    hasher = hashlib.sha256()
    for request in requests:
        hasher.update(repr((
            round(request.due, 6), request.phase, request.kind,
            request.method, request.target, request.body, request.status,
            request.verify, request.note,
        )).encode("utf-8"))
    return hasher.hexdigest()


class _Parser:
    """Incremental HTTP/1.1 response parser for one connection."""

    def __init__(self) -> None:
        self.buffer = bytearray()

    def responses(self) -> List[Tuple[int, int, bytes]]:
        """Complete ``(status, generation, body)`` triples buffered so far."""
        out: List[Tuple[int, int, bytes]] = []
        while True:
            end = self.buffer.find(b"\r\n\r\n")
            if end < 0:
                return out
            head = bytes(self.buffer[:end]).decode("latin-1")
            lines = head.split("\r\n")
            status = int(lines[0].split(" ", 2)[1])
            length = 0
            generation = 0
            for line in lines[1:]:
                name, _, value = line.partition(":")
                lowered = name.lower()
                if lowered == "content-length":
                    length = int(value)
                elif lowered == "x-generation":
                    generation = int(value)
            total = end + 4 + length
            if len(self.buffer) < total:
                return out
            body = bytes(self.buffer[end + 4:total])
            del self.buffer[:total]
            out.append((status, generation, body))


def run_open_loop(
    address: Tuple[str, int],
    requests: Sequence[Request],
    grace: float = 5.0,
) -> Tuple[List[Outcome], float]:
    """Send *requests* on schedule; returns outcomes and the start time.

    The start time is the ``perf_counter`` value due offsets count from.
    Requests still unanswered *grace* seconds after the last due time
    are marked failed.
    """
    outcomes = [Outcome() for _ in requests]
    sockets = []
    for _ in range(CONNECTIONS):
        sock = socket.create_connection(address)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        sockets.append(sock)
    pending: List[Deque[int]] = [deque() for _ in sockets]
    answered = [0]
    finished = threading.Event()
    start = time.perf_counter() + 0.05

    def sender() -> None:
        for position, request in enumerate(requests):
            due = start + request.due
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            lane = position % len(sockets)
            pending[lane].append(position)
            outcomes[position].sent = time.perf_counter()
            try:
                sockets[lane].sendall(request.wire())
            except OSError as error:
                outcomes[position].error = f"send: {error}"

    def reader() -> None:
        selector = selectors.DefaultSelector()
        parsers = []
        for lane, sock in enumerate(sockets):
            selector.register(sock, selectors.EVENT_READ, lane)
            parsers.append(_Parser())
        try:
            while answered[0] < len(requests) and not finished.is_set():
                for key, _ in selector.select(timeout=0.05):
                    lane = key.data
                    chunk = key.fileobj.recv(1 << 16)
                    if not chunk:
                        finished.set()
                        break
                    parser = parsers[lane]
                    parser.buffer += chunk
                    now = time.perf_counter()
                    for status, generation, body in parser.responses():
                        position = pending[lane].popleft()
                        outcome = outcomes[position]
                        outcome.done = now
                        outcome.status = status
                        outcome.generation = generation
                        if requests[position].verify:
                            outcome.body = body
                        answered[0] += 1
        finally:
            selector.close()

    threads = [threading.Thread(target=sender, daemon=True),
               threading.Thread(target=reader, daemon=True)]
    # Hand the interpreter lock over quickly, so the sender wakes on time
    # while the reader is parsing.
    switch = sys.getswitchinterval()
    sys.setswitchinterval(0.0002)
    for thread in threads:
        thread.start()
    last_due = start + (requests[-1].due if requests else 0.0)
    threads[0].join(timeout=last_due - time.perf_counter() + 60)
    threads[1].join(timeout=max(0.0, last_due + grace - time.perf_counter()))
    finished.set()
    threads[1].join(timeout=5)
    sys.setswitchinterval(switch)
    for sock in sockets:
        sock.close()
    for outcome in outcomes:
        if outcome.done == 0 and not outcome.error:
            outcome.error = "no response"
    return outcomes, start


def latencies(requests: Sequence[Request], outcomes: Sequence[Outcome],
              start: float, positions: Sequence[int]) -> List[float]:
    """Seconds from due time to answer, for answered requests."""
    return [
        outcomes[i].done - (start + requests[i].due)
        for i in positions if outcomes[i].ok
    ]


def lags(requests: Sequence[Request], outcomes: Sequence[Outcome],
         start: float, positions: Sequence[int]) -> List[float]:
    """Seconds each request was sent after its due time."""
    return [
        max(0.0, outcomes[i].sent - (start + requests[i].due))
        for i in positions if outcomes[i].sent
    ]


def http_get(address: Tuple[str, int], target: str,
             timeout: float = 30.0) -> Tuple[int, Dict[str, str], bytes]:
    """One blocking GET on its own connection (control-plane requests)."""
    with socket.create_connection(address, timeout=timeout) as sock:
        sock.sendall(
            f"GET {target} HTTP/1.1\r\nHost: bench\r\n"
            "Connection: close\r\n\r\n".encode("latin-1")
        )
        data = bytearray()
        while True:
            chunk = sock.recv(1 << 16)
            if not chunk:
                break
            data += chunk
    head, _, body = bytes(data).partition(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    headers = {}
    for line in lines[1:]:
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    return int(lines[0].split(" ", 2)[1]), headers, body
