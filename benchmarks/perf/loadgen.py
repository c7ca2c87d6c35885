"""Load generators for the serve workloads.

Both loops run on one asyncio thread and speak the daemon's JSON-lines
protocol directly (one session per connection).  Responses are kept as
raw lines and checked after the run, so the event loop does no
verification work while it is timing requests.

* :func:`closed_loop` -- rounds of one request per connection, sent
  together; the next round starts when every answer of the last one has
  arrived, so the load adapts to the daemon and measures its capacity.
  A request is timed from its send.  (Free-running connections drift in
  and out of phase with the daemon's batching epochs, which makes the
  latency distribution bimodal and its median swing by +-12% between
  windows on one daemon; sending in rounds keeps it within a few %.)
* :func:`open_loop` -- requests go out on a precomputed arrival schedule
  whether or not earlier ones were answered, pipelined over the
  connections round-robin, so queues can grow.  A request is timed from
  when it was *due*, and the generator's own lateness (send minus due) is
  recorded beside it.
"""

from __future__ import annotations

import asyncio
import gc
import json
import random
import time
from bisect import bisect
from collections import deque
from dataclasses import dataclass
from itertools import accumulate
from typing import Callable, Iterator, List, Sequence, Tuple

__all__ = ["Request", "Zipf", "closed_loop", "open_loop", "poisson_schedule"]

SPIN_SECONDS = 0.0015
"""The open loop sleeps until this long before a request is due and
spins through the event loop for the rest: the selector rounds timeouts
up to whole milliseconds, which alone puts the p99 send lag near 2 ms."""

DRAIN_SECONDS = 30.0
"""How long the open loop waits for outstanding answers after its last
send; an unanswered request fails."""

Call = Tuple[str, dict]
"""One request: its op and its arguments (the session is added per
connection)."""


@dataclass
class Request:
    """One request and what happened to it (``perf_counter`` seconds)."""

    op: str
    args: dict
    due: float = 0.0
    sent: float = 0.0
    done: float = 0.0
    response: bytes = b""

    @property
    def latency(self) -> float:
        return self.done - self.due

    @property
    def lag(self) -> float:
        return self.sent - self.due


class Zipf:
    """Zipf(``s``) over ``n`` keys; key ranks are a seeded permutation of
    ``0..n-1`` so the hot keys spread over the store's blocks."""

    def __init__(self, n: int, s: float, rng: random.Random) -> None:
        self._cum = list(accumulate(1.0 / rank ** s for rank in range(1, n + 1)))
        self._keys = list(range(n))
        rng.shuffle(self._keys)

    def draw(self, rng: random.Random) -> int:
        return self._keys[bisect(self._cum, rng.random() * self._cum[-1])]


def poisson_schedule(rate: float, seconds: float, rng: random.Random,
                     make_call: Callable[[], Call]) -> List[Tuple[float, Call]]:
    """Arrival offsets of a Poisson process of ``rate`` per second over
    ``seconds``, each with the call ``make_call`` draws for it."""
    schedule = []
    at = rng.expovariate(rate)
    while at < seconds:
        schedule.append((at, make_call()))
        at += rng.expovariate(rate)
    return schedule


async def _connect(port: int, tenant: str):
    reader, writer = await asyncio.open_connection(
        "127.0.0.1", port, limit=1 << 22
    )
    writer.write(_line({"op": "open-session", "tenant": tenant}))
    response = json.loads(await reader.readline())
    if not response.get("ok"):
        raise RuntimeError(f"open-session refused: {response}")
    return reader, writer, response["session"]


def _line(payload: dict) -> bytes:
    return (json.dumps(payload) + "\n").encode("ascii")


async def _close(connections) -> None:
    for _, writer, _ in connections:
        writer.close()
    for _, writer, _ in connections:
        try:
            await writer.wait_closed()
        except OSError:
            pass


async def _closed(port: int, seconds: float,
                  streams: Sequence[Iterator[Call]]) -> List[Request]:
    connections = [
        await _connect(port, f"closed-{i}") for i in range(len(streams))
    ]
    done: List[Request] = []

    async def call(connection, calls: Iterator[Call]) -> None:
        reader, writer, session = connection
        op, args = next(calls)
        request = Request(op, args)
        request.due = request.sent = time.perf_counter()
        writer.write(_line({"op": op, "session": session, **args}))
        request.response = await reader.readline()
        request.done = time.perf_counter()
        done.append(request)

    deadline = time.perf_counter() + seconds
    try:
        while time.perf_counter() < deadline:
            await asyncio.gather(*(
                call(connection, calls)
                for connection, calls in zip(connections, streams)
            ))
    finally:
        await _close(connections)
    return done


def _without_gc(coroutine):
    """Run ``coroutine`` with the cyclic collector paused: a full
    collection over thousands of live requests would stall the loop for
    milliseconds and show up as generator lag."""
    gc.disable()
    try:
        return asyncio.run(coroutine)
    finally:
        gc.enable()


def closed_loop(port: int, seconds: float,
                streams: Sequence[Iterator[Call]]) -> List[Request]:
    """Run closed-loop rounds, one connection per call stream, for
    ``seconds``."""
    return _without_gc(_closed(port, seconds, streams))


async def _open(port: int, schedule: Sequence[Tuple[float, Call]],
                connections: int) -> List[Request]:
    conns = [await _connect(port, f"open-{i}") for i in range(connections)]
    in_flight = [deque() for _ in conns]
    requests = [Request(op, args) for _, (op, args) in schedule]
    answered = asyncio.Event()
    remaining = [len(requests)]
    if not requests:
        answered.set()

    async def read(index: int) -> None:
        reader = conns[index][0]
        queue = in_flight[index]
        while True:
            line = await reader.readline()
            if not line:
                return
            request = queue.popleft()
            request.done = time.perf_counter()
            request.response = line
            remaining[0] -= 1
            if not remaining[0]:
                answered.set()

    lines = [
        _line({"op": request.op, "session": conns[number % connections][2],
               **request.args})
        for number, request in enumerate(requests)
    ]
    readers = [asyncio.ensure_future(read(i)) for i in range(connections)]
    start = time.perf_counter() + 0.01
    try:
        for number, ((offset, _), request) in enumerate(zip(schedule, requests)):
            request.due = start + offset
            delay = request.due - time.perf_counter()
            if delay > SPIN_SECONDS:
                await asyncio.sleep(delay - SPIN_SECONDS)
            while time.perf_counter() < request.due:
                await asyncio.sleep(0)  # keeps the readers running
            index = number % connections
            request.sent = time.perf_counter()
            in_flight[index].append(request)
            conns[index][1].write(lines[number])
        try:
            await asyncio.wait_for(answered.wait(), DRAIN_SECONDS)
        except asyncio.TimeoutError:
            pass  # unanswered requests stay with an empty response
    finally:
        for task in readers:
            task.cancel()
        await asyncio.gather(*readers, return_exceptions=True)
        await _close(conns)
    return requests


def open_loop(port: int, schedule: Sequence[Tuple[float, Call]],
              connections: int) -> List[Request]:
    """Send ``schedule`` (offsets from the start, in seconds) pipelined
    round-robin over ``connections``; wait up to :data:`DRAIN_SECONDS`
    after the last send for the answers."""
    return _without_gc(_open(port, schedule, connections))
