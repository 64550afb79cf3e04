"""Loopback chat-completions stub for the `llm-http` workload.

One process on one thread: an asyncio server on 127.0.0.1 that answers each
POST after a fixed service delay. The delay is an event-loop timer, so
concurrent requests add no threads and overlap the way they would at a real
endpoint. Replies are a pure function of the workload seed, the request body
and how many times that exact body was seen before, so they do not depend on
arrival order; a repeated identical prompt (an extraction retry, or the N-1
identical init prompts) still gets a fresh rule.

Run: python3 perfbench/stub_server.py --seed N
It prints `port=<n>` once listening and serves until SIGTERM or SIGINT.
A POST to /reset forgets the bodies seen, so the next run of the same
workload gets the same replies as the first.
"""

from __future__ import annotations

import argparse
import asyncio
import hashlib
import json
import random
import signal
import sys
from collections import Counter

import rules

# Short windows keep evaluation negligible, so the run waits on the stub.
WINDOWS = (10, 30, 60, 120)
# The service time of every reply; about a 55 ms round trip on loopback.
DELAY_S = 0.05


class Replier:
    def __init__(self, seed: int) -> None:
        self._seed = seed
        self._elite = rules.EliteEdits(seed, WINDOWS)
        self._seen: Counter[bytes] = Counter()

    def reset(self) -> None:
        """Forget the bodies seen, so a new run gets the same replies as the first."""
        self._seen.clear()

    def reply(self, body: bytes) -> str:
        digest = hashlib.sha256(body).digest()
        occurrence = self._seen[digest]
        self._seen[digest] += 1
        key = hashlib.sha256(b"%d:%d:" % (self._seed, occurrence) + digest).digest()
        rng = random.Random(key)
        messages = json.loads(body)["messages"]
        if messages[-1]["content"].startswith("Respond now with your hints"):
            return rules.reflection(rng)
        return self._elite.reply(rng)


async def _serve_connection(reader, writer, replier: Replier) -> None:
    try:
        while True:
            request_line = await reader.readline()
            if not request_line.strip():
                break
            length = 0
            while True:
                line = await reader.readline()
                if line in (b"\r\n", b"\n", b""):
                    break
                name, _, value = line.decode("latin-1").partition(":")
                if name.strip().lower() == "content-length":
                    length = int(value)
            body = await reader.readexactly(length)
            if request_line.split()[1] == b"/reset":
                replier.reset()
                payload = b"{}"
            else:
                text = replier.reply(body)
                await asyncio.sleep(DELAY_S)
                payload = json.dumps(
                    {"choices": [{"index": 0, "message": {"role": "assistant", "content": text}}]}
                ).encode()
            writer.write(
                b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
                b"Content-Length: %d\r\n\r\n" % len(payload) + payload
            )
            await writer.drain()
    except (asyncio.IncompleteReadError, ConnectionError):
        pass
    finally:
        writer.close()


async def _main(seed: int) -> None:
    replier = Replier(seed)
    server = await asyncio.start_server(lambda r, w: _serve_connection(r, w, replier), "127.0.0.1", 0)
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for sig in (signal.SIGTERM, signal.SIGINT):
        loop.add_signal_handler(sig, stop.set)
    print(f"port={server.sockets[0].getsockname()[1]}", flush=True)
    async with server:
        await stop.wait()


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    try:
        asyncio.run(_main(args.seed))
    except OSError as exc:
        print(f"stub server cannot listen on loopback: {exc}", file=sys.stderr)
        sys.exit(1)
