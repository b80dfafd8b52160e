"""Workloads of the autsign benchmark, their seeded inputs and the fingerprints
that say whether the program's output is right.

Each workload is a list of attempts; an attempt is one ``autsign`` command
line run through ``autsign.cli.main``. Its stdout goes to a ``StdoutSink``,
which keeps a digest, a byte count and token counts instead of the text, so
capturing 96k lines does not show up in the process's peak memory.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import random
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

from autsign.cli import main as cli_main

# The caps of the connected sweep pinned by the acceptance tests. The sweep is
# exhaustive over these caps, so its input does not depend on the seed.
CONNECTED_CAPS = (
    "--max-vertices", "5", "--max-edges", "6", "--max-multiplicity", "3",
    "--loops", "--connected-only",
)

# Tokens counted in compute output; every automorphism line has one of each
# sign token and exactly one "agree=" token.
COMPUTE_TOKENS = (" hom=+1", " hom=-1", " comb=+1", " comb=-1", " agree=NO")


class StdoutSink(io.TextIOBase):
    """Write-only text stream keeping sha256, byte count, token counts and
    the first 4 KiB of what is written."""

    _CHUNK = 1 << 16
    _KEEP = 4096

    def __init__(self, tokens: tuple[str, ...] = ()) -> None:
        super().__init__()
        self._hash = hashlib.sha256()
        self._pending: list[str] = []
        self._pending_len = 0
        self.bytes = 0
        self.counts = dict.fromkeys(tokens, 0)
        self.head = ""

    def writable(self) -> bool:
        return True

    def write(self, s: str) -> int:
        self._pending.append(s)
        self._pending_len += len(s)
        if self._pending_len >= self._CHUNK:
            self._drain()
        return len(s)

    def _drain(self) -> None:
        # print() writes a line and its newline as separate pieces, and chunks
        # end on piece boundaries, so no counted token is split across chunks.
        chunk = "".join(self._pending)
        self._pending.clear()
        self._pending_len = 0
        data = chunk.encode("utf-8")
        self._hash.update(data)
        self.bytes += len(data)
        for token in self.counts:
            self.counts[token] += chunk.count(token)
        if len(self.head) < self._KEEP:
            self.head += chunk[: self._KEEP - len(self.head)]

    def finish(self) -> StdoutSink:
        self._drain()
        return self

    @property
    def digest(self) -> str:
        return self._hash.hexdigest()

    @property
    def complete(self) -> bool:
        """True when ``head`` holds the whole output."""
        return self.bytes <= self._KEEP


def run_cli(argv: tuple[str, ...], tokens: tuple[str, ...] = ()) -> tuple[int, StdoutSink, float]:
    """Run one command through ``cli.main``; return exit code, sink and seconds.

    stderr (verify's elapsed line) is discarded: it is not the payload.
    """
    sink = StdoutSink(tokens)
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(io.StringIO()):
        t0 = time.perf_counter()
        code = cli_main(list(argv))
        seconds = time.perf_counter() - t0
    return code, sink.finish(), seconds


def _key_values(text: str) -> dict[str, int]:
    out = {}
    for line in text.splitlines():
        key, sep, value = line.partition(": ")
        if sep and value.isdigit():
            out[key] = int(value)
    return out


def fingerprint(command: str, code: int, sink: StdoutSink) -> dict:
    """The counts that identify a correct output of ``command``."""
    if command == "verify":
        if not sink.complete:
            raise ValueError("verify printed more than a summary")
        fp = _key_values(sink.head)
    elif command == "compute":
        fp = {"automorphisms": _key_values(sink.head)["automorphisms"], **sink.counts}
    else:
        raise ValueError(f"unknown command {command!r}")
    fp["exit_code"] = code
    return fp


@dataclass(frozen=True)
class Attempt:
    """One command line and the fingerprint its output must have (None: any)."""

    argv: tuple[str, ...]
    expected: dict | None = None

    @property
    def command(self) -> str:
        return self.argv[0]

    @property
    def tokens(self) -> tuple[str, ...]:
        return COMPUTE_TOKENS if self.command == "compute" else ()


@dataclass
class AttemptResult:
    ok: bool
    seconds: float
    fingerprint: dict | None
    stdout_bytes: int
    digest: str


def run_attempt(attempt: Attempt) -> AttemptResult:
    """Run an attempt and check it; an exception counts as a failed attempt."""
    try:
        code, sink, seconds = run_cli(attempt.argv, attempt.tokens)
        fp = fingerprint(attempt.command, code, sink)
    except (Exception, SystemExit):
        traceback.print_exc(file=sys.stderr)
        return AttemptResult(False, 0.0, None, 0, "")
    ok = code == 0 and (attempt.expected is None or fp == attempt.expected)
    if not ok:
        print(f"fingerprint mismatch for {attempt.argv}: got {fp}, want {attempt.expected}",
              file=sys.stderr)
    return AttemptResult(ok, seconds, fp, sink.bytes, sink.digest)


@dataclass(frozen=True)
class LargeGroupGraph:
    """A graph with a large automorphism group, before the seeded relabeling."""

    vertex_count: int
    edges: tuple[tuple[int, int], ...]
    expected: dict | None = None


def relabeled_text(graph: LargeGroupGraph, rng: random.Random) -> str:
    """Graph text with vertices relabeled, edges shuffled and each edge's
    endpoints listed in random order. |Aut| and the number of automorphisms of
    each sign are invariants of the graph, so the fingerprint holds for every
    seed."""
    perm = list(range(graph.vertex_count))
    rng.shuffle(perm)
    edges = [
        (perm[a], perm[b]) if rng.getrandbits(1) else (perm[b], perm[a])
        for a, b in graph.edges
    ]
    rng.shuffle(edges)
    return f"v {graph.vertex_count}\n" + "".join(f"e {a} {b}\n" for a, b in edges)


def _compute_expected(automorphisms: int, plus: int) -> dict:
    minus = automorphisms - plus
    return {
        "automorphisms": automorphisms,
        " hom=+1": plus, " hom=-1": minus, " comb=+1": plus, " comb=-1": minus,
        " agree=NO": 0, "exit_code": 0,
    }


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    caps: tuple[str, ...] = ()
    expected: dict | None = None
    graphs: tuple[LargeGroupGraph, ...] = ()
    # Automorphisms the program handles per pass; the base of auts_per_s.
    automorphisms: int = 0

    @property
    def seeded(self) -> bool:
        """Only compute inputs depend on the seed; sweeps are exhaustive."""
        return self.command == "compute"

    def attempts(self, seed: int, workdir: Path) -> list[Attempt]:
        """The attempts of one pass. Sweeps ignore the seed; compute writes
        the seeded graph files into ``workdir``."""
        if self.command != "compute":
            return [Attempt((self.command, *self.caps), self.expected)]
        rng = random.Random(seed)
        workdir.mkdir(parents=True, exist_ok=True)
        out = []
        for i, graph in enumerate(self.graphs):
            path = workdir / f"{self.name}-{i}.txt"
            path.write_text(relabeled_text(graph, rng), encoding="utf-8")
            out.append(Attempt(("compute", str(path)), graph.expected))
        return out


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "verify-connected", "verify", CONNECTED_CAPS,
            expected={
                "graphs_checked": 12586, "automorphisms_checked": 92465,
                "odd_graph_count": 9686, "failures": 0, "exit_code": 0,
            },
            automorphisms=92465,
        ),
        Workload(
            "compute-large-group", "compute",
            graphs=(
                # The star K_{1,8}: cycle rank 0.
                LargeGroupGraph(9, tuple((0, i) for i in range(1, 9)),
                                _compute_expected(40320, 20160)),
                # One vertex with 6 loops: cycle rank 6.
                LargeGroupGraph(1, ((0, 0),) * 6, _compute_expected(46080, 23040)),
                # 7 parallel edges between 2 vertices: cycle rank 6, all even.
                LargeGroupGraph(2, ((0, 1),) * 7, _compute_expected(10080, 10080)),
            ),
            automorphisms=40320 + 46080 + 10080,
        ),
    )
}
