"""Seeded rule text that stands in for LLM replies in the scripted and HTTP workloads.

Every rule is one elite template with a few small edits: a changed threshold,
a changed window, and zero to two extra clauses. This is the near-copy
traffic that crossover and elitist mutation produce around the current
elites, which `pillm`'s own grammar sampler does not make. Window values are
drawn from a small per-run pool, so sub-expressions such as
`zscore($zone_temp, 720)` recur across a generation the way they do when an
LLM edits the same parents. The pool and the elite's windows are fixed, so
the seed changes which edits are made but not the mix of window lengths, and
evaluation cost stays comparable from seed to seed.

The module uses only the standard library, so the loopback stub server can
import it without importing `pillm`.
"""

from __future__ import annotations

import random

# Extra clauses an edit may append; each adds six AST nodes (and, comparison,
# call, feature, window, threshold).
_EXTRA_CLAUSES = (
    ("std($zone_temp, {w}) < {t}", (0.05, 0.1, 0.2)),
    ("rmax($zone_temp, {w}) > {t}", (21.5, 22.0, 22.5)),
    ("mean($fan_speed, {w}) >= {t}", (0.0, 0.1)),
)

_HINTS = (
    "The better rule normalises the zone temperature against a longer trailing window.",
    "The better rule keeps the damper guard, which suppresses alarms during commanded moves.",
    "The better rule uses a lower threshold, trading a few false alarms for earlier detection.",
    "The better rule adds a second signal, so one noisy sensor cannot raise an alarm alone.",
)


def _z_threshold(rng: random.Random) -> float:
    # The thermostat's sawtooth keeps |zscore($zone_temp, w)| under about
    # 1.7, so thresholds around it give each rule its own false-alarm count.
    # Distinct fitness values keep select_pairs from skipping tied pairs, and
    # every seed makes the full 129 calls.
    return round(rng.uniform(0.8, 1.8), 2)


class Deck(random.Random):
    """A Random whose `choice` deals each sequence's items in shuffled rounds.

    Every item comes up equally often, so the mix of windows and extra
    clauses in a script, and with it the evaluation work, is the same for
    every seed; the seed changes only the order.
    """

    def __init__(self, seed) -> None:
        super().__init__(seed)
        self._decks: dict[tuple, list] = {}

    def choice(self, seq):
        deck = self._decks.setdefault(tuple(seq), [])
        if not deck:
            deck.extend(seq)
            self.shuffle(deck)
        return deck.pop()


def fenced(code: str, context: str) -> str:
    """Render a reply in the fenced rule/context convention the prompts ask for."""
    return f"```rule\n{code}\n```\n\n```context\n{context}\n```"


class EliteEdits:
    """One elite rule, fixed by `seed`, and a generator of small edits of it."""

    def __init__(self, seed: int, windows: tuple[int, ...]) -> None:
        rng = random.Random(seed)
        self._windows = windows
        self._elite = {
            "w1": windows[len(windows) // 2],
            "t1": _z_threshold(rng),
            "w2": windows[len(windows) // 2 - 1],
            "t2": 0.05,
        }

    def _draw(self, rng: random.Random, key: str):
        if key.startswith("w"):
            return rng.choice(self._windows)
        if key == "t1":
            return _z_threshold(rng)
        return rng.choice((0.02, 0.05, 0.1))

    def rule(self, rng: random.Random) -> tuple[str, str]:
        """Return (code, context) for one edit of the elite."""
        params = dict(self._elite)
        for key in rng.sample(sorted(params), rng.choice((0, 1, 1, 2))):
            params[key] = self._draw(rng, key)
        clauses = [
            f"zscore($zone_temp, {params['w1']}) > {params['t1']}",
            f"mean(d, {params['w2']}) < {params['t2']}",
        ]
        for extra in range(rng.choice((0, 0, 1, 1, 2))):
            template, thresholds = rng.choice(_EXTRA_CLAUSES)
            # A second extra clause takes the longest window. At 27 nodes and
            # w = 1024 the rule exceeds the evaluation budget at 10,080 rows,
            # so a fixed share of the elite-edits script is budget-rejected.
            window = self._windows[-1] if extra else rng.choice(self._windows)
            clauses.append(template.format(w=window, t=rng.choice(thresholds)))
        code = "d = abs($damper_cmd - $damper_pos)\nreturn " + " and ".join(clauses)
        context = (
            f"A zone temperature more than {params['t1']} standard deviations above its "
            f"trailing {params['w1']}-minute mean, while the damper tracks its command, "
            "points at a biased or failing zone sensor rather than a real load change."
        )
        return code, context

    def reply(self, rng: random.Random) -> str:
        return fenced(*self.rule(rng))


def reflection(rng: random.Random) -> str:
    """Hints paragraph followed by a context paragraph, as reflection replies carry."""
    hints = " ".join(rng.sample(_HINTS, 2))
    return f"{hints}\n\nA sensor fault shifts the reported zone temperature without a matching actuator change."


def script_records(seed: int, counts: dict[str, int], windows: tuple[int, ...]) -> list[dict]:
    """Records for `pillm evolve --provider scripted`, `counts[tag]` per request tag."""
    elite = EliteEdits(seed, windows)
    rng = Deck(seed + 1)
    records = []
    for tag, count in counts.items():
        for _ in range(count):
            text = reflection(rng) if tag == "reflection" else elite.reply(rng)
            records.append({"tag": tag, "text": text})
    return records
