"""Pre-materialised TPC-C transaction streams for the end-to-end benchmark.

The load generator is not a layer of the system, so it never runs
inside a timed region: every stream is built here, before the clock
starts, as a plain list of :class:`StreamTxn`.
"""

from __future__ import annotations

import random
from typing import Iterable, Iterator, NamedTuple, Optional

from repro.workload import TpccGenerator, TransactionMix
from repro.workload.generator import Call, Transaction

#: Gap between the order-id ranges of two terminals.  ``TpccGenerator``
#: numbers every terminal's orders from 1, so concurrent terminals
#: collide on the ``orders`` primary key; disjoint ranges keep a
#: multi-terminal stream failure-free.
ORDER_ID_STRIDE = 10**6

#: Transactions per shuffled deck; mix weights are percentages.
DECK = 100

#: order_status / stock_level dominate: scans, a join, ORDER BY and
#: COUNT(DISTINCT) beside a trickle of writes.
READ_HEAVY_MIX = TransactionMix(
    new_order=5.0, payment=5.0, order_status=45.0, delivery=0.0, stock_level=45.0
)


class StreamTxn(NamedTuple):
    """One transaction of a stream: its profile name and its calls.

    In a prepared stream a call is ``(template, params)``; in a literal
    stream it is ``(literal sql, ())``.
    """

    profile: str
    calls: list[Call]


class DeckRandom(random.Random):
    """A seeded generator whose ``randint`` over a small range deals the
    range out like a shuffled deck: every value once, then reshuffle.

    ``TpccGenerator`` draws districts, customers, items, line counts and
    quantities with ``randint``.  Dealt from decks, every seed spreads
    its orders evenly over districts and issues the same number of
    statements, so seeds differ in order and pairing, not in the amount
    of work (independent draws moved the work of a 150-transaction
    stream by 7% between seeds).
    """

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self._decks: dict[tuple[int, int], list[int]] = {}

    def randint(self, a: int, b: int) -> int:
        if b - a >= DECK:
            return super().randint(a, b)
        deck = self._decks.get((a, b))
        if not deck:
            deck = self._decks[(a, b)] = list(range(a, b + 1))
            self.shuffle(deck)
        return deck.pop()


class TerminalGenerator(TpccGenerator):
    """A :class:`TpccGenerator` whose order ids start at
    ``1 + terminal * ORDER_ID_STRIDE`` in every district.

    Warm-up, preload and timed phases of one terminal must all be drawn
    from one instance: a second generator with the same seed replays the
    same order ids and every new_order after the first fails.
    """

    def __init__(
        self,
        *,
        seed: int,
        terminal: int = 0,
        mix: Optional[TransactionMix] = None,
    ) -> None:
        super().__init__(seed=seed, mix=mix)
        self._rng = DeckRandom(seed)
        first = 1 + terminal * ORDER_ID_STRIDE
        self._next_order_id = {district: first for district in self._next_order_id}

    def transactions(self, count: int) -> Iterator[Transaction]:
        """Draw profiles from shuffled decks instead of independently.

        Each deck of ``DECK`` transactions holds every profile in exactly
        the mix's proportion, in seeded order.  Independent draws let the
        number of scan-heavy transactions (12% of the canonical mix, half
        of its run time) vary by a tenth between seeds, which moved
        throughput by 16% from seed to seed; with decks a seed changes
        the order and the parameters, not the amount of work.
        """
        names, weights = self.mix.choices()
        total = sum(weights)
        deck = [
            name
            for name, weight in zip(names, weights)
            for _ in range(round(weight * DECK / total))
        ]
        produced = 0
        while produced < count:
            self._rng.shuffle(deck)
            for name in deck[: count - produced]:
                yield getattr(self, name)()
            produced += len(deck)

    def every_profile(self, rounds: int) -> Iterator[Transaction]:
        """``rounds`` times one transaction of each profile in the mix:
        a warm-up that is sure to prepare every statement template."""
        names, weights = self.mix.choices()
        for _ in range(rounds):
            for name, weight in zip(names, weights):
                if weight:
                    yield getattr(self, name)()


def as_prepared(transactions: Iterable[Transaction]) -> list[StreamTxn]:
    return [StreamTxn(txn.name, txn.prepared_calls()) for txn in transactions]


def as_literal(transactions: Iterable[Transaction]) -> list[StreamTxn]:
    return [StreamTxn(txn.name, [(sql, ()) for sql in txn.statements]) for txn in transactions]


def round_robin(streams: list[list]) -> list:
    """Interleave equally long per-terminal lists at transaction
    granularity: t0[0], t1[0], ..., t0[1], t1[1], ..."""
    return [item for group in zip(*streams) for item in group]
