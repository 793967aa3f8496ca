"""Front-end memoization for the prepared-statement pipeline.

Every ``DiverseServer.execute`` call runs the same front-end stages:
lift its literals, parse the statement, extract traits, translate it to
each replica's dialect, and (with static analysis on) compute
order/access verdicts.  All of that work depends only on the statement
*text*, the dialect and — for the analysis layers — on the current
schema, so it is memoized here and amortized across repeated
executions.

Cache keys and invalidation:

* **lift** — keyed on statement text alone: the
  :class:`~repro.sqlengine.params.Lifted` shape and literals of a
  SELECT/INSERT/UPDATE/DELETE (:func:`~repro.sqlengine.params.lift_literals`),
  or ``False`` when nothing lifts.  The server runs a lifted statement
  as a prepared call on its shape, so every later layer — and each
  engine's compiled plan — is keyed by the shape text (plus, for the
  divergence layer and the plans, the lifted values' classes) instead
  of the literal text.  The lift reuses the text's one scan; the
  shape's tokens are held for the parse and translations of the shape
  that follow.
* **parsed** — keyed on statement text alone.  Parsing is
  schema-independent; name binding happens at execute time.
* **translation** — keyed on ``(dialect key, text)``.  The
  token-level rewrite reads no schema, and neither does the engine
  handle prepared from it (a compiled plan is keyed by the catalog's
  content), so no DDL makes an entry stale.  An entry is what the
  replica's engine runs: the translated text with its parse, built
  from the parse layer's one scan and parse of the text (see
  :meth:`translation`).
* **verdict** — keyed on ``(text, generation)``.  Order verdicts read
  the schema's unique keys (``ORDER BY c`` is TOTAL only while ``c``
  is unique), so a stale entry after ``CREATE INDEX`` / ``ALTER
  TABLE`` would be wrong.  Bumping the generation on every DDL makes
  that impossible.
* **divergence** — keyed on ``(text, parameter classes, generation)``:
  a lifted statement's parameters are typed by the classes of the
  values bound to them (``None`` for a prepared statement, whose
  parameters stay untyped).
* **def_use** — keyed on ``(text, generation)``: like the divergence
  layer, it reads declared column types/nullability and the view
  catalog from the schema.
* **abstraction** — keyed on ``(text, generation)``.  The ternary-logic
  predicate abstraction seeds its intervals and nullability from the
  schema's declared column types and constraints, so DDL invalidates
  it exactly like the verdict layers.

The generation mirrors the engines' ``Catalog.generation`` counter:
the middleware bumps it once per DDL statement it commits, which is
exactly when every replica catalog bumped its own.

Translation *refusals* (:class:`~repro.errors.FeatureNotSupported`)
are cached too — a dialect that rejects a statement rejects it every
time — and re-raised on each hit with a traceback that starts afresh.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Optional

from repro.analysis.dataflow import DefUse, statement_def_use
from repro.analysis.divergence import StatementDivergence, analyze_divergence
from repro.analysis.predicates import StatementAbstraction, summarize_statement
from repro.analysis.schema import ScriptSchema
from repro.analysis.verdicts import StatementVerdict, analyze_statement
from repro.dialects.features import DialectDescriptor
from repro.dialects.translator import translate_tokens
from repro.errors import FeatureNotSupported
from repro.sqlengine import ast_nodes as ast
from repro.sqlengine.analysis import StatementTraits, extract_traits
from repro.sqlengine.engine import Executable, ParsedStatement, parse_once
from repro.sqlengine.lexer import tokenize
from repro.sqlengine.params import Lifted, lift_literals
from repro.sqlengine.parser import parse_prepared
from repro.sqlengine.tokens import Token

#: The cache layers; each owns a ``<layer>_hits``/``<layer>_misses``
#: counter pair in :class:`PipelineStats`.  ``lift`` comes first.
_LAYERS = (
    "lift", "parse", "translate", "verdict", "divergence", "dataflow", "abstraction",
)


@dataclass
class PipelineStats:
    """Hit/miss accounting for each cache layer."""

    lift_hits: int = 0
    lift_misses: int = 0
    parse_hits: int = 0
    parse_misses: int = 0
    translate_hits: int = 0
    translate_misses: int = 0
    verdict_hits: int = 0
    verdict_misses: int = 0
    divergence_hits: int = 0
    divergence_misses: int = 0
    dataflow_hits: int = 0
    dataflow_misses: int = 0
    abstraction_hits: int = 0
    abstraction_misses: int = 0

    # The totals cover the front-end stages, every layer but ``lift``:
    # the lift layer finds the key the stages are looked up by, and a
    # new literal text costs its one scan whatever the stages hold.

    @property
    def hits(self) -> int:
        return sum(getattr(self, layer + "_hits") for layer in _LAYERS[1:])

    @property
    def misses(self) -> int:
        return sum(getattr(self, layer + "_misses") for layer in _LAYERS[1:])


#: A parsed entry: (statement, traits, text offset of each ``?``
#: placeholder in statement order).
ParsedEntry = tuple[ast.Statement, StatementTraits, tuple[int, ...]]


class StatementPipeline:
    """Bounded LRU memoization of the per-statement front-end stages."""

    def __init__(self, *, capacity: int = 1024) -> None:
        if capacity < 1:
            raise ValueError("pipeline capacity must be positive")
        self.capacity = capacity
        self.generation = 0
        self.stats = PipelineStats()
        #: Per layer: its LRU and the names of its two counters.
        self._layers = {
            layer: (OrderedDict(), layer + "_hits", layer + "_misses")
            for layer in _LAYERS
        }
        #: The latest scan's text and tokens, and the tokens of the
        #: shape lifted from it, handed to the parses and translations
        #: of those texts that follow.  Not one list per cached text:
        #: token lists are large beside their text.
        self._scans: dict[str, list[Token]] = {}

    def bump_generation(self) -> None:
        """Record a schema change: entries keyed on the old generation
        can no longer be returned."""
        self.generation += 1

    def _memo(self, layer: str, key: Any, compute: Callable[[], Any]) -> Any:
        """``layer``'s entry for ``key``, computed and kept (evicting
        the least recently used entry at capacity) on a miss.  A
        :class:`FeatureNotSupported` refusal is an entry too: it is
        kept, and raised on the miss and on every hit, each time with
        a traceback from this frame only (a kept exception would
        otherwise grow its traceback, and pin the frames in it, on
        every raise).  Any other exception from ``compute`` propagates
        with nothing kept or counted."""
        cache, hits, misses = self._layers[layer]
        entry = cache.get(key)
        if entry is not None:
            cache.move_to_end(key)
            counter = hits
        else:
            try:
                entry = compute()
            except FeatureNotSupported as refusal:
                entry = refusal
            if len(cache) >= self.capacity:
                cache.popitem(last=False)
            cache[key] = entry
            counter = misses
        setattr(self.stats, counter, getattr(self.stats, counter) + 1)
        if isinstance(entry, FeatureNotSupported):
            raise entry.with_traceback(None)
        return entry

    # -- stages ------------------------------------------------------------

    def lifted(self, sql: str) -> Optional[Lifted]:
        """``sql`` with its value literals lifted into parameters
        (:func:`~repro.sqlengine.params.lift_literals`), memoized; None
        when nothing lifts."""
        return self._memo("lift", sql, lambda: self._lift(sql)) or None

    def _lift(self, sql: str) -> Any:
        lifted = lift_literals(self._tokens(sql))
        if lifted is None:
            return False
        entry, tokens = lifted
        self._scans[entry.shape] = tokens
        return entry

    def parsed(self, sql: str) -> ParsedEntry:
        """Parse one statement and extract its traits, memoized."""
        return self._memo("parse", sql, lambda: self._parse(sql))

    def _parse(self, sql: str) -> ParsedEntry:
        statement, positions = parse_prepared(self._tokens(sql))
        return statement, extract_traits(statement), positions

    def _tokens(self, sql: str) -> list[Token]:
        tokens = self._scans.get(sql)
        if tokens is None:
            tokens = tokenize(sql)
            self._scans = {sql: tokens}
        return tokens

    def translation(self, sql: str, descriptor: DialectDescriptor) -> Executable:
        """What a replica of ``descriptor``'s dialect runs for ``sql``,
        memoized; cached refusals re-raise their
        :class:`FeatureNotSupported`.

        The text is ``translate_script(sql, descriptor)``, rendered from
        the scan the parse layer made.  When the rewrite renamed
        nothing, the entry carries this pipeline's parse and traits
        (and its placeholder offsets, when the rendering is ``sql``
        itself, as a lifted shape's is); otherwise the text is parsed
        as the engine would parse it (and is handed on as text when it
        does not parse)."""
        return self._memo(
            "translate",
            (descriptor.key, sql),
            lambda: self._translate(sql, descriptor),
        )

    def _translate(self, sql: str, descriptor: DialectDescriptor) -> Executable:
        statement, traits, positions = self.parsed(sql)
        text, renamed = translate_tokens(self._tokens(sql), traits, descriptor)
        if renamed or (positions and text != sql):
            return parse_once(text)
        return ParsedStatement(text, statement, traits, positions)

    def verdict(
        self,
        sql: str,
        statement: ast.Statement,
        schema: ScriptSchema,
        traits: StatementTraits,
    ) -> StatementVerdict:
        """Static-analysis verdict for one statement, memoized per
        schema generation."""
        return self._memo(
            "verdict",
            (sql, self.generation),
            lambda: analyze_statement(statement, schema, traits=traits),
        )

    def divergence(
        self,
        sql: str,
        statement: ast.Statement,
        schema: ScriptSchema,
        classes: Optional[tuple[type, ...]] = None,
    ) -> StatementDivergence:
        """Dialect-divergence analysis for one statement, memoized per
        parameter classes (see :func:`analyze_divergence`) and schema
        generation."""
        return self._memo(
            "divergence",
            (sql, classes, self.generation),
            lambda: analyze_divergence(statement, schema, classes),
        )

    def def_use(
        self,
        sql: str,
        statement: ast.Statement,
        schema: ScriptSchema,
        traits: StatementTraits,
    ) -> DefUse:
        """Def/use sets for one statement, memoized per schema
        generation."""
        return self._memo(
            "dataflow",
            (sql, self.generation),
            lambda: statement_def_use(statement, schema, traits),
        )

    def abstraction(
        self,
        sql: str,
        statement: ast.Statement,
        schema: ScriptSchema,
    ) -> StatementAbstraction:
        """Ternary-logic predicate abstraction for one statement —
        WHERE truth, dead predicates, TLP partition triple — memoized
        per schema generation (the abstraction seeds intervals and
        nullability from declared column constraints)."""
        return self._memo(
            "abstraction",
            (sql, self.generation),
            lambda: summarize_statement(statement, schema),
        )
