"""The benchmark's workloads and the independent quote model they are
checked against.

Every workload draws all of its inputs from one seed: the stock data
comes from :class:`repro.workloads.stocks.StockWorkload`, the request
stream from a ``random.Random`` seeded with ``"<seed>:requests"``. The
program under test receives only the generated requests. Expected
answers come from :class:`QuoteModel`, a plain-dict model of the quote
set that shares no code with the engine.

A workload exposes:

* ``build()`` — the set-up the benchmark times: build the members,
  ``install()``, then one warm-up pass over every operation shape;
* ``next_op()`` — the next :class:`Op` of the closed-loop request stream;
* ``final_check()`` — end-of-run checks against the model, returning a
  list of mismatch descriptions (empty when the state is correct);
* ``environment()`` / ``sizes`` — what the run records about itself;
* ``close()`` — stop the program's worker threads.
"""

from __future__ import annotations

import os
import random

from repro import IdlEngine
from repro.multidb import Federation, FederationConfig, InMemoryConnector
from repro.workloads.stocks import StockWorkload

STYLES = ("euter", "chwab", "ource")
QUERY = "query"
UPDATE = "update"


def cpu_count():
    """Cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on Linux
        return os.cpu_count() or 1


class QuoteModel:
    """The quote set as ``{(day, stock): price}``, indexed both ways.

    Starts from the workload's generated prices; the benchmark applies
    every insert and delete it sends, so the model always holds what a
    correct federation must hold.
    """

    def __init__(self, prices):
        self.by_stock = {}
        self.by_day = {}
        for (day, stock), price in prices.items():
            self.insert(day, stock, price)

    def insert(self, day, stock, price):
        self.by_stock.setdefault(stock, {})[day] = price
        self.by_day.setdefault(day, {})[stock] = price

    def delete(self, day, stock):
        del self.by_stock[stock][day]
        del self.by_day[day][stock]

    def has(self, day, stock):
        return day in self.by_stock.get(stock, ())

    def price(self, day, stock):
        return self.by_stock[stock][day]

    def stock_rows(self, stock):
        """``{(day, price)}`` of one stock."""
        return set(self.by_stock.get(stock, {}).items())

    def day_rows(self, day):
        """``{(stock, price)}`` of one day."""
        return set(self.by_day.get(day, {}).items())

    def quotes(self):
        """Every quote as ``(day, stock, price)``."""
        return {
            (day, stock, price)
            for stock, days in self.by_stock.items()
            for day, price in days.items()
        }

    def stocks_above(self, threshold):
        """Stocks with at least one price above ``threshold``."""
        return {
            stock for stock, days in self.by_stock.items()
            if any(price > threshold for price in days.values())
        }


def long_form(style, relations):
    """A member's ``{rel: rows}`` in one schema style, as the set of
    ``(day, stock, price)`` quotes it holds."""
    quotes = set()
    if style == "euter":
        for row in relations.get("r", ()):
            quotes.add((row["date"], row["stkCode"], row["clsPrice"]))
    elif style == "chwab":
        # A deleted chwab quote leaves its cell null: no quote.
        for row in relations.get("r", ()):
            for attr, value in row.items():
                if attr != "date" and value is not None:
                    quotes.add((row["date"], attr, value))
    else:
        for stock, rows in relations.items():
            for row in rows:
                quotes.add((row["date"], stock, row["clsPrice"]))
    return quotes


class Op:
    """One request of the stream.

    ``call`` runs it against the program (the only timed part);
    ``check(result)`` compares the result with the model and returns
    True when it is right; ``applied()`` records a successful write in
    the model.
    """

    __slots__ = ("kind", "shape", "call", "check", "applied")

    def __init__(self, kind, shape, call, check, applied=None):
        self.kind = kind
        self.shape = shape
        self.call = call
        self.check = check
        self.applied = applied


def answer_set(result, variables):
    """Answers as a set of value tuples, or None when an answer repeats
    (set semantics: every answer must be distinct)."""
    rows = {tuple(answer[name] for name in variables) for answer in result}
    return rows if len(rows) == len(result) else None


def matches(variables, expected):
    def check(result):
        return answer_set(result, variables) == expected()
    return check


def quote_literal(text):
    return "'" + text + "'"


class SeededWorkload:
    """Shared seed handling and the shuffled round of shapes."""

    #: The shapes of one round, shuffled per round; repeats give a
    #: shape its weight. Fixed shares keep each percentile inside one
    #: latency mode whatever the seed.
    ROUND = ()

    def __init__(self, seed, n_stocks, n_days):
        self.seed = seed
        self.stocks = StockWorkload(n_stocks=n_stocks, n_days=n_days,
                                    seed=seed)
        self.renders = {style: self.stocks.relations_for(style)
                        for style in STYLES}
        self.model = QuoteModel(self.stocks.prices)
        self.rng = random.Random(f"{seed}:requests")
        self.sizes = {"stocks": n_stocks, "days": n_days,
                      "quotes": n_stocks * n_days}
        self._round = []

    def next_shape(self):
        if not self._round:
            self._round = list(self.ROUND)
            self.rng.shuffle(self._round)
        return self._round.pop()

    def some_stock(self):
        return self.rng.choice(self.stocks.symbols)

    def some_day(self):
        return self.rng.choice(self.stocks.days)


class FederationWorkload(SeededWorkload):
    """A federation of ``2 x (euter, chwab, ource)`` in-memory members
    with one customized view per style, at the default
    ``FederationConfig()`` except for the ``max_workers`` cap."""

    MEMBERS_PER_STYLE = 2

    def __init__(self, seed, n_stocks, n_days):
        super().__init__(seed, n_stocks, n_days)
        self.member_styles = {
            f"{style}{index}": style
            for index in range(self.MEMBERS_PER_STYLE)
            for style in STYLES
        }
        self.max_workers = min(cpu_count(), len(self.member_styles))
        self.sizes["members"] = len(self.member_styles)
        self.sizes["user_views"] = len(STYLES)
        self.federation = None
        self.connectors = {}

    def build(self):
        federation = Federation.from_config(
            FederationConfig(max_workers=self.max_workers)
        )
        connectors = {}
        for name, style in self.member_styles.items():
            connectors[name] = InMemoryConnector(self.renders[style])
            federation.add_member(name, style, connector=connectors[name])
        for style in STYLES:
            federation.add_user_view(f"u_{style}", style)
        federation.install()
        self.federation = federation
        self.connectors = connectors
        self.warm_up()

    def warm_up(self):
        for shape in self.READS:
            op = self.read(shape)
            if not op.check(op.call()):
                raise AssertionError(f"warm-up {shape} answered wrongly")

    def close(self):
        if self.federation is not None:
            self.federation.executor.shutdown()

    def read(self, shape, stock=None, day=None):
        federation = self.federation
        model = self.model
        if shape == "unified_by_stock":
            stock = stock or self.some_stock()
            source = (f"?.dbI.p(.date=D, .stk={quote_literal(stock)}, "
                      f".price=P)")
            return Op(QUERY, shape, lambda: federation.query(source),
                      matches(("D", "P"), lambda: model.stock_rows(stock)))
        if shape == "unified_by_date":
            day = day or self.some_day()
            source = f"?.dbI.p(.date={quote_literal(day)}, .stk=S, .price=P)"
            return Op(QUERY, shape, lambda: federation.query(source),
                      matches(("S", "P"), lambda: model.day_rows(day)))
        if shape == "u_ource_stock":
            stock = self.some_stock()
            source = f"?.u_ource.{stock}(.date=D, .clsPrice=P)"
            return Op(QUERY, shape, lambda: federation.query(source),
                      matches(("D", "P"), lambda: model.stock_rows(stock)))
        if shape == "chwab_member_date":
            day = self.some_day()
            member = f"chwab{self.rng.randrange(self.MEMBERS_PER_STYLE)}"
            source = (f"?.{member}.r(.date={quote_literal(day)}, .S=P), "
                      f"S != date")
            return Op(QUERY, shape, lambda: federation.query(source),
                      matches(("S", "P"), lambda: model.day_rows(day)))
        raise ValueError(f"unknown read shape {shape!r}")

    def final_check(self):
        """The unified view and every member's own state must both hold
        exactly the model's quotes."""
        expected = self.model.quotes()
        problems = []
        unified = self.federation.unified_quotes()
        if len(unified) != len(expected) or set(unified) != expected:
            problems.append(f"unified_quotes(): {len(unified)} rows, "
                            f"model has {len(expected)}")
        for name, connector in sorted(self.connectors.items()):
            held = long_form(self.member_styles[name], connector.scan())
            if held != expected:
                problems.append(
                    f"member {name}: {len(held ^ expected)} quotes differ "
                    f"from the model")
        return problems

    def environment(self):
        federation = self.federation
        obs = federation.obs
        config = federation.config
        return {
            "max_workers": self.max_workers,
            "parallel": config.parallel,
            "journal": type(federation.journal).__name__,
            "prune": config.prune,
            "observability": {
                "enabled": obs.enabled,
                "sample_rate": obs.sample_rate,
                "telemetry_port": config.telemetry_port,
            },
        }

    def engine(self):
        return self.federation.engine


class ReadMix(FederationWorkload):
    """Short point reads over a warm federation."""

    NAME = "read_mix"
    ROUND = ("unified_by_stock", "unified_by_date", "unified_by_date",
             "u_ource_stock", "chwab_member_date")
    READS = ("unified_by_stock", "unified_by_date", "u_ource_stock",
             "chwab_member_date")

    def __init__(self, seed, n_stocks=20, n_days=40):
        super().__init__(seed, n_stocks, n_days)

    def next_op(self):
        return self.read(self.next_shape())


class WriteMix(FederationWorkload):
    """Quote inserts and deletes through the control programs and the
    customized views, each followed by a unified point read of the
    quote it wrote.

    Deletes take a quote the model holds; inserts put back a deleted
    one at a fresh price, so the data size stays near its start and no
    write can fail on a quote that already exists.
    """

    NAME = "write_mix"
    ROUND = ("delete_quote", "delete_quote", "delete_quote",
             "insert_quote", "u_euter_insert", "u_chwab_set_price")
    INSERTS = ("insert_quote", "u_euter_insert", "u_chwab_set_price")
    READS = ("unified_by_stock", "unified_by_date")

    def __init__(self, seed, n_stocks=12, n_days=30):
        super().__init__(seed, n_stocks, n_days)
        self.absent = []  # (day, stock) quotes deleted and not yet re-inserted
        self._after_write = None  # (day, stock) the next read looks at

    def warm_up(self):
        """Every read shape, then every write shape on one quote; the
        writes delete and restore it, so the data ends as it began."""
        super().warm_up()
        day, stock = self.some_day(), self.some_stock()
        price = self.model.price(day, stock)
        for shape in self.INSERTS:
            for op in (self.write("delete_quote", day, stock),
                       self.write(shape, day, stock, price)):
                if not op.check(op.call()):
                    raise AssertionError(f"warm-up {op.shape} failed")
        op = self.read("unified_by_stock", stock=stock)
        if not op.check(op.call()):
            raise AssertionError("warm-up read after writes answered wrongly")

    def next_op(self):
        if self._after_write is not None:
            day, stock = self._after_write
            self._after_write = None
            if self.rng.random() < 0.5:
                return self.read("unified_by_stock", stock=stock)
            return self.read("unified_by_date", day=day)
        shape = self.next_shape()
        if shape == "delete_quote" or not self.absent:
            day, stock = self.some_day(), self.some_stock()
            while not self.model.has(day, stock):
                day, stock = self.some_day(), self.some_stock()
            op = self.write("delete_quote", day, stock)
        else:
            day, stock = self.absent.pop(self.rng.randrange(len(self.absent)))
            price = round(self.rng.uniform(20.0, 200.0), 2)
            op = self.write(shape, day, stock, price)
        self._after_write = (day, stock)
        return op

    def write(self, shape, day, stock, price=None):
        federation = self.federation
        model = self.model
        if shape == "delete_quote":
            call = lambda: federation.delete_quote(stock, day)  # noqa: E731

            def applied():
                model.delete(day, stock)
                self.absent.append((day, stock))
        else:
            if shape == "insert_quote":
                call = lambda: federation.insert_quote(  # noqa: E731
                    stock, day, price)
            elif shape == "u_euter_insert":
                source = (f"?.u_euter.r+(.date={quote_literal(day)}, "
                          f".stkCode={quote_literal(stock)}, "
                          f".clsPrice={price!r})")
                call = lambda: federation.update(source)  # noqa: E731
            elif shape == "u_chwab_set_price":
                source = (f"?.u_chwab.setPrice(.stk={quote_literal(stock)}, "
                          f".date={quote_literal(day)}, .price={price!r})")
                call = lambda: federation.update(source)  # noqa: E731
            else:
                raise ValueError(f"unknown write shape {shape!r}")

            def applied():
                model.insert(day, stock, price)
        return Op(UPDATE, shape, call, _write_landed, applied)


def _write_landed(result):
    """A write is right when it changed the data and every member took
    it."""
    return (result.changed and result.flushed
            and all(outcome == "applied"
                    for outcome in result.member_outcomes.values()))


class HigherOrderScan(SeededWorkload):
    """The paper's higher-order queries on a bare engine, obs off."""

    NAME = "higher_order_scan"
    ROUND = ("join_chwab_ource", "join_euter_chwab", "ource_above",
             "ource_above", "stkcode_holders", "stkcode_holders")

    def __init__(self, seed, n_stocks=20, n_days=40):
        super().__init__(seed, n_stocks, n_days)
        self.sizes["databases"] = len(STYLES)
        self._engine = None

    def build(self):
        engine = IdlEngine()
        for style in STYLES:
            engine.add_database(style, self.renders[style])
        self._engine = engine
        for shape in sorted(set(self.ROUND)):
            op = self.query(shape)
            if not op.check(op.call()):
                raise AssertionError(f"warm-up {shape} answered wrongly")

    def next_op(self):
        return self.query(self.next_shape())

    def query(self, shape):
        engine = self._engine
        model = self.model
        if shape == "join_chwab_ource":
            source = ("?.chwab.r(.date=D, .S=P), "
                      ".ource.S(.date=D, .clsPrice=P)")
            check = matches(("D", "S", "P"), model.quotes)
        elif shape == "join_euter_chwab":
            source = ("?.euter.r(.date=D, .stkCode=S, .clsPrice=P), "
                      ".chwab.r(.date=D, .S=P)")
            check = matches(("D", "S", "P"), model.quotes)
        elif shape == "ource_above":
            day, stock = self.some_day(), self.some_stock()
            threshold = model.price(day, stock)
            source = f"?.ource.S(.clsPrice>{threshold!r})"
            check = matches(("S",),
                            lambda: {(name,) for name in
                                     model.stocks_above(threshold)})
        elif shape == "stkcode_holders":
            source = "?.X.Y(.stkCode)"
            check = matches(("X", "Y"), lambda: {("euter", "r")})
        else:
            raise ValueError(f"unknown query shape {shape!r}")
        return Op(QUERY, shape, lambda: engine.query(source), check)

    def final_check(self):
        return []

    def environment(self):
        engine = self._engine
        return {
            "max_workers": None,
            "journal": None,
            "prune": engine.prune,
            "observability": {"enabled": engine.obs is not None},
        }

    def engine(self):
        return self._engine

    def close(self):
        pass


WORKLOADS = {cls.NAME: cls for cls in (ReadMix, WriteMix, HigherOrderScan)}
