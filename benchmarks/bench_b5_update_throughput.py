"""B5 — update-program throughput vs direct base updates.

Question: what does the Section 7 indirection cost? One logical insert
through insStk fans out to three member updates plus program dispatch;
a direct base insert touches one relation. Also measured: the price of
the engine's undo-log transaction (atomic=True: the pre-image of every
container the request mutates) versus trusting the request
(atomic=False).
"""

from __future__ import annotations

import pytest

from repro.bench import Experiment, stock_federation, throughput


def fresh():
    federation, workload = stock_federation(n_stocks=8, n_days=10, users=False)
    return federation, workload


def test_direct_base_insert(benchmark):
    federation, _ = fresh()
    engine = federation.engine
    counter = [0]

    def insert():
        counter[0] += 1
        engine.update(
            f"?.euter.r+(.date=x{counter[0]}, .stkCode=hp, .clsPrice=1)",
            atomic=False,
        )

    benchmark(insert)


def test_program_insert_nonatomic(benchmark):
    federation, _ = fresh()
    engine = federation.engine
    counter = [0]

    def insert():
        counter[0] += 1
        engine.update(
            f"?.dbU.insStk(.stk=hp, .date=x{counter[0]}, .price=1)",
            atomic=False,
        )

    benchmark(insert)


def test_program_insert_atomic(benchmark):
    federation, _ = fresh()
    engine = federation.engine
    counter = [0]

    def insert():
        counter[0] += 1
        engine.update(
            f"?.dbU.insStk(.stk=hp, .date=x{counter[0]}, .price=1)",
            atomic=True,
        )

    benchmark(insert)


def test_b5_throughput_table(benchmark):
    def measure():
        rows = []
        for label, atomic, program in (
            ("direct base insert", False, False),
            ("insStk (non-atomic)", False, True),
            ("insStk (atomic snapshot)", True, True),
        ):
            federation, _ = fresh()
            engine = federation.engine
            counter = [0]

            def op():
                counter[0] += 1
                if program:
                    engine.update(
                        f"?.dbU.insStk(.stk=hp, .date=y{counter[0]}, .price=1)",
                        atomic=atomic,
                    )
                else:
                    engine.update(
                        f"?.euter.r+(.date=y{counter[0]}, .stkCode=hp, .clsPrice=1)",
                        atomic=atomic,
                    )

            rows.append({"mode": label, "ops_per_s": throughput(op, 60)})
        return rows

    rows = benchmark.pedantic(measure, rounds=1, iterations=1)
    experiment = Experiment(
        "B5",
        "logical insert throughput (8 stocks x 10 days, 3 members)",
        "update programs trade per-op cost for one-expression multi-"
        "database maintenance; atomicity costs an undo log of what the "
        "request touched",
    )
    for row in rows:
        experiment.add_row(**row)
    experiment.report()
    by_mode = {row["mode"]: row["ops_per_s"] for row in rows}
    # Shape: the direct insert clearly beats the 3-member program fan-out.
    # (Atomic vs non-atomic differ only by the undo log of the touched
    # containers — within measurement noise — so no ordering is asserted
    # there. The "atomic snapshot" row label is kept: the guard names it.)
    assert by_mode["direct base insert"] > 1.5 * by_mode["insStk (non-atomic)"]
    assert by_mode["direct base insert"] > 1.5 * by_mode["insStk (atomic snapshot)"]
