"""Workload generators: mixes, schemas, contention structure."""

import hashlib
import random

import pytest

from repro.bench import paperconfig as pc
from repro.sim.rand import Streams
from repro.workloads import WORKLOADS, make_workload
from repro.workloads.base import Operation, TxnSpec, Workload
from repro.workloads.tpcc import TPCC


@pytest.fixture
def rng():
    return random.Random(99)


class TestOperation:
    def test_update_defaults_to_x_lock(self):
        op = Operation("update", "t", 1)
        assert op.lock == "X"

    def test_plain_select_takes_no_lock(self):
        op = Operation("select", "t", 1)
        assert op.lock is None

    def test_locking_select(self):
        assert Operation("select", "t", 1, lock="X").lock == "X"
        assert Operation("select", "t", 1, lock="S").lock == "S"

    def test_invalid_kind_and_lock(self):
        with pytest.raises(ValueError):
            Operation("delete", "t", 1)
        with pytest.raises(ValueError):
            Operation("select", "t", 1, lock="Z")


#: Specs minted per spec-stream golden.
SPEC_STREAM_LENGTH = 3000


def _spec_stream_cases(name):
    """``(label, kwargs)`` per pinned generator configuration of ``name``."""
    paper = pc.workload_kwargs_for(name)
    cases = [("paper", paper)]
    if name == "tpcc":
        cases += [
            ("2wh-remote-payment",
             dict(pc.tpcc_2wh_kwargs(), remote_payment_prob=0.15)),
            ("postgres-32wh-uniform", pc.postgres_experiment().workload_kwargs),
            ("fixed-order-lines", dict(paper, fixed_order_lines=10)),
            ("one-warehouse", dict(paper, warehouses=1)),
        ]
    return cases


def _spec_stream_digests(name, kwargs, seed=7):
    """SHA-256 of a driver-shaped spec stream and of the stream state after.

    Specs are drawn from the ``driver`` stream with the driver's jitter
    draw between them, so the buffered/native switching of
    :class:`~repro.sim.rand.BufferedRandom` is exercised as in a run.
    Every op must also equal its rebuild through the validating
    :class:`Operation` constructor.
    """
    workload = make_workload(name, **kwargs)
    rng = Streams(seed).stream("driver")
    specs = hashlib.sha256()
    for _ in range(SPEC_STREAM_LENGTH):
        spec = workload.make_txn(rng)
        rows = []
        for op in spec.ops:
            row = (op.kind, op.table, op.key, op.lock, op.home)
            rebuilt = Operation(op.kind, op.table, op.key, lock=op.lock, home=op.home)
            assert (rebuilt.kind, rebuilt.table, rebuilt.key, rebuilt.lock,
                    rebuilt.home) == row, (spec.txn_type, op)
            rows.append(row)
        specs.update(repr((spec.txn_type, rows)).encode("utf-8"))
        rng.uniform(-200.0, 200.0)
    state = hashlib.sha256(repr(rng.getstate()).encode("utf-8"))
    return specs.hexdigest(), state.hexdigest()


#: ``(spec digest, stream-state digest)`` per ``(workload, case label)``.
#: A generator edit that moves any draw, key, lock or home changes them.
#: Regenerate (``_spec_stream_digests`` over ``_spec_stream_cases``) only
#: for an intended change to what a workload mints.
SPEC_STREAM_GOLDENS = {
    ("epinions", "paper"): (
        "f779a4a0fbcdee37619d430451c20ce4d8b61139116ba58bc1c224d343593856",
        "5910858d4f06bfdaae02044691096437d24c54a73525907667e74ebbc4d90459",
    ),
    ("seats", "paper"): (
        "834b83a8fcba831abf35eec0b5ad53f9672280499ba5831a340618aaf3343eb6",
        "716528ca26e8849c07b2574192a91ed83699f674d40d7641c280a5260f68b1e3",
    ),
    ("tatp", "paper"): (
        "23d18bce7d394e55b1115ae9be0c20562dce54eecabecfed593e68b106102c71",
        "20141b8dad4ff8f55c53ac2e54a9951fb7ed0017a5e0fcd3588f3c527b5ea3da",
    ),
    ("tpcc", "paper"): (
        "04149d77c6f2a8c93b7402707b3969449fcbfc5a97f704ec3a80f40863c67719",
        "9fce859c8f15573e97893bf6f40d7f6af95bbe7bbf240f2a459a302ff4494f11",
    ),
    ("tpcc", "2wh-remote-payment"): (
        "c30678d2f0d24e641ba1ca2dc3b812d7007dc0b31ea6cb83e083be81b146ddf2",
        "10dba0d0efbb9c424c94d9f5696cb0c35d922428bbf999b6a1894c1bd3352883",
    ),
    ("tpcc", "postgres-32wh-uniform"): (
        "8f71b1e2470c7117a852e937b289a16dcb4a97015721a7fd3779d57608e4c71c",
        "9aea3ebde121dc95683b9a02a78e9e50ee6eb752c56f2139b5563329820d6f61",
    ),
    ("tpcc", "fixed-order-lines"): (
        "84a5026430559a5216a695531cad7610f1b697eda10ef9dfcc5b0ffbf1468fc6",
        "4a8d8905ee0a5d374cf931c4c52d09d78e32bc11b94278ed091df9d82f3c3b0f",
    ),
    ("tpcc", "one-warehouse"): (
        "11b920c845d3dff7b52eb2af632528719499aa114d51a49bc8e0462c3d66aeee",
        "54bf7461191d509cb7054cdd622d9ebfe8d3255b5c1ddc37a8316bf173b1d03e",
    ),
    ("ycsb", "paper"): (
        "580f4a0b873fbb141b620312e26dc263bff14e5132ac452842aeb89534798b4f",
        "75efa140d8718bd35596780d5d4feb1cd149f6e898b7e83f9e54487fa51fe726",
    ),
}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
class TestEveryWorkload:
    def test_spec_stream_matches_golden(self, name):
        for label, kwargs in _spec_stream_cases(name):
            assert _spec_stream_digests(name, kwargs) == (
                SPEC_STREAM_GOLDENS[(name, label)]
            ), "%s/%s minted a different spec stream" % (name, label)

    def test_operations_reference_schema_tables(self, name, rng):
        workload = make_workload(name)
        for _ in range(200):
            spec = workload.make_txn(rng)
            assert len(spec.ops) >= 1
            for op in spec.ops:
                assert op.table in workload.schema

    def test_mix_frequencies_match_weights(self, name, rng):
        workload = make_workload(name)
        total = sum(w for _t, w, _m in workload.mix)
        counts = {}
        n = 4000
        for _ in range(n):
            spec = workload.make_txn(rng)
            counts[spec.txn_type] = counts.get(spec.txn_type, 0) + 1
        for txn_type, weight, _maker in workload.mix:
            expected = weight / total
            observed = counts.get(txn_type, 0) / n
            assert observed == pytest.approx(expected, abs=0.03)

    def test_deterministic_for_same_rng_seed(self, name):
        def sample(seed):
            workload = make_workload(name)
            rng = random.Random(seed)
            return [
                (s.txn_type, [(o.kind, o.table, o.key) for o in s.ops])
                for s in (workload.make_txn(rng) for _ in range(50))
            ]

        assert sample(5) == sample(5)

    def test_insert_keys_are_fresh(self, name, rng):
        workload = make_workload(name)
        seen = set()
        for _ in range(500):
            for op in workload.make_txn(rng).ops:
                if op.kind == "insert":
                    key = (op.table, op.key)
                    assert key not in seen
                    seen.add(key)


class TestTPCC:
    def test_standard_mix_weights(self):
        tpcc = TPCC()
        weights = {t: w for t, w, _m in tpcc.mix}
        assert weights["NewOrder"] == 45
        assert weights["Payment"] == 43
        assert weights["OrderStatus"] == weights["Delivery"] == weights["StockLevel"] == 4

    def test_new_order_line_count_range(self, rng):
        tpcc = TPCC(warehouses=4)
        for _ in range(100):
            spec = tpcc.make_txn(rng)
            if spec.txn_type != "NewOrder":
                continue
            stock_locks = [
                op
                for op in spec.ops
                if op.table == "stock" and op.kind == "select" and op.lock == "X"
            ]
            assert 5 <= len(stock_locks) <= 15

    def test_fixed_order_lines(self, rng):
        tpcc = TPCC(warehouses=4, fixed_order_lines=10)
        for _ in range(50):
            spec = tpcc.make_txn(rng)
            if spec.txn_type == "NewOrder":
                stock_locks = [
                    op
                    for op in spec.ops
                    if op.table == "stock" and op.kind == "select" and op.lock == "X"
                ]
                assert len(stock_locks) == 10

    def test_new_order_locks_district_via_select(self, rng):
        """The os_event_wait [A] call site: X lock from a select."""
        tpcc = TPCC(warehouses=4)
        for _ in range(100):
            spec = tpcc.make_txn(rng)
            if spec.txn_type == "NewOrder":
                first_district = next(o for o in spec.ops if o.table == "district")
                assert first_district.kind == "select"
                assert first_district.lock == "X"
                break

    def test_new_order_conflicts_with_delivery_on_new_order_counter(self, rng):
        tpcc = TPCC(warehouses=1, warehouse_zipf_theta=None)
        counters_locked = set()
        for _ in range(300):
            spec = tpcc.make_txn(rng)
            for op in spec.ops:
                if op.table == "new_order" and op.kind == "update":
                    counters_locked.add((spec.txn_type, op.key))
        types = {t for t, _k in counters_locked}
        assert "NewOrder" in types and "Delivery" in types

    def test_warehouse_skew_concentrates_traffic(self, rng):
        skewed = TPCC(warehouses=64, warehouse_zipf_theta=0.99)
        uniform = TPCC(warehouses=64, warehouse_zipf_theta=None)

        def hottest_share(workload):
            counts = {}
            sampler = random.Random(5)
            for _ in range(3000):
                w = workload._warehouse(sampler)
                counts[w] = counts.get(w, 0) + 1
            return max(counts.values()) / 3000

        assert hottest_share(skewed) > 2 * hottest_share(uniform)

    @pytest.mark.xfail(
        strict=True,
        reason="Delivery's orders keys and OrderStatus's order_line keys are "
        "drawn from the whole table but tagged with the transaction's own "
        "warehouse as home; the generator fix must remove this marker",
    )
    def test_home_is_the_warehouse_the_key_encodes(self):
        """Every initial row of a warehouse-partitioned table is homed
        where its key puts it: table ``t`` holds ``warehouses * rows[t]``
        initial rows, warehouse ``w`` owning keys ``[w * rows[t], (w + 1)
        * rows[t])``.  Fresh insert keys lie past the initial range.
        """
        tpcc = TPCC(**dict(pc.tpcc_2wh_kwargs(), remote_payment_prob=0.15))
        customers = 10 * tpcc.customers_per_district
        rows = {
            "warehouse": 1,
            "district": 10,
            "customer": customers,
            "stock": tpcc.items_per_warehouse,
            "orders": customers,
            "order_line": customers * 10,
            "new_order": 10,
            "history": customers,
        }
        rng = random.Random(2)
        misplaced = []
        for _ in range(1000):
            spec = tpcc.make_txn(rng)
            for op in spec.ops:
                per_warehouse = rows.get(op.table)
                if per_warehouse is None or op.key >= tpcc.schema[op.table]:
                    continue
                if op.key // per_warehouse != op.home:
                    misplaced.append((spec.txn_type, op))
        assert not misplaced, misplaced[:5]

    def test_zero_warehouses_rejected(self):
        with pytest.raises(ValueError):
            TPCC(warehouses=0)


class TestWorkloadBase:
    def test_finalize_required(self, rng):
        class Broken(Workload):
            def __init__(self):
                super().__init__()
                self.mix = [("only", 1, lambda r: [Operation("select", "t", 0)])]
                self.schema = {"t": 10}
                # forgot to call finalize()

        with pytest.raises(RuntimeError):
            Broken().make_txn(rng)

    def test_fresh_keys_monotone(self):
        workload = TPCC(warehouses=1)
        k1 = workload.fresh_key("orders")
        k2 = workload.fresh_key("orders")
        assert k2 == k1 + 1
        assert k1 >= workload.schema["orders"]

    def test_unknown_workload_name(self):
        with pytest.raises(ValueError):
            make_workload("oracle")


class TestContentionProfiles:
    def test_ycsb_essentially_conflict_free(self, rng):
        """Table 4's no-contention rows: repeated sampling rarely
        collides on the same key."""
        ycsb = make_workload("ycsb")
        keys = []
        for _ in range(300):
            for op in ycsb.make_txn(rng).ops:
                if op.lock == "X":
                    keys.append((op.table, op.key))
        assert len(set(keys)) >= 0.99 * len(keys)

    def test_seats_concentrates_on_hot_flights(self, rng):
        seats = make_workload("seats")
        flights = []
        for _ in range(500):
            for op in seats.make_txn(rng).ops:
                if op.table == "flight" and op.lock == "X":
                    flights.append(op.key)
        hottest = max(flights.count(f) for f in set(flights))
        assert hottest > len(flights) * 0.05

    def test_tatp_read_dominated(self, rng):
        tatp = make_workload("tatp")
        reads = writes = 0
        for _ in range(500):
            for op in tatp.make_txn(rng).ops:
                if op.kind == "select" and op.lock is None:
                    reads += 1
                else:
                    writes += 1
        assert reads > 2 * writes
