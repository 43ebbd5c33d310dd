"""Unit tests for the correctness oracles over hand-built histories.

Each oracle gets both directions: a clean history it must accept and a
corrupted history it must reject with the right rule slug.  The
histories are built directly from the record classes — no simulator —
so each test documents exactly which event shape a rule fires on.
End-to-end coverage (real runs, planted corruption, digest equality)
lives at the bottom and in ``tests/test_check_fuzz.py``.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.digest import run_digest
from repro.bench.runner import ExperimentConfig, run_experiment
from repro.check import (
    OWN,
    History,
    OpRec,
    RoundRec,
    TxnRec,
    check_2pc_atomicity,
    check_all,
    check_lock_intervals,
    check_serializability,
)
from repro.check import _test_hooks
from repro.check.oracles import Violation
from repro.storage.tables import SequentialTableModel


def rules(violations):
    return sorted({v.rule for v in violations})


def write(seq, key, locked=True, table="t"):
    return OpRec(seq, t=float(seq), kind="update", table=table, key=key,
                 locked=locked)


def read(seq, key, observed, locked=True, table="t"):
    return OpRec(seq, t=float(seq), kind="select", table=table, key=key,
                 locked=locked, observed=observed)


# ----------------------------------------------------------------------
# Serializability: model-based replay
# ----------------------------------------------------------------------


def test_clean_locking_history_accepted():
    """Writer commits, later locking read sees its version: no anomaly."""
    history = History(txns=[
        TxnRec("T1", ops=[write(1, 7)], commit_seq=10),
        TxnRec("T2", ops=[read(20, 7, observed=("T1", 0))], commit_seq=30),
    ])
    assert check_serializability(history) == []
    assert check_all(history) == []


def test_read_own_write_accepted():
    history = History(txns=[
        TxnRec("T1", ops=[write(1, 7), read(2, 7, observed=OWN)],
               commit_seq=10),
    ])
    assert check_serializability(history) == []


def test_initial_state_read_accepted():
    """A read before any writer committed observes None (initial DB)."""
    history = History(txns=[
        TxnRec("T1", ops=[read(1, 7, observed=None, locked=False)],
               commit_seq=10),
    ])
    assert check_serializability(history) == []


def test_lost_update_rejected():
    """T1's committed write is invisible to T2's locking read."""
    history = History(txns=[
        TxnRec("T1", ops=[write(1, 7)], commit_seq=10),
        TxnRec("T2", ops=[read(20, 7, observed=None)], commit_seq=30),
    ])
    assert rules(check_serializability(history)) == ["stale-locking-read"]


def test_dirty_read_of_aborted_writer_rejected():
    """T2 observed a version whose writer never committed."""
    history = History(txns=[
        TxnRec("T1", committed=False, reason="deadlock", ops=[write(1, 7)]),
        TxnRec("T2", ops=[read(20, 7, observed=("T1", 0))], commit_seq=30),
    ])
    assert rules(check_serializability(history)) == ["dirty-read"]


def test_dirty_read_before_writer_commit_rejected():
    """T2 observed T1's write before T1's commit was sequenced."""
    history = History(txns=[
        TxnRec("T1", ops=[write(1, 7)], commit_seq=25),
        TxnRec("T2", ops=[read(20, 7, observed=("T1", 0))], commit_seq=30),
    ])
    assert rules(check_serializability(history)) == ["dirty-read"]


def test_stale_snapshot_read_rejected():
    """A non-locking read after an install must see that install."""
    history = History(txns=[
        TxnRec("T1", ops=[write(1, 7)], commit_seq=10),
        TxnRec("T2", ops=[read(20, 7, observed=None, locked=False)],
               commit_seq=30),
    ])
    assert rules(check_serializability(history)) == ["stale-read"]


def test_snapshot_read_of_older_version_accepted():
    """MVCC reads may lag: an older *committed* version is legal only if
    it was the latest at read time — here it is, because T2 reads before
    T3's install is sequenced."""
    history = History(txns=[
        TxnRec("T1", ops=[write(1, 7)], commit_seq=10),
        TxnRec("T2", ops=[read(20, 7, observed=("T1", 0), locked=False)],
               commit_seq=40),
        TxnRec("T3", ops=[write(21, 7)], commit_seq=30),
    ])
    assert check_serializability(history) == []


def test_own_write_marker_without_write_rejected():
    history = History(txns=[
        TxnRec("T1", ops=[read(1, 7, observed=OWN)], commit_seq=10),
    ])
    assert rules(check_serializability(history)) == ["read-own-write"]


def test_aborted_txns_do_not_replay():
    """Aborted transactions install nothing and are never replayed."""
    history = History(txns=[
        TxnRec("T1", committed=False, reason="timeout",
               ops=[write(1, 7), read(2, 7, observed=None)]),
        TxnRec("T2", ops=[read(20, 7, observed=None)], commit_seq=30),
    ])
    assert check_serializability(history) == []


# ----------------------------------------------------------------------
# 2PC atomicity
# ----------------------------------------------------------------------


def clean_round(gid="G1", shards=(0, 1)):
    return RoundRec(
        gid, 0, shards,
        votes={s: (True, None, 50.0) for s in shards},
        decision=(True, True, 100.0),
        seals={s: 110.0 + s for s in shards},
        outcomes={s: (True, 120.0 + s) for s in shards},
    )


def clean_2pc_history(gid="G1", shards=(0, 1)):
    rnd = clean_round(gid, shards)
    txns = [
        TxnRec("%s/n%d" % (gid, s), committed=True, commit_seq=200 + s,
               gid=gid, round_index=0, node=s)
        for s in shards
    ]
    txns.append(TxnRec(gid, committed=True, commit_seq=300))
    return History(txns=txns, rounds=[rnd])


def test_clean_2pc_round_accepted():
    assert check_2pc_atomicity(clean_2pc_history()) == []


def test_partial_commit_missing_seal_rejected():
    history = clean_2pc_history()
    del history.rounds[0].seals[1]
    assert rules(check_2pc_atomicity(history)) == ["2pc-partial-commit"]


def test_partial_commit_aborted_branch_rejected():
    history = clean_2pc_history()
    history.rounds[0].outcomes[1] = (False, 120.0)
    assert rules(check_2pc_atomicity(history)) == ["2pc-partial-commit"]


def test_decision_log_gap_rejected():
    history = clean_2pc_history()
    history.rounds[0].decision = (True, False, 100.0)
    assert rules(check_2pc_atomicity(history)) == ["2pc-decision-log-gap"]


def test_no_decision_log_is_vacuous_not_violated():
    """``logged=None`` means the coordinator has no decision log
    configured — durability is unknowable, not violated."""
    history = clean_2pc_history()
    history.rounds[0].decision = (True, None, 100.0)
    assert check_2pc_atomicity(history) == []


def test_seal_before_decision_logged_rejected():
    history = clean_2pc_history()
    history.rounds[0].seals[0] = 90.0  # decision logged at 100.0
    assert rules(check_2pc_atomicity(history)) == [
        "2pc-seal-before-decision-logged"
    ]


def test_commit_despite_no_vote_rejected():
    history = clean_2pc_history()
    history.rounds[0].votes[1] = (False, "crash", 50.0)
    assert "2pc-commit-despite-no-vote" in rules(check_2pc_atomicity(history))


def test_seal_without_decision_rejected():
    history = clean_2pc_history()
    history.rounds[0].decision = None
    history.txns[-1] = TxnRec("G1", committed=False, reason="crash")
    found = rules(check_2pc_atomicity(history))
    assert "2pc-seal-without-decision" in found


def test_aborted_round_sealed_rejected():
    history = clean_2pc_history()
    history.rounds[0].decision = (False, True, 100.0)
    history.txns[-1] = TxnRec("G1", committed=False, reason="vote-no")
    history.rounds[0].outcomes = {s: (False, 120.0) for s in (0, 1)}
    assert rules(check_2pc_atomicity(history)) == ["2pc-aborted-round-sealed"]


def test_resurrected_abort_rejected():
    """A globally failed transaction must have no committed round."""
    history = clean_2pc_history()
    history.txns[-1] = TxnRec("G1", committed=False, reason="coordinator-crash")
    assert rules(check_2pc_atomicity(history)) == ["2pc-resurrected-abort"]


def test_double_commit_rejected():
    history = clean_2pc_history()
    second = clean_round()
    second.round_index = 1
    history.rounds.append(second)
    assert "2pc-double-commit" in rules(check_2pc_atomicity(history))


def test_commit_mismatch_rejected():
    """Global reported committed but every round aborted."""
    rnd = clean_round()
    rnd.decision = (False, True, 100.0)
    rnd.seals = {}
    rnd.outcomes = {s: (False, 120.0) for s in (0, 1)}
    history = History(
        txns=[TxnRec("G1", committed=True, commit_seq=300)], rounds=[rnd],
    )
    assert rules(check_2pc_atomicity(history)) == ["2pc-commit-mismatch"]


# ----------------------------------------------------------------------
# Lock-hold intervals
# ----------------------------------------------------------------------


def txn_with_locks(txn_id, intervals, commit_seq=10):
    return TxnRec(txn_id, commit_seq=commit_seq, lock_intervals=intervals)


def test_shared_overlap_accepted():
    history = History(txns=[
        txn_with_locks("T1", [("t:7", "S", 0.0, 100.0)], 10),
        txn_with_locks("T2", [("t:7", "S", 50.0, 150.0)], 20),
    ])
    assert check_lock_intervals(history) == []


def test_touching_endpoints_accepted():
    """Release and re-grant may share one virtual instant."""
    history = History(txns=[
        txn_with_locks("T1", [("t:7", "X", 0.0, 100.0)], 10),
        txn_with_locks("T2", [("t:7", "X", 100.0, 200.0)], 20),
    ])
    assert check_lock_intervals(history) == []


def test_exclusive_overlap_rejected():
    history = History(txns=[
        txn_with_locks("T1", [("t:7", "X", 0.0, 100.0)], 10),
        txn_with_locks("T2", [("t:7", "X", 50.0, 150.0)], 20),
    ])
    assert rules(check_lock_intervals(history)) == ["lock-overlap"]


def test_exclusive_vs_shared_overlap_rejected():
    history = History(txns=[
        txn_with_locks("T1", [("t:7", "X", 0.0, 100.0)], 10),
        txn_with_locks("T2", [("t:7", "S", 50.0, 150.0)], 20),
    ])
    assert rules(check_lock_intervals(history)) == ["lock-overlap"]


def test_aborted_holder_overlap_ignored():
    """Only committed transactions participate — an aborted transaction
    legitimately held locks before dying."""
    history = History(txns=[
        txn_with_locks("T1", [("t:7", "X", 0.0, 100.0)], 10),
        TxnRec("T2", committed=False, reason="deadlock",
               lock_intervals=[("t:7", "X", 50.0, 150.0)]),
    ])
    assert check_lock_intervals(history) == []


# ----------------------------------------------------------------------
# Differential: the oracles against their straightforward scans
# ----------------------------------------------------------------------


def linear_scan_serializability(history):
    """``check_serializability`` with each snapshot read scanning its
    key's whole install list, the oracle's original formulation."""
    violations = []
    committed = history.committed()
    installs = {}
    version_commit = {}
    for txn in committed:
        final = {}
        for i, op in enumerate(txn.ops):
            if op.kind != "select":
                final[(op.table, op.key)] = (txn.txn_id, i)
        for key, version in final.items():
            installs.setdefault(key, []).append((txn.commit_seq, version))
            version_commit[version] = txn.commit_seq
        for i, op in enumerate(txn.ops):
            if op.kind != "select":
                version_commit.setdefault((txn.txn_id, i), txn.commit_seq)
    model = SequentialTableModel()
    for txn in committed:
        written = set()
        for op in txn.ops:
            key = (op.table, op.key)
            if op.kind != "select":
                written.add(key)
                continue
            if key in written:
                if op.observed != OWN:
                    violations.append(Violation(
                        "read-own-write", txn.txn_id,
                        "read of %r after own write observed %r"
                        % (key, op.observed),
                    ))
                continue
            if op.observed == OWN:
                violations.append(Violation(
                    "read-own-write", txn.txn_id,
                    "read of %r marked own-write without a prior write" % (key,),
                ))
                continue
            if op.observed is not None:
                writer_commit = version_commit.get(op.observed)
                if writer_commit is None:
                    violations.append(Violation(
                        "dirty-read", txn.txn_id,
                        "read of %r observed %r whose writer never committed"
                        % (key, op.observed),
                    ))
                    continue
                if writer_commit >= op.seq:
                    violations.append(Violation(
                        "dirty-read", txn.txn_id,
                        "read of %r observed %r before its writer committed "
                        "(commit seq %d >= read seq %d)"
                        % (key, op.observed, writer_commit, op.seq),
                    ))
                    continue
            if op.locked:
                expected = model.read(op.table, op.key)
                if op.observed != expected:
                    violations.append(Violation(
                        "stale-locking-read", txn.txn_id,
                        "locking read of %r observed %r, sequential model "
                        "says %r (lost update?)"
                        % (key, op.observed, expected),
                    ))
            else:
                expected = None
                for commit_seq, version in installs.get(key, ()):
                    if commit_seq < op.seq:
                        expected = version
                    else:
                        break
                if op.observed != expected:
                    violations.append(Violation(
                        "stale-read", txn.txn_id,
                        "non-locking read of %r observed %r, latest "
                        "committed version at read time was %r"
                        % (key, op.observed, expected),
                    ))
        for i, op in enumerate(txn.ops):
            if op.kind != "select":
                model.write(op.table, op.key, (txn.txn_id, i))
    return violations


def every_object_lock_intervals(history):
    """``check_lock_intervals`` sorting and scanning every object."""
    violations = []
    per_object = {}
    for txn in history.txns:
        if not txn.committed:
            continue
        for obj_id, mode, t0, t1 in txn.lock_intervals:
            per_object.setdefault(obj_id, []).append((t0, t1, mode, txn.txn_id))
    for obj_id, intervals in per_object.items():
        intervals.sort(key=lambda entry: (entry[0], entry[1]))
        active = []
        for t0, t1, mode, txn_id in intervals:
            active = [a for a in active if a[1] > t0]
            for _a0, _a1, other_mode, other_txn in active:
                if other_txn == txn_id:
                    continue
                if mode == "X" or other_mode == "X":
                    violations.append(Violation(
                        "lock-overlap", txn_id,
                        "%s hold on %r during [%r, %r] overlaps %s hold by "
                        "txn %r" % (mode, obj_id, t0, t1, other_mode, other_txn),
                    ))
            active.append((t0, t1, mode, txn_id))
    return violations


@st.composite
def hot_key_histories(draw):
    """Transactions over two or three hot keys, with reads interleaved
    between other transactions' writes and commits, and aborted writers
    whose versions some reads observe.  Every op and commit takes a
    distinct global seq, as in a recorded run."""
    n_keys = draw(st.integers(1, 3))
    shapes = []
    tokens = [None, OWN]
    for t in range(draw(st.integers(1, 10))):
        txn_id = "T%d" % (t,)
        ops = []
        for i in range(draw(st.integers(0, 6))):
            key = draw(st.integers(0, n_keys - 1))
            if draw(st.booleans()):
                ops.append(("update", key, True, None))
                tokens.append((txn_id, i))
            else:
                ops.append(("select", key, draw(st.booleans()),
                            draw(st.sampled_from(tokens))))
        committed = draw(st.integers(0, 3)) > 0
        locks = [
            ("t:%d" % (key,), mode, float(t0), float(t0 + span))
            for key, mode, t0, span in draw(st.lists(st.tuples(
                st.integers(0, n_keys), st.sampled_from("SX"),
                st.integers(0, 20), st.integers(0, 8)), max_size=3))
        ]
        shapes.append((txn_id, ops, committed, locks))
    n_seqs = sum(len(ops) + 1 for _txn, ops, _c, _l in shapes)
    seqs = iter(draw(st.permutations(range(1, n_seqs + 1))))
    txns = []
    for txn_id, ops, committed, locks in shapes:
        records = [
            OpRec(next(seqs), kind=kind, table="t", key=key, locked=locked,
                  observed=observed)
            for kind, key, locked, observed in ops
        ]
        commit_seq = next(seqs)
        txns.append(TxnRec(
            txn_id, committed=committed,
            reason=None if committed else "deadlock", ops=records,
            commit_seq=commit_seq if committed else None,
            lock_intervals=locks,
        ))
    return History(txns=txns)


@settings(max_examples=300, deadline=None)
@given(hot_key_histories())
def test_oracles_match_their_straightforward_scans(history):
    """The binary-searched snapshot read and the skipped single-hold
    objects change no verdict: the same violations, in the same order."""
    assert check_serializability(history) == linear_scan_serializability(
        history)
    assert check_lock_intervals(history) == every_object_lock_intervals(
        history)


# ----------------------------------------------------------------------
# The sequential model itself
# ----------------------------------------------------------------------


def test_sequential_table_model():
    model = SequentialTableModel()
    assert model.read("t", 1) is None
    model.write("t", 1, ("T1", 0))
    assert model.read("t", 1) == ("T1", 0)
    model.write("t", 1, ("T2", 3))
    assert model.read("t", 1) == ("T2", 3)
    assert len(model) == 1


# ----------------------------------------------------------------------
# End-to-end: real runs through the oracles
# ----------------------------------------------------------------------


def small_config(engine, **overrides):
    kwargs = dict(
        engine=engine,
        workload="ycsb",
        workload_kwargs={"scale_factor": 1, "rows_per_sf": 16,
                         "read_fraction": 0.5},
        n_txns=80,
        rate_tps=500.0,
        seed=42,
        check=True,
    )
    kwargs.update(overrides)
    return ExperimentConfig(**kwargs)


@pytest.mark.parametrize("engine", ["mysql", "postgres", "voltdb"])
def test_real_run_is_clean(engine):
    result = run_experiment(small_config(engine))
    assert result.history is not None
    assert result.check_report() == []
    # The history must actually contain signal.
    assert len(result.history.committed()) > 0


def test_check_flag_does_not_change_results():
    """Recording consumes no virtual time and draws no randomness:
    the full run digest is identical with checking on and off."""
    on = run_experiment(small_config("mysql"))
    off = run_experiment(small_config("mysql", check=False))
    assert run_digest(on) == run_digest(off)
    assert off.history is None
    assert off.check_report() is None


@pytest.mark.parametrize("mode,expected_rules", [
    ("lost_update", {"stale-read", "stale-locking-read"}),
    ("dirty_read", {"dirty-read"}),
])
def test_planted_single_node_corruption_detected(mode, expected_rules):
    # Hot enough that reads race in-flight writers (dirty_read needs a
    # read inside another transaction's execute window).
    config = small_config(
        "mysql",
        workload_kwargs={"scale_factor": 1, "rows_per_sf": 4,
                         "read_fraction": 0.5},
        n_txns=150,
        rate_tps=900.0,
    )
    with _test_hooks.corrupted(mode):
        result = run_experiment(config)
        violations = result.check_report()
    assert violations, "corruption %r went undetected" % (mode,)
    assert set(rules(violations)) <= expected_rules


@pytest.mark.parametrize("mode,expected_rule", [
    ("partial_commit", "2pc-partial-commit"),
    ("decision_log_gap", "2pc-decision-log-gap"),
])
def test_planted_2pc_corruption_detected(mode, expected_rule):
    config = ExperimentConfig(
        engine="mysql",
        workload_kwargs={"warehouses": 8, "remote_payment_prob": 0.3},
        n_txns=60,
        num_shards=2,
        seed=9,
        check=True,
    )
    with _test_hooks.corrupted(mode):
        violations = run_experiment(config).check_report()
    assert expected_rule in rules(violations)
