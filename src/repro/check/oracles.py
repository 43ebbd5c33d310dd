"""Offline correctness oracles over a recorded :class:`History`.

Three independent checkers, one entry point (:func:`check_all`):

- :func:`check_serializability` — model-based replay in the style of
  Elle/FoundationDB: committed transactions replay in commit order
  against a :class:`~repro.storage.tables.SequentialTableModel`, and
  every committed read must be explainable.  Locking (2PL) reads must
  equal the sequential model exactly — a mismatch is a lost update or a
  lock-discipline hole.  Non-locking reads (the MVCC engines read
  snapshots without record locks) must observe a version whose writer
  committed *before* the read — anything else is a dirty read.
- :func:`check_2pc_atomicity` — no partial cross-shard commits: a
  commit decision requires unanimous yes votes and a commit seal on
  every shard; the decision must be on the coordinator log before any
  participant seals; an aborted round must seal nothing and an aborted
  global transaction must never have a committed round (no resurrection
  after crash-and-retry).
- :func:`check_lock_intervals` — strict 2PL as recorded by the lock
  manager itself: no committed transaction's exclusive hold interval on
  an object may overlap another committed transaction's hold on the
  same object.

Each violation is a :class:`Violation` with a stable ``rule`` slug, so
tests (and fuzzer reproducers) can assert on anomaly classes without
string-matching prose.
"""

from bisect import bisect_left

from repro.storage.tables import SequentialTableModel

from repro.check.recorder import OWN


class Violation:
    """One oracle failure: which rule, which transaction, and why."""

    __slots__ = ("rule", "txn_id", "detail")

    def __init__(self, rule, txn_id, detail):
        self.rule = rule
        self.txn_id = txn_id
        self.detail = detail

    def __repr__(self):
        return "Violation(%r, txn=%r, %s)" % (self.rule, self.txn_id, self.detail)

    def __eq__(self, other):
        return (
            isinstance(other, Violation)
            and self.rule == other.rule
            and self.txn_id == other.txn_id
            and self.detail == other.detail
        )

    def __hash__(self):
        return hash((self.rule, self.txn_id, self.detail))


def check_serializability(history):
    """Replay committed transactions against the sequential model."""
    violations = []
    committed = history.committed()
    # Version bookkeeping: which versions exist, when their writer
    # committed, and the per-key install sequence (ascending commit_seq).
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
        # Overwritten-within-txn intermediate versions still "exist" for
        # the dirty-read check (they commit when their txn does).
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
                # Read-committed floor for snapshot reads: the latest
                # version installed before this read.  ``(op.seq,)``
                # sorts before every install at that seq or later.
                entries = installs.get(key, ())
                before = bisect_left(entries, (op.seq,))
                expected = entries[before - 1][1] if before else None
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


def check_2pc_atomicity(history):
    """No partial commits, durable decisions, no resurrected aborts."""
    violations = []
    for rnd in history.rounds:
        if rnd.decision is None:
            if rnd.seals:
                violations.append(Violation(
                    "2pc-seal-without-decision", rnd.gid,
                    "round %d sealed shards %r with no coordinator decision"
                    % (rnd.round_index, sorted(rnd.seals)),
                ))
            continue
        commit, logged, decided_at = rnd.decision
        if commit:
            if logged is False:
                violations.append(Violation(
                    "2pc-decision-log-gap", rnd.gid,
                    "round %d commit decision never reached the "
                    "coordinator log" % (rnd.round_index,),
                ))
            for shard in rnd.shards:
                vote = rnd.votes.get(shard)
                if vote is None or not vote[0]:
                    violations.append(Violation(
                        "2pc-commit-despite-no-vote", rnd.gid,
                        "round %d committed but shard %r voted %r"
                        % (rnd.round_index, shard,
                           None if vote is None else vote[0]),
                    ))
                sealed_at = rnd.seals.get(shard)
                if sealed_at is None:
                    violations.append(Violation(
                        "2pc-partial-commit", rnd.gid,
                        "round %d committed but shard %r never sealed"
                        % (rnd.round_index, shard),
                    ))
                elif logged and sealed_at < decided_at:
                    violations.append(Violation(
                        "2pc-seal-before-decision-logged", rnd.gid,
                        "round %d shard %r sealed at %r before the decision "
                        "was logged at %r"
                        % (rnd.round_index, shard, sealed_at, decided_at),
                    ))
                outcome = rnd.outcomes.get(shard)
                if outcome is not None and not outcome[0]:
                    violations.append(Violation(
                        "2pc-partial-commit", rnd.gid,
                        "round %d committed but shard %r aborted its branch"
                        % (rnd.round_index, shard),
                    ))
        else:
            if rnd.seals:
                violations.append(Violation(
                    "2pc-aborted-round-sealed", rnd.gid,
                    "round %d aborted but shards %r sealed commit records"
                    % (rnd.round_index, sorted(rnd.seals)),
                ))
            for shard, outcome in rnd.outcomes.items():
                if outcome[0]:
                    violations.append(Violation(
                        "2pc-resurrected-abort", rnd.gid,
                        "round %d aborted but shard %r committed its branch"
                        % (rnd.round_index, shard),
                    ))
    # Global-outcome consistency: exactly the committed transactions
    # have a committed round, and never more than one.
    rounds_by_gid = {}
    for rnd in history.rounds:
        rounds_by_gid.setdefault(rnd.gid, []).append(rnd)
    globals_by_id = {t.txn_id: t for t in history.txns if t.gid is None}
    for gid, rounds in rounds_by_gid.items():
        committed_rounds = [
            r for r in rounds if r.decision is not None and r.decision[0]
        ]
        if len(committed_rounds) > 1:
            violations.append(Violation(
                "2pc-double-commit", gid,
                "%d rounds committed for one transaction"
                % (len(committed_rounds),),
            ))
        top = globals_by_id.get(gid)
        if top is None:
            continue
        if top.committed and not committed_rounds:
            violations.append(Violation(
                "2pc-commit-mismatch", gid,
                "transaction reported committed but no round committed",
            ))
        elif not top.committed and committed_rounds:
            violations.append(Violation(
                "2pc-resurrected-abort", gid,
                "transaction reported failed (%r) but round %d committed"
                % (top.reason, committed_rounds[0].round_index),
            ))
    return violations


def check_lock_intervals(history):
    """No conflicting lock holds overlap in time among committed txns."""
    violations = []
    per_object = {}
    for txn in history.txns:
        if not txn.committed:
            continue
        for obj_id, mode, t0, t1 in txn.lock_intervals:
            per_object.setdefault(obj_id, []).append((t0, t1, mode, txn.txn_id))
    for obj_id, intervals in per_object.items():
        if len(intervals) < 2:
            continue  # a single hold overlaps nothing
        intervals.sort(key=lambda entry: (entry[0], entry[1]))
        active = []
        for t0, t1, mode, txn_id in intervals:
            # Touching endpoints are legal: release and re-grant can
            # share a virtual instant (strict inequality = true overlap).
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


def check_durability(history):
    """Crash-recovery oracle: commits survive, in-doubt branches resolve.

    For every recorded node crash (``History.crashes``):

    - ``durability-lost-commit`` — a transaction the recorder saw commit
      before the crash appears in the crash's lost set (its log never
      became durable).  Structurally impossible under eager-flush
      policies; under the lazy policies this is the forward-progress
      risk of Appendix B made into a checkable violation.
    - ``recovery-unresolved-indoubt`` — a branch that had voted yes at
      the crash instant never reached a recorded outcome afterwards: the
      2PC termination protocol leaked a prepared transaction (and its
      re-granted locks) forever.

    Aborted and in-doubt-resolved-abort transactions leaving no trace is
    covered jointly with :func:`check_serializability`: only committed
    records install writes into the replay model, so any surviving
    effect of an aborted branch shows up as a stale or dirty read there.
    """
    violations = []
    if not history.crashes:
        return violations
    branch_recs = {}
    for txn in history.txns:
        if txn.gid is not None:
            branch_recs.setdefault(txn.txn_id, []).append(txn)
    committed_at = {t.txn_id: t.commit_time for t in history.txns if t.committed}
    for crash in history.crashes:
        for txn_id in crash.lost:
            at = committed_at.get(txn_id)
            if at is not None and at <= crash.t:
                violations.append(Violation(
                    "durability-lost-commit", txn_id,
                    "reported committed at t=%r but its log was not durable "
                    "at the crash (t=%r, target %r)"
                    % (at, crash.t, crash.target),
                ))
        for txn_id in crash.indoubt:
            recs = branch_recs.get(txn_id, ())
            if not any(r.commit_time >= crash.t for r in recs):
                violations.append(Violation(
                    "recovery-unresolved-indoubt", txn_id,
                    "branch was in doubt at the crash (t=%r, target %r) and "
                    "never resolved to an outcome" % (crash.t, crash.target),
                ))
    return violations


def check_replication(history):
    """Replication oracle: acks, staleness bounds and failover safety.

    Judges the replication records (``History.repl``) a replicated run
    leaves behind; replica-free runs record none, so the oracle is free:

    - ``repl-stale-read-beyond-bound`` — a replica served a read whose
      routing-time staleness exceeded the policy bound it was admitted
      under (the router's bounded-staleness promise was broken).
    - ``repl-lost-ack-commit`` — a sync/semisync commit barrier released
      before collecting its required ack quota: the client was told
      "replicated" while the guarantee did not hold.
    - ``repl-split-brain-double-primary`` — a commit was recorded under
      a primacy epoch that a promotion had already superseded (two
      primaries accepting commits for one shard), or promotion epochs
      failed to advance strictly.
    - ``repl-promotion-lost-durable-record`` — a promotion installed a
      replica that had not received some earlier commit whose ack quota
      was satisfied: failover dropped a transaction the mode had
      promised to preserve.  (Async commits carry no such promise and
      are legitimately lossy on failover.)
    """
    violations = []
    if not history.repl:
        return violations
    shards = {}
    for rec in sorted(history.repl, key=lambda r: r.seq):
        shards.setdefault(rec.shard, []).append(rec)
    for shard, recs in sorted(shards.items()):
        epoch = 0
        acked = []  # (lsn, txn_id) of ack-satisfied commits, in seq order
        for rec in recs:
            if rec.kind == "read":
                if rec.staleness > rec.bound:
                    violations.append(Violation(
                        "repl-stale-read-beyond-bound", rec.txn_id,
                        "replica %r on shard %r served staleness %r beyond "
                        "bound %r" % (rec.replica, shard, rec.staleness,
                                      rec.bound),
                    ))
            elif rec.kind == "commit":
                if rec.required > 0 and rec.acks < rec.required:
                    violations.append(Violation(
                        "repl-lost-ack-commit", rec.txn_id,
                        "commit on shard %r released with %r acks of %r "
                        "required" % (shard, rec.acks, rec.required),
                    ))
                if rec.epoch != epoch:
                    violations.append(Violation(
                        "repl-split-brain-double-primary", rec.txn_id,
                        "commit on shard %r under epoch %r while epoch %r "
                        "was active" % (shard, rec.epoch, epoch),
                    ))
                if rec.required > 0 and rec.acks >= rec.required:
                    acked.append((rec.lsn, rec.txn_id))
            else:  # promote
                if rec.epoch != epoch + 1:
                    violations.append(Violation(
                        "repl-split-brain-double-primary", None,
                        "promotion on shard %r jumped epoch %r -> %r"
                        % (shard, epoch, rec.epoch),
                    ))
                epoch = rec.epoch
                for lsn, txn_id in acked:
                    if lsn > rec.lsn:
                        violations.append(Violation(
                            "repl-promotion-lost-durable-record", txn_id,
                            "promotion on shard %r installed replica %r at "
                            "lsn %r, losing an ack-satisfied commit at lsn "
                            "%r" % (shard, rec.replica, rec.lsn, lsn),
                        ))
    return violations


def check_all(history):
    """Run every oracle; returns the combined violation list."""
    return (
        check_serializability(history)
        + check_2pc_atomicity(history)
        + check_lock_intervals(history)
        + check_durability(history)
        + check_replication(history)
    )
