"""Byte-exact digests of a run's observable results.

The performance work on the simulator obeys one non-negotiable rule:
**optimisations may change wall time, never virtual time**.  The proof
obligation is a digest that covers everything a run can observably
produce — the exact latency sequence (bit-for-bit, via ``float.hex``),
the final virtual clock, the full telemetry snapshot, and the
per-reason abort/failure/fault accounting.  Two runs with equal digests
produced byte-identical results; a digest recorded *before* an
optimisation therefore locks the optimised code to the old behaviour
(``tests/test_equivalence_goldens.py``).

Float serialisation uses ``float.hex`` rather than ``repr`` so the
digest is independent of any float-formatting subtleties; everything
else is canonical JSON (sorted keys, fixed separators).
"""

import hashlib
import json


def _hex_floats(value):
    """Recursively replace floats with their exact hex representation."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return {key: _hex_floats(val) for key, val in value.items()}
    if isinstance(value, (list, tuple)):
        return [_hex_floats(val) for val in value]
    return value


def run_payload(result):
    """The canonical, JSON-serialisable view of one run's results.

    ``result`` is a live :class:`~repro.bench.runner.RunResult` or its
    plain-data :class:`~repro.exec.artifact.RunArtifact`; both read the
    same primitives, so both views of one run produce the same payload,
    which is what lets the executor tests pin parallel == serial by
    digest.
    """
    return {
        "latencies": [lat.hex() for lat in result.latencies],
        "final_clock": result.final_clock.hex(),
        "metrics": _hex_floats(result.metrics_snapshot()),
        "abort_counts": result.abort_counts,
        "failed_counts": result.failed_counts,
        "fault_counts": result.fault_counts,
        "committed": len(result.traces),
    }


def run_digest(result):
    """SHA-256 over the canonical payload of ``result``."""
    blob = json.dumps(
        run_payload(result), sort_keys=True, separators=(",", ":")
    ).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()
