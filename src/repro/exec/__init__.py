"""Parallel experiment execution: schema, artifacts, executor.

The layer between "a run is a pure function of its config" and "run
hundreds of them as fast as the hardware allows":

- :mod:`repro.exec.schema` — one declarative field schema per config
  class, with canonical ``to_dict``/``from_dict`` serialisation and a
  stable content digest;
- :mod:`repro.exec.artifact` — :class:`RunArtifact`, a ``RunResult``
  detached from its simulator: plain data that crosses process
  boundaries without pinning simulator object graphs;
- :mod:`repro.exec.executor` — :class:`Executor` with inline and
  spawn-based process-pool backends, deterministic result ordering
  and digest dedup.

See ``docs/execution.md``.

Only the schema loads eagerly: config modules throughout the tree
import :mod:`repro.exec.schema` (which initialises this package), so
the artifact/executor names — which reach back into the simulator
tree — resolve lazily via module ``__getattr__`` to keep the import
graph acyclic.
"""

from repro.exec.schema import (
    CONFIG_REGISTRY,
    ENUM_REGISTRY,
    canonical_json,
    config_digest,
    config_fields,
    from_canonical,
    from_dict,
    register_config,
    register_enum,
    replaced,
    to_canonical,
    to_dict,
)

_LAZY = {
    "RunArtifact": "repro.exec.artifact",
    "Executor": "repro.exec.executor",
    "run_many": "repro.exec.executor",
}

__all__ = [
    "CONFIG_REGISTRY",
    "ENUM_REGISTRY",
    "canonical_json",
    "config_digest",
    "config_fields",
    "from_canonical",
    "from_dict",
    "register_config",
    "register_enum",
    "replaced",
    "to_canonical",
    "to_dict",
] + sorted(_LAZY)


def __getattr__(name):
    try:
        module_name = _LAZY[name]
    except KeyError:
        raise AttributeError(
            "module %r has no attribute %r" % (__name__, name)
        ) from None
    import importlib

    value = getattr(importlib.import_module(module_name), name)
    globals()[name] = value
    return value
