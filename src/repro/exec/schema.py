"""The canonical config schema: one declarative field list per class.

Every configuration class in the tree (:class:`ExperimentConfig`, the
engine configs, :class:`FaultPlan`, :class:`ReplicationConfig`,
:class:`Topology`, the disk and network parameter blocks) registers
here via :func:`register_config`.  Registration derives the class's
**field schema** from its ``__init__`` signature — every parameter *is*
a field, stored under the same attribute name — and injects four
methods:

- ``to_dict()`` — canonical, JSON-serialisable, picklable dict form
  (nested configs become tagged sub-dicts);
- ``from_dict(data)`` — classmethod inverse; values pass back through
  the constructor, which re-validates and re-normalises them;
- ``replaced(**overrides)`` — a copy with fields replaced, derived from
  the schema rather than a hand-copied dict (the old hand-maintained
  list in ``ExperimentConfig.replaced`` silently dropped newly added
  fields; deriving it from the signature makes that drift impossible);
- ``config_digest()`` — a stable SHA-256 content digest of the
  canonical form.

The digest is the identity of an experiment: the executor runs
identical configs once by it, and the parallel-equals-serial tests
compare run digests of configs shipped to workers as ``to_dict()``
payloads.  Canonicalisation is hash-seed independent (sorted keys,
sorted set elements) and float-exact (``float.hex``), so equal configs
digest equal in any interpreter.
"""

import hashlib
import inspect
import json

#: tag (class name) -> registered config class.
CONFIG_REGISTRY = {}

#: tag (class name) -> registered enum class.
ENUM_REGISTRY = {}


def _derive_fields(cls):
    """The field schema: every ``__init__`` parameter, in order."""
    fields = []
    for name, param in inspect.signature(cls.__init__).parameters.items():
        if name == "self":
            continue
        if param.kind in (param.VAR_POSITIONAL, param.VAR_KEYWORD):
            raise TypeError(
                "%s.__init__ uses *args/**kwargs; a registered config "
                "needs an explicit parameter list" % (cls.__name__,)
            )
        fields.append(name)
    return tuple(fields)


def register_config(cls):
    """Class decorator: derive the field schema and inject the API."""
    fields = _derive_fields(cls)
    cls.__config_fields__ = fields
    CONFIG_REGISTRY[cls.__name__] = cls
    if "to_dict" not in cls.__dict__:
        cls.to_dict = _to_dict_method
    if "from_dict" not in cls.__dict__:
        cls.from_dict = classmethod(_from_dict_classmethod)
    if "replaced" not in cls.__dict__:
        cls.replaced = _replaced_method
    if "config_digest" not in cls.__dict__:
        cls.config_digest = _config_digest_method
    return cls


def register_enum(enum_cls):
    """Register an enum so its members canonicalise and round-trip."""
    ENUM_REGISTRY[enum_cls.__name__] = enum_cls
    return enum_cls


def config_fields(obj_or_cls):
    """The registered field schema of a config class (or instance)."""
    cls = obj_or_cls if isinstance(obj_or_cls, type) else type(obj_or_cls)
    try:
        return cls.__config_fields__
    except AttributeError:
        raise TypeError(
            "%s is not a registered config class" % (cls.__name__,)
        ) from None


def to_canonical(value):
    """Recursively reduce a config value to plain JSON-able data.

    Scalars pass through; tuples/lists become lists; sets become sorted
    lists (hash-seed independent); enums and registered config objects
    become tagged dicts.  Constructors re-normalise the relaxed forms on
    the way back in (``tuple(...)``, ``frozenset(...)``, enum lookup),
    which is what makes ``from_dict(to_dict(c))`` digest-identical.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    cls = type(value)
    if cls.__name__ in CONFIG_REGISTRY and CONFIG_REGISTRY[cls.__name__] is cls:
        return _config_to_dict(value)
    if cls.__name__ in ENUM_REGISTRY and ENUM_REGISTRY[cls.__name__] is cls:
        return {"__enum__": cls.__name__, "value": value.value}
    if isinstance(value, (list, tuple)):
        return [to_canonical(v) for v in value]
    if isinstance(value, (set, frozenset)):
        return sorted(
            (to_canonical(v) for v in value),
            key=lambda v: json.dumps(v, sort_keys=True),
        )
    if isinstance(value, dict):
        for key in value:
            if not isinstance(key, str):
                raise TypeError(
                    "config dicts need string keys, got %r" % (key,)
                )
        return {key: to_canonical(v) for key, v in value.items()}
    raise TypeError(
        "cannot canonicalise %r (%s); register the class with "
        "repro.exec.schema.register_config" % (value, cls.__name__)
    )


#: Modules that register config classes as an import side effect.
#: Registration normally happens because the *caller* imported these
#: before serialising, but a fresh interpreter deserialising a payload
#: (a spawn pool worker) has imported nothing — so an unknown tag first
#: triggers one pass through this list before it is an error.
_REGISTERING_MODULES = (
    "repro.bench.runner",
    "repro.cluster.coordinator",
    "repro.engines.mysql",
    "repro.engines.postgres",
    "repro.engines.voltdb",
    "repro.faults.plan",
    "repro.replication.config",
    "repro.sim.disk",
    "repro.sim.network",
    "repro.wal.mysql_log",
)


def _lookup_tag(registry, tag):
    try:
        return registry[tag]
    except KeyError:
        import importlib

        for name in _REGISTERING_MODULES:
            importlib.import_module(name)
        return registry[tag]  # raises KeyError again if truly unknown


def from_canonical(value):
    """Inverse of :func:`to_canonical` (constructors re-normalise)."""
    if isinstance(value, dict):
        if "__config__" in value:
            return from_dict(value)
        if "__enum__" in value:
            try:
                enum_cls = _lookup_tag(ENUM_REGISTRY, value["__enum__"])
            except KeyError:
                raise TypeError(
                    "unknown enum tag %r" % (value["__enum__"],)
                ) from None
            return enum_cls(value["value"])
        return {key: from_canonical(v) for key, v in value.items()}
    if isinstance(value, list):
        return [from_canonical(v) for v in value]
    return value


def _config_to_dict(obj):
    data = {"__config__": type(obj).__name__}
    for field in config_fields(obj):
        try:
            raw = getattr(obj, field)
        except AttributeError:
            raise AttributeError(
                "%s.__init__ takes %r but the instance has no such "
                "attribute; schema fields must be stored under their "
                "parameter name" % (type(obj).__name__, field)
            ) from None
        data[field] = to_canonical(raw)
    return data


def to_dict(obj):
    """Canonical dict form of a registered config object."""
    return _config_to_dict(obj)


def from_dict(data):
    """Rebuild a config object from its :func:`to_dict` form."""
    try:
        tag = data["__config__"]
    except (TypeError, KeyError):
        raise TypeError(
            "not a config payload (missing '__config__'): %r" % (data,)
        ) from None
    try:
        cls = _lookup_tag(CONFIG_REGISTRY, tag)
    except KeyError:
        raise TypeError("unknown config tag %r" % (tag,)) from None
    kwargs = {
        field: from_canonical(value)
        for field, value in data.items()
        if field != "__config__"
    }
    return cls(**kwargs)


def replaced(obj, **overrides):
    """A copy of ``obj`` with the given fields replaced (schema-driven)."""
    fields = {name: getattr(obj, name) for name in config_fields(obj)}
    unknown = sorted(set(overrides) - set(fields))
    if unknown:
        raise TypeError(
            "%s has no field(s) %s (schema: %s)"
            % (type(obj).__name__, ", ".join(unknown),
               ", ".join(config_fields(obj)))
        )
    fields.update(overrides)
    return type(obj)(**fields)


def _hex_floats(value):
    """Exact float representation for digesting (matches bench.digest)."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return {key: _hex_floats(val) for key, val in value.items()}
    if isinstance(value, list):
        return [_hex_floats(val) for val in value]
    return value


def canonical_json(obj):
    """The canonical JSON text of a config (sorted keys, hex floats)."""
    return json.dumps(
        _hex_floats(to_canonical(obj)), sort_keys=True, separators=(",", ":")
    )


def config_digest(obj):
    """Stable SHA-256 content digest of a config's canonical form."""
    return hashlib.sha256(canonical_json(obj).encode("utf-8")).hexdigest()


# -- injected methods --------------------------------------------------


def _to_dict_method(self):
    """Canonical, JSON-serialisable dict form of this config."""
    return _config_to_dict(self)


def _from_dict_classmethod(cls, data):
    """Rebuild from :meth:`to_dict` output (re-validated on the way)."""
    obj = from_dict(data)
    if not isinstance(obj, cls):
        raise TypeError(
            "payload tag %r does not match %s"
            % (data.get("__config__"), cls.__name__)
        )
    return obj


def _replaced_method(self, **overrides):
    """A copy of this config with fields replaced."""
    return replaced(self, **overrides)


def _config_digest_method(self):
    """Stable SHA-256 content digest of this config."""
    return config_digest(self)
