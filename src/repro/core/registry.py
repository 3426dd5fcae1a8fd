"""Policy registry: one declarative descriptor per MAC policy family.

Two performance layers (the per-cell batch engine and the grid-fused
sweep engine) plus the sweep cache all need to answer
the same questions about a policy: *does it have a vectorized kernel?*,
*can its cells join a fused mega-batch?*, *what configuration determines
its behaviour?*, *how do I build one by name?*.  Historically each layer
answered with its own ``isinstance`` chain, so adding a policy meant
editing four files in sync.  This module replaces every one of those
switches with a single source of truth: each policy family registers one
:class:`PolicyDescriptor` carrying

* its unique registry ``name`` (enforced at registration),
* the policy class served (dispatch walks the MRO, so subclasses resolve
  to the nearest registered ancestor — ``EstimatedDBDPPolicy`` rides on
  ``DB-DP``'s descriptor, for example),
* a config round-trip (:meth:`PolicyDescriptor.config_of` /
  :meth:`PolicyDescriptor.build`) used for cache fingerprints and
  by-name construction, and
* an optional batch-kernel factory (a lazy ``"module:Class"`` reference,
  so policy modules never import the simulation engine) — naming one is
  what makes a family *batchable*: every batch path (per-cell, fused,
  topology, every ``rng=`` discipline, stateful channels and arrivals)
  is then open to it, subject only to the spec checks of
  :func:`repro.sim.batch_sim.batch_refusal`.

Adding a new policy is now a one-file change::

    from repro.core import registry
    from repro.core.policies import IntervalMac

    class MyPolicy(IntervalMac):
        name = "MyPolicy"
        def __init__(self, knob=1.0): ...
        def run_interval(self, k, arrivals, positive_debts, rng): ...

    registry.register(registry.PolicyDescriptor(
        name="MyPolicy",
        policy_class=MyPolicy,
        to_config=lambda p: {"knob": float(p.knob)},
        from_config=lambda c: MyPolicy(knob=c["knob"]),
    ))

With no ``batch_kernel`` the policy is scalar-only: every engine
(``run_single(engine="batch")`` and ``engine="fused"`` included)
transparently falls back to the scalar interval simulator for it, and
its sweep cells are cacheable with no further code.  Naming a ``batch_kernel`` later upgrades it to the
vectorized paths without touching any dispatch site.

This module deliberately owns the only ``isinstance``-on-policy logic in
the package (a CI lint enforces that it stays that way).
"""

from __future__ import annotations

import dataclasses
import importlib
import threading
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

__all__ = [
    "PolicyDescriptor",
    "register",
    "unregister",
    "available",
    "get",
    "descriptor_for",
    "create",
    "policy_config",
    "policy_label",
    "has_kernel",
    "kernel_refusal",
    "make_kernel",
    "same_kernel_family",
    "resolve_policies",
    "encode_config_value",
    "decode_config_value",
    "register_config_component",
]

#: Modules whose frozen-dataclass components (swap biases, influence
#: functions, window maps) the config codec can decode by qualname.
_BUILTIN_COMPONENT_MODULES = (
    "repro.core.influence",
    "repro.core.dp_protocol",
    "repro.core.dbdp",
    "repro.core.fcsma",
    "repro.phy.channel",
    "repro.traffic.arrivals",
)

#: Policy modules that self-register at import time.  Lookups import them
#: lazily so the registry is complete regardless of import order.
_BUILTIN_POLICY_MODULES = (
    "repro.core.dp_protocol",
    "repro.core.dbdp",
    "repro.core.eldf",
    "repro.core.fcsma",
    "repro.core.frame_csma",
    "repro.core.dcf",
    "repro.core.round_robin",
    "repro.core.static_priority",
)


#: Sentinel distinguishing "factory omitted" (defaults to the policy
#: class) from an explicit ``factory=None`` (no default construction).
_FACTORY_UNSET: Any = object()


@dataclass(frozen=True)
class PolicyDescriptor:
    """Everything the engines and the cache need to know about a family.

    Parameters
    ----------
    name:
        Unique registry name; by convention the policy class's ``name``
        attribute ("DB-DP", "LDF", ...).
    policy_class:
        The family's class.  Subclasses without their own descriptor
        resolve to this one via the MRO.
    to_config:
        Maps a policy instance to a JSON-ready dict of exactly the
        configuration that determines its behaviour (used in cache
        fingerprints — changing the encoding invalidates stored cells).
    from_config:
        Inverse of ``to_config``: rebuild an equivalent policy instance.
    factory:
        Zero-argument constructor for by-name creation (defaults to
        ``policy_class``; ``None`` marks families that need explicit
        arguments, like the generic ``DP`` protocol).
    batch_kernel:
        Lazy ``"module:ClassName"`` reference to the family's
        :class:`~repro.sim.batch_kernels.BatchPolicyKernel`, or a
        callable ``policy -> kernel``; ``None`` for scalar-only families.
    """

    name: str
    policy_class: type
    to_config: Callable[[Any], dict]
    from_config: Callable[[dict], Any]
    factory: Optional[Callable[[], Any]] = _FACTORY_UNSET
    batch_kernel: Union[None, str, Callable[[Any], Any]] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("descriptor needs a non-empty name")
        if self.factory is _FACTORY_UNSET:
            object.__setattr__(self, "factory", self.policy_class)

    # -- construction --------------------------------------------------
    def build(self, config: Optional[Mapping[str, Any]] = None) -> Any:
        """A policy instance from a config dict (default config if None)."""
        if config is None:
            if self.factory is None:
                raise TypeError(
                    f"policy family {self.name!r} has no default factory; "
                    "pass a config"
                )
            return self.factory()
        return self.from_config(dict(config))

    def config_of(self, policy: Any) -> dict:
        """The behaviour-determining config of ``policy`` (JSON-ready)."""
        return self.to_config(policy)

    # -- kernels -------------------------------------------------------
    def kernel_factory(self) -> Optional[Callable[[Any], Any]]:
        """Resolve ``batch_kernel`` to a callable (imports lazily)."""
        ref = self.batch_kernel
        if ref is None or callable(ref):
            return ref
        module_name, _, attr = ref.partition(":")
        if not attr:
            raise ValueError(
                f"batch_kernel reference {ref!r} of {self.name!r} is not "
                "of the form 'module:ClassName'"
            )
        return getattr(importlib.import_module(module_name), attr)

    def kernel_family(self) -> Optional[object]:
        """Identity token of the kernel this family binds (or ``None``).

        Two descriptors sharing one token (e.g. ``DP`` and ``DB-DP``,
        both served by ``BatchDPKernel``) may mix rows in one batch
        stack, subject to the kernel's own bind-time parameter checks.
        """
        ref = self.batch_kernel
        return ref if ref is not None else None


# ----------------------------------------------------------------------
# The registry proper
# ----------------------------------------------------------------------
_lock = threading.RLock()
_by_name: Dict[str, PolicyDescriptor] = {}
_by_class: Dict[type, PolicyDescriptor] = {}
_builtins_loaded = False


def _ensure_builtins() -> None:
    """Import the built-in policy modules so they self-register."""
    global _builtins_loaded
    if _builtins_loaded:
        return
    with _lock:
        if _builtins_loaded:
            return
        # Mark first: the imports below re-enter register().
        _builtins_loaded = True
        for module in _BUILTIN_POLICY_MODULES:
            importlib.import_module(module)


def register(descriptor: PolicyDescriptor) -> PolicyDescriptor:
    """Add a descriptor; unique names and classes are enforced.

    Re-registering the *same* (name, class) pair is a no-op returning the
    existing descriptor (so module reloads are harmless); a name or class
    collision with a different family raises ``ValueError``.
    """
    with _lock:
        existing = _by_name.get(descriptor.name)
        if existing is not None:
            if existing.policy_class is descriptor.policy_class:
                return existing
            raise ValueError(
                f"policy name {descriptor.name!r} is already registered "
                f"for {existing.policy_class.__qualname__}; names must be "
                "unique"
            )
        bound = _by_class.get(descriptor.policy_class)
        if bound is not None:
            raise ValueError(
                f"class {descriptor.policy_class.__qualname__} is already "
                f"registered as {bound.name!r}"
            )
        _by_name[descriptor.name] = descriptor
        _by_class[descriptor.policy_class] = descriptor
        return descriptor


def unregister(name: str) -> None:
    """Remove a descriptor by name (primarily for tests)."""
    with _lock:
        descriptor = _by_name.pop(name, None)
        if descriptor is not None:
            _by_class.pop(descriptor.policy_class, None)


def available() -> Tuple[str, ...]:
    """Sorted names of every registered policy family."""
    _ensure_builtins()
    with _lock:
        return tuple(sorted(_by_name))


def get(name: str) -> PolicyDescriptor:
    """The descriptor registered under ``name`` (``KeyError`` otherwise)."""
    _ensure_builtins()
    with _lock:
        try:
            return _by_name[name]
        except KeyError:
            raise KeyError(
                f"no policy registered under {name!r}; available: "
                f"{', '.join(sorted(_by_name))}"
            ) from None


def descriptor_for(policy: Any) -> Optional[PolicyDescriptor]:
    """The nearest registered descriptor for a policy instance or class.

    Walks the MRO, so subclasses resolve to their closest registered
    ancestor; returns ``None`` for unregistered (third-party) policies.
    """
    _ensure_builtins()
    cls = policy if isinstance(policy, type) else type(policy)
    with _lock:
        for ancestor in cls.__mro__:
            descriptor = _by_class.get(ancestor)
            if descriptor is not None:
                return descriptor
    return None


def create(name: str, config: Optional[Mapping[str, Any]] = None) -> Any:
    """Build a policy by registry name (default config unless given)."""
    return get(name).build(config)


def policy_label(policy: Any) -> str:
    """Reporting label for a policy instance.

    The registered name when the instance's class is exactly the
    registered family class (unique by construction); the instance's own
    ``name`` attribute for subclass variants and unregistered policies.
    """
    descriptor = descriptor_for(policy)
    if descriptor is not None and type(policy) is descriptor.policy_class:
        return descriptor.name
    return str(getattr(policy, "name", type(policy).__name__))


def policy_config(policy: Any) -> Optional[dict]:
    """The full fingerprint dict of ``policy``, or ``None``.

    ``None`` means "unregistered or unencodable policy": callers (the
    sweep cache) treat the policy as uncacheable rather than risking a
    key collision.  The dict tags the instance's concrete class, its
    ``name``, and the descriptor's behaviour config.
    """
    descriptor = descriptor_for(policy)
    if descriptor is None:
        return None
    try:
        config = descriptor.config_of(policy)
    except TypeError:
        return None
    return {
        "class": type(policy).__qualname__,
        "name": policy.name,
        **config,
    }


# -- kernel dispatch ---------------------------------------------------
def has_kernel(policy: Any) -> bool:
    """Whether ``policy`` resolves to a family that names a batch kernel."""
    descriptor = descriptor_for(policy)
    return descriptor is not None and descriptor.batch_kernel is not None


def kernel_refusal(policy: Any) -> Optional[str]:
    """``None`` when ``policy`` has a batch kernel, else why not.

    The message names the batchable families, so engine callers can
    say where to go instead.
    """
    if has_kernel(policy):
        return None
    batchable = [n for n in available() if get(n).batch_kernel is not None]
    return (
        f"no batch kernel for policy {type(policy).__name__!r}; "
        f"batchable families: {', '.join(batchable)}"
    )


def make_kernel(policy: Any) -> Any:
    """Instantiate the batch kernel serving ``policy``.

    Raises ``TypeError`` (:func:`kernel_refusal`'s message) for
    scalar-only and unregistered families, so engine callers can fall
    back.
    """
    refusal = kernel_refusal(policy)
    if refusal is not None:
        raise TypeError(refusal)
    return descriptor_for(policy).kernel_factory()(policy)


def same_kernel_family(a: Any, b: Any) -> bool:
    """Whether two policies bind the same batch kernel.

    True when both resolve to registered descriptors sharing one
    ``batch_kernel`` reference (``DP`` and ``DB-DP`` rows may share a
    stack, for instance); the kernel still vets per-row parameters at
    bind time.
    """
    da, db = descriptor_for(a), descriptor_for(b)
    if da is None or db is None:
        return False
    fam_a, fam_b = da.kernel_family(), db.kernel_family()
    return fam_a is not None and fam_a == fam_b


# -- by-name sweep construction ----------------------------------------
def resolve_policies(
    policies: Union[Mapping[str, Any], Sequence[str]],
) -> Dict[str, Callable[[], Any]]:
    """Normalize a sweep's ``policies`` argument to ``{label: factory}``.

    Accepts the classic ``{label: factory}`` mapping (passed through,
    with string values looked up by registry name) or a plain sequence
    of registry names, so ``run_sweep(..., policies=("DB-DP", "LDF"))``
    works.  Registry factories are the policy classes themselves, so the
    result stays picklable for the process-parallel runner.
    """
    if isinstance(policies, Mapping):
        items: Iterable[Tuple[str, Any]] = policies.items()
    else:
        items = ((name, name) for name in policies)
    resolved: Dict[str, Callable[[], Any]] = {}
    for label, factory in items:
        if isinstance(factory, str):
            descriptor = get(factory)
            if descriptor.factory is None:
                raise TypeError(
                    f"policy family {factory!r} has no default factory; "
                    "pass a callable instead of its name"
                )
            factory = descriptor.factory
        resolved[str(label)] = factory
    return resolved


# ----------------------------------------------------------------------
# Config value codec (shared with the sweep cache)
# ----------------------------------------------------------------------
_component_classes: Dict[str, type] = {}
_components_loaded = False


def _codec_capable(obj: Any) -> bool:
    """A class the codec can round-trip: a dataclass, or a plain class
    carrying its own ``to_config``/``from_config`` pair (e.g. stateful
    arrival processes whose abstract properties preclude dataclass
    fields)."""
    if not isinstance(obj, type):
        return False
    if dataclasses.is_dataclass(obj):
        return True
    return callable(getattr(obj, "to_config", None)) and callable(
        getattr(obj, "from_config", None)
    )


def _component_table() -> Dict[str, type]:
    """Qualname -> class for every decodable config component."""
    global _components_loaded
    if not _components_loaded:
        with _lock:
            if not _components_loaded:
                for module_name in _BUILTIN_COMPONENT_MODULES:
                    module = importlib.import_module(module_name)
                    for obj in vars(module).values():
                        if (
                            _codec_capable(obj)
                            and obj.__qualname__ not in _component_classes
                        ):
                            _component_classes[obj.__qualname__] = obj
                _components_loaded = True
    return _component_classes


def register_config_component(cls: type) -> type:
    """Make a component class decodable by the config codec.

    Built-in biases, influence functions and window maps are picked up
    automatically; third-party policies whose configs embed their own
    dataclass (or ``to_config``/``from_config``-bearing) components
    register them here (usable as a decorator).
    """
    if not _codec_capable(cls):
        raise TypeError(
            f"{cls!r} is not a dataclass type and does not define a "
            "to_config/from_config pair"
        )
    with _lock:
        _component_table()[cls.__qualname__] = cls
    return cls


def encode_config_value(obj: Any) -> Any:
    """A JSON-serializable, content-complete encoding of ``obj``.

    Frozen dataclasses (biases, influence functions, channels, arrival
    processes, timings) encode recursively as tagged dicts; primitives
    and containers pass through.  Raises ``TypeError`` for anything else
    so callers can treat the object as uncacheable.
    """
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        return float(obj)
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        encoded: dict = {"__class__": type(obj).__qualname__}
        for f in dataclasses.fields(obj):
            encoded[f.name] = encode_config_value(getattr(obj, f.name))
        return encoded
    if not isinstance(obj, type) and callable(getattr(obj, "to_config", None)):
        # Non-dataclass components (e.g. MarkovModulatedArrivals) supply
        # their own parameter dict; mutable per-interval state stays out.
        encoded = {"__class__": type(obj).__qualname__}
        for key, val in obj.to_config().items():
            encoded[str(key)] = encode_config_value(val)
        return encoded
    if isinstance(obj, (list, tuple)):
        return [encode_config_value(v) for v in obj]
    if isinstance(obj, dict):
        return {str(k): encode_config_value(v) for k, v in obj.items()}
    if hasattr(obj, "item") and callable(obj.item) and getattr(obj, "ndim", None) == 0:
        return encode_config_value(obj.item())  # numpy scalar
    raise TypeError(f"cannot fingerprint {type(obj).__name__}")


def decode_config_value(value: Any) -> Any:
    """Inverse of :func:`encode_config_value`.

    Tagged dicts rebuild their dataclass (looked up in the component
    table); lists decode to tuples, matching the tuple-typed fields of
    every frozen component.  ``KeyError`` names unknown component tags.
    """
    if isinstance(value, Mapping):
        if "__class__" in value:
            qualname = value["__class__"]
            table = _component_table()
            try:
                cls = table[qualname]
            except KeyError:
                raise KeyError(
                    f"unknown config component {qualname!r}; register it "
                    "with repro.core.registry.register_config_component"
                ) from None
            kwargs = {
                str(k): decode_config_value(v)
                for k, v in value.items()
                if k != "__class__"
            }
            from_config = getattr(cls, "from_config", None)
            if not dataclasses.is_dataclass(cls) and callable(from_config):
                return from_config(kwargs)
            return cls(**kwargs)
        return {str(k): decode_config_value(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return tuple(decode_config_value(v) for v in value)
    return value
