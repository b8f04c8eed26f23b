"""repro — an executable reproduction of *How Processes Learn*
(K. Mani Chandy & Jayadev Misra, PODC 1985).

The library makes every definition and theorem of the paper executable:

* :mod:`repro.core` — events, computations, configurations (§2);
* :mod:`repro.causality` — happened-before, process chains, clocks (§3.1);
* :mod:`repro.isomorphism` — ``[P]`` relations, the isomorphism diagram,
  Theorem 1, fusion, event semantics (§3);
* :mod:`repro.knowledge` — ``P knows b``, local predicates, common
  knowledge, the transfer theorems (§4);
* :mod:`repro.universe` — protocols and exhaustive exploration (the
  quantification domain of every "for all computations");
* :mod:`repro.simulation` — a deterministic simulator for scale;
* :mod:`repro.protocols` — token bus, broadcast, termination detection,
  failure monitoring, snapshots, leader election;
* :mod:`repro.applications` — the §5 impossibility and lower-bound
  results, measured.

Every package but :mod:`repro.core` exports its names lazily: a name is
imported on first use, so importing one module loads only what that
module needs, and the library needs nothing beyond the standard library.

Quickstart::

    from repro import Universe, KnowledgeEvaluator, Knows
    from repro.protocols import PingPongProtocol
    from repro.knowledge import has_received

    universe = Universe(PingPongProtocol(rounds=1))
    evaluator = KnowledgeEvaluator(universe)
    b = has_received("q", "ping")
    # p learns that q got the ping only when the pong returns:
    print(evaluator.extension(Knows("p", b)))
"""

__version__ = "1.0.0"


def _lazy_exports(package: str, namespace: dict, exports: dict[str, str]):
    """Wire a package's public names to load on first access (PEP 562).

    ``exports`` maps each public name, in ``__all__`` order, to the
    module that defines it, relative to ``package``.  Returns the
    package's ``__all__`` and the module-level ``__getattr__`` and
    ``__dir__`` it assigns.  A name is imported the first time it is
    read (``from package import *`` included) and then cached in
    ``namespace``, so importing one module of the library loads only
    that module's own dependencies.  It lives in the root package, which
    Python has always loaded before any subpackage's ``__init__`` runs.
    """
    from importlib import import_module

    def __getattr__(name: str):
        try:
            module = exports[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        value = namespace[name] = getattr(import_module(module, package), name)
        return value

    def __dir__() -> list[str]:
        return sorted(namespace.keys() | exports.keys())

    return list(exports), __getattr__, __dir__


__all__, __getattr__, __dir__ = _lazy_exports(__name__, globals(), {
    "NULL": ".core",
    "Atom": ".knowledge.formula",
    "CausalOrder": ".causality.order",
    "CommonKnowledge": ".knowledge.formula",
    "Computation": ".core",
    "Configuration": ".core",
    "Event": ".core",
    "InternalEvent": ".core",
    "IsomorphismDiagram": ".isomorphism.diagram",
    "Knows": ".knowledge.formula",
    "KnowledgeEvaluator": ".knowledge.evaluator",
    "Message": ".core",
    "Not": ".knowledge.formula",
    "Protocol": ".universe.protocol",
    "RandomScheduler": ".simulation.scheduler",
    "ReceiveEvent": ".core",
    "ReproError": ".core",
    "SendEvent": ".core",
    "Simulator": ".simulation.simulator",
    "Sure": ".knowledge.formula",
    "Universe": ".universe.explorer",
    "VectorClock": ".causality.clocks",
    "agreement_set": ".isomorphism.relation",
    "as_process_set": ".core",
    "complement": ".core",
    "composed_isomorphic": ".isomorphism.relation",
    "computation_of": ".core",
    "find_process_chain": ".causality.chains",
    "fuse": ".isomorphism.fusion",
    "happened_before": ".causality.order",
    "has_process_chain": ".causality.chains",
    "internal": ".core",
    "isomorphic": ".isomorphism.relation",
    "knows": ".knowledge.formula",
    "message_pair": ".core",
    "normalise_sequence": ".isomorphism.algebra",
    "receive": ".core",
    "send": ".core",
    "simulate": ".simulation.simulator",
    "theorem_1_holds": ".isomorphism.reference",
    "unsure": ".knowledge.formula",
    "vector_timestamps": ".causality.clocks",
})
__all__.append("__version__")
