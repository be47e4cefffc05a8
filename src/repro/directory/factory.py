"""One factory for every directory flavour (``make_scheduler``'s twin).

CLI consumers (``serve``, ``bench``, ``check``) and tests describe a
directory as a compact spec string — ``"static"``, ``"noisy:sigma=0.1"``,
``"dynamics:process=diurnal,period=40"``, ``"forecast:mode=linear"`` —
and :func:`make_directory` builds the corresponding
:class:`~repro.directory.service.DirectoryService`.  Wrapping flavours
(noisy, dynamics, forecast, drift) wrap a base flavour selected with the
``inner=`` option (``static`` by default, ``gusto`` for the paper's five
sites).

Spec grammar: ``name[:key=value[,key=value...]]``.  Values parse as
bool/int/float when they look like one, else stay strings.  Explicit
keyword arguments to :func:`make_directory` override spec-string
options.
"""

from __future__ import annotations

import weakref
from typing import Any, Dict, Optional, Tuple

import numpy as np

from repro.directory.dynamics import (
    DiurnalLoad,
    LoadDirectory,
    RandomWalkLoad,
    SpikeLoad,
    StaticLoad,
)
from repro.directory.forecast import ForecastDirectory
from repro.directory.noisy import NoisyDirectory
from repro.directory.perturb import perturb_snapshot
from repro.directory.service import DirectoryService
from repro.directory.static import StaticDirectory, gusto_directory
from repro.util.rng import RngLike, to_rng
from repro.util.spec import format_spec, parse_spec, parse_value

#: Spec names accepted by :func:`make_directory`.
DIRECTORY_FLAVOURS = (
    "static",
    "gusto",
    "noisy",
    "perturb",
    "dynamics",
    "forecast",
    "drift",
)

_LOAD_PROCESSES = {
    "static": StaticLoad,
    "walk": RandomWalkLoad,
    "spike": SpikeLoad,
    "diurnal": DiurnalLoad,
}


# Kept as an alias: tests and older call sites import the underscore name.
_parse_value = parse_value

#: Live drift traces by (options, procs, integer seed): traces are
#: immutable and each directory has its own clock, so a cohort shares one.
_DRIFT_TRACES: "weakref.WeakValueDictionary" = weakref.WeakValueDictionary()


def parse_directory_spec(spec: str) -> Tuple[str, Dict[str, Any]]:
    """``"noisy:sigma=0.1" -> ("noisy", {"sigma": 0.1})``."""
    return parse_spec(
        spec, DIRECTORY_FLAVOURS,
        kind="directory", name_kind="directory flavour",
    )


def format_directory_spec(
    name: str, options: Optional[Dict[str, Any]] = None
) -> str:
    """Canonical inverse of :func:`parse_directory_spec`.

    ``parse_directory_spec(format_directory_spec(name, options))``
    recovers ``(name, options)`` exactly; unknown flavours are rejected
    with the same error the parser raises.
    """
    if name not in DIRECTORY_FLAVOURS:
        raise KeyError(
            f"unknown directory flavour {name!r}; "
            f"known: {', '.join(DIRECTORY_FLAVOURS)}"
        )
    return format_spec(name, options)


def _pop(options: Dict[str, Any], key: str, default: Any) -> Any:
    return options.pop(key) if key in options else default


def _base_directory(
    options: Dict[str, Any], num_procs: int, rng
) -> DirectoryService:
    """The ground-truth directory a wrapping flavour wraps."""
    inner = _pop(options, "inner", "static")
    if inner == "gusto":
        return gusto_directory()
    if inner != "static":
        raise ValueError(
            f"inner must be 'static' or 'gusto', got {inner!r}"
        )
    from repro.network.generators import random_pairwise_parameters

    latency, bandwidth = random_pairwise_parameters(num_procs, rng=rng)
    return StaticDirectory(latency, bandwidth)


def _reject_unknown(name: str, options: Dict[str, Any]) -> None:
    if options:
        raise TypeError(
            f"unknown option(s) {sorted(options)} for directory "
            f"flavour {name!r}"
        )


def make_directory(
    spec: str,
    *,
    num_procs: int = 8,
    rng: RngLike = None,
    **overrides: Any,
) -> DirectoryService:
    """Build a directory service from a compact spec string.

    Parameters
    ----------
    spec:
        ``name[:key=value,...]`` — one of :data:`DIRECTORY_FLAVOURS`:

        * ``static`` — fixed random pairwise tables (seeded by ``rng``);
        * ``gusto`` — the paper's five-site GUSTO tables;
        * ``noisy`` — measurement error on a base
          (``sigma``/``latency_sigma``/``symmetric``);
        * ``perturb`` — a one-shot multiplicatively perturbed static
          world (``sigma``, ``latency_sigma``, ``degrade_factor``);
        * ``dynamics`` — a base under a background-load process
          (``process`` in ``static|walk|spike|diurnal`` plus that
          process's own keywords);
        * ``forecast`` — plan on an EWMA/linear forecast of a base
          (``mode``, ``alpha``, ``horizon``, ``window``);
        * ``drift`` — the serve-style synthetic compounding drift trace
          (``ticks``, ``dt``, ``sigma``, ``burst_sigma``,
          ``burst_every``, ``seed``).

        Wrapping flavours accept ``inner=static|gusto``.
    num_procs:
        Size of generated base tables (ignored for ``gusto`` bases).
    rng:
        Seeds base generation and any stochastic wrapper.
    overrides:
        Keyword options merged over the spec string's (keywords win).
    """
    name, options = parse_directory_spec(spec)
    options.update(overrides)
    # Only an integer seed makes a generated base a function of the call.
    seed_key = int(rng) if isinstance(rng, (int, np.integer)) else None
    rng = to_rng(rng)

    if name == "static":
        directory = _base_directory({**options, "inner": "static"}, num_procs, rng)
        options.pop("inner", None)
        _reject_unknown(name, options)
        return directory

    if name == "gusto":
        _reject_unknown(name, options)
        return gusto_directory()

    if name == "noisy":
        sigma = _pop(options, "sigma", 0.2)
        latency_sigma = _pop(options, "latency_sigma", 0.0)
        symmetric = _pop(options, "symmetric", True)
        base = _base_directory(options, num_procs, rng)
        _reject_unknown(name, options)
        return NoisyDirectory(
            base,
            bandwidth_sigma=float(sigma),
            latency_sigma=float(latency_sigma),
            symmetric=bool(symmetric),
            rng=rng,
        )

    if name == "perturb":
        sigma = _pop(options, "sigma", 0.3)
        latency_sigma = _pop(options, "latency_sigma", 0.0)
        degrade_factor = _pop(options, "degrade_factor", 1.0)
        base = _base_directory(options, num_procs, rng)
        _reject_unknown(name, options)
        perturbed = perturb_snapshot(
            base.snapshot(),
            bandwidth_sigma=float(sigma),
            latency_sigma=float(latency_sigma),
            degrade_factor=float(degrade_factor),
            rng=rng,
        )
        return StaticDirectory(perturbed.latency, perturbed.bandwidth)

    if name == "dynamics":
        process_name = _pop(options, "process", "diurnal")
        process_cls = _LOAD_PROCESSES.get(process_name)
        if process_cls is None:
            raise KeyError(
                f"unknown load process {process_name!r}; "
                f"known: {', '.join(_LOAD_PROCESSES)}"
            )
        base = _base_directory(options, num_procs, rng)
        # Remaining options belong to the load process itself.
        if process_cls in (RandomWalkLoad, SpikeLoad):
            options.setdefault("rng", rng)
        try:
            process = process_cls(**options)
        except TypeError as exc:
            raise TypeError(
                f"bad option(s) for load process {process_name!r}: {exc}"
            ) from None
        return LoadDirectory(base, process)

    if name == "forecast":
        mode = _pop(options, "mode", "ewma")
        alpha = _pop(options, "alpha", 0.5)
        horizon = _pop(options, "horizon", 1.0)
        window = _pop(options, "window", 16)
        base = _base_directory(options, num_procs, rng)
        _reject_unknown(name, options)
        return ForecastDirectory(
            base,
            mode=str(mode),
            alpha=float(alpha),
            horizon=float(horizon),
            window=int(window),
        )

    # name == "drift"
    from repro.sim import replay

    key = (repr(sorted(options.items())), num_procs, seed_key)
    trace = _DRIFT_TRACES.get(key) if seed_key is not None else None
    if trace is not None:
        return replay.TraceDirectory(trace)
    ticks = _pop(options, "ticks", 64)
    dt = _pop(options, "dt", 1.0)
    sigma = _pop(options, "sigma", 0.02)
    burst_sigma = _pop(options, "burst_sigma", 0.5)
    burst_every = _pop(options, "burst_every", 0)
    seed = _pop(options, "seed", 0)
    base = _base_directory(options, num_procs, rng)
    _reject_unknown(name, options)
    trace = replay.synthetic_drift_trace(
        base.snapshot(),
        ticks=int(ticks),
        dt=float(dt),
        base_sigma=float(sigma),
        burst_sigma=float(burst_sigma),
        burst_every=int(burst_every),
        seed=int(seed),
    )
    if seed_key is not None:
        _DRIFT_TRACES[key] = trace
    return replay.TraceDirectory(trace)
