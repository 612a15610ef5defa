"""The one LTS → CTMC assembly path.

Treating the explored LTS as a CTMC — each state a chain state, rates
of parallel arcs between the same pair summing under the race condition
— is identical across formalisms, so both the PEPA route
(:func:`repro.pepa.ctmcgen.ctmc_from_statespace`, which now delegates
here) and the GSPN route (:func:`repro.petri.gspn.spn_to_ctmc`) feed
:func:`repro.ctmc.chain.build_ctmc` through this single function.
"""

from __future__ import annotations

from repro.core.lts import Lts
from repro.ctmc.chain import CTMC, build_ctmc
from repro.obs import get_events, get_metrics, get_tracer

__all__ = ["ctmc_from_lts"]


def _cached_chain(cache, child):
    """Fetch + decode one cached chain; stale schemas are evicted, not
    silently shadowed, so the warehouse can count them."""
    payload = cache.fetch(child)
    if payload is None:
        return None
    from repro.ctmc.serialize import ctmc_from_payload

    try:
        return ctmc_from_payload(payload)
    except ValueError:
        # A payload from an older schema: unlink it so the rebuilt
        # entry takes its slot, and make the event observable.
        get_events().emit(
            "cache.stale_schema",
            key=child.describe(),
            schema=str(payload.get("schema")) if isinstance(payload, dict) else "?",
        )
        get_metrics().counter("cache.stale_schema").inc()
        try:
            cache.path_of(child).unlink(missing_ok=True)
        except OSError:  # pragma: no cover - eviction is best-effort
            pass
        return None


def ctmc_from_lts(lts: Lts) -> CTMC:
    """Build the CTMC (generator + labels + action-rate vectors) of an
    explored LTS, under a ``ctmc.assemble`` tracer span.

    An LTS that came through the derivation cache carries its
    :class:`~repro.core.keys.DerivationKey` as ``cache_key``; when an
    ambient :class:`~repro.batch.cache.DerivationCache` is installed the
    assembled generator is cached too — under the ``"ctmc"`` child of
    that key, serialised via :mod:`repro.ctmc.serialize` — so a fully
    cached analysis skips both exploration *and* assembly.
    """
    from repro.batch.cache import get_cache

    cache = get_cache()
    key = getattr(lts, "cache_key", None)
    child = key.child("ctmc") if cache is not None and key is not None else None
    if child is not None:
        chain = _cached_chain(cache, child)
        if chain is not None:
            return chain
    with get_tracer().span("ctmc.assemble", states=lts.size,
                           arcs=len(lts.arcs)) as sp:
        labels = [lts.state_label(i) for i in range(lts.size)]
        chain = build_ctmc(
            lts.size, list(lts.iter_transitions()), labels=labels,
            initial=lts.initial,
        )
        sp.set(nnz=int(chain.Q.nnz))
    if child is not None:
        from repro.ctmc.serialize import ctmc_to_payload

        cache.store(child, ctmc_to_payload(chain))
    return chain
