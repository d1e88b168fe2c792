"""The metric name catalog: every series the library emits, in one place.

Names are dotted paths, ``<subsystem>.<what>`` (Prometheus export
rewrites the dots to underscores).  Keeping the catalog central does two
jobs: instrumented call sites share constants instead of scattering
string literals, and histogram *bucket bounds* are fixed here — bounds
are part of a metric's identity, so two processes (a daemon and its
supervised workers, say) always bucket the same metric the same way and
their deltas merge exactly.

Counter and gauge names carry no bounds; histogram names must appear in
:data:`BUCKETS` (or fall back to :data:`DEFAULT_BUCKETS`).
"""

from __future__ import annotations

# -- MINLP solvers (repro.minlp) ---------------------------------------------------

MINLP_SOLVES = "minlp.solves"              # counter{solver=} trees started
MINLP_NODES = "minlp.nodes"                # counter{solver=} B&B nodes popped
MINLP_NLP_SOLVES = "minlp.nlp_solves"      # counter{solver=} NLP solves (simplex or barrier)
MINLP_CUTS_ADDED = "minlp.cuts_added"      # counter: OA cuts entering the master
MINLP_LP_ITERATIONS = "minlp.lp_iterations"  # counter: simplex iterations

# -- kernel cache (repro.kernels) --------------------------------------------------

KERNEL_HITS = "kernels.hits"               # counter: cache lookups answered
KERNEL_MISSES = "kernels.misses"           # counter: lookups that compiled
KERNEL_COMPILES = "kernels.compiles"       # counter: kernel builds

# -- cross-solve reuse (repro.reuse) -----------------------------------------------

REUSE_PLANS = "reuse.plans"                # counter: SolveFamily.plan calls
REUSE_CUTS_CARRIED = "reuse.cuts_carried"  # counter: carried cuts installed
REUSE_INCUMBENT_SEEDED = "reuse.incumbent_seeded"    # counter
REUSE_INCUMBENT_REJECTED = "reuse.incumbent_rejected"  # counter
REUSE_BASIS_REUSED = "reuse.basis_reused"  # counter: root bases replayed
REUSE_SEED_NLP_SKIPPED = "reuse.seed_nlp_skipped"  # counter: covered pools

# -- service tiers (repro.service) -------------------------------------------------

EXACT_HITS = "service.exact.hits"          # counter: tier-1 memo hits
EXACT_MISSES = "service.exact.misses"      # counter: tier-1 misses
EXACT_EVICTIONS = "service.exact.evictions"  # counter: LRU drops
WARM_POOL_LEASES = "service.warm_pool.leases"  # counter{tier=warm|cold}
WARM_POOL_EVICTED = "service.warm_pool.evicted"      # counter: LRU drops
WARM_POOL_DOWNGRADED = "service.warm_pool.downgraded"  # counter: spread guard

SERVICE_REQUESTS = "service.requests"      # counter{status=,tier=}
SERVICE_BATCH_SIZE = "service.batch_size"  # histogram: compatible group sizes
SERVICE_REQUEST_SECONDS = "service.request_seconds"  # histogram{kind=}
SERVICE_QUEUE_DEPTH = "service.queue_depth"  # gauge: in-flight solve requests

# -- supervised fleet (repro.parallel.supervised) ----------------------------------

FLEET_WORKER_CRASHES = "fleet.worker_crashes"    # counter
FLEET_WORKER_HANGS = "fleet.worker_hangs"        # counter
FLEET_WORKER_RESPAWNS = "fleet.worker_respawns"  # counter
FLEET_TASKS_POISONED = "fleet.tasks_poisoned"    # counter
FLEET_TASK_RETRIES = "fleet.task_retries"        # counter
FLEET_RESPAWN_SECONDS = "fleet.respawn_seconds"  # histogram: kill+spawn time
FLEET_HEARTBEAT_GAP_SECONDS = "fleet.heartbeat_gap_seconds"  # histogram
FLEET_WORKER_DELTAS = "fleet.worker_deltas"      # counter: deltas merged back

# -- service client (repro.service.client) -----------------------------------------

CLIENT_REJECTED_RETRIES = "client.rejected_retries"  # counter: backoff retries

# -- histogram bucket bounds -------------------------------------------------------

#: Upper bucket bounds (seconds) for latency-shaped histograms.  A
#: ``+Inf`` bucket is implicit; counts are per-bucket (non-cumulative)
#: internally and cumulated only at Prometheus export time.
LATENCY_BUCKETS = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0,
)

#: Upper bounds for small-integer size histograms (batch sizes).
SIZE_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0)

#: The fallback for histogram names not listed in :data:`BUCKETS`.
DEFAULT_BUCKETS = LATENCY_BUCKETS

#: Fixed, deterministic bucket bounds per histogram metric name.
BUCKETS = {
    SERVICE_BATCH_SIZE: SIZE_BUCKETS,
    SERVICE_REQUEST_SECONDS: LATENCY_BUCKETS,
    FLEET_RESPAWN_SECONDS: LATENCY_BUCKETS,
    FLEET_HEARTBEAT_GAP_SECONDS: LATENCY_BUCKETS,
}


def buckets_for(name: str) -> tuple:
    """The catalog bounds for histogram ``name`` (never empty)."""
    return BUCKETS.get(name, DEFAULT_BUCKETS)
