"""Generated inputs for the four workloads.

Every workload has a fixed *job set* (the distinct compilation problems
it exercises) and runs it in whole *rounds*.  The seed drives the order
in which a round's requests are sent; the round index makes each round's
requests distinct to the content-hash caches by adding it to every
loop's trip count, which changes the cache key and the modelled cycle
count but not the schedule.  Round 0 is the job set exactly as listed.

The job mix itself is fixed on purpose: the cost of one compile spans
three orders of magnitude (DMS on 8-10 clusters takes hundreds of
milliseconds, a small kernel on IMS well under one), so a seeded mix
would let the seed, not the code under test, set the figures.
"""

from __future__ import annotations

import copy
import random
from typing import Dict, List

from repro.api import CompilationRequest
from repro.machine import clustered_vliw
from repro.service.jobs import loop_to_dict, parse_compile_payload
from repro.workloads import KERNELS, make_kernel, perfect_club_surrogate

#: Cluster counts of the batch matrix (k=1 is IMS, k>1 is DMS on a ring).
MATRIX_CLUSTERS = tuple(range(1, 11))

#: Interconnects cycled through by ``serve_mixed``.
SERVE_TOPOLOGIES = ("ring", "mesh", "crossbar")

#: Cluster counts cycled through by ``serve_mixed`` (2..8).
SERVE_CLUSTERS = tuple(range(2, 9))

#: Times each distinct ``serve_mixed`` request is sent per round (one
#: miss, then memory-tier hits).
SERVE_REPEATS = 3

#: Machines of the ``sweep_dist`` sample: 4 clusters on ring and mesh.
SWEEP_TOPOLOGIES = ("ring", "mesh")

#: Surrogate-suite loops per ``sweep_dist`` sweep (x2 machines = jobs).
SWEEP_LOOPS = 60


def matrix_requests() -> List[CompilationRequest]:
    """The 280-job kernel matrix: every kernel on 1..10 ring clusters."""
    return [
        CompilationRequest(
            loop=make_kernel(name),
            machine=clustered_vliw(k),
            equivalent_k=k,
            validate=True,
        )
        for name in sorted(KERNELS)
        for k in MATRIX_CLUSTERS
    ]


def round_order(count: int, seed: int, round_no: int) -> List[int]:
    """The seeded permutation of ``range(count)`` used by one round."""
    order = list(range(count))
    random.Random(f"{seed}:{round_no}").shuffle(order)
    return order


def _surrogate_sample(count: int) -> List[Dict[str, object]]:
    """*count* loops spread evenly over the 1258-loop surrogate suite.

    The suite lists its kernel-derived loops first and its synthetic
    loops after them, so a stride over the whole suite keeps its mix.
    """
    suite = perfect_club_surrogate()
    stride = len(suite) // count
    return [loop_to_dict(suite[i * stride]) for i in range(count)]


def serve_payloads() -> List[Dict[str, object]]:
    """The ``serve_mixed`` job set: 28 named kernels + 28 surrogate loops.

    Item *i* of each half runs on ``SERVE_CLUSTERS[i % 7]`` clusters over
    ``SERVE_TOPOLOGIES[i % 3]``; kernels travel by name, surrogate loops
    as serialized ``loop`` payloads.
    """
    payloads: List[Dict[str, object]] = []
    for i, name in enumerate(sorted(KERNELS)):
        payloads.append({
            "kernel": name,
            "kernel_args": {"trip_count": make_kernel(name).trip_count},
        })
    for loop in _surrogate_sample(len(KERNELS)):
        payloads.append({"loop": loop})
    half = len(KERNELS)
    for i, payload in enumerate(payloads):
        k = SERVE_CLUSTERS[(i % half) % len(SERVE_CLUSTERS)]
        payload["clusters"] = k
        payload["topology"] = SERVE_TOPOLOGIES[(i % half) % len(SERVE_TOPOLOGIES)]
        payload["equivalent_k"] = k
    return payloads


def sweep_payloads() -> List[Dict[str, object]]:
    """The ``sweep_dist`` job set: the surrogate sample on ring-4, mesh-4."""
    return [
        {"loop": loop, "clusters": 4, "topology": topology, "equivalent_k": 4}
        for loop in _surrogate_sample(SWEEP_LOOPS)
        for topology in SWEEP_TOPOLOGIES
    ]


def for_round(payload: Dict[str, object], round_no: int) -> Dict[str, object]:
    """*payload* made distinct for round *round_no* (trip count + round)."""
    out = copy.deepcopy(payload)
    holder = out["kernel_args"] if "kernel" in out else out["loop"]
    holder["trip_count"] = int(holder["trip_count"]) + round_no
    return out


def to_request(payload: Dict[str, object]) -> CompilationRequest:
    """The request the daemon builds from *payload*, built locally."""
    return parse_compile_payload(payload).request
