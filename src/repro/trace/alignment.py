"""Allocation (mis)alignment effects on GPU access streams.

In the limited-copy port, allocations are no longer made by the CUDA
library, which cache-line-aligns GPU allocations.  A CPU allocation the GPU
accesses directly may start mid-line, so each coalesced 128B warp request
straddles two lines.  Under streaming access with many concurrent warps the
straddled halves are evicted before their second use, producing refetches —
the elevated cache contention of the ``*``-marked benchmarks in Fig. 5.

We model the refetch traffic as extra revisit passes over the streamed
region: each revisited block that has already left the cache becomes an
additional off-chip access, which is exactly the observed symptom.
"""

from __future__ import annotations

import numpy as np

from repro.trace.stream import AccessStream, interleave

#: Fraction of an extra sweep generated by straddled-line refetches.  With a
#: region much larger than cache, this inflates a misaligned streaming
#: stage's off-chip accesses by roughly the same fraction.
MISALIGN_EXTRA_PASSES = 0.35


def apply_misalignment(
    stream: AccessStream,
    rng: np.random.Generator,
    extra_passes: float = MISALIGN_EXTRA_PASSES,
) -> AccessStream:
    """Inflate ``stream`` with straddle refetches of already-touched blocks.

    A random ``extra_passes`` fraction of the stream's accesses is re-issued
    (reads of the neighbouring straddled line), interleaved through the
    original stream so the revisit happens at a realistic reuse distance.
    """
    if not len(stream) or extra_passes <= 0:
        return stream
    count = int(round(len(stream) * extra_passes))
    if count == 0:
        return stream
    # A straddled line's second half is re-requested when the *adjacent*
    # coalesced segment is processed — much later in the sweep, by which
    # time streaming traffic has evicted it.  Picking revisit positions
    # uniformly (unsorted) gives the refetches that long reuse distance.
    picks = rng.integers(0, len(stream), size=count)
    refetch = AccessStream(stream.blocks[picks], np.zeros(count, dtype=bool))
    return interleave([stream, refetch])
