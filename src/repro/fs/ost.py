"""Object Storage Target (OST) striping allocator.

Spider II exposes 2,016 OSTs behind 288 OSSes; every file is striped across
``stripe_count`` OSTs (default 4, maximum 1,008 after OLCF raised the limit
— Section 5 of the paper).  The simulator allocates stripes round-robin,
which is what Lustre's default QOS-less allocator approximates, and stores
only ``(start, count)`` per file; the explicit OST list for a LustreDU
record is derived on demand.
"""

from __future__ import annotations

import numpy as np

from repro.fs.errors import InvalidArgument

SPIDER_OST_COUNT = 2016
SPIDER_OSS_COUNT = 288
DEFAULT_STRIPE_COUNT = 4
MAX_STRIPE_COUNT = 1008


class OstAllocator:
    """Round-robin stripe allocator over a fixed pool of OSTs."""

    def __init__(
        self,
        ost_count: int = SPIDER_OST_COUNT,
        default_stripe: int = DEFAULT_STRIPE_COUNT,
        max_stripe: int = MAX_STRIPE_COUNT,
    ) -> None:
        if ost_count <= 0:
            raise InvalidArgument(f"ost_count must be positive, got {ost_count}")
        if not (1 <= default_stripe <= min(max_stripe, ost_count)):
            raise InvalidArgument(
                f"default stripe {default_stripe} outside [1, {min(max_stripe, ost_count)}]"
            )
        self.ost_count = int(ost_count)
        self.default_stripe = int(default_stripe)
        self.max_stripe = int(min(max_stripe, ost_count))
        self._cursor = 0

    def validate(self, stripe_count: int) -> int:
        """Clamp-free validation of a user-requested stripe count.

        Lustre accepts ``-1`` to mean "stripe over all OSTs"; we honor that.
        """
        if stripe_count == -1:
            return self.max_stripe
        if not (1 <= stripe_count <= self.max_stripe):
            raise InvalidArgument(
                f"stripe count {stripe_count} outside [1, {self.max_stripe}]"
            )
        return int(stripe_count)

    def assign(self, stripe_count: int) -> int:
        """Allocate stripes for one file; returns the starting OST index."""
        stripe_count = self.validate(stripe_count)
        start = self._cursor
        self._cursor = (self._cursor + stripe_count) % self.ost_count
        return start

    def assign_many(self, stripe_count: int, count: int) -> np.ndarray:
        """Allocate stripes for ``count`` files of one stripe count.

        Returns the starting OST indices that ``count`` calls of
        :meth:`assign` would, in closed form: file ``i`` starts
        ``i * stripe_count`` OSTs past the cursor.
        """
        stripe_count = self.validate(stripe_count)
        start = self._cursor
        end = start + count * stripe_count
        self._cursor = end % self.ost_count
        return np.arange(start, end, stripe_count, dtype=np.int64) % self.ost_count

    def stripe_indices(self, start: int, count: int) -> np.ndarray:
        """The explicit OST index list of one file (for LustreDU export)."""
        return (int(start) + np.arange(int(count))) % self.ost_count
