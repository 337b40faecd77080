"""Element sets as int bitmasks, bit i for element i, for the tests' plain oracles.

The program holds element sets as numpy arrays; these helpers turn them into
the bitmasks that the oracles compare and combine with | and &.
"""

import numpy as np

from diagsync.psl2 import mask_elements  # noqa: F401  (the tests import it from here)


def mask_from(indices) -> int:
    """The mask of an iterable or array of element indices."""
    mask = 0
    for i in indices:
        mask |= 1 << int(i)
    return mask


def mask_of(flags) -> int:
    """The mask of a boolean vertex array: bit i is entry i."""
    return int.from_bytes(np.packbits(np.asarray(flags, dtype=bool),
                                      bitorder="little").tobytes(), "little")


def mask_array(mask: int, n: int) -> np.ndarray:
    """A mask over n elements as a boolean array: entry i is bit i."""
    data = np.frombuffer(mask.to_bytes((n + 7) // 8, "little"), dtype=np.uint8)
    return np.unpackbits(data, count=n, bitorder="little").view(bool)
