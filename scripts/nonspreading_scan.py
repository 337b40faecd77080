"""Verify the non-spreading multiset witness for every q = 1 mod 4 in range.

For each q the stabilizer-square subgroup is constructed, the coset-halving
identity is checked over every group element, and the weight-2/weight-1
multiset is verified against all (q+1)^2 distinct stabilizer translates.
The translates of a point's stabilizer are the fibres of that point's image
under the action, so both checks are counts over those fibres; twenty seeded
products check that multiplication agrees with the action.

    python scripts/nonspreading_scan.py [LIMIT]

Scans every q up to LIMIT, 49 by default.
"""

import sys
import time

from diagsync.gf import factor_prime_power
from diagsync.psl2 import PSL2
from diagsync.witnesses import spreading_witness


def main() -> int:
    limit = int(sys.argv[1]) if len(sys.argv) > 1 else 49
    for q in range(5, limit + 1):
        if q % 4 != 1 or factor_prime_power(q) is None:
            continue
        t0 = time.time()
        group = PSL2(q)
        wit = spreading_witness(group)
        print(f"q={q:3d}  |T|={group.order:6d}  lambda={wit.lam:4d}  "
              f"images={wit.distinct_images:4d}  verified={wit.verified}  "
              f"({time.time() - t0:.1f}s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
