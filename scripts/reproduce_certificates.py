#!/usr/bin/env python3
"""Run the four reference certificate searches and print the identities.

Also reports, for each certificate, which polynomial factors q(k) split off
every g entry (the strict antidifference shape), and cross-checks the partial
sums against direct summation.

Run: python scripts/reproduce_certificates.py
"""

import time

from rc.exactmath import Poly
from rc.telescoper import REFERENCE_SEARCHES, certify, check_hl_mode, partial_sum, pretty

K = Poly([0, 1])
FACTOR_CANDIDATES = [("k", K), ("2k", 2 * K), ("k^2", K * K), ("k-1", K - 1)]


def main():
    for search in REFERENCE_SEARCHES:
        lo, hi = search.window
        t0 = time.perf_counter()
        cert = search.find()
        elapsed = time.perf_counter() - t0
        if cert is None:
            print(f"NOT FOUND: {search.p} over window {lo}..{hi}")
            continue
        report = certify(cert)
        print("=" * 72)
        print(f"weight {search.p}, window {lo}..{hi}, solved in {elapsed * 1000:.0f} ms")
        print(pretty(cert))
        print(f"certified: symbolic={report.symbolic_ok} numeric(n<=200)={report.numeric_ok}")

        seq, p = search.seq, search.p
        sa, sb = cert.target_shifts
        direct = sum(p(k) * seq.term(k + sa) * seq.term(k + sb) for k in range(10))
        assert direct == partial_sum(cert, 10)
        print(f"partial sum check at n=10: {direct}")

        splits = [name for name, q in FACTOR_CANDIDATES if check_hl_mode(cert, q)]
        print(f"strict factors q with q | every g: {', '.join(splits) if splits else 'none'}")
    print("=" * 72)


if __name__ == "__main__":
    main()
