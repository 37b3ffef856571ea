#!/usr/bin/env python3
"""Find the four bundled telescoping certificates and print the identities.

Also reports, for each certificate, which polynomial factors q(k) split off
every g entry (the strict antidifference shape), and cross-checks the partial
sums against direct summation.

Run: python scripts/reproduce_certificates.py
"""

import time

from rc.exactmath import Poly, parse_poly
from rc.sequences import get_sequence
from rc.telescoper import certify, check_hl_mode, find_telescoper, partial_sum, pretty

SEARCHES = [
    ("W", "8*k+9", (0, 0), (-2, 0), 2),
    ("T", "k*(k+1)*(8*k+9)", (0, 1), (-1, 0), 4),
    ("T", "k*(k+1)*(8*k+9)", (0, 1), (0, 1), 4),
    ("T", "(k+1)*(16*k+21)", (0, 1), (-1, 0), 6),
]

K = Poly([0, 1])
FACTOR_CANDIDATES = [("k", K), ("2k", 2 * K), ("k^2", K * K), ("k-1", K - 1)]


def main():
    for seq_name, p_text, target, window, deg in SEARCHES:
        p = parse_poly(p_text)
        t0 = time.perf_counter()
        cert = find_telescoper(seq_name, seq_name, p, target, window, deg_bound=deg)
        elapsed = time.perf_counter() - t0
        if cert is None:
            print(f"NOT FOUND: {p_text} over window {window}")
            continue
        report = certify(cert)
        print("=" * 72)
        print(f"weight {p_text}, window {window[0]}..{window[1]}, solved in {elapsed * 1000:.0f} ms")
        print(pretty(cert))
        print(f"certified: symbolic={report.symbolic_ok} numeric(n<=200)={report.numeric_ok}")

        seq = get_sequence(seq_name)
        sa, sb = cert.target_shifts
        direct = sum(p(k) * seq.term(k + sa) * seq.term(k + sb) for k in range(10))
        assert direct == partial_sum(cert, 10)
        print(f"partial sum check at n=10: {direct}")

        splits = [name for name, q in FACTOR_CANDIDATES if check_hl_mode(cert, q)]
        print(f"strict factors q with q | every g: {', '.join(splits) if splits else 'none'}")
    print("=" * 72)


if __name__ == "__main__":
    main()
