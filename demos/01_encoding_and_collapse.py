"""Loading a fuzzy set into a qubit register and watching it collapse.

A membership function f over {1..N} becomes an N-qubit product state: qubit
i carries sqrt(1-f(i))|0> + sqrt(f(i))|1>.  Expanded in the computational
basis, that state is a weighted superposition of every crisp subset of the
universe, and measuring it collapses onto subset S with probability
prod_{i in S} f(i) * prod_{i not in S} (1 - f(i)).
"""

import numpy as np

from qfuzzy import (
    FuzzySet,
    CrispSubset,
    encode,
    expansion_coeff,
    oracle_distribution,
    sample_distribution,
    sampling_vs_oracle,
)

f = FuzzySet([0.3, 0.6])
print("memberships:", np.array(f.memberships))

q = encode(f)
print("\nregister amplitudes (index order 00, 01, 10, 11):")
print(np.round(q.state.amplitudes.real, 6))

print("\neach amplitude is a product of per-element square roots:")
for idx in range(4):
    bits = format(idx, "02b")
    print(f"  |{bits}>  amplitude {expansion_coeff(f, CrispSubset(bits)):.6f}")

print("\nexact collapse probabilities (amplitude squared):")
for bits, p in oracle_distribution(f).items():
    print(f"  {bits}: {p:.4f}")

rng = np.random.default_rng(7)
counts = sample_distribution(q.state, rng, 100_000)
print("\n100k measured shots:")
for bits in sorted(counts):
    print(f"  {bits}: {counts[bits]}")

tv = sampling_vs_oracle(f, np.random.default_rng(7), 100_000)
print(f"\ntotal-variation distance, sampled vs exact: {tv:.4f}")
