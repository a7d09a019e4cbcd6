"""The square-window fuzzifier and center-of-mass defuzzification.

Fuzzification spreads a crisp index into a window of membership-1/2
elements.  As a register map it is linear but lossy, so the norm-preserving
version remembers its input on a second register.  Defuzzification goes the
other way: a basis permutation XORs the one-hot center of mass of the first
half into the second half, and measuring the second half returns a crisp
index, probabilistically.
"""

import numpy as np

from qfuzzy import (
    FuzzySet,
    basis_state,
    classical_fuzzify,
    com_pushforward,
    defuzzify,
    encode,
    fuz_isometry,
    fuz_linear,
    u_com,
    value_marginals,
)

print("classical square window, index 3, radius 1, universe 5:")
print(" ", np.array(classical_fuzzify(3, 1, 5).memberships))

print("\nthe same window as a register map on |00100>:")
fuzzed = fuz_linear(basis_state("00100"), 1)
print("  nonzero amplitudes:", len(np.nonzero(fuzzed.amplitudes)[0]))
print("  norm:", round(fuzzed.norm(), 12))

print("\nnorm-preserving version keeps the input alongside the window:")
iso = fuz_isometry(encode(FuzzySet([0, 0, 1, 0, 0])), 1)
print("  layout:", iso.layout.segments)
print("  window marginals:", np.round(value_marginals(iso), 6))

print("\ncenter-of-mass permutation on |0110>|0000>:")
out = u_com(basis_state("01100000"))
idx = int(np.nonzero(out.amplitudes)[0][0])
print("  maps to:", format(idx, "08b"), "(one-hot index 2 XORed into the back half)")

f = FuzzySet([0.5, 0.5])
print("\ndefuzzifying the all-half set over {1, 2}:")
print("  exact pushforward:", com_pushforward(f))
counts = defuzzify(encode(f), np.random.default_rng(11), 100_000)
print("  100k trials      :", counts)
print("  (index 0 is the no-mass sentinel: the empty set was measured)")
