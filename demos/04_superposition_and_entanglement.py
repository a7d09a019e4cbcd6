"""Beyond classical: superposed shapes, orthogonality, entanglement.

Any normalized register state is a generalized fuzzy set.  Superposing two
encoded shapes gives a set with both shapes at once; whether the result is
entangled depends on the shapes and the coefficients.  Two encoded sets are
orthogonal exactly when some element is crisply in one and crisply out of
the other, so generic shapes overlap and cannot be told apart sharply later.
"""

import math

import numpy as np

from qfuzzy import (
    FuzzySet,
    bloch_point,
    cfs_inner,
    check_orthogonality,
    encode,
    entanglement_report,
    factor_product_state,
    superpose,
)

narrow = FuzzySet([0, 0.5, 1.0, 0.5, 0])
wide = FuzzySet([0.5, 0.5, 0.5, 0.5, 0.5])

print("overlap of two shapes:", round(cfs_inner(narrow, wide), 6))
verdict = check_orthogonality(narrow, wide)
print("orthogonal?", verdict.orthogonal)

clashing = FuzzySet([1, 0.3, 0.5, 0.5, 0.5])
against = FuzzySet([0, 0.9, 0.5, 0.5, 0.5])
verdict = check_orthogonality(clashing, against)
print("crisp clash at element:", verdict.witness, "-> orthogonal:", verdict.orthogonal)

r = math.sqrt(0.5)
both = superpose([(r, narrow), (r, wide)])
print("\nsuperposed shapes: raw combination norm", round(both.pre_norm, 6))
report = entanglement_report(both)
print("per-qubit Schmidt ranks:", report.per_qubit_schmidt_ranks)
print("entangled?", not report.is_product)

bell = superpose([(r, FuzzySet([1, 0])), (r, FuzzySet([0, 1]))])
print("\ncrisp {1} + crisp {2} gives a maximally entangled pair:")
print("  amplitudes:", np.round(bell.state.amplitudes.real, 6))
print("  ranks:", entanglement_report(bell).per_qubit_schmidt_ranks)

print("\nunentangled states rotate back to a classical shape:")
phased = encode(FuzzySet([0.2, 0.8]))
report = entanglement_report(phased)
print("  recovered memberships:", np.array(report.canonical_fuzzy_set.memberships))
print("  per-qubit phases:", report.phases)
factors = factor_product_state(phased.state)
print("  per-qubit points on the sphere:")
for i, factor in enumerate(factors, start=1):
    x, y, z = bloch_point(factor)
    print(f"    qubit {i}: ({x:+.4f}, {y:+.4f}, {z:+.4f})")
