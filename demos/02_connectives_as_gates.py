"""Fuzzy connectives as quantum gates.

Complement is Pauli-X on every qubit.  Intersection needs fresh output
qubits: one Toffoli per element multiplies the amplitudes, so the output
qubit measures 1 with probability f(i) * g(i).  Union follows by De Morgan:
flip the inputs, AND them, flip the output.
"""

import numpy as np

from qfuzzy import (
    FuzzySet,
    complement,
    encode,
    intersect,
    qand,
    qnot,
    qor,
    union,
    value_marginals,
)

f = FuzzySet([0.2, 0.7, 1.0])
g = FuzzySet([0.5, 0.4, 0.3])

print("NOT as a gate vs classical complement:")
print("  gate     :", np.round(value_marginals(qnot(encode(f))), 6))
print("  classical:", np.array(complement(f).memberships))

print("\nAND via Toffolis vs pointwise product:")
conj = qand(encode(f), encode(g))
print("  register layout:", conj.layout.segments)
print("  output marginals:", np.round(value_marginals(conj), 6))
print("  classical       :", np.array(intersect(f, g).memberships))

print("\nOR by De Morgan vs probabilistic sum:")
disj = qor(encode(f), encode(g))
print("  output marginals:", np.round(value_marginals(disj), 6))
print("  classical       :", np.array(union(f, g).memberships))

print("\nconnectives chain; the register keeps its inputs and keeps growing:")
chained = qand(conj, encode(FuzzySet([0.9, 0.9, 0.9])))
print("  total qubits:", chained.state.n_qubits)
print("  marginals   :", np.round(value_marginals(chained), 6))
